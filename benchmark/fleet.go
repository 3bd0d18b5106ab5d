package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"

	crac "repro"
	"repro/internal/addrspace"
)

// fleetHTTP: one crac.Pool over an HTTPStore talking to a loopback
// ServeStore(MemStore); 64 small sessions (256 KiB pinned host + 128 KiB
// device, shrunken arenas, concurrent checkpoints) over 8 tenants.
// Each client goroutine owns a disjoint share of the sessions and
// loops: mutate 8 KiB, then checkpoint (3 in 4, deleting generation
// g−2) or restart from the previous generation (1 in 4). Payload is
// negligible; what is measured is the fixed cost of an operation:
// admission, cut arming, framing a tiny image, one HTTP round trip.
// CAS is not stacked here: see README.md, open findings.
type fleetHTTP struct {
	pool    *crac.Pool
	mem     *crac.MemStore
	http    *crac.HTTPStore
	timed   *timedStore
	srv     *loopback
	clients []*fleetClient
}

type fleetSession struct {
	ps   *crac.PoolSession
	x    *sess
	id   int
	gen  int    // generations checkpointed so far
	live uint64 // payload of the last checkpoint
}

type fleetClient struct {
	sessions []*fleetSession
	rng      *rand.Rand
	orng     *rand.Rand
	next     int
}

const (
	fleetSessions = 64
	fleetTenants  = 8
	fleetHostBuf  = 256 << 10
	fleetDevBuf   = 128 << 10
	fleetMutate   = 8 << 10
)

func fleetSessionOpts() []crac.Option {
	return []crac.Option{
		crac.WithWorkers(1),
		crac.WithArenaChunks(256<<10, 128<<10, 256<<10),
		crac.WithConcurrentCheckpoint(),
	}
}

func fleetTenant(i int) string { return fmt.Sprintf("tenant%02d", i%fleetTenants) }

func (w *fleetHTTP) setup(e *env) error {
	w.mem = crac.NewMemStore()
	var err error
	if w.srv, err = serveLoopback(crac.ServeStore(w.mem), 2*e.clients); err != nil {
		return err
	}
	w.http, err = crac.NewHTTPStore(w.srv.url, crac.WithHTTPClient(w.srv.client))
	if err != nil {
		return err
	}
	var store crac.Store = w.http
	w.timed = nil
	if e.traced {
		w.timed = newTimedStore(w.http, levelOnly)
		store = w.timed
	}

	// The retained-page budget admits eight cuts at once.
	pages, err := fleetSessionPages()
	if err != nil {
		return err
	}
	w.pool, err = crac.NewPool(store,
		crac.WithPoolSessionOptions(fleetSessionOpts()...),
		crac.WithPoolPageBudget(8*pages))
	if err != nil {
		return err
	}
	w.clients = make([]*fleetClient, e.clients)
	for c := range w.clients {
		w.clients[c] = &fleetClient{
			rng:  rand.New(rand.NewSource(e.seed + int64(c)<<32)),
			orng: rand.New(rand.NewSource(e.seed ^ 0x5eed + int64(c)<<32)),
		}
	}
	for i := 0; i < fleetSessions; i++ {
		c := w.clients[i%e.clients]
		ps, err := w.pool.Open(fleetTenant(i))
		if err != nil {
			return fmt.Errorf("fleet_http: opening session %d: %w", i, err)
		}
		x, err := newSess(ps.Session())
		if err != nil {
			return err
		}
		if err := fleetFill(x, c.rng); err != nil {
			return err
		}
		c.sessions = append(c.sessions, &fleetSession{ps: ps, x: x, id: i})
	}
	return nil
}

// fleetSessionPages is one fleet session's mapped footprint in pages —
// the unit a pool's retained-page budget is counted in — measured on a
// throwaway session.
func fleetSessionPages() (int64, error) {
	s, err := crac.New(fleetSessionOpts()...)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	x, err := newSess(s)
	if err != nil {
		return 0, err
	}
	if err := fleetFill(x, rand.New(rand.NewSource(1))); err != nil {
		return 0, err
	}
	sp := s.Space()
	return int64((sp.MappedBytes(addrspace.HalfUpper) + sp.MappedBytes(addrspace.HalfLower)) / addrspace.PageSize), nil
}

// fleetFill gives one session its working set.
func fleetFill(x *sess, rng *rand.Rand) error {
	for _, a := range []struct {
		size  uint64
		alloc func(uint64) (uint64, error)
	}{{fleetHostBuf, x.rt.HostAlloc}, {fleetDevBuf, x.rt.Malloc}} {
		addr, err := a.alloc(a.size)
		if err != nil {
			return err
		}
		b := x.m.add(addr, a.size)
		if err := x.fill(b, 0, b.size, byte(rng.Intn(256))); err != nil {
			return err
		}
	}
	return nil
}

func (fs *fleetSession) name(gen int) string { return fmt.Sprintf("s%02d-g%d", fs.id, gen) }

var fleetSpans = ckptSpans{queue: "pool.queue", commit: "netstore.rtt"}

func (w *fleetHTTP) run(e *env, b *budget) ([]*recorder, error) {
	recs := make([]*recorder, len(w.clients))
	errs := make([]error, len(w.clients))
	// With a fixed iteration count every client runs its share.
	share := *b
	share.iters = (b.iters + len(w.clients) - 1) / len(w.clients)
	var wg sync.WaitGroup
	for c, cl := range w.clients {
		recs[c] = &recorder{}
		wg.Add(1)
		go func(c int, cl *fleetClient) {
			defer wg.Done()
			for i := 0; share.more(i); i++ {
				if errs[c] = cl.step(e, recs[c]); errs[c] != nil {
					return
				}
			}
		}(c, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// step is one closed-loop operation of one client on its next session.
func (cl *fleetClient) step(e *env, rec *recorder) error {
	fs := cl.sessions[cl.next%len(cl.sessions)]
	cl.next++
	x := fs.x
	for _, b := range x.m.bufs {
		off := uint64(cl.rng.Intn(len(b.pages))) * pageSize
		if err := x.fill(b, off, fleetMutate/2, byte(cl.rng.Intn(256))); err != nil {
			return err
		}
	}
	if err := x.appPhase(e, rec, cl.rng, 1); err != nil {
		return err
	}
	if fs.gen > 0 && cl.rng.Intn(4) == 0 {
		name := fs.name(fs.gen - 1)
		err := timedRestart(e, rec, x, fs.live, func(ctx context.Context) error {
			return fs.ps.Restart(ctx, name)
		})
		if err != nil {
			return fmt.Errorf("fleet_http: restart %s: %w", name, err)
		}
		if err := x.m.rollback(name); err != nil {
			return err
		}
		return checkContent(rec, x, cl.orng)
	}
	name := fs.name(fs.gen)
	st, err := timedCheckpoint(e, rec, true, fleetSpans, func(ctx context.Context) (crac.Stats, error) {
		return fs.ps.Checkpoint(ctx, name)
	})
	if err != nil {
		return fmt.Errorf("fleet_http: checkpoint %s: %w", name, err)
	}
	fs.live = payload(st)
	x.m.commit(name)
	fs.gen++
	if fs.gen >= 3 {
		old := fs.name(fs.gen - 3)
		if err := fs.ps.Delete(e.ctx, old); err != nil {
			return fmt.Errorf("fleet_http: delete %s: %w", old, err)
		}
		x.m.forget(old)
	}
	return nil
}

// stored sums the images the server's MemStore holds against the live
// payload of the sessions they belong to.
func (w *fleetHTTP) stored(e *env) (held, live uint64, err error) {
	for _, cl := range w.clients {
		for _, fs := range cl.sessions {
			live += fs.live
		}
	}
	held, err = storeBytes(e.ctx, w.mem)
	return held, live, err
}

func (w *fleetHTTP) arm(on bool) { w.timed.arm(on) }

func (w *fleetHTTP) layers() (storeTimes, storeTimes) {
	t := w.timed.totals()
	return t, t
}

// target is the first session with an image; its name is scoped the way
// the pool scopes it inside the shared store.
func (w *fleetHTTP) target() (*sess, crac.Store, string) {
	for _, cl := range w.clients {
		for _, fs := range cl.sessions {
			if fs.gen > 0 {
				return fs.x, w.http, fleetTenant(fs.id) + "--" + fs.name(fs.gen-1)
			}
		}
	}
	return nil, nil, ""
}

func (w *fleetHTTP) close() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

// loopback is an HTTP server on 127.0.0.1 with a client of its own, so
// stopping it leaves no goroutine and no connection behind.
type loopback struct {
	url    string
	client *http.Client
	srv    *http.Server
	tr     *http.Transport
	served chan struct{} // closed when the serving goroutine has returned
}

func serveLoopback(h http.Handler, idleConns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h},
		tr: &http.Transport{MaxIdleConnsPerHost: idleConns}, served: make(chan struct{})}
	l.client = &http.Client{Transport: l.tr}
	go func() {
		defer close(l.served)
		l.srv.Serve(ln) // returns once stop closes the server
	}()
	return l, nil
}

func (l *loopback) stop() {
	l.srv.Close()
	<-l.served
	l.tr.CloseIdleConnections()
}
