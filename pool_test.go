package crac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolTestOpts keeps pooled test sessions small: serial pipeline,
// shrunken lower-half arenas.
func poolTestOpts() []Option {
	return []Option{WithWorkers(1), WithArenaChunks(256<<10, 128<<10, 256<<10)}
}

// fillHost allocates one host buffer on the pooled session and fills
// it with pat.
func fillHost(t *testing.T, ps *PoolSession, size uint64, pat byte) uint64 {
	t.Helper()
	rt := ps.Session().Runtime()
	h, err := rt.HostAlloc(size)
	if err != nil {
		t.Fatalf("HostAlloc: %v", err)
	}
	if err := rt.Memset(h, pat, size); err != nil {
		t.Fatalf("Memset: %v", err)
	}
	return h
}

func hostByte(t *testing.T, ps *PoolSession, addr uint64) byte {
	t.Helper()
	b, err := ps.Session().Runtime().HostAccess(addr, 1, false)
	if err != nil {
		t.Fatalf("HostAccess: %v", err)
	}
	return b[0]
}

func TestPoolCheckpointRestart(t *testing.T) {
	ctx := context.Background()
	store := NewMemStore()
	p, err := NewPool(store, WithPoolSessionOptions(poolTestOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	type client struct {
		ps   *PoolSession
		addr uint64
		pat  byte
	}
	var clients []client
	for i, tenant := range []string{"alice", "alice", "bob"} {
		ps, err := p.Open(tenant)
		if err != nil {
			t.Fatalf("Open(%s): %v", tenant, err)
		}
		defer ps.Close()
		pat := byte(0x40 + i)
		addr := fillHost(t, ps, 64<<10, pat)
		if _, err := ps.Checkpoint(ctx, fmt.Sprintf("gen%d", i)); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		clients = append(clients, client{ps, addr, pat})
	}

	// Images are tenant-scoped in the shared store and unscoped per
	// session.
	names, err := store.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"alice--gen0": true, "alice--gen1": true, "bob--gen2": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected stored name %q", n)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("missing stored name %q", n)
	}
	imgs, err := clients[2].ps.Images(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 1 || imgs[0] != "gen2" {
		t.Errorf("bob Images = %v, want [gen2]", imgs)
	}

	// Mutate, restart, verify the checkpointed byte came back.
	for i, c := range clients {
		if err := c.ps.Session().Runtime().Memset(c.addr, 0xEE, 64<<10); err != nil {
			t.Fatal(err)
		}
		if err := c.ps.Restart(ctx, fmt.Sprintf("gen%d", i)); err != nil {
			t.Fatalf("Restart: %v", err)
		}
		if got := hostByte(t, c.ps, c.addr); got != c.pat {
			t.Errorf("client %d: restored byte %#x, want %#x", i, got, c.pat)
		}
	}

	st := p.Stats()
	if st.Checkpoints != 3 || st.Restarts != 3 {
		t.Errorf("Stats: %d checkpoints / %d restarts, want 3/3", st.Checkpoints, st.Restarts)
	}
	if st.Tenants != 2 || st.Sessions != 3 {
		t.Errorf("Stats: %d tenants / %d sessions, want 2/3", st.Tenants, st.Sessions)
	}
	if st.StoredBytes <= 0 {
		t.Errorf("Stats.StoredBytes = %d, want > 0", st.StoredBytes)
	}
	if st.CheckpointP50 <= 0 || st.CheckpointP99 < st.CheckpointP50 {
		t.Errorf("latency percentiles out of order: p50=%v p99=%v", st.CheckpointP50, st.CheckpointP99)
	}
	ts, ok := p.TenantStats("alice")
	if !ok || ts.Checkpoints != 2 || ts.Sessions != 2 {
		t.Errorf("TenantStats(alice) = %+v ok=%v, want 2 checkpoints / 2 sessions", ts, ok)
	}
	if _, ok := p.TenantStats("nobody"); ok {
		t.Error("TenantStats(nobody) reported ok")
	}
	if got := p.RetainedPages(); got != 0 {
		t.Errorf("RetainedPages = %d at rest, want 0", got)
	}
}

func TestPoolSessionQuotas(t *testing.T) {
	p, err := NewPool(NewMemStore(),
		WithPoolSessionOptions(poolTestOpts()...),
		WithPoolMaxSessions(3),
		WithPoolTenantDefaults(TenantQuota{MaxSessions: 2}),
		WithPoolTenantQuota("vip", TenantQuota{MaxSessions: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Open("bad--tenant"); err == nil {
		t.Error("Open accepted a tenant name containing the separator")
	}

	a1, err := p.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open("alice"); err != nil {
		t.Fatal(err)
	}
	// Tenant quota: alice is at MaxSessions.
	if _, err := p.Open("alice"); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("third alice session: %v, want ErrQuotaExceeded", err)
	}
	// Pool cap: one slot left, vip's own quota would allow three.
	if _, err := p.Open("vip"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open("vip"); !errors.Is(err, ErrPoolSaturated) {
		t.Errorf("open past pool cap: %v, want ErrPoolSaturated", err)
	}
	// Closing a session frees both the pool slot and the tenant slot.
	a1.Close()
	if _, err := p.Open("alice"); err != nil {
		t.Errorf("open after close: %v", err)
	}
	st := p.Stats()
	if st.RejectedQuota == 0 || st.RejectedSaturated == 0 {
		t.Errorf("rejections not counted: %+v", st)
	}
}

func TestPoolStoredBytesQuota(t *testing.T) {
	ctx := context.Background()

	// Measure one image's size with no quota in the way.
	probe, err := NewPool(NewMemStore(), WithPoolSessionOptions(poolTestOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := probe.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	fillHost(t, ps, 64<<10, 0x5A)
	if _, err := ps.Checkpoint(ctx, "probe"); err != nil {
		t.Fatal(err)
	}
	tst, _ := probe.TenantStats("t")
	imgSize := tst.StoredBytes
	probe.Close()
	if imgSize <= 0 {
		t.Fatalf("probe image size %d", imgSize)
	}

	// Budget fits one image but not two.
	store := NewMemStore()
	p, err := NewPool(store,
		WithPoolSessionOptions(poolTestOpts()...),
		WithPoolTenantDefaults(TenantQuota{MaxStoredBytes: imgSize + imgSize/2}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ps, err = p.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	fillHost(t, ps, 64<<10, 0x5A)
	if _, err := ps.Checkpoint(ctx, "gen0"); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	if _, err := ps.Checkpoint(ctx, "gen1"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-budget checkpoint: %v, want ErrQuotaExceeded", err)
	}
	// The aborted image left nothing behind (all-or-nothing Put).
	names, err := store.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "t--gen0" {
		t.Errorf("store after aborted put: %v, want [t--gen0]", names)
	}
	// Deleting the old image frees the budget.
	if err := ps.Delete(ctx, "gen0"); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Checkpoint(ctx, "gen1"); err != nil {
		t.Errorf("checkpoint after delete: %v", err)
	}
	tst, _ = p.TenantStats("t")
	if tst.StoredBytes != imgSize {
		t.Errorf("StoredBytes = %d, want %d", tst.StoredBytes, imgSize)
	}
	if tst.RejectedQuota == 0 || tst.Failures == 0 {
		t.Errorf("quota rejection not counted: %+v", tst)
	}
}

// parkStore parks every Put inside the writer until released, so tests
// can hold a checkpoint "in flight" deterministically (unlike
// gateStore, it supports many Puts).
type parkStore struct {
	Store
	entered chan struct{} // one send per Put reaching its writer
	release chan struct{} // close to let all Puts finish
}

func newParkStore(inner Store) *parkStore {
	return &parkStore{Store: inner, entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *parkStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	return g.Store.Put(ctx, name, func(w io.Writer) error {
		g.entered <- struct{}{}
		select {
		case <-g.release:
		case <-ctx.Done():
			return ctx.Err()
		}
		return write(w)
	})
}

func TestPoolInFlightQuota(t *testing.T) {
	ctx := context.Background()
	gate := newParkStore(NewMemStore())
	p, err := NewPool(gate,
		WithPoolSessionOptions(poolTestOpts()...),
		WithPoolTenantDefaults(TenantQuota{MaxInFlight: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ps1, err := p.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := p.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	fillHost(t, ps1, 32<<10, 1)
	fillHost(t, ps2, 32<<10, 2)

	done := make(chan error, 1)
	go func() {
		_, err := ps1.Checkpoint(ctx, "a")
		done <- err
	}()
	<-gate.entered // ps1's checkpoint is now writing (in flight)
	if _, err := ps2.Checkpoint(ctx, "b"); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("second in-flight checkpoint: %v, want ErrQuotaExceeded", err)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("gated checkpoint: %v", err)
	}
	// With the first cut landed the tenant may checkpoint again.
	if _, err := ps2.Checkpoint(ctx, "b"); err != nil {
		t.Errorf("checkpoint after drain: %v", err)
	}
}

// concStore counts concurrently running Puts.
type concStore struct {
	Store
	cur, peak atomic.Int32
}

func (c *concStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	n := c.cur.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer c.cur.Add(-1)
	return c.Store.Put(ctx, name, write)
}

func TestPoolStaggersCuts(t *testing.T) {
	ctx := context.Background()
	cs := &concStore{Store: NewMemStore()}
	p, err := NewPool(cs,
		WithPoolSessionOptions(poolTestOpts()...),
		WithPoolMaxConcurrentCuts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 4
	sessions := make([]*PoolSession, n)
	for i := range sessions {
		ps, err := p.Open(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		fillHost(t, ps, 32<<10, byte(i+1))
		sessions[i] = ps
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, ps := range sessions {
		wg.Add(1)
		go func(ps *PoolSession) {
			defer wg.Done()
			_, err := ps.Checkpoint(ctx, "gen0")
			errs <- err
		}(ps)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	}
	if got := cs.peak.Load(); got != 1 {
		t.Errorf("concurrent Puts peaked at %d, want 1 (cuts staggered)", got)
	}
	if st := p.Stats(); st.Checkpoints != n {
		t.Errorf("Stats.Checkpoints = %d, want %d", st.Checkpoints, n)
	}
}

func TestPoolPageBudget(t *testing.T) {
	ctx := context.Background()

	// Measure one session's cut footprint, then budget for ~1.5 of it:
	// concurrent checkpoints must stagger to stay under budget.
	probe, err := NewPool(NewMemStore(), WithPoolSessionOptions(poolTestOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	pps, err := probe.Open("t0")
	if err != nil {
		t.Fatal(err)
	}
	fillHost(t, pps, 32<<10, 1)
	perSession := pps.cutPages()
	probe.Close()
	if perSession <= 0 {
		t.Fatalf("cutPages = %d", perSession)
	}
	budget := perSession + perSession/2

	cs := &concStore{Store: NewMemStore()}
	p, err := NewPool(cs,
		WithPoolSessionOptions(poolTestOpts()...),
		WithPoolPageBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 3
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		ps, err := p.Open(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		fillHost(t, ps, 32<<10, byte(i+1))
		wg.Add(1)
		go func(ps *PoolSession) {
			defer wg.Done()
			_, err := ps.Checkpoint(ctx, "gen0")
			errs <- err
		}(ps)
	}

	// Sample live retained pages while the checkpoints run.
	stop := make(chan struct{})
	var peakRetained atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := p.RetainedPages(); n > peakRetained.Load() {
				peakRetained.Store(n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	}

	st := p.Stats()
	if st.ReservedPagePeak > budget {
		t.Errorf("reserved pages peaked at %d, budget %d", st.ReservedPagePeak, budget)
	}
	if got := peakRetained.Load(); got > budget {
		t.Errorf("live retained pages peaked at %d, budget %d", got, budget)
	}
	if got := p.RetainedPages(); got != 0 {
		t.Errorf("RetainedPages = %d after drain, want 0", got)
	}
}

func TestPoolAdmissionTimeout(t *testing.T) {
	ctx := context.Background()
	gate := newParkStore(NewMemStore())
	p, err := NewPool(gate,
		WithPoolSessionOptions(poolTestOpts()...),
		WithPoolMaxConcurrentCuts(1),
		WithPoolAdmissionTimeout(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ps1, err := p.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := p.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	fillHost(t, ps1, 32<<10, 1)
	fillHost(t, ps2, 32<<10, 2)

	done := make(chan error, 1)
	go func() {
		_, err := ps1.Checkpoint(ctx, "a")
		done <- err
	}()
	<-gate.entered
	if _, err := ps2.Checkpoint(ctx, "b"); !errors.Is(err, ErrPoolSaturated) {
		t.Errorf("stagger-queue timeout: %v, want ErrPoolSaturated", err)
	}
	// A context cancelled in the queue surfaces as ErrCancelled instead.
	cctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	_, err = ps2.Checkpoint(cctx, "c")
	cancel()
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("cancelled in queue: %v, want ErrCancelled", err)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("gated checkpoint: %v", err)
	}
	if st := p.Stats(); st.RejectedSaturated == 0 {
		t.Errorf("saturation rejection not counted: %+v", st)
	}
}

// TestPoolAdmissionCancelWinsOverTimeout: a checkpoint queued behind a
// full pool whose context is already cancelled and whose admission
// timer fires at once sees both fire; it must report ErrCancelled, never
// ErrPoolSaturated, every time.
func TestPoolAdmissionCancelWinsOverTimeout(t *testing.T) {
	ctx := context.Background()
	gate := newParkStore(NewMemStore())
	p, err := NewPool(gate,
		WithPoolSessionOptions(poolTestOpts()...),
		WithPoolMaxConcurrentCuts(1),
		WithPoolAdmissionTimeout(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ps1, err := p.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := p.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	fillHost(t, ps1, 32<<10, 1)
	fillHost(t, ps2, 32<<10, 2)
	done := make(chan error, 1)
	go func() {
		_, err := ps1.Checkpoint(ctx, "a")
		done <- err
	}()
	<-gate.entered // ps1 holds the only cut
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	bad := 0
	var last error
	for i := 0; i < 200; i++ {
		if _, err := ps2.Checkpoint(cctx, "c"); !errors.Is(err, ErrCancelled) {
			bad, last = bad+1, err
		}
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("gated checkpoint: %v", err)
	}
	if bad > 0 {
		t.Fatalf("%d of 200 checkpoints: %v, want ErrCancelled", bad, last)
	}
	if st := p.Stats(); st.RejectedSaturated != 0 {
		t.Errorf("a cancelled checkpoint was counted as a saturation rejection: %+v", st)
	}
}

func TestPoolClose(t *testing.T) {
	ctx := context.Background()
	gate := newParkStore(NewMemStore())
	p, err := NewPool(gate,
		WithPoolSessionOptions(poolTestOpts()...),
		WithPoolMaxConcurrentCuts(1))
	if err != nil {
		t.Fatal(err)
	}
	ps1, err := p.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := p.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	fillHost(t, ps1, 32<<10, 1)
	fillHost(t, ps2, 32<<10, 2)

	first := make(chan error, 1)
	go func() {
		_, err := ps1.Checkpoint(ctx, "a")
		first <- err
	}()
	<-gate.entered // ps1 holds the only cut slot
	queued := make(chan error, 1)
	go func() {
		_, err := ps2.Checkpoint(ctx, "b")
		queued <- err
	}()
	// Let ps2 reach the stagger queue, then close the pool: the queued
	// waiter is rejected, the in-flight cut is waited out.
	for {
		if st := p.Stats(); st.Waiting == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	if err := <-queued; !errors.Is(err, ErrPoolClosed) {
		t.Errorf("queued checkpoint at close: %v, want ErrPoolClosed", err)
	}
	close(gate.release)
	if err := <-first; err != nil {
		t.Errorf("in-flight checkpoint at close: %v", err)
	}
	<-closed

	if _, err := p.Open("c"); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Open after Close: %v, want ErrPoolClosed", err)
	}
	if _, err := ps1.Checkpoint(ctx, "x"); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Checkpoint after Close: %v, want ErrSessionClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
