package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	crac "repro"
	"repro/internal/addrspace"
)

func init() {
	register(&Experiment{
		ID:    "load",
		Title: "Multi-tenant pool under load: checkpoint latency percentiles at N concurrent sessions",
		Paper: "beyond the paper: fleet-level serving — hundreds of sessions share one store, one pipeline worker budget, and one global retained-page budget, with staggered epoch cuts",
		Run:   runLoad,
	})
}

// loadSeed keeps the generated op mix identical across runs, so two
// tables compare like with like.
const loadSeed = 1

// loadSessionOpts keeps each pooled session small enough that hundreds
// of them fit one machine: serial per-session pipeline (the pool's
// shared budget provides the parallelism) and shrunken lower-half
// arenas. Cuts genuinely retain copy-on-write pages — which is what the
// pool's page budget governs.
func loadSessionOpts() []crac.Option {
	return []crac.Option{
		crac.WithWorkers(1),
		crac.WithArenaChunks(256<<10, 128<<10, 256<<10),
	}
}

const (
	loadHostBuf    = 32 << 10
	loadDevBuf     = 16 << 10
	loadOpsPerSess = 4 // one base checkpoint + three mutate/checkpoint-or-restart ops
)

// loadFill gives one session its working set.
func loadFill(s *crac.Session, pat byte) (host, dev uint64, err error) {
	rt := s.Runtime()
	if host, err = rt.HostAlloc(loadHostBuf); err != nil {
		return 0, 0, err
	}
	if err = rt.Memset(host, pat, loadHostBuf); err != nil {
		return 0, 0, err
	}
	if dev, err = rt.Malloc(loadDevBuf); err != nil {
		return 0, 0, err
	}
	if err = rt.Memset(dev, pat^0xFF, loadDevBuf); err != nil {
		return 0, 0, err
	}
	return host, dev, nil
}

// durSample collects restart latencies (checkpoint latencies come from
// the pool's own sketch).
type durSample struct {
	mu sync.Mutex
	ds []time.Duration
}

func (s *durSample) add(d time.Duration) {
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
}

func (s *durSample) quantile(q float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ds) == 0 {
		return 0
	}
	sort.Slice(s.ds, func(i, j int) bool { return s.ds[i] < s.ds[j] })
	idx := int(q*float64(len(s.ds)-1) + 0.5)
	return s.ds[idx]
}

// runLoad drives N concurrent sessions (500 at full scale) through a
// seeded checkpoint/restart/mutate mix against one Pool and reports
// the latency distribution and aggregate throughput. The run fails —
// turning the bench trajectory and tier-1's experiment sweep into an
// enforcement point — if live retained pages or the scheduler's
// reservation ever exceed the configured global budget, or if any
// pages remain retained at drain.
func runLoad(opt Options) ([]*Table, error) {
	sessions := int(500*opt.EffScale() + 0.5)
	if sessions < 48 {
		sessions = 48
	}
	tenants := 16
	if sessions < tenants {
		tenants = sessions
	}
	ctx := context.Background()

	// Probe one session's mapped footprint: the budget is expressed in
	// multiples of it, so the stagger scheduler admits ~8 cuts at once.
	probe, err := crac.New(loadSessionOpts()...)
	if err != nil {
		return nil, err
	}
	if _, _, err := loadFill(probe, 0x11); err != nil {
		probe.Close()
		return nil, err
	}
	sp := probe.Space()
	mapped := sp.MappedBytes(addrspace.HalfUpper) + sp.MappedBytes(addrspace.HalfLower)
	probe.Close()
	perSession := int64((mapped + addrspace.PageSize - 1) / addrspace.PageSize)
	budget := 8 * perSession

	pool, err := crac.NewPool(crac.NewMemStore(),
		crac.WithPoolSessionOptions(loadSessionOpts()...),
		crac.WithPoolPageBudget(budget))
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	type client struct {
		ps        *crac.PoolSession
		host, dev uint64
		rng       *rand.Rand
	}
	clients := make([]*client, sessions)
	for i := range clients {
		ps, err := pool.Open(fmt.Sprintf("tenant%02d", i%tenants))
		if err != nil {
			return nil, fmt.Errorf("load: opening session %d: %w", i, err)
		}
		host, dev, err := loadFill(ps.Session(), byte(i))
		if err != nil {
			return nil, fmt.Errorf("load: filling session %d: %w", i, err)
		}
		clients[i] = &client{ps: ps, host: host, dev: dev,
			rng: rand.New(rand.NewSource(loadSeed + int64(i)))}
	}
	opt.logf("load: %d sessions across %d tenants, page budget %d (%d/session)",
		sessions, tenants, budget, perSession)

	// Sample live retained pages while the fleet churns: the stagger
	// scheduler must keep them under the global budget.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var peakRetained atomic.Int64
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := pool.RetainedPages(); n > peakRetained.Load() {
				peakRetained.Store(n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var (
		ckptBytes    atomic.Int64 // payload through the checkpoint pipeline
		restartBytes atomic.Int64 // payload restored by restarts
		restarts     durSample
		payloadMu    sync.Mutex
		payload      = map[string]int64{} // per-image payload, for restart accounting
	)
	errCh := make(chan error, sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			rt := c.ps.Session().Runtime()
			gens := 0
			checkpoint := func() error {
				name := fmt.Sprintf("s%03d-g%d", ci, gens)
				st, err := c.ps.Checkpoint(ctx, name)
				if err != nil {
					return fmt.Errorf("session %d checkpoint %q: %w", ci, name, err)
				}
				bytes := int64(st.RegionBytes + st.SectionBytes)
				ckptBytes.Add(bytes)
				payloadMu.Lock()
				payload[name] = bytes
				payloadMu.Unlock()
				gens++
				return nil
			}
			if err := checkpoint(); err != nil {
				errCh <- err
				return
			}
			for op := 1; op < loadOpsPerSess; op++ {
				if err := rt.Memset(c.host, byte(op), loadHostBuf); err != nil {
					errCh <- err
					return
				}
				if err := rt.Memset(c.dev, byte(op+1), loadDevBuf); err != nil {
					errCh <- err
					return
				}
				if c.rng.Intn(4) == 0 {
					name := fmt.Sprintf("s%03d-g%d", ci, gens-1)
					t0 := time.Now()
					if err := c.ps.Restart(ctx, name); err != nil {
						errCh <- fmt.Errorf("session %d restart %q: %w", ci, name, err)
						return
					}
					restarts.add(time.Since(t0))
					payloadMu.Lock()
					restartBytes.Add(payload[name])
					payloadMu.Unlock()
				} else if err := checkpoint(); err != nil {
					errCh <- err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	sampler.Wait()
	close(errCh)
	for err := range errCh {
		return nil, err
	}

	st := pool.Stats()
	if st.ReservedPagePeak > budget {
		return nil, fmt.Errorf("load: reserved pages peaked at %d, over the %d budget", st.ReservedPagePeak, budget)
	}
	if peak := peakRetained.Load(); peak > budget {
		return nil, fmt.Errorf("load: live retained pages peaked at %d, over the %d budget", peak, budget)
	}
	if n := pool.RetainedPages(); n != 0 {
		return nil, fmt.Errorf("load: %d pages still retained at drain", n)
	}
	if st.RejectedQuota != 0 || st.RejectedSaturated != 0 || st.Failures != 0 {
		return nil, fmt.Errorf("load: unexpected rejections/failures: %+v", st)
	}

	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
	}
	mbps := func(n int64) string {
		return fmt.Sprintf("%.1f", float64(n)/(1<<20)/wall.Seconds())
	}
	tab := &Table{
		ID:    "load",
		Title: fmt.Sprintf("Pool load: %d concurrent sessions, checkpoint/restart/mutate mix", sessions),
		Columns: []string{"Op", "p50 (ms)", "p95 (ms)", "p99 (ms)",
			"Ops", "MB/s"},
	}
	tab.AddRow("checkpoint", ms(st.CheckpointP50), ms(st.CheckpointP95), ms(st.CheckpointP99),
		fmt.Sprint(st.Checkpoints), mbps(ckptBytes.Load()))
	tab.AddRow("restart", ms(restarts.quantile(0.50)), ms(restarts.quantile(0.95)), ms(restarts.quantile(0.99)),
		fmt.Sprint(st.Restarts), mbps(restartBytes.Load()))
	tab.Note("%d sessions x %d ops over %d tenants in %.2fs; retained-page budget %d (8x%d/session), reserved peak %d, live peak %d; aggregate %.1f MB/s through the pipeline; 0 rejections",
		sessions, loadOpsPerSess, tenants, wall.Seconds(), budget, perSession,
		st.ReservedPagePeak, peakRetained.Load(),
		float64(ckptBytes.Load()+restartBytes.Load())/(1<<20)/wall.Seconds())
	return []*Table{tab}, nil
}
