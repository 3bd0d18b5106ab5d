package crac

// Pool torture: session churn under staggered epoch cuts. A handful of
// tenants open, fill, checkpoint, restart, and close sessions against
// one Pool with a deliberately tight retained-page budget, under -race
// in CI. The invariants:
//
//   - the stagger scheduler never lets reserved or live retained pages
//     exceed the global budget, no matter how the churn interleaves;
//   - every restart sees exactly the checkpointed bytes;
//   - quota rejections are typed (ErrQuotaExceeded) and counted;
//   - at drain: zero retained pages, no goroutine leaks.
//
// The schedule is deterministic per seed; CRAC_TORTURE_SEED selects it
// (CI runs a 1/7/1337 matrix) and failures echo the seed for replay.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tortureFill is fillHost without the t.Fatal, safe off the test
// goroutine.
func tortureFill(ps *PoolSession, size uint64, pat byte) (uint64, error) {
	rt := ps.Session().Runtime()
	h, err := rt.HostAlloc(size)
	if err != nil {
		return 0, err
	}
	return h, rt.Memset(h, pat, size)
}

func TestPoolTortureLoad(t *testing.T) {
	seed := tortureSeed(t)
	baseGoroutines := runtime.NumGoroutine()
	ctx := context.Background()

	const (
		workers   = 6
		opsPerW   = 30
		fillBytes = 64 << 10
	)
	sessionOpts := poolTestOpts()

	// Probe one session's cut footprint so the budget can be expressed
	// in session multiples: 2.5x admits at most two cuts at once, which
	// keeps the stagger queue busy for the whole run.
	probePool, err := NewPool(NewMemStore(), WithPoolSessionOptions(sessionOpts...))
	if err != nil {
		t.Fatal(err)
	}
	pps, err := probePool.Open("probe")
	if err != nil {
		t.Fatal(err)
	}
	fillHost(t, pps, fillBytes, 0x11)
	perSession := pps.cutPages()
	if err := probePool.Close(); err != nil {
		t.Fatal(err)
	}
	budget := 2*perSession + perSession/2

	pool, err := NewPool(NewMemStore(),
		WithPoolSessionOptions(sessionOpts...),
		WithPoolPageBudget(budget),
		WithPoolMaxConcurrentCuts(3),
		WithPoolTenantDefaults(TenantQuota{MaxSessions: 2}))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("page budget %d (2.5 x %d/session)", budget, perSession)

	// Sample live retained pages while the churn runs; the scheduler
	// must keep them under the budget at every instant.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var livePeak atomic.Int64
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := pool.RetainedPages(); n > livePeak.Load() {
				livePeak.Store(n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	type liveSession struct {
		ps       *PoolSession
		addr     uint64
		pat      byte // current memory contents
		img      string
		imgPat   byte // contents captured by img
		hasImage bool
	}
	var (
		wantQuotaRejects atomic.Int64
		wantCheckpoints  atomic.Int64
		wantRestarts     atomic.Int64
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("w%d", w)
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			var live []*liveSession
			gen := 0
			fail := func(format string, args ...any) {
				errCh <- fmt.Errorf("worker %d (seed %d): %s", w, seed, fmt.Sprintf(format, args...))
			}
			open := func() bool {
				ps, err := pool.Open(tenant)
				if err != nil {
					fail("open: %v", err)
					return false
				}
				pat := byte(rng.Intn(256))
				addr, err := tortureFill(ps, fillBytes, pat)
				if err != nil {
					fail("fill: %v", err)
					return false
				}
				live = append(live, &liveSession{ps: ps, addr: addr, pat: pat})
				return true
			}
			if !open() {
				return
			}
			for op := 0; op < opsPerW; op++ {
				idx := rng.Intn(len(live))
				ls := live[idx]
				switch k := rng.Intn(10); {
				case k <= 1: // churn: open up to quota, else close one
					if len(live) < 2 {
						if !open() {
							return
						}
					} else {
						ls.ps.Close()
						live = append(live[:idx], live[idx+1:]...)
					}
				case k == 2: // poke the session quota from over the line
					if len(live) == 2 {
						if _, err := pool.Open(tenant); !errors.Is(err, ErrQuotaExceeded) {
							fail("open over quota: got %v, want ErrQuotaExceeded", err)
							return
						}
						wantQuotaRejects.Add(1)
					}
				case k <= 6: // mutate + checkpoint
					pat := byte(rng.Intn(256))
					if err := ls.ps.Session().Runtime().Memset(ls.addr, pat, fillBytes); err != nil {
						fail("memset: %v", err)
						return
					}
					ls.pat = pat
					name := fmt.Sprintf("g%d", gen)
					gen++
					if _, err := ls.ps.Checkpoint(ctx, name); err != nil {
						fail("checkpoint %q: %v", name, err)
						return
					}
					wantCheckpoints.Add(1)
					ls.img, ls.imgPat, ls.hasImage = name, pat, true
				default: // restart from the session's own last image
					if !ls.hasImage {
						continue
					}
					if err := ls.ps.Restart(ctx, ls.img); err != nil {
						fail("restart %q: %v", ls.img, err)
						return
					}
					wantRestarts.Add(1)
					b, err := ls.ps.Session().Runtime().HostAccess(ls.addr, 1, false)
					if err != nil {
						fail("read back: %v", err)
						return
					}
					if b[0] != ls.imgPat {
						fail("restart %q: byte %#x, want %#x", ls.img, b[0], ls.imgPat)
						return
					}
					ls.pat = ls.imgPat
				}
			}
			for _, ls := range live {
				ls.ps.Close()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if n := pool.RetainedPages(); n != 0 {
		t.Errorf("retained pages at drain: %d, want 0", n)
	}
	st := pool.Stats()
	if st.ReservedPagePeak > budget {
		t.Errorf("reserved pages peaked at %d, over the %d budget", st.ReservedPagePeak, budget)
	}
	if peak := livePeak.Load(); peak > budget {
		t.Errorf("live retained pages peaked at %d, over the %d budget", peak, budget)
	}
	if st.ReservedPages != 0 || st.InFlight != 0 || st.Waiting != 0 {
		t.Errorf("pool not drained: %+v", st)
	}
	if st.Checkpoints != uint64(wantCheckpoints.Load()) || st.Restarts != uint64(wantRestarts.Load()) {
		t.Errorf("op counts: %d checkpoints / %d restarts, want %d / %d",
			st.Checkpoints, st.Restarts, wantCheckpoints.Load(), wantRestarts.Load())
	}
	if st.RejectedQuota != uint64(wantQuotaRejects.Load()) {
		t.Errorf("quota rejections: %d, want %d", st.RejectedQuota, wantQuotaRejects.Load())
	}
	if st.Failures != 0 || st.RejectedSaturated != 0 {
		t.Errorf("unexpected failures/saturation: %+v", st)
	}

	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, baseGoroutines)
}
