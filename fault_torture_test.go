package crac

// Fault-injection torture (ISSUE 6): every checkpoint/restart entry
// point is driven through a store that randomly fails, tears writes,
// and flips bits, under -race in CI. The invariants:
//
//   - no silent corruption: a restore that succeeds carries exactly the
//     checkpointed bytes; everything else fails with a classified
//     sentinel (never a panic, never garbage state);
//   - the session survives its store: checkpoint failures leave it
//     usable;
//   - nothing leaks: retained snapshot pages and goroutines return to
//     baseline.
//
// The schedule is deterministic per seed; CRAC_TORTURE_SEED selects it
// and failures echo the seed for replay.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/crt"
	"repro/internal/faults"
)

func tortureSeed(t *testing.T) int64 {
	seed := int64(1)
	if v := os.Getenv("CRAC_TORTURE_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CRAC_TORTURE_SEED=%q: %v", v, err)
		}
		seed = n
	}
	t.Logf("torture seed %d (set CRAC_TORTURE_SEED to reproduce)", seed)
	return seed
}

// classified reports whether err is an acceptable injected-fault
// outcome: a CRAC sentinel or a (possibly retries-exhausted) transient.
func classified(err error) bool {
	return wantAny(err, ErrCorruptImage, ErrBadImage, ErrImageNotFound,
		ErrDeltaChain, ErrUnsupportedVersion) ||
		Transient(err) || errors.As(err, new(*faults.Error))
}

// settleGoroutines waits for the goroutine count to return to at most
// base+2 (drains and async commits shutting down).
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d running, baseline %d", n, base)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTortureFaultyStore(t *testing.T) {
	seed := tortureSeed(t)
	modes := []struct {
		name    string
		opts    []Option
		async   bool
		lazy    bool
		overlap bool // a second goroutine mutates through every checkpoint
	}{
		{name: "blocking"},
		{name: "async", async: true, overlap: true},
		{name: "delta", opts: []Option{WithIncremental(3)}},
		{name: "concurrent", overlap: true}, // blocking call, mutated through
		{name: "lazy", lazy: true},
	}
	retry := RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond, Multiplier: 2}
	const iters = 24
	const bufSize = 128 << 10

	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			baseGoroutines := runtime.NumGoroutine()
			inj := faults.New(faults.Config{
				Seed:  seed,
				Put:   faults.Rates{Transient: 0.15, Permanent: 0.05, Torn: 0.08, BitFlip: 0.08},
				Get:   faults.Rates{Transient: 0.10, Torn: 0.05, BitFlip: 0.05},
				GetAt: faults.Rates{Transient: 0.10, Torn: 0.05, BitFlip: 0.05},
			})
			// Callers retry by wrapping the store: every checkpoint,
			// listing and restart below runs through the same wrapper.
			store := WithRetry(NewFaultStore(NewMemStore(), inj), retry)
			ctx := context.Background()

			opts := append([]Option{WithWorkers(2), WithShardSize(32 << 10)}, mode.opts...)
			s, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			rt := s.Runtime()
			d, err := rt.Malloc(bufSize)
			if err != nil {
				t.Fatal(err)
			}
			host, err := rt.AppAlloc(bufSize)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := rt.Malloc(bufSize)
			if err != nil {
				t.Fatal(err)
			}

			// In the overlap modes a background mutator races the
			// checkpoint pipeline on a second buffer the content checks
			// never look at.
			quit := make(chan struct{})
			mutDone := make(chan error, 1)
			if mode.overlap {
				go func() {
					for i := 0; ; i++ {
						select {
						case <-quit:
							mutDone <- nil
							return
						default:
						}
						if err := rt.Memset(scratch, byte(i), 8192); err != nil {
							mutDone <- err
							return
						}
					}
				}()
			} else {
				mutDone <- nil
			}

			committed := map[string]byte{}
			for i := 0; i < iters; i++ {
				val := byte(i + 1)
				if err := rt.Memset(d, val, bufSize); err != nil {
					t.Fatalf("iter %d: Memset: %v (seed %d)", i, err, seed)
				}
				name := fmt.Sprintf("t%03d", i)
				var cerr error
				if mode.async {
					p, aerr := s.CheckpointAsync(ctx, store, name)
					if aerr != nil {
						cerr = aerr
					} else {
						_, cerr = p.Wait()
					}
				} else {
					_, cerr = s.CheckpointTo(ctx, store, name)
				}
				if cerr == nil {
					committed[name] = val
				} else {
					if errors.Is(cerr, ErrSessionClosed) {
						t.Fatalf("iter %d: store fault killed the session (seed %d): %v", i, seed, cerr)
					}
					if !classified(cerr) {
						t.Fatalf("iter %d: unclassified checkpoint error (seed %d): %v", i, seed, cerr)
					}
				}
			}
			close(quit)
			if err := <-mutDone; err != nil {
				t.Fatalf("mutator died (seed %d): %v", seed, err)
			}
			// The session survived every injected fault.
			if err := rt.Memset(d, 0xEE, 4096); err != nil {
				t.Fatalf("session unusable after torture (seed %d): %v", seed, err)
			}

			// Every image the store ended up holding — committed, torn,
			// or flipped — must parse clean or classify.
			names, err := store.List(ctx)
			if err != nil {
				t.Fatalf("List (seed %d): %v", seed, err)
			}
			for _, name := range names {
				img, oerr := OpenImageFrom(ctx, store, name)
				if oerr != nil {
					if !classified(oerr) {
						t.Fatalf("image %q: unclassified parse error (seed %d): %v", name, seed, oerr)
					}
					continue
				}
				if verr := img.Verify(ctx); verr != nil && !classified(verr) {
					t.Fatalf("image %q: unclassified verify error (seed %d): %v", name, seed, verr)
				}
			}

			// Committed checkpoints whose chain verifies must restore to
			// exactly the checkpointed bytes.
			restored := 0
			for name, val := range committed {
				if _, verr := VerifyChain(ctx, store, name); verr != nil {
					if !classified(verr) {
						t.Fatalf("chain %q: unclassified error (seed %d): %v", name, seed, verr)
					}
					continue
				}
				var s2 *Session
				var rerr error
				if mode.lazy {
					s2, rerr = New(WithWorkers(2))
					if rerr == nil {
						rs, aerr := s2.RestartAsync(ctx, store, name)
						if aerr != nil {
							rerr = aerr
						} else {
							_, rerr = rs.Wait()
						}
					}
				} else {
					s2, rerr = RestoreFrom(ctx, store, name, WithWorkers(2))
				}
				if rerr != nil {
					// A fresh injected Get fault, or retries exhausted: fine,
					// as long as it classifies and nothing leaks.
					if !classified(rerr) {
						t.Fatalf("restore %q: unclassified error (seed %d): %v", name, seed, rerr)
					}
					if s2 != nil {
						s2.Close()
					}
					continue
				}
				rt2 := s2.Runtime()
				if err := rt2.Memcpy(host, d, 4, crt.MemcpyDeviceToHost); err != nil {
					t.Fatalf("restore %q: readback: %v (seed %d)", name, err, seed)
				}
				w, err := crt.HostU32(rt2, host, 1)
				if err != nil {
					t.Fatal(err)
				}
				if w[0] != word(val) {
					t.Fatalf("restore %q: silent corruption: got %#x, want %#x (seed %d)", name, w[0], word(val), seed)
				}
				restored++
				s2.Close()
				if n := s2.Space().RetainedPages(); n != 0 {
					t.Fatalf("restore %q: %d retained pages leaked (seed %d)", name, n, seed)
				}
			}
			t.Logf("seed %d: %d/%d checkpoints committed, %d restored intact, %d faults injected",
				seed, len(committed), iters, restored, inj.Injected())

			s.Close()
			if n := s.Space().RetainedPages(); n != 0 {
				t.Errorf("%d retained pages leaked (seed %d)", n, seed)
			}
			settleGoroutines(t, baseGoroutines)
		})
	}
}

// TestTortureRestartSupervised runs the Supervisor's full
// detect-verify-restart loop under a hostile store, asserting it always
// lands on a usable session with uncorrupted state.
func TestTortureRestartSupervised(t *testing.T) {
	seed := tortureSeed(t)
	inj := faults.New(faults.Config{
		Seed: seed + 100,
		Put:  faults.Rates{Transient: 0.15, Torn: 0.08, BitFlip: 0.08},
		Get:  faults.Rates{Transient: 0.08},
	})
	store := NewFaultStore(NewMemStore(), inj)
	f := newSVFixture(t, store, inj, nil)
	ctx := context.Background()

	lastCommitted := byte(0)
	for i := 0; i < 20; i++ {
		val := byte(i + 1)
		f.mutate(val)
		if err := f.sv.Checkpoint(ctx); err == nil {
			lastCommitted = val
		} else if !classified(err) && !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("iter %d: unclassified checkpoint error (seed %d): %v", i, seed, err)
		}
		if i%5 == 4 {
			f.kill()
			if err := f.sv.Recover(ctx); err != nil {
				t.Fatalf("iter %d: Recover (seed %d): %v", i, seed, err)
			}
			// Recovered state must be some committed value (or the cold
			// start's zero), never a torn/flipped in-between.
			got := f.readback()
			valid := got == 0
			for v := byte(1); v <= val && !valid; v++ {
				valid = got == word(v)
			}
			if !valid {
				t.Fatalf("iter %d: recovered to corrupt state %#x (seed %d)", i, got, seed)
			}
		}
	}
	_ = lastCommitted
	st := f.sv.Stats()
	if st.Failures != 4 {
		t.Fatalf("failures = %d, want the 4 injected kills (seed %d)", st.Failures, seed)
	}
	if st.Recoveries+st.ColdStarts < 4 {
		t.Fatalf("recoveries+cold = %d+%d, want >= 4 (seed %d)", st.Recoveries, st.ColdStarts, seed)
	}
}
