package crac

// Acceptance tests for the restart route: the visible phase reads only
// metadata and the replay log, shards fault in on first access, and the
// rest drains in the background — with post-drain memory byte-identical
// to the source session's own state at the checkpoint's cut (DESIGN.md
// invariant 11). The reference never runs through the restorer: it is
// the source, snapshotted before it restarts.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// sessionSnapshot checkpoints the session to a buffer (a standalone
// image, blocking) — the canonical "what does memory hold" probe: it reads every
// restored byte through the fault path.
func sessionSnapshot(t testing.TB, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLazyRestartByteIdentity checks that a restart, once drained,
// leaves the session byte-identical to its own state at the cut —
// from a standalone image and from an incremental chain whose shards
// resolve from base and deltas. The gzip, v1 and v2 rows store the
// image with the retired gzip flag bit or under a retired format
// version instead: the restart is refused before teardown, and the
// session stays byte-identical to the cut all the same.
func TestLazyRestartByteIdentity(t *testing.T) {
	cases := []struct {
		name    string
		opts    []Option
		chain   bool
		gzipBit bool // store the image with the retired gzip flag bit
		retired byte // a retired version digit to store the image under
	}{
		{"standalone", nil, false, false, 0},
		{"standalone-gzip", nil, false, true, 0},
		{"v3-chain", []Option{WithIncremental(8), WithShardSize(64 << 10)}, true, false, 0},
		{"v1", nil, false, false, '1'},
		{"v1-gzip", nil, false, true, '1'},
		{"v2", nil, false, false, '2'},
		{"v2-gzip", nil, false, true, '2'},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithWorkers(0)}, tc.opts...)
			s, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			w := newIncrWorkload(t, s.Runtime())
			store := NewMemStore()
			ctx := context.Background()
			tip := "gen0"
			if _, err := s.CheckpointTo(ctx, store, tip); err != nil {
				t.Fatal(err)
			}
			if tc.chain {
				for round := 1; round <= 3; round++ {
					w.step(t, round)
					tip = fmt.Sprintf("gen%d", round)
					if _, err := s.CheckpointTo(ctx, store, tip); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Reference: the source itself, at the cut.
			want := sessionSnapshot(t, s)
			if tc.gzipBit || tc.retired != 0 {
				img := conformGet(t, store, tip)
				if tc.gzipBit {
					img = gzipFlagged(img)
				}
				if tc.retired != 0 {
					img = retiredImage(img, tc.retired)
				}
				putBytes(t, store, tip, img)
				if _, err := s.RestartAsync(ctx, store, tip); !errors.Is(err, ErrUnsupportedVersion) {
					t.Fatalf("RestartAsync from a retired image = %v, want ErrUnsupportedVersion", err)
				}
				if got := sessionSnapshot(t, s); !bytes.Equal(want, got) {
					t.Fatal("a refused restart changed the session")
				}
				return
			}

			// Restart the source in place.
			p, err := s.RestartAsync(ctx, store, tip)
			if err != nil {
				t.Fatal(err)
			}
			// Touch a few bytes through the fault path before the drain.
			if _, err := s.Runtime().HostAccess(w.host[3]+777, 64, false); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Runtime().HostAccess(w.dev[1]+incrBufSize/2, 64, false); err != nil {
				t.Fatal(err)
			}
			st, err := p.Wait()
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			if st.RestoreVisibleDuration <= 0 || st.RestoreDuration < st.RestoreVisibleDuration {
				t.Fatalf("restore stats not split: %+v", st)
			}
			if cold := s.Space().ColdBytes(); cold != 0 {
				t.Fatalf("%d bytes still cold after drain", cold)
			}
			got := sessionSnapshot(t, s)
			if !bytes.Equal(want, got) {
				t.Fatalf("restored memory differs from the state at the cut (%d vs %d image bytes)", len(got), len(want))
			}
		})
	}
}

// TestLazyRestartTortureByteIdentity is the invariant-11 torture test:
// after a restart, deterministic mutations interleave with racing
// readers and the background prefetcher — every access goes through
// the fault path while the drain is in flight. The drained state must
// equal the source's state at the cut followed by the same mutations.
// Run under -race in CI.
func TestLazyRestartTortureByteIdentity(t *testing.T) {
	opts := []Option{WithWorkers(0), WithShardSize(128 << 10)}
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	store := NewMemStore()
	ctx := context.Background()
	if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
		t.Fatal(err)
	}

	mutate := func(t *testing.T, w *incrWorkload) {
		for round := 0; round < 24; round++ {
			w.step(t, round+5)
			if err := w.rt.Memset(w.managed+uint64(round%32)*4096, byte(round), 2048); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Reference: the source runs the deterministic mutations on from the
	// cut, then restarts back to it.
	mutate(t, w)
	want := sessionSnapshot(t, s)

	// The same mutations run again while the prefetcher drains, with
	// reader goroutines pounding the fault path from the side.
	p, err := s.RestartAsync(ctx, store, "img")
	if err != nil {
		t.Fatal(err)
	}
	stopReaders := make(chan struct{})
	var wg sync.WaitGroup
	readErr := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 3 {
				select {
				case <-stopReaders:
					return
				default:
				}
				var addr uint64
				switch i % 3 {
				case 0:
					addr = w.host[i%incrHostBufs] + uint64(i%7)*1024
				case 1:
					addr = w.dev[i%incrDevAllocs] + uint64(i%5)*2048
				default:
					addr = w.managed + uint64(i%32)*4096
				}
				if _, err := s.Runtime().HostAccess(addr, 512, false); err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
			}
		}(g)
	}
	mutate(t, w)
	if _, err := p.Wait(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stopReaders)
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("reader failed during drain: %v", err)
	default:
	}
	got := sessionSnapshot(t, s)
	if !bytes.Equal(want, got) {
		t.Fatal("restored + mutated memory differs from the cut + the same mutations")
	}
}

// TestLazyRestartManagedLeftCold checks that the managed (UVM) side of
// a lazy restart stays cold: payload materialization neither migrates
// pages nor stamps touch epochs, so every managed page is still
// host-resident and untouched after the drain — until the application
// actually reaches it.
func TestLazyRestartManagedLeftCold(t *testing.T) {
	s, err := New(WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	store := NewMemStore()
	ctx := context.Background()
	if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
		t.Fatal(err)
	}
	p, err := s.RestartAsync(ctx, store, "img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	uvmMgr := s.Library().UVM()
	pages := uvmMgr.Stats().PagesOnHostNow + uvmMgr.Stats().PagesOnDeviceNow
	if got := uvmMgr.UntouchedHostPages(); got != pages {
		t.Fatalf("%d of %d managed pages touched by the drain", pages-got, pages)
	}
	// First real access migrates and stamps as usual.
	if _, err := s.Runtime().HostAccess(w.managed, 4096, false); err != nil {
		t.Fatal(err)
	}
	if got := uvmMgr.UntouchedHostPages(); got != pages-1 {
		t.Fatalf("after one touch: %d untouched pages, want %d", got, pages-1)
	}
}

// TestLazyRestartCancelLeavesRestorable cancels the background drain
// right after the visible phase: the remaining cold memory must keep
// materializing on demand, the drained/faulted content must match the
// state at the cut, and the session must accept a fresh (waited)
// restart afterwards. A Close mid-drain cancels it without hanging.
func TestLazyRestartCancelLeavesRestorable(t *testing.T) {
	// A workload big enough that the drain cannot win the race against
	// the immediate cancel below.
	opts := []Option{WithWorkers(0)}
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	var dev []uint64
	const allocs, allocSize = 16, 4 << 20
	for i := 0; i < allocs; i++ {
		d, err := rt.Malloc(allocSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(d, byte(0x11*i+1), allocSize); err != nil {
			t.Fatal(err)
		}
		dev = append(dev, d)
	}
	store := NewMemStore()
	if _, err := s.CheckpointTo(context.Background(), store, "img"); err != nil {
		t.Fatal(err)
	}

	want := sessionSnapshot(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	p, err := s.RestartAsync(ctx, store, "img")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := p.Wait(); err != nil {
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("drain error is not ErrCancelled: %v", err)
		}
	} else {
		// The drain won the race after all (a very slow cancel): nothing
		// left to assert about mid-flight state, but the equivalence
		// below still must hold.
		t.Log("drain completed before the cancel landed")
	}

	// On-demand materialization still works for everything the drain
	// did not reach: a full checkpoint reads every byte.
	got := sessionSnapshot(t, s)
	if !bytes.Equal(want, got) {
		t.Fatal("post-cancel memory differs from the state at the cut")
	}
	if cold := s.Space().ColdBytes(); cold != 0 {
		t.Fatalf("%d bytes cold after a full read-through", cold)
	}
	// And the session restarts again, waited, from the same store.
	if err := s.RestartFrom(context.Background(), store, "img"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, sessionSnapshot(t, s)) {
		t.Fatal("post-cancel waited restart differs")
	}
	// Close mid-drain must cancel and release without hanging.
	p, err = s.RestartAsync(context.Background(), store, "img")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	<-p.Done()
}

// TestRacingRestartsOnOneSession races a waited restart against a
// second restart of the same session, waited or not. Restarts
// serialize: the waited ones succeed (an unwaited one's drain may be
// cancelled by the restart after it), and the session ends open and
// byte-identical to its state at the cut — a second restart never
// cancels a waited one's drain into tearing down the state the second
// one just built.
func TestRacingRestartsOnOneSession(t *testing.T) {
	s, err := New(WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	const allocs, allocSize = 8, 1 << 20
	for i := 0; i < allocs; i++ {
		d, err := rt.Malloc(allocSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(d, byte(i+1), allocSize); err != nil {
			t.Fatal(err)
		}
	}
	store := NewMemStore()
	ctx := context.Background()
	if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
		t.Fatal(err)
	}
	want := sessionSnapshot(t, s)

	for _, second := range []struct {
		name    string
		restart func() error
	}{
		{"RestartFrom", func() error { return s.RestartFrom(ctx, store, "img") }},
		{"RestartAsync", func() error {
			p, err := s.RestartAsync(ctx, store, "img")
			if err != nil {
				return err
			}
			if _, err = p.Wait(); errors.Is(err, ErrCancelled) {
				return nil // the racing RestartFrom came second
			}
			return err
		}},
	} {
		t.Run(second.name, func(t *testing.T) {
			for i := 0; i < 8; i++ {
				var wg sync.WaitGroup
				var errA, errB error
				wg.Add(2)
				go func() { defer wg.Done(); errA = s.RestartFrom(ctx, store, "img") }()
				go func() { defer wg.Done(); errB = second.restart() }()
				wg.Wait()
				if errA != nil || errB != nil {
					t.Fatalf("round %d: RestartFrom = %v, %s = %v; want both to succeed", i, errA, second.name, errB)
				}
				if s.Library() == nil {
					t.Fatalf("round %d: both restarts succeeded on a closed session", i)
				}
			}
			if !bytes.Equal(want, sessionSnapshot(t, s)) {
				t.Fatal("memory after racing restarts differs from the state at the cut")
			}
		})
	}
}
