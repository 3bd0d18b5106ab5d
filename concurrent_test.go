package crac

// Acceptance tests for the snapshot-and-release checkpoint lifecycle:
// the stop-the-world window covers only drain + epoch cut +
// copy-on-write arming, and the committed image is byte-identical to
// the live-view reference at the same cut — no matter how hard the
// application mutates memory, allocates, and frees during the overlap
// (DESIGN.md invariant 10).

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crt"
	"repro/internal/dmtcp"
	"repro/internal/kernels"
)

// storeImageBytes reads the named image back out of the store.
func storeImageBytes(t testing.TB, store Store, name string) []byte {
	t.Helper()
	rc, err := store.Get(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// hammer starts mutator goroutines that pound the workload's memory —
// memsets over host and device buffers, managed-page faulting, and
// malloc/free churn — until the returned stop function is called. The
// first mutator error fails the test at stop time.
func hammer(t *testing.T, w *incrWorkload) (stop func()) {
	t.Helper()
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var firstErr atomic.Value
	fail := func(err error) {
		if err != nil {
			firstErr.CompareAndSwap(nil, err)
		}
	}
	mutators := []func(i int) error{
		func(i int) error {
			return w.rt.Memset(w.host[i%incrHostBufs], byte(i), incrBufSize)
		},
		func(i int) error {
			return w.rt.Memset(w.dev[i%incrDevAllocs]+512, byte(i+3), incrBufSize/2)
		},
		func(i int) error {
			// Fault managed pages to the host, then write them through the
			// gated Memset path: a write through HostAccess's returned view
			// would be a raw-pointer store that can span a checkpoint
			// arming unpreserved (see the HostAccess contract).
			if _, err := w.rt.HostAccess(w.managed+uint64(i%16)*4096, 4096, false); err != nil {
				return err
			}
			return w.rt.Memset(w.managed+uint64(i%16)*4096, byte(i), 4096)
		},
		func(i int) error {
			a, err := w.rt.Malloc(32 << 10)
			if err != nil {
				return err
			}
			if err := w.rt.Memset(a, byte(i), 32<<10); err != nil {
				return err
			}
			return w.rt.Free(a)
		},
	}
	for mi, m := range mutators {
		wg.Add(1)
		go func(mi int, m func(int) error) {
			defer wg.Done()
			for i := mi; ; i += 7 {
				select {
				case <-quit:
					return
				default:
				}
				if err := m(i); err != nil {
					fail(err)
					return
				}
			}
		}(mi, m)
	}
	return func() {
		close(quit)
		wg.Wait()
		if err, _ := firstErr.Load().(error); err != nil {
			t.Fatalf("mutator failed during overlap: %v", err)
		}
	}
}

// liveViewReference writes the image the engine's stop-the-world
// reference (Engine.Checkpoint / CheckpointDelta over the live address
// space, no snapshot) produces for an undisturbed session — what
// invariant 10 compares every session route against. It joins the
// session's chain exactly as a store-bound checkpoint named name would.
func liveViewReference(t *testing.T, s *Session, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if s.cfg.incremental > 0 {
		s.mu.Lock()
		prev := s.incrPrevLocked(name)
		s.mu.Unlock()
		_, _, err = s.engine.CheckpointDelta(context.Background(), &buf, s.space, prev, name)
	} else {
		_, err = s.engine.Checkpoint(context.Background(), &buf, s.space)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentCheckpointTortureByteIdentity is the invariant-10
// torture test: two sessions execute the identical deterministic
// prefix; one checkpoints and is hammered by mutators through the whole
// overlapped write, the other stays undisturbed and supplies the
// live-view reference of the same state. The committed image must be
// byte-identical to the reference — full and v3 delta alike, whether
// the checkpoint was requested through CheckpointAsync or through a
// CheckpointTo call blocking one goroutine while the others keep
// mutating — and no copy-on-write page may outlive the checkpoint. The
// full-v2-gzip rows write through the serial pipeline (WithWorkers(1))
// and check that the committed image with the retired gzip flag bit
// set is refused. Run under -race in CI.
func TestConcurrentCheckpointTortureByteIdentity(t *testing.T) {
	type input struct {
		name         string
		opts         []Option
		incremental  bool
		blockingCall bool // CheckpointTo on one goroutine instead of CheckpointAsync
		gzipBit      bool // also check the image with the retired gzip bit is refused
	}
	var inputs []input
	for _, blockingCall := range []bool{false, true} {
		suffix := ""
		if blockingCall {
			suffix = "-blocking-call"
		}
		// The full rows write standalone images; their names predate
		// the single image format.
		inputs = append(inputs,
			input{"full-v2" + suffix, nil, false, blockingCall, false},
			input{"full-v2-gzip" + suffix, []Option{WithWorkers(1)}, false, blockingCall, true},
			input{"delta-v3" + suffix, []Option{WithIncremental(8)}, true, blockingCall, false},
		)
	}
	for _, tc := range inputs {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithShardSize(64 << 10)}, tc.opts...)
			a, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			wa := newIncrWorkload(t, a.Runtime())
			wb := newIncrWorkload(t, b.Runtime())
			ctx := context.Background()
			sa, sb := NewMemStore(), NewMemStore()

			if tc.incremental {
				// Identical committed bases, then an identical sparse
				// mutation, so "gen" is a delta on both sessions.
				if _, err := a.CheckpointTo(ctx, sa, "base"); err != nil {
					t.Fatal(err)
				}
				if _, err := b.CheckpointTo(ctx, sb, "base"); err != nil {
					t.Fatal(err)
				}
				wa.step(t, 1)
				wb.step(t, 1)
			}

			var st Stats
			var werr error
			if tc.blockingCall {
				// CheckpointTo blocks its caller; the gate store reports
				// the moment the Put begins — after the cut — so the
				// mutators start inside the call, not before it.
				gs := newGateStore(sa)
				done := make(chan struct{})
				go func() {
					defer close(done)
					st, werr = a.CheckpointTo(ctx, gs, "gen")
				}()
				<-gs.entered
				stop := hammer(t, wa)
				close(gs.release)
				<-done
				stop()
			} else {
				p, err := a.CheckpointAsync(ctx, sa, "gen")
				if err != nil {
					t.Fatal(err)
				}
				// The pause window has closed: everything from here on
				// overlaps the image write.
				stop := hammer(t, wa)
				st, werr = p.Wait()
				stop()
			}
			if werr != nil {
				t.Fatal(werr)
			}

			ia := storeImageBytes(t, sa, "gen")
			ib := liveViewReference(t, b, "gen")
			if !bytes.Equal(ia, ib) {
				t.Fatalf("overlapped image differs from the live-view reference at the same cut (%d vs %d bytes)", len(ia), len(ib))
			}
			if tc.gzipBit {
				if _, err := OpenImage(bytes.NewReader(gzipFlagged(ia))); !errors.Is(err, ErrUnsupportedVersion) {
					t.Fatalf("OpenImage with the retired gzip bit = %v, want ErrUnsupportedVersion", err)
				}
			}
			if n := a.Space().RetainedPages(); n != 0 {
				t.Fatalf("%d copy-on-write pages leaked after the checkpoint", n)
			}
			if tc.incremental && !st.Delta {
				t.Fatal("expected the overlapped checkpoint to be a delta")
			}
			if st.PauseDuration <= 0 || st.PauseDuration > st.Duration {
				t.Fatalf("implausible pause split: pause=%v total=%v", st.PauseDuration, st.Duration)
			}

			// The overlapped image also restores: a fresh session from it
			// must carry the cut-time bytes, not the mutators'.
			r, err := RestoreFrom(ctx, sa, "gen")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			want := make([]byte, incrBufSize)
			got := make([]byte, incrBufSize)
			if err := b.Space().ReadAt(wb.host[0], want); err != nil {
				t.Fatal(err)
			}
			if err := r.Space().ReadAt(wb.host[0], got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatal("restored host buffer differs from the undisturbed reference")
			}
		})
	}
}

// TestConcurrentCheckpointArmsAmidMutators covers the arming window
// itself: mutators (including slice-based Memset writers that resolve
// memory before the cut) are already hammering when CheckpointAsync
// arms. armFrozen's micro-quiesce must drain them, so the run is
// race-detector clean and the committed image restores to a consistent
// state (no reference image is possible here — the cut lands at an
// arbitrary point of the mutation stream).
func TestConcurrentCheckpointArmsAmidMutators(t *testing.T) {
	s, err := New(WithShardSize(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	ctx := context.Background()
	store := NewMemStore()
	stop := hammer(t, w)
	p, err := s.CheckpointAsync(ctx, store, "gen")
	if err != nil {
		stop()
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		stop()
		t.Fatal(err)
	}
	stop()
	if n := s.Space().RetainedPages(); n != 0 {
		t.Fatalf("%d CoW pages leaked", n)
	}
	// The image restores: a Memset is atomic w.r.t. the cut (the arming
	// drained it), so each host buffer must be byte-uniform.
	r, err := RestoreFrom(ctx, store, "gen")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, incrBufSize)
	for i, h := range w.host {
		if err := r.Space().ReadAt(h, buf); err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(buf); j++ {
			if buf[j] != buf[0] {
				t.Fatalf("host buffer %d torn across the cut (byte %d: %#x vs %#x)", i, j, buf[j], buf[0])
			}
		}
	}
}

// gateStore delays Put until released, so tests can hold a checkpoint
// in its overlapped phase deterministically.
type gateStore struct {
	inner   Store
	entered chan struct{}
	release chan struct{}
}

func newGateStore(inner Store) *gateStore {
	return &gateStore{inner: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	close(g.entered)
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	return g.inner.Put(ctx, name, write)
}
func (g *gateStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	return g.inner.Get(ctx, name)
}
func (g *gateStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	return g.inner.GetAt(ctx, name)
}
func (g *gateStore) List(ctx context.Context) ([]string, error) { return g.inner.List(ctx) }
func (g *gateStore) Delete(ctx context.Context, name string) error {
	return g.inner.Delete(ctx, name)
}

// TestCheckpointAsyncInFlightGuard pins the guard rail: while one
// concurrent checkpoint is writing, a second CheckpointAsync, every
// blocking checkpoint entry point, and a restart all report the typed
// ErrCheckpointInFlight — and the pending checkpoint still commits.
func TestCheckpointAsyncInFlightGuard(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	ctx := context.Background()

	var ref bytes.Buffer
	if _, err := s.Checkpoint(ctx, &ref); err != nil {
		t.Fatal(err)
	}

	gs := newGateStore(NewMemStore())
	p, err := s.CheckpointAsync(ctx, gs, "gen0")
	if err != nil {
		t.Fatal(err)
	}
	<-gs.entered

	if _, err := s.CheckpointAsync(ctx, gs, "gen1"); !errors.Is(err, ErrCheckpointInFlight) {
		t.Fatalf("second CheckpointAsync: got %v, want ErrCheckpointInFlight", err)
	}
	if _, err := s.CheckpointTo(ctx, NewMemStore(), "x"); !errors.Is(err, ErrCheckpointInFlight) {
		t.Fatalf("CheckpointTo during overlap: got %v, want ErrCheckpointInFlight", err)
	}
	if _, err := s.Checkpoint(ctx, io.Discard); !errors.Is(err, ErrCheckpointInFlight) {
		t.Fatalf("Checkpoint during overlap: got %v, want ErrCheckpointInFlight", err)
	}
	if err := s.Restart(ctx, bytes.NewReader(ref.Bytes())); !errors.Is(err, ErrCheckpointInFlight) {
		t.Fatalf("Restart during overlap: got %v, want ErrCheckpointInFlight", err)
	}

	close(gs.release)
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := storeImageBytes(t, gs, "gen0"); len(got) == 0 {
		t.Fatal("pending checkpoint never committed")
	}
	// The guard clears: the session checkpoints again.
	if _, err := s.CheckpointTo(ctx, NewMemStore(), "after"); err != nil {
		t.Fatal(err)
	}
	_ = w
}

// TestCheckpointAsyncCancelNoLeak pins the other guard rail: a
// cancelled overlapped checkpoint surfaces ErrCancelled, leaves no
// partial image in the store, releases every retained copy-on-write
// page, and the session keeps working.
func TestCheckpointAsyncCancelNoLeak(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())

	dir := t.TempDir()
	ds, err := NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	gs := newGateStore(ds)
	ctx, cancel := context.WithCancel(context.Background())
	p, err := s.CheckpointAsync(ctx, gs, "gen0")
	if err != nil {
		t.Fatal(err)
	}
	<-gs.entered
	// Mutate during the overlap so the snapshot actually retains pages.
	w.step(t, 9)
	if n := s.Space().RetainedPages(); n == 0 {
		t.Fatal("expected retained CoW pages after mutating during the overlap")
	}
	cancel()
	if _, err := p.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Wait after cancel: got %v, want ErrCancelled", err)
	}
	if n := s.Space().RetainedPages(); n != 0 {
		t.Fatalf("%d copy-on-write pages leaked after cancellation", n)
	}
	names, err := ds.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("cancelled checkpoint left images behind: %v", names)
	}
	// The session survives and checkpoints cleanly afterwards.
	if _, err := s.CheckpointTo(context.Background(), NewMemStore(), "after"); err != nil {
		t.Fatal(err)
	}
}

// TestBlockingCheckpointExcludesAsync pins the reverse direction of
// the single-flight guard: a blocking (incremental) checkpoint holds
// the slot too, so a CheckpointAsync racing it reports
// ErrCheckpointInFlight instead of interleaving epoch cuts and
// corrupting the plugin's skip baseline.
func TestBlockingCheckpointExcludesAsync(t *testing.T) {
	s, err := New(WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	newIncrWorkload(t, s.Runtime())
	ctx := context.Background()
	gs := newGateStore(NewMemStore())
	blockDone := make(chan error, 1)
	go func() {
		_, err := s.CheckpointTo(ctx, gs, "blocking")
		blockDone <- err
	}()
	<-gs.entered
	if _, err := s.CheckpointAsync(ctx, NewMemStore(), "racer"); !errors.Is(err, ErrCheckpointInFlight) {
		t.Fatalf("CheckpointAsync during a blocking checkpoint: got %v, want ErrCheckpointInFlight", err)
	}
	close(gs.release)
	if err := <-blockDone; err != nil {
		t.Fatal(err)
	}
}

// TestQuiesceWaitsOutInFlightWrites pins the Freeze contract: Quiesce
// returns only once mutations already past the gate have completed, so
// a checkpoint taken while quiesced can never capture a torn write.
// Under -race this fails loudly if Freeze stops waiting.
func TestQuiesceWaitsOutInFlightWrites(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	const size = 4 << 20
	h, err := rt.HostAlloc(size)
	if err != nil {
		t.Fatal(err)
	}
	quit := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			if err := rt.Memset(h, byte(i), size); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	buf := make([]byte, size)
	for round := 0; round < 10; round++ {
		if err := s.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if err := s.Space().ReadAt(h, buf); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < size; i++ {
			if buf[i] != buf[0] {
				t.Fatalf("round %d: torn write visible while quiesced (byte %d: %#x vs %#x)", round, i, buf[i], buf[0])
			}
		}
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	close(quit)
	<-writerDone
}

// TestCoordinatorFailureResumesRanks: now that Quiesce really holds
// gates, a coordinated checkpoint that fails mid-flight must resume
// every quiesced rank — the member sessions stay usable, not frozen.
func TestCoordinatorFailureResumesRanks(t *testing.T) {
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ra, rb := a.Runtime(), b.Runtime()
	bufA, _ := ra.Malloc(64 << 10)
	bufB, _ := rb.Malloc(64 << 10)

	coord := dmtcp.NewCoordinator()
	coord.Add(0, a)
	coord.Add(1, b)
	sinkErr := errors.New("disk full")
	err = coord.CheckpointAll(func(rank int) (io.WriteCloser, error) {
		if rank == 1 {
			return nil, sinkErr
		}
		return nopWriteCloser{}, nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("CheckpointAll: got %v, want the sink error", err)
	}
	// Both ranks must be thawed: writes and launches complete promptly.
	done := make(chan error, 2)
	go func() { done <- ra.Memset(bufA, 0x11, 64<<10) }()
	go func() { done <- rb.Memset(bufB, 0x22, 64<<10) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("rank still frozen after a failed coordinated checkpoint")
		}
	}
}

type nopWriteCloser struct{}

func (nopWriteCloser) Write(p []byte) (int, error) { return len(p), nil }
func (nopWriteCloser) Close() error                { return nil }

// TestQuiesceResumeGate wires-for-real test: Quiesce must actually
// block application-side writes and kernel launches until Resume, the
// pair must balance (typed error on an unmatched Resume), and a
// checkpoint taken while quiesced must work — reads are ungated.
func TestQuiesceResumeGate(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	fat, err := rt.RegisterFatBinary(kernels.Module)
	if err != nil {
		t.Fatal(err)
	}
	for name, k := range kernels.Table() {
		if err := rt.RegisterFunction(fat, name, k); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := rt.Malloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	// The launch gets its own buffer: once resumed, the blocked Memset
	// and the blocked kernel run concurrently, and overlapping writes
	// would race (as they would on real memory).
	lbuf, err := rt.Malloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Resume(); !errors.Is(err, ErrNotQuiesced) {
		t.Fatalf("unbalanced Resume: got %v, want ErrNotQuiesced", err)
	}
	if err := s.Quiesce(); err != nil {
		t.Fatal(err)
	}

	writeDone := make(chan error, 1)
	go func() { writeDone <- rt.Memset(buf, 0xAA, 64<<10) }()
	launchDone := make(chan error, 1)
	go func() {
		lc := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 64}}
		launchDone <- rt.LaunchKernel(fat, "fill", lc, crt.DefaultStream, lbuf, kernels.F32Arg(1), 64)
	}()
	select {
	case <-writeDone:
		t.Fatal("Memset proceeded while quiesced")
	case <-launchDone:
		t.Fatal("kernel launch proceeded while quiesced")
	case <-time.After(50 * time.Millisecond):
	}

	// Checkpoints read; a quiesced session checkpoints fine.
	if _, err := s.Checkpoint(context.Background(), io.Discard); err != nil {
		t.Fatal(err)
	}

	// Nested quiesce: the inner Resume must not open the gates.
	if err := s.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-writeDone:
		t.Fatal("Memset proceeded under a still-nested quiesce")
	case <-time.After(20 * time.Millisecond):
	}

	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	if err := <-launchDone; err != nil {
		t.Fatal(err)
	}
	// The launch is asynchronous: drain the device so the kernel's
	// writes finish before the session tears down under our feet.
	if err := rt.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(); !errors.Is(err, ErrNotQuiesced) {
		t.Fatalf("over-balanced Resume: got %v, want ErrNotQuiesced", err)
	}
}

// TestRestartWhileQuiescedRejected: a restart under Quiesce would
// deadlock on the held launch gate (and the rebuilt space could never
// balance the pending Resume), so it must fail fast with ErrQuiesced —
// and the session must survive: Resume, then restart cleanly.
func TestRestartWhileQuiescedRejected(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	newIncrWorkload(t, s.Runtime())
	ctx := context.Background()
	store := NewMemStore()
	if _, err := s.CheckpointTo(ctx, store, "gen0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := s.RestartFrom(ctx, store, "gen0"); !errors.Is(err, ErrQuiesced) {
		t.Fatalf("restart while quiesced: got %v, want ErrQuiesced", err)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := s.RestartFrom(ctx, store, "gen0"); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", s.Generation())
	}
}

// TestQuiesceAsyncResume is the intended serving-path sequence: quiesce
// for a precise cut, arm the concurrent checkpoint, resume, and let the
// image write ride alongside execution.
func TestQuiesceAsyncResume(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	ctx := context.Background()
	store := NewMemStore()

	if err := s.Quiesce(); err != nil {
		t.Fatal(err)
	}
	p, err := s.CheckpointAsync(ctx, store, "gen0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	stop := hammer(t, w)
	st, err := p.Wait()
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if st.PauseDuration >= st.Duration && st.Duration > 0 {
		t.Logf("pause %v of total %v (tiny image: overlap may round away)", st.PauseDuration, st.Duration)
	}
	if _, err := OpenImageFrom(ctx, store, "gen0"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPauseReduction pins the acceptance bound: on the
// standard ~69 MiB workload a checkpoint's application-visible pause is
// at most a fifth of its total duration. The margin is enormous in
// practice (the pause is metadata-only), so 5× stays robust on loaded
// CI machines.
func TestConcurrentPauseReduction(t *testing.T) {
	s, err := New(WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	for i := 0; i < 16; i++ {
		h, err := rt.HostAlloc(2 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(h, byte(i+1), 2<<20); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		d, err := rt.Malloc(2 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(d, byte(0x21*i+3), 2<<20); err != nil {
			t.Fatal(err)
		}
	}
	m, err := rt.MallocManaged(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(m, 0x7F, 2<<20); err != nil {
		t.Fatal(err)
	}
	// Best of five: the ratio of the quietest round.
	var best Stats
	for i := 0; i < 5; i++ {
		st, err := s.CheckpointTo(context.Background(), NewMemStore(), "gen")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || st.PauseDuration*best.Duration < best.PauseDuration*st.Duration {
			best = st
		}
	}
	t.Logf("pause %v of %v total (%.1fx)", best.PauseDuration, best.Duration, float64(best.Duration)/float64(best.PauseDuration))
	if best.PauseDuration <= 0 || best.PauseDuration*5 > best.Duration {
		t.Fatalf("pause %v is more than a fifth of the checkpoint's %v", best.PauseDuration, best.Duration)
	}
}

// TestCloseWhileQuiesced pins that Close on a quiesced session (the
// state a migrated source is left in) releases the quiesce and tears
// down instead of deadlocking against the frozen space, and that
// writers parked at the gate unblock rather than hanging forever.
func TestCloseWhileQuiesced(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	rt := s.Runtime()
	buf, err := rt.HostAlloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	// Nested quiesce: Close must drain every level, not just one.
	if err := s.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(); err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		rt.Memset(buf, 0xEE, 64<<10) // blocked at the write gate; outcome irrelevant
	}()
	time.Sleep(10 * time.Millisecond) // let the writer reach the gate
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for what, ch := range map[string]chan struct{}{"Close": closed, "parked writer": parked} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return on a quiesced session", what)
		}
	}
	s.Close() // idempotent after the quiesced teardown
	if err := s.Resume(); !errors.Is(err, ErrNotQuiesced) {
		t.Fatalf("Resume after Close = %v, want ErrNotQuiesced", err)
	}
}
