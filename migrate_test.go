package crac

// Acceptance tests for live migration (ISSUE 7): pre-copy rounds over
// a running workload, a quiesced final cut, post-copy activation —
// byte-identical to a blocking checkpoint at the cut, aborting cleanly
// (source keeps running, no partial images, zero retained CoW pages)
// on failure in any phase.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/kernels"
)

// migrateWorkload builds the standard sparse workload plus a runtime-
// registered kernel, so migration must also carry the replay log's
// registrations across.
func migrateWorkload(t testing.TB, s *Session) *incrWorkload {
	t.Helper()
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
	return newIncrWorkload(t, rt)
}

// drainMigration waits out the post-copy tail and fails on tail errors.
func drainMigration(t testing.TB, m *Migration) {
	t.Helper()
	if err := m.Wait(); err != nil {
		t.Fatalf("post-copy tail: %v", err)
	}
}

// TestMigrateByteIdentity is the core invariant: the activated
// destination, once drained, is byte-identical to a blocking
// checkpoint of the quiesced source at the cut.
func TestMigrateByteIdentity(t *testing.T) {
	s, err := New(WithShardSize(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := migrateWorkload(t, s)
	for r := 0; r < 3; r++ {
		w.step(t, r)
	}

	src, dst := NewMemStore(), NewMemStore()
	m, err := Migrate(context.Background(), s, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dest.Close()
	drainMigration(t, m)

	// The source is left quiesced at the cut; snapshot both sides
	// before resuming anything.
	srcBytes := sessionSnapshot(t, s)
	dstBytes := sessionSnapshot(t, m.Dest)
	if !bytes.Equal(srcBytes, dstBytes) {
		t.Fatalf("destination state differs from source cut: %d vs %d bytes",
			len(dstBytes), len(srcBytes))
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}

	rep := m.Report
	if len(rep.Rounds) < 2 {
		t.Fatalf("expected at least base + final rounds, got %d", len(rep.Rounds))
	}
	if rep.Rounds[0].Delta {
		t.Fatal("round 0 must be a full base")
	}
	last := rep.Rounds[len(rep.Rounds)-1]
	if !last.Final || last.Name != rep.Tip {
		t.Fatalf("last round %+v is not the final cut (tip %q)", last, rep.Tip)
	}
	if !last.Delta {
		t.Fatal("final cut should be a delta riding the pre-copy chain")
	}
	if rep.Downtime <= 0 || rep.Duration < rep.Downtime {
		t.Fatalf("implausible timing: downtime %v, duration %v", rep.Downtime, rep.Duration)
	}

	// After the tail, the destination store is self-contained: the cut
	// image was replicated and dropped from the source side.
	if _, err := dst.Get(context.Background(), rep.Tip); err != nil {
		t.Fatalf("tip not replicated to destination store: %v", err)
	}
	if _, err := src.Get(context.Background(), rep.Tip); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("tip still (or again) in source store: %v", err)
	}

	// The destination must be able to restore from dst alone (a fresh
	// process: kernels come from the registry, as in any cross-process
	// restore).
	reg := NewKernelRegistry().AddTable(kernels.Module, kernels.Table())
	s2, err := RestoreFrom(context.Background(), dst, rep.Tip, WithShardSize(64<<10), WithKernels(reg))
	if err != nil {
		t.Fatalf("restoring migrated chain from destination store: %v", err)
	}
	defer s2.Close()
	if !bytes.Equal(sessionSnapshot(t, s2), srcBytes) {
		t.Fatal("chain restored from destination store differs from the cut")
	}
}

// TestMigrateTortureHTTP migrates a session whose mutators keep
// dirtying memory through every pre-copy round, over a real HTTP
// destination store. Run with -race: the snapshots, the mutators, the
// HTTP server, and the prefetcher all overlap.
func TestMigrateTortureHTTP(t *testing.T) {
	srv := httptest.NewServer(ServeStore(NewMemStore()))
	defer srv.Close()
	dst, err := NewHTTPStore(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMemStore()

	s, err := New(WithShardSize(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := migrateWorkload(t, s)
	rt := s.Runtime()

	// Mutators: keep rewriting a sliding window of buffers until told
	// to stop (or until the final quiesce blocks them at the gate).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// 2i+g keeps the two goroutines on disjoint (odd/even)
				// buffers — they race the migration, not each other.
				if err := rt.Memset(w.host[(2*i+g)%len(w.host)]+512, byte(i), 32<<10); err != nil {
					return
				}
				if err := rt.Memset(w.dev[(2*i+g)%len(w.dev)], byte(i+g), 16<<10); err != nil {
					return
				}
			}
		}(g)
	}

	m, err := Migrate(context.Background(), s, src, dst,
		WithMigrateRounds(4), WithMigrateRoundDelay(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dest.Close()
	drainMigration(t, m)

	// Source is quiesced at the cut: both snapshots observe exactly the
	// migrated state, however hard the mutators raced the rounds.
	srcBytes := sessionSnapshot(t, s)
	dstBytes := sessionSnapshot(t, m.Dest)
	if !bytes.Equal(srcBytes, dstBytes) {
		t.Fatalf("destination diverged from source cut under mutation: %d vs %d bytes",
			len(dstBytes), len(srcBytes))
	}

	// Wind the source down: resume (unblocking gate-parked mutators),
	// stop the loops, and check zero retained CoW pages on both sides.
	close(stop)
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := s.Space().RetainedPages(); n != 0 {
		t.Fatalf("source retains %d CoW pages after migration", n)
	}
	if n := m.Dest.Space().RetainedPages(); n != 0 {
		t.Fatalf("destination retains %d CoW pages", n)
	}

	// Per-round accounting: every pre-copy delta must carry payload
	// (the mutators guarantee dirt) and the report's byte totals must
	// line up with the rounds.
	rep := m.Report
	var pre, final uint64
	for _, r := range rep.Rounds {
		if r.ImageBytes == 0 {
			t.Fatalf("round %q moved no bytes", r.Name)
		}
		if r.Final {
			final += r.ImageBytes
		} else {
			pre += r.ImageBytes
		}
	}
	if pre != rep.PreCopyBytes || final != rep.FinalBytes {
		t.Fatalf("byte accounting mismatch: rounds %d/%d vs report %d/%d",
			pre, final, rep.PreCopyBytes, rep.FinalBytes)
	}
	// And the destination session must actually execute: launch the
	// runtime-registered kernel on the migrated side.
	if err := m.Dest.Runtime().DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
}

// holdFirstStore blocks its first Put until released (later Puts pass
// straight through), so a test can hold a migration mid-round
// deterministically.
type holdFirstStore struct {
	Store
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *holdFirstStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	first := false
	g.once.Do(func() { first = true })
	if first {
		close(g.entered)
		<-g.release
	}
	return g.Store.Put(ctx, name, write)
}

// TestMigrateGuards: while a migration is in flight, checkpoints,
// restarts, and second migrations are refused with
// ErrMigrationInFlight — and the migration itself completes untouched.
func TestMigrateGuards(t *testing.T) {
	s, err := New(WithShardSize(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	migrateWorkload(t, s)

	src, inner := NewMemStore(), NewMemStore()
	ctx := context.Background()
	if _, err := s.CheckpointTo(ctx, src, "pre"); err != nil {
		t.Fatal(err)
	}

	g := &holdFirstStore{Store: inner, entered: make(chan struct{}), release: make(chan struct{})}
	type result struct {
		m   *Migration
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := Migrate(ctx, s, src, g)
		done <- result{m, err}
	}()
	<-g.entered

	if _, err := s.CheckpointTo(ctx, src, "during"); !errors.Is(err, ErrMigrationInFlight) {
		t.Errorf("CheckpointTo during migration: %v, want ErrMigrationInFlight", err)
	}
	if err := s.RestartFrom(ctx, src, "pre"); !errors.Is(err, ErrMigrationInFlight) {
		t.Errorf("RestartFrom during migration: %v, want ErrMigrationInFlight", err)
	}
	if _, err := Migrate(ctx, s, src, NewMemStore()); !errors.Is(err, ErrMigrationInFlight) {
		t.Errorf("second Migrate: %v, want ErrMigrationInFlight", err)
	}
	close(g.release)

	res := <-done
	if res.err != nil {
		t.Fatalf("migration failed: %v", res.err)
	}
	defer res.m.Dest.Close()
	drainMigration(t, res.m)
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	// The guard lifts with the migration: a normal checkpoint works.
	if _, err := s.CheckpointTo(ctx, src, "after"); err != nil {
		t.Fatalf("checkpoint after migration: %v", err)
	}
}

// cancelOnPut cancels a context when a given image name is written —
// deterministic mid-phase cancellation.
type cancelOnPut struct {
	Store
	name   string
	cancel context.CancelFunc
}

func (c *cancelOnPut) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	if name == c.name {
		c.cancel()
		return ctx.Err()
	}
	return c.Store.Put(ctx, name, write)
}

// checkAbortClean asserts the abort contract: source running (not
// quiesced, usable), no migration images in either store, zero
// retained CoW pages.
func checkAbortClean(t *testing.T, s *Session, src, dst Store) {
	t.Helper()
	ctx := context.Background()
	if err := s.Resume(); !errors.Is(err, ErrNotQuiesced) {
		t.Errorf("source left quiesced after abort (Resume: %v)", err)
	}
	if err := s.Runtime().DeviceSynchronize(); err != nil {
		t.Errorf("source unusable after abort: %v", err)
	}
	if n := s.Space().RetainedPages(); n != 0 {
		t.Errorf("%d CoW pages retained after abort", n)
	}
	for storeName, st := range map[string]Store{"src": src, "dst": dst} {
		names, err := st.List(ctx)
		if err != nil {
			t.Fatalf("listing %s: %v", storeName, err)
		}
		for _, n := range names {
			if n == "pre" {
				continue // the test's own pre-existing image
			}
			t.Errorf("%s still holds migration image %q after abort", storeName, n)
		}
	}
	// The session must checkpoint and restore normally afterwards.
	if _, err := s.CheckpointTo(ctx, src, "pre"); err != nil {
		t.Errorf("checkpoint after abort: %v", err)
	}
}

// TestMigrateAbort covers failure in every phase: destination Put
// failure on the base and on a delta round, context cancellation
// mid-pre-copy, source-side failure at the final cut, and destination
// failure at activation.
func TestMigrateAbort(t *testing.T) {
	newSess := func(t *testing.T) *Session {
		s, err := New(WithShardSize(64 << 10))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		w := migrateWorkload(t, s)
		for r := 0; r < 2; r++ {
			w.step(t, r)
		}
		return s
	}

	t.Run("dst-put-base", func(t *testing.T) {
		s := newSess(t)
		src := NewMemStore()
		dst := NewFaultStore(NewMemStore(), faults.New(faults.Config{Seed: 1}))
		dst.Injector().FailNext(faults.OpPut, faults.KindPermanent)
		if _, err := Migrate(context.Background(), s, src, dst); err == nil {
			t.Fatal("migration succeeded through a failing destination")
		}
		checkAbortClean(t, s, src, dst)
	})

	t.Run("dst-put-delta-round", func(t *testing.T) {
		s := newSess(t)
		src := NewMemStore()
		dst := NewFaultStore(NewMemStore(), faults.New(faults.Config{Seed: 2}))
		// Base commits, the first delta round dies.
		dst.Injector().FailNext(faults.OpPut, faults.KindNone)
		dst.Injector().FailNext(faults.OpPut, faults.KindPermanent)
		if _, err := Migrate(context.Background(), s, src, dst); err == nil {
			t.Fatal("migration succeeded through a failing delta round")
		}
		checkAbortClean(t, s, src, dst)
	})

	t.Run("cancel-mid-precopy", func(t *testing.T) {
		s := newSess(t)
		src := NewMemStore()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		dst := &cancelOnPut{Store: NewMemStore(), name: "migrate-1", cancel: cancel}
		_, err := Migrate(ctx, s, src, dst)
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled migration returned %v, want ErrCancelled", err)
		}
		checkAbortClean(t, s, src, dst)
	})

	t.Run("src-final-cut", func(t *testing.T) {
		s := newSess(t)
		src := NewFaultStore(NewMemStore(), faults.New(faults.Config{Seed: 3}))
		// Only the final cut writes to src: fail it.
		src.Injector().FailNext(faults.OpPut, faults.KindPermanent)
		dst := NewMemStore()
		if _, err := Migrate(context.Background(), s, src, dst); err == nil {
			t.Fatal("migration succeeded through a failing final cut")
		}
		checkAbortClean(t, s, src, dst)
	})

	t.Run("dst-activation", func(t *testing.T) {
		s := newSess(t)
		src := NewMemStore()
		dst := NewFaultStore(NewMemStore(), faults.New(faults.Config{Seed: 4}))
		// Pre-copy commits fine; the destination's index reads at
		// activation fail hard (queue enough for every chain member).
		for i := 0; i < 8; i++ {
			dst.Injector().FailNext(faults.OpGetAt, faults.KindPermanent)
			dst.Injector().FailNext(faults.OpGet, faults.KindPermanent)
		}
		if _, err := Migrate(context.Background(), s, src, dst); err == nil {
			t.Fatal("migration succeeded through a failing activation")
		}
		checkAbortClean(t, s, src, dst)
	})
}

// TestMigrateRetryComposition: transient destination faults are
// absorbed by WithCheckpointRetry — the migration's store writes ride
// the session's retry policy.
func TestMigrateRetryComposition(t *testing.T) {
	s, err := New(WithShardSize(64<<10),
		WithCheckpointRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	migrateWorkload(t, s)

	src := NewMemStore()
	dst := NewFaultStore(NewMemStore(), faults.New(faults.Config{Seed: 5}))
	dst.Injector().FailNext(faults.OpPut, faults.KindTransient)
	dst.Injector().FailNext(faults.OpPut, faults.KindTransient)
	m, err := Migrate(context.Background(), s, src, dst)
	if err != nil {
		t.Fatalf("transient faults should have been retried: %v", err)
	}
	defer m.Dest.Close()
	drainMigration(t, m)
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateDowntimeBound is the acceptance bound: migration's
// visible downtime must be at least 5× smaller than stop-copy-restart
// (quiesce, full checkpoint to the destination store, waited restore
// there). Min-of-3 on both sides so scheduler noise cannot flip the
// comparison; the real gap is an order of magnitude or more.
func TestMigrateDowntimeBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing bound")
	}
	ctx := context.Background()
	const iters = 3

	baseline := time.Duration(1 << 62)
	for i := 0; i < iters; i++ {
		s, err := New(WithShardSize(64 << 10))
		if err != nil {
			t.Fatal(err)
		}
		w := migrateWorkload(t, s)
		for r := 0; r < 3; r++ {
			w.step(t, r)
		}
		dst := NewMemStore()
		t0 := time.Now()
		if err := s.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CheckpointTo(ctx, dst, "stopcopy"); err != nil {
			t.Fatal(err)
		}
		reg := NewKernelRegistry().AddTable(kernels.Module, kernels.Table())
		s2, err := RestoreFrom(ctx, dst, "stopcopy", WithShardSize(64<<10), WithKernels(reg))
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < baseline {
			baseline = d
		}
		s2.Close()
		s.Resume()
		s.Close()
	}

	downtime := time.Duration(1 << 62)
	for i := 0; i < iters; i++ {
		s, err := New(WithShardSize(64 << 10))
		if err != nil {
			t.Fatal(err)
		}
		w := migrateWorkload(t, s)
		for r := 0; r < 3; r++ {
			w.step(t, r)
		}
		m, err := Migrate(ctx, s, NewMemStore(), NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		if m.Report.Downtime < downtime {
			downtime = m.Report.Downtime
		}
		drainMigration(t, m)
		m.Dest.Close()
		s.Resume()
		s.Close()
	}

	t.Logf("stop-copy-restart %v vs migrate downtime %v (%.1fx)",
		baseline, downtime, float64(baseline)/float64(downtime))
	if downtime*5 > baseline {
		t.Fatalf("migration downtime %v is not ≥5× below stop-copy-restart %v", downtime, baseline)
	}
}

// TestFallbackStore pins the union view's semantics: primary wins,
// fallback fills the gaps, writes and deletes never touch fallback.
func TestFallbackStore(t *testing.T) {
	ctx := context.Background()
	primary, fallback := NewMemStore(), NewMemStore()
	put := func(s Store, name, content string) {
		t.Helper()
		if err := s.Put(ctx, name, func(w io.Writer) error {
			_, err := w.Write([]byte(content))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	put(primary, "both", "primary")
	put(fallback, "both", "fallback")
	put(fallback, "only-fallback", "tail")

	f := &fallbackStore{primary: primary, fallback: fallback}
	read := func(name string) string {
		t.Helper()
		rc, err := f.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		var buf bytes.Buffer
		buf.ReadFrom(rc)
		return buf.String()
	}
	if got := read("both"); got != "primary" {
		t.Fatalf("Get(both) = %q, want primary side", got)
	}
	if got := read("only-fallback"); got != "tail" {
		t.Fatalf("Get(only-fallback) = %q", got)
	}
	if _, err := f.Get(ctx, "neither"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("Get(neither) = %v", err)
	}
	src, size, err := f.GetAt(ctx, "only-fallback")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	b := make([]byte, size)
	if _, err := src.ReadAt(b, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(b) != "tail" {
		t.Fatalf("GetAt fallback read %q", b)
	}
	names, err := f.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"both", "only-fallback"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
}

// TestMigrateDedupSkipsPresentChunks is the transferred-bytes
// acceptance bound for content-addressed migration: migrating a second,
// nearly identical session to a destination that already holds the
// first one's chunks must move a small fraction of the bytes — the
// pre-copy uploads batch-probe the destination over the wire and skip
// every chunk it already has.
func TestMigrateDedupSkipsPresentChunks(t *testing.T) {
	ctx := context.Background()

	// Real HTTP destination, instrumented: count every byte PUT into
	// the chunk namespace.
	var chunkPutBytes atomic.Int64
	backend := ServeStore(NewMemStore())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.Contains(r.URL.Path, "/cas-") {
			r.Body = countingBody{rc: r.Body, n: &chunkPutBytes}
		}
		backend.ServeHTTP(w, r)
	}))
	defer srv.Close()

	migrateOne := func(prefix string) *Migration {
		s, err := New(WithShardSize(64 << 10))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		w := migrateWorkload(t, s)
		for r := 0; r < 3; r++ {
			w.step(t, r)
		}
		// A fresh client per migration: the CAS present-cache starts
		// cold, so skipping re-uploads requires the batch-exists probe
		// to actually cross the wire.
		hs, err := NewHTTPStore(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		dst := NewCASStore(hs)
		m, err := Migrate(ctx, s, NewMemStore(), dst, WithMigratePrefix(prefix))
		if err != nil {
			t.Fatalf("Migrate(%s): %v", prefix, err)
		}
		t.Cleanup(func() { m.Dest.Close() })
		drainMigration(t, m)
		return m
	}

	migrateOne("m1")
	firstBytes := chunkPutBytes.Load()
	if firstBytes == 0 {
		t.Fatal("first migration uploaded no chunk bytes — counting middleware is broken")
	}

	chunkPutBytes.Store(0)
	m2 := migrateOne("m2")
	secondBytes := chunkPutBytes.Load()
	if secondBytes*5 > firstBytes {
		t.Fatalf("second migration uploaded %d chunk bytes vs %d for the first — dedup skipped less than 5× (%.2fx)",
			secondBytes, firstBytes, float64(firstBytes)/float64(max(secondBytes, 1)))
	}

	// The deduplicated destination still activated a real session:
	// its final cut verifies and its state is live.
	if _, err := m2.Dest.Runtime().Malloc(4096); err != nil {
		t.Fatal(err)
	}
}

// countingBody counts the bytes read from a request body.
type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (c countingBody) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingBody) Close() error { return c.rc.Close() }
