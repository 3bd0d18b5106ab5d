package crac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/faults"
)

// flakyStore fails the first failN calls of each op with err, then
// delegates to the inner store.
type flakyStore struct {
	inner Store
	err   error
	puts  int
	gets  int
	lists int
	dels  int
	failN int
}

func (s *flakyStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	s.puts++
	if s.puts <= s.failN {
		// Consume the writer the way a real store would before dying
		// mid-commit.
		_ = write(io.Discard)
		return s.err
	}
	return s.inner.Put(ctx, name, write)
}

func (s *flakyStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	s.gets++
	if s.gets <= s.failN {
		return nil, s.err
	}
	return s.inner.Get(ctx, name)
}

func (s *flakyStore) List(ctx context.Context) ([]string, error) {
	s.lists++
	if s.lists <= s.failN {
		return nil, s.err
	}
	return s.inner.List(ctx)
}

func (s *flakyStore) Delete(ctx context.Context, name string) error {
	s.dels++
	if s.dels <= s.failN {
		return s.err
	}
	return s.inner.Delete(ctx, name)
}

// transientErr is a minimal error satisfying the Transient() predicate
// without touching the faults package.
type transientErr struct{}

func (transientErr) Error() string   { return "flaky" }
func (transientErr) Transient() bool { return true }

// noSleep replaces the backoff with an instant, counted no-op.
func noSleep(count *int) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*count++
		return ctx.Err()
	}
}

func TestTransientPredicate(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{ErrTransient, true},
		{fmt.Errorf("wrap: %w", ErrTransient), true},
		{transientErr{}, true},
		{fmt.Errorf("wrap: %w", transientErr{}), true},
		{&faults.Error{Op: faults.OpPut, Kind: faults.KindTransient}, true},
		{&faults.Error{Op: faults.OpPut, Kind: faults.KindPermanent}, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("wrap: %w", context.Canceled), false},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryRecoversTransientPut(t *testing.T) {
	inner := NewMemStore()
	fl := &flakyStore{inner: inner, err: transientErr{}, failN: 2}
	var sleeps int
	p := DefaultRetryPolicy()
	p.sleep = noSleep(&sleeps)
	rs := WithRetry(fl, p)

	writes := 0
	err := rs.Put(context.Background(), "img", func(w io.Writer) error {
		writes++
		_, err := w.Write([]byte("payload"))
		return err
	})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if writes != 1 {
		t.Fatalf("write callback ran %d times, want exactly 1", writes)
	}
	if fl.puts != 3 {
		t.Fatalf("inner Put called %d times, want 3 (2 failures + success)", fl.puts)
	}
	if sleeps != 2 {
		t.Fatalf("slept %d times, want 2", sleeps)
	}
	rc, err := inner.Get(context.Background(), "img")
	if err != nil {
		t.Fatalf("Get after retry: %v", err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "payload" {
		t.Fatalf("stored %q, want %q", b, "payload")
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	fl := &flakyStore{inner: NewMemStore(), err: transientErr{}, failN: 100}
	var sleeps int
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Nanosecond, Multiplier: 2, MaxDelay: time.Microsecond}
	p.sleep = noSleep(&sleeps)
	rs := WithRetry(fl, p)

	_, err := rs.Get(context.Background(), "img")
	if err == nil || !Transient(err) {
		t.Fatalf("Get = %v, want the transient error back", err)
	}
	if fl.gets != 3 {
		t.Fatalf("inner Get called %d times, want MaxAttempts=3", fl.gets)
	}
}

func TestRetryDoesNotRetryPermanent(t *testing.T) {
	fl := &flakyStore{inner: NewMemStore(), err: errors.New("disk on fire"), failN: 100}
	var sleeps int
	p := DefaultRetryPolicy()
	p.sleep = noSleep(&sleeps)
	rs := WithRetry(fl, p)

	if _, err := rs.List(context.Background()); err == nil {
		t.Fatal("List succeeded through a permanent failure")
	}
	if fl.lists != 1 {
		t.Fatalf("inner List called %d times, want 1 (no retries)", fl.lists)
	}
	if sleeps != 0 {
		t.Fatalf("slept %d times on a permanent error", sleeps)
	}
}

func TestRetryDeleteIdempotent(t *testing.T) {
	// First Delete reaches the store (removing the image) but its ack
	// is "lost" (transient error reported); the retry sees
	// ErrImageNotFound, which must count as success.
	inner := NewMemStore()
	if err := inner.Put(context.Background(), "img", func(w io.Writer) error {
		_, err := w.Write([]byte("x"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ackLost := &ackLostDeleteStore{Store: inner}
	p := DefaultRetryPolicy()
	var sleeps int
	p.sleep = noSleep(&sleeps)
	rs := WithRetry(ackLost, p)
	if err := rs.Delete(context.Background(), "img"); err != nil {
		t.Fatalf("Delete: %v (want retried not-found treated as success)", err)
	}
	if names, _ := inner.List(context.Background()); len(names) != 0 {
		t.Fatalf("image still present: %v", names)
	}
}

// ackLostDeleteStore performs the first Delete but reports a transient
// failure for it.
type ackLostDeleteStore struct {
	Store
	calls int
}

func (s *ackLostDeleteStore) Delete(ctx context.Context, name string) error {
	s.calls++
	err := s.Store.Delete(ctx, name)
	if s.calls == 1 && err == nil {
		return transientErr{}
	}
	return err
}

func TestRetryContextCancelStopsRetries(t *testing.T) {
	fl := &flakyStore{inner: NewMemStore(), err: transientErr{}, failN: 100}
	ctx, cancel := context.WithCancel(context.Background())
	p := DefaultRetryPolicy()
	p.sleep = func(sctx context.Context, d time.Duration) error {
		cancel() // the context dies while backing off
		return sctx.Err()
	}
	rs := WithRetry(fl, p)
	_, err := rs.Get(ctx, "img")
	if err == nil {
		t.Fatal("Get succeeded after cancellation")
	}
	if fl.gets != 1 {
		t.Fatalf("inner Get called %d times after ctx cancel, want 1", fl.gets)
	}
}

func TestRetryPreservesRandomAccess(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir, 0, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := WithRetry(ds, RetryPolicy{}).(RandomAccessStore); !ok {
		t.Fatal("WithRetry(DirStore) lost the RandomAccessStore capability")
	}
	// Over a store with no GetAt the wrapper's GetAt is the whole-image
	// read every caller falls back to (and retries like one) — the full
	// capability table is TestStoreWrappersForwardCapabilities.
	plain := &flakyStore{inner: NewMemStore(), err: transientErr{}, failN: 1} // no GetAt
	conformPut(t, plain.inner, "img", []byte("payload"))
	p := DefaultRetryPolicy()
	p.sleep = func(context.Context, time.Duration) error { return nil }
	ra, size, err := WithRetry(plain, p).(RandomAccessStore).GetAt(context.Background(), "img")
	if err != nil || size != int64(len("payload")) {
		t.Fatalf("GetAt over a plain store = %d, %v", size, err)
	}
	ra.Close()
	if plain.gets != 2 {
		t.Fatalf("inner Get called %d times, want 2 (one transient failure, one whole-image read)", plain.gets)
	}
}

func TestRetryDelayBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Multiplier: 2}.normalized()
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.delay(i + 1); got != w*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	pj := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.5}.normalized()
	for i := 0; i < 50; i++ {
		d := pj.delay(1)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±50%% of 100ms", d)
		}
	}
}

func TestRetryThroughFaultStoreEndToEnd(t *testing.T) {
	// A session checkpointing through WithCheckpointRetry over a fault
	// store with forced transient failures must commit exactly one
	// intact image.
	inj := faults.New(faults.Config{Seed: 11})
	inj.FailNext(faults.OpPut, faults.KindTransient)
	inj.FailNext(faults.OpPut, faults.KindTransient)
	store := NewFaultStore(NewMemStore(), inj)

	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond, Multiplier: 2}
	s, err := New(WithWorkers(0), WithCheckpointRetry(p))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	d, err := rt.Malloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(d, 0xAB, 64<<10); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
		t.Fatalf("CheckpointTo through transient faults: %v", err)
	}
	if chain, err := VerifyChain(ctx, store, "img"); err != nil {
		t.Fatalf("VerifyChain after retried checkpoint: %v (chain %v)", err, chain)
	}
	if got := inj.Injected(); got != 2 {
		t.Fatalf("injected %d faults, want the 2 queued", got)
	}
}
