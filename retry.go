package crac

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"time"
)

// RetryPolicy bounds the exponential-backoff retry loop WithRetry adds
// around transient store failures.
type RetryPolicy struct {
	// MaxAttempts caps the total tries (first attempt included);
	// values below 1 mean 1 — no retries.
	MaxAttempts int
	// BaseDelay is the sleep before the first retry; each further retry
	// multiplies it by Multiplier, capped at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter in [0, 1] randomizes each delay by ±Jitter of itself, so
	// concurrent retriers decorrelate.
	Jitter float64
	// Classify overrides the retryable-error predicate (default:
	// Transient).
	Classify func(error) bool

	// sleep is a test seam; nil uses a context-aware timer sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// DefaultRetryPolicy returns the policy WithRetry and Supervisor use
// when handed a zero policy: 4 attempts, 10ms base delay doubling to
// at most 1s, 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    time.Second,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts == 0 && p.BaseDelay == 0 && p.MaxDelay == 0 && p.Multiplier == 0 {
		classify, sleep := p.Classify, p.sleep
		p = DefaultRetryPolicy()
		p.Classify, p.sleep = classify, sleep
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Multiplier < 1 {
		p.Multiplier = 1
	}
	if p.Classify == nil {
		p.Classify = Transient
	}
	if p.sleep == nil {
		p.sleep = sleepCtx
	}
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// delay returns the backoff before retry attempt (1-based retry
// index), jittered.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rand.Float64()-1)
	}
	return time.Duration(d)
}

// run executes op up to MaxAttempts times, sleeping the backoff between
// attempts, until op succeeds, fails non-transiently, or ctx ends.
func (p RetryPolicy) run(ctx context.Context, op func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || attempt >= p.MaxAttempts || !p.Classify(err) {
			return err
		}
		if serr := p.sleep(ctx, p.delay(attempt)); serr != nil {
			return err // ctx ended: report the op's error, not the sleep's
		}
	}
}

// WithRetry wraps store so every operation retries on transient
// failures (classified by policy.Classify, default Transient) with
// bounded exponential backoff and jitter. A zero policy means
// DefaultRetryPolicy.
//
// Only idempotent halves are retried. Put's write callback runs
// exactly once, into a staging buffer; the retries reissue only the
// buffered commit, so a flaky store never re-drives the checkpoint
// pipeline (whose plugin hooks are not idempotent). Delete treats
// ErrImageNotFound on a retry as success — the previous attempt may
// have deleted the image before its acknowledgment was lost. Context
// cancellation is never retried.
//
// The wrapper forwards GetAt and every optional capability of store
// (CountingStore, BatchExister), retrying each of them.
func WithRetry(store Store, policy RetryPolicy) Store {
	return &retryStore{storeCaps: storeCaps{store}, policy: policy.normalized()}
}

type retryStore struct {
	storeCaps
	policy RetryPolicy
}

// retry runs op under the policy and returns the successful attempt's
// result (the zero value on failure).
func retry[T any](ctx context.Context, p RetryPolicy, op func() (T, error)) (T, error) {
	var v T
	if err := p.run(ctx, func() error {
		var err error
		v, err = op()
		return err
	}); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

func (s *retryStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	// Stage once: the checkpoint pipeline behind write must not run
	// twice (plugin hooks, epoch cuts, and delta bookkeeping are not
	// idempotent). Only the buffered bytes are retried.
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	b := buf.Bytes()
	return s.policy.run(ctx, func() error {
		return s.inner.Put(ctx, name, func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		})
	})
}

func (s *retryStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	return retry(ctx, s.policy, func() (io.ReadCloser, error) { return s.inner.Get(ctx, name) })
}

func (s *retryStore) List(ctx context.Context) ([]string, error) {
	return retry(ctx, s.policy, func() ([]string, error) { return s.inner.List(ctx) })
}

func (s *retryStore) Delete(ctx context.Context, name string) error {
	attempt := 0
	return s.policy.run(ctx, func() error {
		attempt++
		err := s.inner.Delete(ctx, name)
		if err != nil && attempt > 1 && errors.Is(err, ErrImageNotFound) {
			// An earlier attempt may have deleted the image before its
			// acknowledgment was lost: the goal state holds.
			return nil
		}
		return err
	})
}

// GetAt retries the open (the reads on the returned handle are the
// lazy restorer's to retry).
func (s *retryStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	var size int64
	rc, err := retry(ctx, s.policy, func() (rc ReaderAtCloser, err error) {
		rc, size, err = s.storeCaps.GetAt(ctx, name)
		return rc, err
	})
	if err != nil {
		return nil, 0, err
	}
	return rc, size, nil
}

func (s *retryStore) ExistsBatch(ctx context.Context, names []string) (map[string]bool, error) {
	return retry(ctx, s.policy, func() (map[string]bool, error) { return s.storeCaps.ExistsBatch(ctx, names) })
}

func (s *retryStore) Len(ctx context.Context) (int, error) {
	return retry(ctx, s.policy, func() (int, error) { return s.storeCaps.Len(ctx) })
}

var (
	_ CountingStore = (*retryStore)(nil)
	_ BatchExister  = (*retryStore)(nil)
)
