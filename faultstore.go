package crac

import (
	"bytes"
	"context"
	"io"
	"time"

	"repro/internal/faults"
)

// FaultStore wraps a Store and injects deterministic, seedable
// failures into every operation — the test double behind the fault
// torture suite and the harness "faults" experiment. The injected
// classes (see internal/faults):
//
//   - transient and permanent errors: the operation fails with no
//     effect on the underlying store; transient ones satisfy
//     Transient() and are retried by WithRetry.
//   - torn writes/reads: a Put commits only a prefix of the image
//     (modeling a non-atomic store crashing mid-write), a Get serves a
//     prefix then fails. Torn faults are transient — a retry starts
//     clean.
//   - bit flips: the operation "succeeds" with one silently flipped
//     bit, detectable only by the integrity layer (Verify, Scrub, the
//     image trailer).
//   - latency: a fixed delay added to every operation.
//
// A FaultStore is deterministic per seed and operation sequence; tests
// echo the seed on failure so any run reproduces.
type FaultStore struct {
	storeCaps // the metadata probes (Len, ExistsBatch) pass through uninjected
	inj       *faults.Injector
}

// NewFaultStore wraps store with the fault injector.
func NewFaultStore(store Store, inj *faults.Injector) *FaultStore {
	return &FaultStore{storeCaps: storeCaps{store}, inj: inj}
}

// Injector returns the wrapped injector (for FailNext and Stats).
func (s *FaultStore) Injector() *faults.Injector { return s.inj }

// delay applies the decision's configured latency, honouring ctx.
func delay(ctx context.Context, d time.Duration) error {
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

// Put implements Store. The image is staged in memory first, so a torn
// decision can commit an exact prefix and a bit flip an exact byte.
func (s *FaultStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	d := s.inj.Decide(faults.OpPut)
	if err := delay(ctx, d.Delay); err != nil {
		return err
	}
	switch d.Kind {
	case faults.KindTransient, faults.KindPermanent:
		return d.Err
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	b := buf.Bytes()
	switch d.Kind {
	case faults.KindTorn:
		// The underlying Put is atomic, so the torn prefix is committed
		// as a (complete-looking, truncated) image — exactly what a
		// non-atomic store leaves behind when the writer dies mid-copy.
		cut := int(d.Frac * float64(len(b)))
		if cut < 1 && len(b) > 0 {
			cut = 1
		}
		if err := s.inner.Put(ctx, name, func(w io.Writer) error {
			_, err := w.Write(b[:cut])
			return err
		}); err != nil {
			return err
		}
		return d.Err
	case faults.KindBitFlip:
		faults.FlipBit(b, d.Frac)
	}
	return s.inner.Put(ctx, name, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// tornReader serves up to n bytes of r, then fails with errAfter.
type tornReader struct {
	r        io.ReadCloser
	n        int64
	errAfter error
}

func (t *tornReader) Read(p []byte) (int, error) {
	if t.n <= 0 {
		return 0, t.errAfter
	}
	if int64(len(p)) > t.n {
		p = p[:t.n]
	}
	n, err := t.r.Read(p)
	t.n -= int64(n)
	if err == io.EOF {
		err = nil // the injected error ends the stream, not EOF
	}
	return n, err
}

func (t *tornReader) Close() error { return t.r.Close() }

// Get implements Store.
func (s *FaultStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	d := s.inj.Decide(faults.OpGet)
	if err := delay(ctx, d.Delay); err != nil {
		return nil, err
	}
	switch d.Kind {
	case faults.KindTransient, faults.KindPermanent:
		return nil, d.Err
	}
	rc, err := s.inner.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	switch d.Kind {
	case faults.KindTorn:
		// Size unknown until read: slurp, then serve the prefix. Images
		// in tests are small; exactness beats streaming here.
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		cut := int64(d.Frac * float64(len(b)))
		return &tornReader{r: io.NopCloser(bytes.NewReader(b)), n: cut, errAfter: d.Err}, nil
	case faults.KindBitFlip:
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		faults.FlipBit(b, d.Frac)
		return io.NopCloser(bytes.NewReader(b)), nil
	}
	return rc, nil
}

// List implements Store.
func (s *FaultStore) List(ctx context.Context) ([]string, error) {
	d := s.inj.Decide(faults.OpList)
	if err := delay(ctx, d.Delay); err != nil {
		return nil, err
	}
	if d.Err != nil {
		return nil, d.Err
	}
	return s.inner.List(ctx)
}

// Delete implements Store.
func (s *FaultStore) Delete(ctx context.Context, name string) error {
	d := s.inj.Decide(faults.OpDelete)
	if err := delay(ctx, d.Delay); err != nil {
		return err
	}
	if d.Err != nil {
		return d.Err
	}
	return s.inner.Delete(ctx, name)
}

// flippedReaderAt serves the underlying bytes with one bit flipped at
// a fixed offset.
type flippedReaderAt struct {
	r    ReaderAtCloser
	off  int64
	mask byte
}

func (f *flippedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.r.ReadAt(p, off)
	if i := f.off - off; i >= 0 && i < int64(n) {
		p[i] ^= f.mask
	}
	return n, err
}

func (f *flippedReaderAt) Close() error { return f.r.Close() }

// tornReaderAt serves bytes below the cut; any read reaching the cut
// fails with the injected error.
type tornReaderAt struct {
	r        ReaderAtCloser
	cut      int64
	errAfter error
}

func (t *tornReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= t.cut {
		return 0, t.errAfter
	}
	if off+int64(len(p)) > t.cut {
		n, err := t.r.ReadAt(p[:t.cut-off], off)
		if err == nil {
			err = t.errAfter
		}
		return n, err
	}
	return t.r.ReadAt(p, off)
}

func (t *tornReaderAt) Close() error { return t.r.Close() }

// GetAt implements RandomAccessStore, injecting into the lazy-restart
// read path.
func (s *FaultStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	d := s.inj.Decide(faults.OpGetAt)
	if err := delay(ctx, d.Delay); err != nil {
		return nil, 0, err
	}
	switch d.Kind {
	case faults.KindTransient, faults.KindPermanent:
		return nil, 0, d.Err
	}
	src, size, err := s.storeCaps.GetAt(ctx, name)
	if err != nil {
		return nil, 0, err
	}
	switch d.Kind {
	case faults.KindTorn:
		cut := int64(d.Frac * float64(size))
		return &tornReaderAt{r: src, cut: cut, errAfter: d.Err}, size, nil
	case faults.KindBitFlip:
		off := int64(d.Frac * float64(size))
		if off >= size && size > 0 {
			off = size - 1
		}
		return &flippedReaderAt{r: src, off: off, mask: 1 << (off % 8)}, size, nil
	}
	return src, size, nil
}

var _ Store = (*FaultStore)(nil)
