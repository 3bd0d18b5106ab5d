package crac

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/dmtcp"
)

// makeImageBytes checkpoints a small session with the given options
// and returns the raw image bytes.
func makeImageBytes(t *testing.T, opts ...Option) []byte {
	t.Helper()
	s, err := New(append([]Option{WithWorkers(0), WithShardSize(32 << 10)}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	rt := s.Runtime()
	d, err := rt.Malloc(96 << 10)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if err := rt.Memset(d, 0x5A, 96<<10); err != nil {
		t.Fatalf("Memset: %v", err)
	}
	var buf bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// makeDeltaBytes builds a base+delta chain in a MemStore and returns
// the delta's raw bytes plus the backing store (for lazy restores).
func makeDeltaBytes(t *testing.T) ([]byte, Store) {
	t.Helper()
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "base", "tip")
	rc, err := store.Get(context.Background(), "tip")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	return b, store
}

// wantAny reports whether err matches at least one of the sentinels.
func wantAny(err error, sentinels ...error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// openCorrupt runs the given mutation over a copy of img and feeds the
// result to OpenImage.
func openCorrupt(img []byte, mutate func([]byte) []byte) error {
	b := mutate(append([]byte(nil), img...))
	_, err := OpenImage(bytes.NewReader(b))
	return err
}

func TestImageStructuralCorruption(t *testing.T) {
	type variant struct {
		name string
		img  []byte
	}
	variants := []variant{
		{"v1", makeImageBytes(t, WithImageVersion(1))},
		{"v1gzip", makeImageBytes(t, WithImageVersion(1), WithGzip(1))},
		{"v2", makeImageBytes(t, WithImageVersion(2))},
		{"v3base", makeImageBytes(t, WithIncremental(4))},
	}

	type mutation struct {
		name      string
		mutate    func([]byte) []byte
		sentinels []error // any of these satisfies the case
	}
	mutations := []mutation{
		{
			name:      "magic",
			mutate:    func(b []byte) []byte { b[0] ^= 0xFF; return b },
			sentinels: []error{ErrBadImage},
		},
		{
			name:      "version",
			mutate:    func(b []byte) []byte { b[7] = '9'; return b },
			sentinels: []error{ErrUnsupportedVersion},
		},
		{
			name: "truncated-header",
			mutate: func(b []byte) []byte {
				return b[:9]
			},
			sentinels: []error{ErrBadImage, ErrCorruptImage},
		},
		{
			name: "truncated-mid",
			mutate: func(b []byte) []byte {
				return b[:len(b)/2]
			},
			// v1+gzip has no trailer: the truncation surfaces as a
			// structural parse error instead.
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
		{
			name: "truncated-tail",
			mutate: func(b []byte) []byte {
				return b[:len(b)-1]
			},
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
		{
			name: "payload-flip",
			mutate: func(b []byte) []byte {
				b[len(b)/2] ^= 0x10
				return b
			},
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
		{
			name: "tail-flip",
			mutate: func(b []byte) []byte {
				b[len(b)-1] ^= 0x10
				return b
			},
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
		{
			name: "appended-garbage",
			mutate: func(b []byte) []byte {
				return append(b, 0xDE, 0xAD)
			},
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
	}

	for _, v := range variants {
		for _, m := range mutations {
			t.Run(v.name+"/"+m.name, func(t *testing.T) {
				err := openCorrupt(v.img, m.mutate)
				if err == nil {
					t.Fatalf("%s/%s: corruption accepted", v.name, m.name)
				}
				if !wantAny(err, m.sentinels...) {
					t.Fatalf("%s/%s: err = %v, want one of %v", v.name, m.name, err, m.sentinels)
				}
			})
		}
	}
}

// putBytes stores b under name.
func putBytes(t *testing.T, store Store, name string, b []byte) {
	t.Helper()
	if err := store.Put(context.Background(), name, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// restartRoutes are the ways into the one restart lifecycle: waited
// from a Store, unwaited and then waited on, and from a reader.
var restartRoutes = []struct {
	name    string
	restart func(ctx context.Context, s *Session, store Store, name string, img []byte) error
}{
	{"RestartFrom", func(ctx context.Context, s *Session, store Store, name string, _ []byte) error {
		return s.RestartFrom(ctx, store, name)
	}},
	{"RestartAsync", func(ctx context.Context, s *Session, store Store, name string, _ []byte) error {
		p, err := s.RestartAsync(ctx, store, name)
		if err != nil {
			return err
		}
		_, err = p.Wait()
		return err
	}},
	{"Restart", func(ctx context.Context, s *Session, _ Store, _ string, img []byte) error {
		return s.Restart(ctx, bytes.NewReader(img))
	}},
}

// makeBigChain checkpoints a base and a delta tip, each larger than
// dmtcp.PrefetchChunk, into a DirStore: images a restart reads by offset
// instead of in one request.
func makeBigChain(t *testing.T) *DirStore {
	t.Helper()
	ds, err := NewDirStore(t.TempDir(), 0, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithWorkers(0), WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const size = 3 << 19 // 1.5 MiB, all of it rewritten for the tip
	d, err := s.Runtime().Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"base", "tip"} {
		if err := s.Runtime().Memset(d, byte(i+1), size); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CheckpointTo(context.Background(), ds, name); err != nil {
			t.Fatal(err)
		}
		if n := len(conformGet(t, ds, name)); n <= dmtcp.PrefetchChunk {
			t.Fatalf("%s is %d bytes: the fixture must exceed one read", name, n)
		}
	}
	return ds
}

// TestImageSingleBitSweep flips one bit at every offset of each image's
// head (where the header tables are) and at a stride across the rest,
// and restarts from the flipped bytes: every flip must be rejected with
// ErrCorruptImage or ErrBadImage (ErrUnsupportedVersion for the version
// byte) before the old lower half is torn down, so the session stays
// open and finally restarts from the intact image. The v3 tips are
// chain tips whose base stays intact in the Store. v1 and v2 carry no
// per-shard hashes, and shard hashes do not cover v3 header fields, so
// the rows hold only because each route checks the trailer before it
// restores: every waited route, and an unwaited one for v1, v2 and
// images held in memory. The DirStore rows (members over one read, read
// by offset) are therefore waited only: an unwaited restart of such a
// v3 member relies on its shard hashes alone.
//
// v1+gzip has no checksum over its compressed bytes, only gzip's CRC
// over what they decode to, and a flip can leave that unchanged (a
// back-reference into a run of equal bytes moved within the run). Such
// a flip restores the intact state, which the row then requires.
func TestImageSingleBitSweep(t *testing.T) {
	tip, chain := makeDeltaBytes(t)
	big := makeBigChain(t)
	variants := []struct {
		name   string
		img    []byte
		store  Store // holds the intact base beside the flipped image
		routes []string
	}{
		{"v1", makeImageBytes(t, WithImageVersion(1)), NewMemStore(), nil},
		{"v1gzip", makeImageBytes(t, WithImageVersion(1), WithGzip(1)), NewMemStore(), nil},
		{"v2", makeImageBytes(t, WithImageVersion(2)), NewMemStore(), nil},
		{"v2gzip", makeImageBytes(t, WithGzip(1)), NewMemStore(), nil},
		{"v3base", makeImageBytes(t, WithIncremental(4)), NewMemStore(), nil},
		{"v3tip", tip, chain, nil},
		{"v3base-dir", conformGet(t, big, "base"), big, []string{"RestartFrom"}},
		{"v3tip-dir", conformGet(t, big, "tip"), big, []string{"RestartFrom"}},
	}
	ctx := context.Background()
	for _, v := range variants {
		for _, r := range restartRoutes {
			if v.routes != nil && !slices.Contains(v.routes, r.name) {
				continue
			}
			t.Run(v.name+"/"+r.name, func(t *testing.T) {
				s, err := New(WithWorkers(0))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				restartIntact := func() {
					putBytes(t, v.store, "flipped", v.img)
					if err := s.RestartFrom(ctx, v.store, "flipped"); err != nil {
						t.Fatalf("restart from the intact image: %v", err)
					}
				}
				restartIntact()
				want := sessionSnapshot(t, s)
				stride := len(v.img)/97 + 1
				for off := 0; off < len(v.img); off = nextFlip(off, stride) {
					b := append([]byte(nil), v.img...)
					b[off] ^= 1 << (off % 8)
					putBytes(t, v.store, "flipped", b)
					err := r.restart(ctx, s, v.store, "flipped", b)
					if err == nil && v.name == "v1gzip" && bytes.Equal(sessionSnapshot(t, s), want) {
						continue // the flip did not change what the image decodes to
					}
					if !wantAny(err, ErrCorruptImage, ErrBadImage, ErrUnsupportedVersion) {
						t.Fatalf("flip at offset %d (bit %d) of %d: restart = %v, want it rejected as corrupt",
							off, off%8, len(b), err)
					}
					if s.Library() == nil {
						t.Fatalf("flip at offset %d: the rejected image left the session closed", off)
					}
				}
				restartIntact()
			})
		}
	}
}

// nextFlip steps through every byte of an image's first KiB, where the
// header tables sit, and then at stride.
func nextFlip(off, stride int) int {
	if off < 1<<10 {
		return off + 1
	}
	return off + stride
}

// TestDeltaCorruptionEagerAndLazy corrupts a delta tip and asserts
// both a waited restore and an unwaited restart reject it with
// ErrCorruptImage.
func TestDeltaCorruptionEagerAndLazy(t *testing.T) {
	tip, store := makeDeltaBytes(t)
	ctx := context.Background()

	b := append([]byte(nil), tip...)
	b[len(b)/2] ^= 0x08
	putBytes(t, store, "tip", b)

	if _, err := RestoreFrom(ctx, store, "tip"); !wantAny(err, ErrCorruptImage, ErrBadImage) {
		t.Fatalf("RestoreFrom = %v, want corruption rejected", err)
	}

	s, err := New(WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// An unwaited restart may defer payload validation to the drain:
	// wait for it and demand the drain failed.
	rs, err := s.RestartAsync(ctx, store, "tip")
	if err == nil {
		_, err = rs.Wait()
	}
	if !wantAny(err, ErrCorruptImage, ErrBadImage) {
		t.Fatalf("RestartAsync = %v, want corruption rejected", err)
	}
}

// TestLegacyTrailerlessImageStillReadable pins the compatibility rule:
// a pre-trailer image (the bytes of a v2 image minus its 24-byte
// trailer) opens fine, reports Verified=false, and restores — through
// both the reader and the store route.
func TestLegacyTrailerlessImageStillReadable(t *testing.T) {
	img := makeImageBytes(t, WithImageVersion(2))
	legacy := img[:len(img)-24]
	im, err := OpenImage(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("OpenImage(legacy): %v", err)
	}
	if im.Info().Verified {
		t.Fatal("trailerless image claims Verified")
	}
	if err := im.Verify(context.Background()); err != nil {
		t.Fatalf("Verify(legacy): %v", err)
	}
	s, err := Restore(context.Background(), bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("Restore(legacy): %v", err)
	}
	store := NewMemStore()
	putBytes(t, store, "legacy", legacy)
	p, err := s.RestartAsync(context.Background(), store, "legacy")
	if err != nil {
		t.Fatalf("RestartAsync(legacy): %v", err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatalf("RestartAsync(legacy) drain: %v", err)
	}
	s.Close()
}
