package crac

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// retiredImage is img with its magic naming a retired format version
// ('1' or '2'). Every reader refuses it as ErrUnsupportedVersion after
// the magic, so the rest of the bytes never matter.
func retiredImage(img []byte, version byte) []byte {
	b := append([]byte(nil), img...)
	b[7] = version
	return b
}

// gzipFlagged is img with flag bit 0 set — the retired gzip shard
// encoding — and its CRACSUM1 trailer resealed, so the bit is the
// image's only defect. Every reader refuses it as
// ErrUnsupportedVersion right after the flags.
func gzipFlagged(img []byte) []byte {
	b := append([]byte(nil), img...)
	b[8] |= 1
	body := len(b) - 24
	sum := crc32.Checksum(b[:body], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint64(b[body+16:], uint64(sum))
	return b
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

// TestImageStructuralCorruption mutates a standalone image and a chain
// base. The v1 and v2 rows are retired-format images: a mutation that
// keeps their magic must still report ErrUnsupportedVersion, one that
// breaks it ErrBadImage. The gzip rows set the retired gzip flag bit: a
// mutation that keeps the magic and the flags must still report
// ErrUnsupportedVersion.
func TestImageStructuralCorruption(t *testing.T) {
	type variant struct {
		name    string
		img     []byte
		retired bool
		gzipBit bool
	}
	standalone := makeImageBytes(t)
	standaloneGzip := gzipFlagged(standalone)
	variants := []variant{
		{"standalone", standalone, false, false},
		{"standalone-gzip", standaloneGzip, false, true},
		{"v3base", makeImageBytes(t, WithIncremental(4)), false, false},
		{"v1", retiredImage(standalone, '1'), true, false},
		{"v1gzip", retiredImage(standaloneGzip, '1'), true, true},
		{"v2", retiredImage(standalone, '2'), true, false},
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
				sentinels := m.sentinels
				switch {
				case m.name == "magic":
				case v.retired, v.gzipBit && m.name != "truncated-header":
					sentinels = []error{ErrUnsupportedVersion}
				}
				err := openCorrupt(v.img, m.mutate)
				if err == nil {
					t.Fatalf("%s/%s: corruption accepted", v.name, m.name)
				}
				if !wantAny(err, sentinels...) {
					t.Fatalf("%s/%s: err = %v, want one of %v", v.name, m.name, err, sentinels)
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

// makeBigImages checkpoints a chain base and a delta tip, and a
// standalone image "solo", each larger than dmtcp.PrefetchChunk, into a
// DirStore: images a restart reads by offset instead of in one request.
func makeBigImages(t *testing.T) *DirStore {
	t.Helper()
	ds, err := NewDirStore(t.TempDir(), 0, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	const size = 3 << 19 // 1.5 MiB, all of it rewritten for each image
	for _, opts := range [][]Option{{WithIncremental(8)}, nil} {
		s, err := New(append([]Option{WithWorkers(0)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		d, err := s.Runtime().Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"base", "tip"}
		if opts == nil {
			names = []string{"solo"}
		}
		for i, name := range names {
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
	}
	return ds
}

// TestImageSingleBitSweep flips one bit at every offset of each image's
// head (where the header tables are) and at a stride across the rest,
// and restarts from the flipped bytes: every flip must be rejected with
// ErrCorruptImage or ErrBadImage (ErrUnsupportedVersion for the version
// byte) before the old lower half is torn down, so the session stays
// open and finally restarts from the intact image. The v3 tips are
// chain tips whose base stays intact in the Store. A standalone image
// carries no per-shard hashes, and shard hashes do not cover header
// fields, so the rows hold only because each route checks the trailer
// before it restores: every waited route, and an unwaited one for
// standalone images and images held in memory. The standalone-dir rows
// (an image over one read, read by offset) cover that unwaited case;
// the v3 DirStore rows are waited only: an unwaited restart of such a
// chain member relies on its shard hashes alone.
//
// The v1 and v2 rows are retired-format images, and the gzip rows set
// the retired gzip flag bit: every route refuses the intact image as
// ErrUnsupportedVersion with the session open.
func TestImageSingleBitSweep(t *testing.T) {
	tip, chain := makeDeltaBytes(t)
	big := makeBigImages(t)
	standalone := makeImageBytes(t)
	standaloneGzip := gzipFlagged(standalone)
	variants := []struct {
		name    string
		img     []byte
		store   Store // holds the intact base beside the flipped image
		routes  []string
		retired bool
	}{
		{"standalone", standalone, NewMemStore(), nil, false},
		{"standalone-gzip", standaloneGzip, NewMemStore(), nil, true},
		{"standalone-dir", conformGet(t, big, "solo"), big, nil, false},
		{"v3base", makeImageBytes(t, WithIncremental(4)), NewMemStore(), nil, false},
		{"v3tip", tip, chain, nil, false},
		{"v3base-dir", conformGet(t, big, "base"), big, []string{"RestartFrom"}, false},
		{"v3tip-dir", conformGet(t, big, "tip"), big, []string{"RestartFrom"}, false},
		{"v1", retiredImage(standalone, '1'), NewMemStore(), nil, true},
		{"v1gzip", retiredImage(standaloneGzip, '1'), NewMemStore(), nil, true},
		{"v2", retiredImage(standalone, '2'), NewMemStore(), nil, true},
		{"v2gzip", retiredImage(standaloneGzip, '2'), NewMemStore(), nil, true},
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
				if v.retired {
					putBytes(t, v.store, "retired", v.img)
					if err := r.restart(ctx, s, v.store, "retired", v.img); !errors.Is(err, ErrUnsupportedVersion) {
						t.Fatalf("restart from a retired image = %v, want ErrUnsupportedVersion", err)
					}
					if s.Library() == nil {
						t.Fatal("the refused image left the session closed")
					}
					return
				}
				restartIntact := func() {
					putBytes(t, v.store, "flipped", v.img)
					if err := s.RestartFrom(ctx, v.store, "flipped"); err != nil {
						t.Fatalf("restart from the intact image: %v", err)
					}
				}
				restartIntact()
				stride := len(v.img)/97 + 1
				for off := 0; off < len(v.img); off = nextFlip(off, stride) {
					b := append([]byte(nil), v.img...)
					b[off] ^= 1 << (off % 8)
					putBytes(t, v.store, "flipped", b)
					err := r.restart(ctx, s, v.store, "flipped", b)
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

// TestOneFormatRules pins what every restart route refuses before the
// old lower half is torn down, leaving the session open: an image cut
// short of its 24-byte trailer (standalone, and a chain base) is
// ErrCorruptImage, a standalone image that also claims to be a delta is
// ErrBadImage, and one that sets the retired gzip flag bit is
// ErrUnsupportedVersion. OpenImage, OpenImageFrom and VerifyChain
// refuse each the same way.
func TestOneFormatRules(t *testing.T) {
	ctx := context.Background()
	standalone := makeImageBytes(t)
	bothBits := append([]byte(nil), standalone...)
	bothBits[8] |= 2 // the delta flag beside the unhashed one
	for _, tc := range []struct {
		name string
		img  []byte
		want error
	}{
		{"trailer-cut/standalone", standalone[:len(standalone)-24], ErrCorruptImage},
		{"trailer-cut/chain-base", func() []byte {
			b := makeImageBytes(t, WithIncremental(3))
			return b[:len(b)-24]
		}(), ErrCorruptImage},
		{"unhashed-delta", bothBits, ErrBadImage},
		{"gzip-bit", gzipFlagged(standalone), ErrUnsupportedVersion},
	} {
		if _, err := OpenImage(bytes.NewReader(tc.img)); !errors.Is(err, tc.want) {
			t.Fatalf("%s: OpenImage = %v, want %v", tc.name, err, tc.want)
		}
		store := NewMemStore()
		putBytes(t, store, "img", tc.img)
		if _, err := OpenImageFrom(ctx, store, "img"); !errors.Is(err, tc.want) {
			t.Fatalf("%s: OpenImageFrom = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := VerifyChain(ctx, store, "img"); !errors.Is(err, tc.want) {
			t.Fatalf("%s: VerifyChain = %v, want %v", tc.name, err, tc.want)
		}
		for _, r := range restartRoutes {
			t.Run(tc.name+"/"+r.name, func(t *testing.T) {
				s, err := New(WithWorkers(0))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				store := NewMemStore()
				putBytes(t, store, "img", tc.img)
				if err := r.restart(ctx, s, store, "img", tc.img); !errors.Is(err, tc.want) {
					t.Fatalf("restart = %v, want %v", err, tc.want)
				}
				if s.Library() == nil {
					t.Fatal("the refused image left the session closed")
				}
			})
		}
	}
}
