package cas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// FuzzDecodeManifest feeds the manifest decoder — which runs on every
// stored entry a CASStore opens, collects garbage over or reports on —
// arbitrary bytes. It must fail with ErrBadManifest and never panic,
// and a count or length claim must not allocate ahead of the bytes that
// back it; whatever it accepts must re-encode to a manifest that
// decodes the same. Seeds: a v3 base manifest, a delta manifest, an
// opaque fixed-size fallback, and truncated and oversized-count cases.
func FuzzDecodeManifest(f *testing.F) {
	encode := func(tb testing.TB, m *Manifest) []byte {
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	chunk := func(stream []byte) *Manifest {
		c := NewChunker(nil)
		if _, err := c.Write(stream); err != nil {
			f.Fatal(err)
		}
		m, err := c.Finish()
		if err != nil {
			f.Fatal(err)
		}
		return m
	}
	base := chunk(testV3Image(f, 5, 1<<18, 32<<10))
	f.Add(encode(f, base))
	delta := *base
	delta.Delta, delta.Parent, delta.Depth = true, "gen0", 1
	f.Add(encode(f, &delta))
	raw := make([]byte, rawChunkSize+100)
	rand.New(rand.NewSource(9)).Read(raw)
	f.Add(encode(f, chunk(raw)))

	b := encode(f, base)
	f.Add(b[:len(b)/2])
	const prologueLen = 8 + 2 + 2 + 4 + 8 // magic, version+flags, parent length (no parent), depth, length
	for _, count := range []uint32{maxSegments, maxSegments + 1} {
		f.Add(binary.LittleEndian.AppendUint32(append([]byte(nil), b[:prologueLen]...), count))
	}
	inline := binary.LittleEndian.AppendUint32(append([]byte(nil), b[:prologueLen]...), 1)
	f.Add(binary.LittleEndian.AppendUint32(append(inline, 0), maxInlineSeg))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		again, err := DecodeManifest(bytes.NewReader(encode(t, m)))
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("re-encoded manifest decodes differently:\n%+v\n%+v", m, again)
		}
	})
}

// TestDecodeManifestAllocatesWhatArrives: a segment count or an inline
// length claimed by a few stored bytes must not allocate for the claim.
func TestDecodeManifestAllocatesWhatArrives(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Manifest{Length: 1}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	prologue := buf.Bytes()[:len(buf.Bytes())-4] // drop the (zero) segment count
	inline := binary.LittleEndian.AppendUint32(append([]byte(nil), prologue...), 1)
	for name, data := range map[string][]byte{
		"segment count": binary.LittleEndian.AppendUint32(append([]byte(nil), prologue...), maxSegments),
		"inline length": binary.LittleEndian.AppendUint32(append(inline, 0), maxInlineSeg),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := DecodeManifest(bytes.NewReader(data)); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("%s: decode error = %v, want ErrBadManifest", name, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: %d stored bytes allocated %d", name, len(data), got)
		}
	}
}
