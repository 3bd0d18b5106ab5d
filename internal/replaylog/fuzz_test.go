package replaylog

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeLog feeds DecodeBytes — the decoder of every image's
// crac.log section — arbitrary bytes. It must fail with an error, never
// panic, never size anything by the count a header merely claims, and
// accept only what the encoder writes: a decoded log re-encodes to
// exactly its input. The committed corpus (testdata/fuzz/FuzzDecodeLog)
// holds the hostile shapes by name: a truncated entry, a count far past
// what the bytes hold, trailing bytes, a string overrunning the end.
func FuzzDecodeLog(f *testing.F) {
	var valid bytes.Buffer
	if err := EncodeEntries(&valid, sampleEntries()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := DecodeBytes(b)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+8*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		if err != nil {
			return
		}
		if l.Len() > len(b)/minEntrySize {
			t.Fatalf("%d entries out of %d bytes", l.Len(), len(b))
		}
		var re bytes.Buffer
		if err := EncodeEntries(&re, l.Entries()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), b) {
			t.Fatalf("decoded log re-encodes to %d different bytes from its %d", re.Len(), len(b))
		}
		l.Active()
	})
}
