package cracplugin

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// dm2Entry is one parsed devmem2 entry.
type dm2Entry struct {
	addr    uint64
	size    uint64
	payload []byte // nil when the entry was skipped
}

// parseDevMem2 decodes a whole devmem2 section held in memory.
func parseDevMem2(b []byte) ([]dm2Entry, error) {
	var entries []dm2Entry
	err := walkDevMem2(bytes.NewReader(b), uint64(len(b)), func(addr, size uint64, present bool, off uint64) error {
		e := dm2Entry{addr: addr, size: size}
		if present {
			e.payload = b[off : off+size]
		}
		entries = append(entries, e)
		return nil
	})
	return entries, err
}

// devMem2Sections wraps devmem2 sections for MergeDevMem, tip first.
func devMem2Sections(secs ...[]byte) []*io.SectionReader {
	out := make([]*io.SectionReader, len(secs))
	for i, b := range secs {
		out[i] = io.NewSectionReader(bytes.NewReader(b), 0, int64(len(b)))
	}
	return out
}

// devMem2Bytes encodes entries the way the emit lays a devmem2 section
// out (a nil payload is a skipped entry).
func devMem2Bytes(entries ...dm2Entry) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint64(b, e.addr)
		b = binary.LittleEndian.AppendUint64(b, e.size)
		if e.payload != nil {
			b = append(append(b, 1), e.payload...)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// FuzzWalkDevMem2 feeds the devmem2 entry-header walk — the one decoder
// behind the chain merge (MergeDevMem) and the restart plan — arbitrary
// sections. It must fail with an error, never panic,
// never report a payload outside the section, and never allocate from a
// size the input merely claims. The committed corpus
// (testdata/fuzz/FuzzWalkDevMem2) holds the hostile shapes by name: a
// truncated header, an entry size above maxDevMemEntryBytes, a payload
// overrunning the section, a count larger than the section can hold.
func FuzzWalkDevMem2(f *testing.F) {
	f.Add(devMem2Bytes())
	f.Add(devMem2Bytes(
		dm2Entry{addr: 0x1000, size: 4, payload: []byte("aaaa")},
		dm2Entry{addr: 0x2000, size: 1 << 20},
		dm2Entry{addr: 0x3000, size: 0, payload: []byte{}},
	))
	f.Fuzz(func(t *testing.T, sec []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		entries := 0
		var payloadAt []uint64
		walkErr := walkDevMem2(bytes.NewReader(sec), uint64(len(sec)), func(addr, size uint64, present bool, off uint64) error {
			entries++
			if size > maxDevMemEntryBytes {
				t.Fatalf("entry %d: size %d accepted", entries, size)
			}
			if present && (off > uint64(len(sec)) || size > uint64(len(sec))-off) {
				t.Fatalf("entry %d: payload %d+%d outside the %d-byte section", entries, off, size, len(sec))
			}
			payloadAt = append(payloadAt, off)
			return nil
		})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("walk of a %d-byte section allocated %d bytes", len(sec), grew)
		}
		if entries > len(sec)/devMem2EntryHdr {
			t.Fatalf("%d entries out of a %d-byte section", entries, len(sec))
		}
		parsed, parseErr := parseDevMem2(sec)
		if (walkErr == nil) != (parseErr == nil) {
			t.Fatalf("walk: %v, parse: %v", walkErr, parseErr)
		}
		if walkErr != nil {
			return
		}
		if len(parsed) != entries {
			t.Fatalf("parse returned %d entries, walk saw %d", len(parsed), entries)
		}
		for i, e := range parsed {
			if e.payload != nil && !bytes.Equal(e.payload, sec[payloadAt[i]:payloadAt[i]+e.size]) {
				t.Fatalf("entry %d: parsed payload is not the section's bytes at %d+%d", i, payloadAt[i], e.size)
			}
		}
	})
}
