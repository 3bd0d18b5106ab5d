package cracplugin

import (
	"encoding/binary"
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/cuda"
)

// SectionLower is the lower-half arena layout at the image's cut: every
// arena chunk's start, size and owning arena. With the log's active set
// it is all a restart needs to rebuild the allocator full replay would
// have built, without replaying the history. Metadata only: no byte of
// the lower half travels in the image (invariant 4).
const SectionLower = "crac.lower"

// lowerChunkSize is one encoded chunk: u64 start, u64 size, u8 arena.
const lowerChunkSize = 17

// EncodeLowerLayout encodes a layout as a SectionLower body: a u32
// chunk count, then the chunks in address order.
func EncodeLowerLayout(lay cuda.Layout) []byte {
	b := make([]byte, 4, 4+lowerChunkSize*len(lay))
	binary.LittleEndian.PutUint32(b, uint32(len(lay)))
	for _, c := range lay {
		b = binary.LittleEndian.AppendUint64(b, c.Start)
		b = binary.LittleEndian.AppendUint64(b, c.Size)
		b = append(b, byte(c.Arena))
	}
	return b
}

// DecodeLowerLayout decodes a SectionLower body and checks it against
// the lower window and the live allocations it will be rebuilt with
// (cuda.Layout.Check), so a hostile section fails here — before a
// restart tears anything down — and never later, half-way through a
// rebuild. The count must account for every byte of b exactly.
func DecodeLowerLayout(b []byte, lower addrspace.Window, live cuda.LiveSet) (cuda.Layout, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%s: truncated count", SectionLower)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) != uint64(n)*lowerChunkSize {
		return nil, fmt.Errorf("%s: %d chunks do not fill %d bytes", SectionLower, n, len(b))
	}
	lay := make(cuda.Layout, n)
	for i := range lay {
		lay[i] = cuda.Chunk{
			Start: binary.LittleEndian.Uint64(b),
			Size:  binary.LittleEndian.Uint64(b[8:]),
			Arena: cuda.Arena(b[16]),
		}
		b = b[lowerChunkSize:]
	}
	if err := lay.Check(lower, live); err != nil {
		return nil, fmt.Errorf("%s: %w", SectionLower, err)
	}
	return lay, nil
}
