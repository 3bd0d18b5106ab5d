package dmtcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/par"
)

// ErrCorruptImage reports an image that was structurally valid when
// written but whose bytes no longer match their recorded checksums —
// damage in flight or at rest (bit rot, a torn write, a tampered
// store), as opposed to ErrBadImage's "not a valid image stream".
// Integrity failures are worth distinguishing: a corrupt image usually
// has intact siblings (an older generation, a chain ancestor) worth
// falling back to, while a bad image usually means the caller opened
// the wrong bytes altogether.
var ErrCorruptImage = errors.New("dmtcp: corrupt checkpoint image")

// The integrity trailer: appended after every image body, and required
// by every reader. The trailer is magic + body length + CRC-32C of
// every body byte, magic included, so any single-bit flip anywhere in
// the stream — headers, payload, or the trailer itself — is detected.
// CRC-32C rather than a 64-bit hash because the checksum sits on the
// checkpoint and restart critical paths: the stdlib implementation is
// hardware-accelerated on amd64/arm64, so hashing costs well under a
// millisecond per image instead of tens. It is the only check that
// covers a standalone image's payload and every image's header tables.
var trailerMagic = [8]byte{'C', 'R', 'A', 'C', 'S', 'U', 'M', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const trailerSize = 24

// bodyHash accumulates the trailer checksum (CRC-32C widened into the
// trailer's u64 slot).
type bodyHash struct{ crc uint32 }

func (b *bodyHash) Write(p []byte) {
	b.crc = crc32.Update(b.crc, castagnoli, p)
}

func (b *bodyHash) Sum64() uint64 { return uint64(b.crc) }

// trailerWriter hashes and counts the image body flowing through it;
// Finish appends the trailer to the underlying writer.
type trailerWriter struct {
	w io.Writer
	h bodyHash
	n uint64
}

func newTrailerWriter(w io.Writer) *trailerWriter {
	return &trailerWriter{w: w}
}

func (tw *trailerWriter) Write(p []byte) (int, error) {
	n, err := tw.w.Write(p)
	tw.h.Write(p[:n])
	tw.n += uint64(n)
	return n, err
}

func (tw *trailerWriter) Finish() error {
	var tr [trailerSize]byte
	copy(tr[:8], trailerMagic[:])
	binary.LittleEndian.PutUint64(tr[8:16], tw.n)
	binary.LittleEndian.PutUint64(tr[16:24], tw.h.Sum64())
	_, err := tw.w.Write(tr[:])
	return err
}

// checkTrailer classifies tail, the bytes that follow a fully-parsed
// image body (at most trailerSize+1 of them): anything but one matching
// trailer — no trailer, a partial one, a checksum or length mismatch,
// bytes beyond it — reports ErrCorruptImage. Strictness is safe because
// every image occupies its own stream (a Store entry or file); there is
// no valid reason for bytes past the trailer.
func checkTrailer(tail []byte, bodyLen, bodySum uint64) error {
	switch {
	case len(tail) < trailerSize:
		return fmt.Errorf("%w: truncated trailer (%d of %d bytes)", ErrCorruptImage, len(tail), trailerSize)
	case len(tail) > trailerSize:
		return fmt.Errorf("%w: trailing bytes after image trailer", ErrCorruptImage)
	}
	if !bytes.Equal(tail[:8], trailerMagic[:]) {
		return fmt.Errorf("%w: bad trailer magic %q", ErrCorruptImage, tail[:8])
	}
	if got := binary.LittleEndian.Uint64(tail[8:16]); got != bodyLen {
		return fmt.Errorf("%w: trailer claims %d body bytes, read %d", ErrCorruptImage, got, bodyLen)
	}
	if binary.LittleEndian.Uint64(tail[16:24]) != bodySum {
		return fmt.Errorf("%w: image checksum mismatch", ErrCorruptImage)
	}
	return nil
}

// readFlags reads an image's four flag bytes, returns the first, and
// rejects any bit outside known: no writer sets one, so it can only be
// damage.
func readFlags(r io.Reader, known byte) (byte, error) {
	var flags [4]byte
	if _, err := io.ReadFull(r, flags[:]); err != nil {
		return 0, fmt.Errorf("%w: flags: %v", ErrBadImage, err)
	}
	if flags[0]&^known != 0 || flags[1]|flags[2]|flags[3] != 0 {
		return 0, fmt.Errorf("%w: unknown flags %x", ErrBadImage, flags)
	}
	return flags[0], nil
}

// VerifyTrailer checks the indexed image's integrity trailer without
// parsing it again: the scan already delimited the body, so one
// sequential CRC-32C pass over it settles the trailer. It reports nil
// for a matching trailer and ErrCorruptImage for anything else. Chain
// images' shards carry their own content hashes, checked on every
// decode, but those do not cover the header tables, and a standalone
// image's shards carry none: only this pass covers them.
func (ix *ShardIndex) VerifyTrailer() error {
	tail := make([]byte, min(ix.size-ix.bodyLen, trailerSize+1))
	if err := readFullAt(ix.src, tail, ix.bodyLen); err != nil {
		return err
	}
	var h bodyHash
	if ix.mem != nil {
		h.Write(ix.mem[:ix.bodyLen]) // in place
	} else {
		bp := readStagePool.Get().(*[]byte)
		defer readStagePool.Put(bp)
		for off := int64(0); off < ix.bodyLen; {
			chunk := (*bp)[:min(int64(len(*bp)), ix.bodyLen-off)]
			if err := readFullAt(ix.src, chunk, off); err != nil {
				return err
			}
			h.Write(chunk)
			off += int64(len(chunk))
		}
	}
	return checkTrailer(tail, uint64(ix.bodyLen), h.Sum64())
}

// readFullAt fills p from an image source at off. A source that ends
// early is a malformed image; any other failure is the source's own (a
// transient store error stays retryable, a cancelled read stays a
// cancellation).
func readFullAt(src io.ReaderAt, p []byte, off int64) error {
	n, err := src.ReadAt(p, off)
	switch {
	case n == len(p):
		return nil
	case err == nil || err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: image ends at %d", ErrBadImage, off+int64(n))
	default:
		return err
	}
}

// Verify checks the whole image: its trailer (VerifyTrailer), then
// every shard, decoded and matched against its content hash when the
// image carries one. ReadImage, chain verification and crac.Image's
// Verify all apply this one rule.
func (ix *ShardIndex) Verify() error {
	if err := ix.VerifyTrailer(); err != nil {
		return err
	}
	return par.ForErr(len(ix.shards), func(i int) error {
		if raw, err := ix.shardView(i); raw != nil || err != nil {
			return err
		}
		n := int(ix.shards[i].rawLen)
		bp := defaultBudget.getShardBuf(n)
		defer defaultBudget.putShardBuf(bp)
		return ix.readShard(i, (*bp)[:n])
	})
}
