package dmtcp

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/addrspace"
)

// patterned returns n deterministic bytes from a 32-bit xorshift
// generator, so the pinned vectors below never depend on a library's
// random sequence.
func patterned(n int) []byte {
	b := make([]byte, n)
	x := uint32(2463534242)
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = byte(x)
	}
	return b
}

// TestShardSumVectors pins shardSum, a stored format, on fixed buffers.
// The "123456789" row is the published check value of each half
// (CRC-32C 0xE3069283, CRC-32 0xCBF43926). CI also runs this package
// under GOARCH=386, whose CRCs are computed in software, so every
// architecture must reproduce the same sums.
func TestShardSumVectors(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
		want uint64
	}{
		{"empty", nil, 0},
		{"check", []byte("123456789"), 0xE3069283_CBF43926},
		{"1B", []byte{0x5A}, 0x68BAA1BA_59BC5767},
		{"4KiB", patterned(4 << 10), 0xFEF08875_26D0FDAD},
		{"256KiB", patterned(256 << 10), 0xA34F288D_72DD08B7},
	} {
		if got := shardSum(tc.b); got != tc.want {
			t.Errorf("shardSum(%s) = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// zeroByte advances a CRC's raw (un-inverted) remainder over one zero
// byte: the linear step that moves an error one byte further from the
// end of the message.
func zeroByte(s uint32, tab *crc32.Table) uint32 {
	return ^crc32.Update(^s, tab, []byte{0})
}

// rawByte is the raw remainder of the one-byte message b.
func rawByte(b byte, tab *crc32.Table) uint32 {
	return ^crc32.Update(^uint32(0), tab, []byte{b})
}

// TestShardSumDetectsFlipsAndBursts sweeps a 256 KiB shard: every
// single-bit flip, and a sample of bursts up to 64 bits long, must
// change its sum. Both CRCs are linear, so flipping error e changes the
// sum by the raw remainder of e alone; the sweep computes that
// remainder for each of the 2^21 single-bit errors (an error k bytes
// before the end is the one-byte remainder advanced over k zero bytes)
// and checks a sample of them against the sum of the flipped shard
// itself. The bursts are summed directly.
func TestShardSumDetectsFlipsAndBursts(t *testing.T) {
	shard := patterned(256 << 10)
	sum := shardSum(shard)
	n := len(shard)
	ieee := crc32.IEEETable
	var dc, di [8]uint32 // raw remainders of bit j at the current byte
	for j := range dc {
		dc[j], di[j] = rawByte(1<<j, castagnoli), rawByte(1<<j, ieee)
	}
	for k := n - 1; k >= 0; k-- {
		for j := range dc {
			diff := uint64(dc[j])<<32 | uint64(di[j])
			if diff == 0 {
				t.Fatalf("flipping bit %d of byte %d leaves the sum unchanged", j, k)
			}
			if (k*8+j)%65521 == 0 {
				flipped := append([]byte(nil), shard...)
				flipped[k] ^= 1 << j
				if got := shardSum(flipped); got != sum^diff {
					t.Fatalf("bit %d of byte %d: sum %#x, the linear model says %#x", j, k, got, sum^diff)
				}
			}
			dc[j], di[j] = zeroByte(dc[j], castagnoli), zeroByte(di[j], ieee)
		}
	}

	bursts := 1500
	if testing.Short() {
		bursts = 200
	}
	flipped := append([]byte(nil), shard...)
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	flip := func(start int, pattern uint64, length int) {
		for i := 0; i < length; i++ {
			if pattern>>i&1 != 0 {
				bit := start + i
				flipped[bit/8] ^= 1 << (bit % 8)
			}
		}
	}
	for i := 0; i < bursts; i++ {
		length := 1 + int(next()%64)
		start := int(next() % uint64(n*8-length+1))
		// A burst of this length: its first and last bits flip, any
		// between may.
		pattern := next() | 1 | 1<<(length-1)
		if length < 64 {
			pattern &= 1<<length - 1
		}
		flip(start, pattern, length)
		if shardSum(flipped) == sum {
			t.Fatalf("a %d-bit burst at bit %d (pattern %#x) leaves the sum unchanged", length, start, pattern)
		}
		flip(start, pattern, length)
	}
}

// TestRetiredShardHashRefused: a chain image without flagShardCRC — one
// whose shards the retired FNV-1a hash summed — is refused as
// ErrUnsupportedVersion by every parser, as a chain member too, and a
// restore from it maps nothing; a standalone image that sets the bit is
// ErrBadImage.
func TestRetiredShardHashRefused(t *testing.T) {
	base, delta, space := chainImages(t, 64<<10)
	for name, img := range map[string][]byte{"base": base, "delta": delta} {
		t.Run(name, func(t *testing.T) {
			if img[len(imageMagic)]&flagShardCRC == 0 {
				t.Fatalf("a chain %s without flagShardCRC", name)
			}
			retired := fnvHashed(t, img)
			wantRefused(t, retired)
			_, err := OpenShardIndexWhole(bytes.NewReader(retired), int64(len(retired)), PrefetchChunk)
			if !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("OpenShardIndexWhole = %v, want ErrUnsupportedVersion", err)
			}
			cs := chainStore{"base": base, "delta": delta}
			cs[name] = retired
			if _, err := cs.resolve("delta"); !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("resolving a chain with a retired %s = %v, want ErrUnsupportedVersion", name, err)
			}
			fresh := addrspace.New()
			if err := restoreImage(nil, retired, fresh, 0); !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("restore = %v, want ErrUnsupportedVersion", err)
			}
			if n := len(fresh.RegionsIn(addrspace.HalfUpper)); n != 0 {
				t.Fatalf("a refused restore mapped %d regions", n)
			}
		})
	}

	var solo bytes.Buffer
	if _, err := NewEngine().Checkpoint(context.Background(), &solo, space); err != nil {
		t.Fatal(err)
	}
	if solo.Bytes()[len(imageMagic)]&flagShardCRC != 0 {
		t.Fatal("a standalone image sets flagShardCRC")
	}
	claimed := reflagged(solo.Bytes(), func(f byte) byte { return f | flagShardCRC })
	for what, err := range map[string]error{
		"ReadImage":     func() error { _, err := ReadImage(bytes.NewReader(claimed)); return err }(),
		"ReadImageMeta": func() error { _, err := ReadImageMeta(bytes.NewReader(claimed)); return err }(),
		"OpenShardIndex": func() error {
			_, err := OpenShardIndex(bytes.NewReader(claimed), int64(len(claimed)))
			return err
		}(),
	} {
		if !errors.Is(err, ErrBadImage) {
			t.Errorf("%s of a standalone image with flagShardCRC = %v, want ErrBadImage", what, err)
		}
	}
}
