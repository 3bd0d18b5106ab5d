package dmtcp

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/addrspace"
)

// TestFreezeWriteFrozenMatchesBlocking (invariant 10, engine level): an
// image written from the armed snapshot while the space is overwritten
// is byte-identical to the live-view reference at the same cut, for
// standalone images and a chain base. The row names predate the single
// format: the v1 and v2 rows write standalone images (v1 on a one-page
// shard grid); the v2-gzip row also checks that the frozen image with
// the retired gzip bit set is refused.
func TestFreezeWriteFrozenMatchesBlocking(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chain bool
		gz    bool
		shard int
	}{
		{"v1", false, false, addrspace.PageSize},
		{"v2", false, false, 0},
		{"v2-gzip", false, true, 0},
		{"v3-base", true, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() (*Engine, *addrspace.Space) {
				space, _ := buildSpace(t)
				e := NewEngine()
				e.ShardSize = tc.shard
				e.Register(&testPlugin{name: "p"})
				return e, space
			}
			eb, sb := mk()
			var blocking bytes.Buffer
			stB, _, err := eb.checkpointLive(context.Background(), &blocking, sb, tc.chain, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			if stB.PauseDuration != stB.Duration {
				t.Fatalf("blocking pause %v != duration %v", stB.PauseDuration, stB.Duration)
			}

			ef, sf := mk()
			fz, err := ef.FreezeCheckpoint(context.Background(), sf, tc.chain, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			// Mutate after the freeze: the frozen image must not notice.
			regs := sf.RegionsIn(addrspace.HalfUpper)
			if err := sf.WriteAt(regs[0].Start, bytes.Repeat([]byte{0xEE}, int(regs[0].Len))); err != nil {
				t.Fatal(err)
			}
			var frozen bytes.Buffer
			stF, _, err := ef.WriteFrozen(context.Background(), &frozen, fz)
			fz.Release()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blocking.Bytes(), frozen.Bytes()) {
				t.Fatalf("frozen image differs from blocking (%d vs %d bytes)", blocking.Len(), frozen.Len())
			}
			if tc.gz {
				wantGzipRefused(t, gzipFlagged(frozen.Bytes()))
			}
			if stF.Regions != stB.Regions || stF.RegionBytes != stB.RegionBytes {
				t.Fatalf("stats diverge: frozen %+v blocking %+v", stF, stB)
			}
			if sf.RetainedPages() != 0 {
				t.Fatal("CoW pages leaked after Release")
			}
		})
	}
}

// TestFreezeDeltaChainMatchesBlocking: a snapshot delta against a
// snapshot base equals the live-view CheckpointDelta chain byte for
// byte, and the returned DeltaState carries the same lineage.
func TestFreezeDeltaChainMatchesBlocking(t *testing.T) {
	mk := func() (*Engine, *addrspace.Space, uint64) {
		space, up := buildSpace(t)
		e := NewEngine()
		e.Register(&testPlugin{name: "p"})
		return e, space, up
	}
	eb, sb, upB := mk()
	var baseB, deltaB bytes.Buffer
	_, stateB, err := eb.CheckpointDelta(context.Background(), &baseB, sb, nil, "base")
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.WriteAt(upB, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	_, _, err = eb.CheckpointDelta(context.Background(), &deltaB, sb, stateB, "delta")
	if err != nil {
		t.Fatal(err)
	}

	ef, sf, upF := mk()
	var baseF, deltaF bytes.Buffer
	fz, err := ef.FreezeCheckpoint(context.Background(), sf, true, nil, "base")
	if err != nil {
		t.Fatal(err)
	}
	_, stateF, err := ef.WriteFrozen(context.Background(), &baseF, fz)
	fz.Release()
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.WriteAt(upF, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	fz, err = ef.FreezeCheckpoint(context.Background(), sf, true, stateF, "delta")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := ef.WriteFrozen(context.Background(), &deltaF, fz)
	fz.Release()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Delta {
		t.Fatal("frozen second checkpoint should be a delta")
	}
	if !bytes.Equal(baseB.Bytes(), baseF.Bytes()) {
		t.Fatal("frozen base differs from blocking base")
	}
	if !bytes.Equal(deltaB.Bytes(), deltaF.Bytes()) {
		t.Fatal("frozen delta differs from blocking delta")
	}
	if stateF.Cut != stateB.Cut || stateF.Depth != stateB.Depth || stateF.ID != stateB.ID {
		t.Fatalf("lineage diverges: frozen %+v blocking %+v", stateF, stateB)
	}
}
