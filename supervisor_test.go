package crac

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/crt"
	"repro/internal/faults"
)

// svFixture is a supervisor over sessions holding one device buffer,
// with helpers to mutate and read it back.
type svFixture struct {
	t     *testing.T
	sv    *Supervisor
	store Store
	inj   *faults.Injector
	probe uint64 // device buffer (address stable: no ASLR)
	host  uint64 // pinned readback buffer
	n     uint64
}

func newSVFixture(t *testing.T, store Store, inj *faults.Injector, events *[]SupervisorEvent) *svFixture {
	t.Helper()
	f := &svFixture{t: t, store: store, inj: inj, n: 128 << 10}
	factory := func() (*Session, error) {
		s, err := New(WithWorkers(0), WithShardSize(64<<10))
		if err != nil {
			return nil, err
		}
		rt := s.Runtime()
		d, err := rt.Malloc(f.n)
		if err != nil {
			s.Close()
			return nil, err
		}
		h, err := rt.AppAlloc(f.n)
		if err != nil {
			s.Close()
			return nil, err
		}
		if err := rt.Memset(d, 0, f.n); err != nil {
			s.Close()
			return nil, err
		}
		f.probe, f.host = d, h
		return s, nil
	}
	sv, err := NewSupervisor(SupervisorConfig{
		Factory: factory,
		Store:   store,
		Prefix:  "g",
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond, Multiplier: 2},
		OnEvent: func(ev SupervisorEvent) {
			if events != nil {
				*events = append(*events, ev)
			}
		},
	})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	t.Cleanup(sv.Close)
	f.sv = sv
	return f
}

func (f *svFixture) mutate(v byte) {
	f.t.Helper()
	if err := f.sv.Session().Runtime().Memset(f.probe, v, f.n); err != nil {
		f.t.Fatalf("Memset: %v", err)
	}
}

// readback returns the first word of the device buffer via the current
// session.
func (f *svFixture) readback() uint32 {
	f.t.Helper()
	rt := f.sv.Session().Runtime()
	if err := rt.Memcpy(f.host, f.probe, 4, crt.MemcpyDeviceToHost); err != nil {
		f.t.Fatalf("Memcpy: %v", err)
	}
	w, err := crt.HostU32(rt, f.host, 1)
	if err != nil {
		f.t.Fatalf("HostU32: %v", err)
	}
	return w[0]
}

func (f *svFixture) kill() {
	f.sv.Session().Close()
	f.sv.ReportFailure(errors.New("injected kill"))
}

func word(v byte) uint32 {
	return uint32(v) | uint32(v)<<8 | uint32(v)<<16 | uint32(v)<<24
}

func TestSupervisorRecoversFromNewestImage(t *testing.T) {
	ctx := context.Background()
	f := newSVFixture(t, NewMemStore(), nil, nil)

	f.mutate(0x11)
	if err := f.sv.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	f.mutate(0x22)
	if err := f.sv.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	f.mutate(0x33) // never checkpointed: must be lost on recovery
	old := f.sv.Session()
	f.kill()
	if err := f.sv.Recover(ctx); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if f.sv.Session() == old {
		t.Fatal("recovery kept the dead session")
	}
	if got := f.readback(); got != word(0x22) {
		t.Fatalf("recovered state = %#x, want %#x (newest checkpoint)", got, word(0x22))
	}
	st := f.sv.Stats()
	if st.Recoveries != 1 || st.Failures != 1 || st.ColdStarts != 0 {
		t.Fatalf("stats = %+v, want 1 recovery from 1 failure", st)
	}
	if st.LastRecoveredFrom != "g000001" {
		t.Fatalf("LastRecoveredFrom = %q, want g000001", st.LastRecoveredFrom)
	}
	if st.LastMTTR <= 0 || st.TotalMTTR < st.LastMTTR {
		t.Fatalf("MTTR accounting broken: %+v", st)
	}
}

func TestSupervisorFallsBackPastCorruptTip(t *testing.T) {
	ctx := context.Background()
	var events []SupervisorEvent
	store := NewMemStore()
	inj := faults.New(faults.Config{Seed: 5})
	fstore := NewFaultStore(store, inj)
	f := newSVFixture(t, fstore, inj, &events)

	f.mutate(0x44)
	if err := f.sv.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	f.mutate(0x55)
	inj.FailNext(faults.OpPut, faults.KindBitFlip) // tip commits corrupted
	if err := f.sv.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint (flipped): %v", err)
	}
	f.kill()
	if err := f.sv.Recover(ctx); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := f.readback(); got != word(0x44) {
		t.Fatalf("recovered state = %#x, want %#x (intact predecessor)", got, word(0x44))
	}
	st := f.sv.Stats()
	if st.LastRecoveredFrom != "g000000" {
		t.Fatalf("LastRecoveredFrom = %q, want g000000 (fallback)", st.LastRecoveredFrom)
	}
	var skips int
	for _, ev := range events {
		if ev.Kind == "verify-skip" {
			if ev.Name != "g000001" {
				t.Errorf("verify-skip on %q, want g000001", ev.Name)
			}
			if !errors.Is(ev.Err, ErrCorruptImage) {
				t.Errorf("verify-skip err = %v, want ErrCorruptImage", ev.Err)
			}
			skips++
		}
	}
	if skips != 1 {
		t.Fatalf("%d verify-skip events, want 1", skips)
	}
}

func TestSupervisorColdStartWhenNothingIntact(t *testing.T) {
	ctx := context.Background()
	var events []SupervisorEvent
	f := newSVFixture(t, NewMemStore(), nil, &events)

	f.mutate(0x66)
	if err := f.sv.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Corrupt the only image in place.
	corruptStored(t, f.store, "g000000", 0.5)
	f.kill()
	if err := f.sv.Recover(ctx); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := f.readback(); got != 0 {
		t.Fatalf("cold-started state = %#x, want the factory's zeroed buffer", got)
	}
	st := f.sv.Stats()
	if st.ColdStarts != 1 || st.Recoveries != 0 {
		t.Fatalf("stats = %+v, want a cold start", st)
	}
	var sawCold bool
	for _, ev := range events {
		if ev.Kind == "cold-start" {
			sawCold = true
		}
	}
	if !sawCold {
		t.Fatal("no cold-start event emitted")
	}
}

func TestSupervisorCheckpointRecoversDeadSession(t *testing.T) {
	ctx := context.Background()
	f := newSVFixture(t, NewMemStore(), nil, nil)
	f.mutate(0x77)
	if err := f.sv.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// The session dies without ReportFailure; the next Checkpoint finds
	// out, recovers, and reports the checkpoint's failure.
	f.sv.Session().Close()
	if err := f.sv.Checkpoint(ctx); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Checkpoint on dead session = %v, want ErrSessionClosed", err)
	}
	if got := f.readback(); got != word(0x77) {
		t.Fatalf("state after in-checkpoint recovery = %#x, want %#x", got, word(0x77))
	}
	// The supervisor is healthy again: the next checkpoint just works.
	if err := f.sv.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint after recovery: %v", err)
	}
}

func TestSupervisorResumesGenerationNumbering(t *testing.T) {
	ctx := context.Background()
	store := NewMemStore()
	// Pre-existing survivor (plus noise the parser must ignore).
	for _, name := range []string{"g000007", "unrelated", "g000003~quarantined"} {
		if err := store.Put(ctx, name, func(w io.Writer) error {
			_, err := w.Write([]byte("x"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	f := newSVFixture(t, store, nil, nil)
	f.mutate(0x21)
	if err := f.sv.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := store.Get(ctx, "g000008"); err != nil {
		t.Fatalf("new checkpoint not at g000008 (numbering did not resume): %v", err)
	}
	rc, err := store.Get(ctx, "g000007")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "x" {
		t.Fatal("supervisor overwrote the surviving g000007")
	}
}

func TestSupervisorRunHonorsContext(t *testing.T) {
	f := newSVFixture(t, NewMemStore(), nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := f.sv.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want ctx deadline", err)
	}
}

// TestSupervisorRecoveryReadsEachMemberOnce: recovering from an intact
// depth-4 chain fetches each member's bytes once — the restart that
// verifies the chain is the read that restores it.
func TestSupervisorRecoveryReadsEachMemberOnce(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	const depth = 4
	var buf uint64 // device buffer (address stable: no ASLR)
	sv, err := NewSupervisor(SupervisorConfig{
		Factory: func() (*Session, error) {
			s, err := New(WithWorkers(0), WithShardSize(64<<10), WithIncremental(depth+1))
			if err != nil {
				return nil, err
			}
			if buf, err = s.Runtime().Malloc(256 << 10); err != nil {
				s.Close()
				return nil, err
			}
			return s, nil
		},
		Store:  store,
		Prefix: "g",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	var chain []string
	for i := 0; i <= depth; i++ {
		if err := sv.Session().Runtime().Memset(buf+uint64(i)*4096, byte(i+1), 4096); err != nil {
			t.Fatal(err)
		}
		if err := sv.Checkpoint(ctx); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		chain = append(chain, sv.genName(i))
	}
	if _, err := VerifyChain(ctx, store, chain[depth]); err != nil {
		t.Fatalf("the supervised images do not form one chain: %v", err)
	}

	sv.ReportFailure(errors.New("injected kill"))
	store.reset()
	if err := sv.Recover(ctx); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := sv.Stats().LastRecoveredFrom; got != chain[depth] {
		t.Fatalf("recovered from %q, want the tip %q", got, chain[depth])
	}
	for _, name := range chain {
		if got, size := store.bytes[name], int64(len(conformGet(t, store.MemStore, name))); got > size {
			t.Errorf("%s: recovery fetched %d bytes of a %d-byte image", name, got, size)
		}
	}
}

// TestSupervisorCompactAfterSweepsChunks: the CompactAfter step
// compacts the chain, then collects the chunks only its deleted
// ancestors referenced.
func TestSupervisorCompactAfterSweepsChunks(t *testing.T) {
	ctx := context.Background()
	store := NewCASStore(NewMemStore())
	var events []SupervisorEvent
	var buf uint64
	sv, err := NewSupervisor(SupervisorConfig{
		Factory: func() (*Session, error) {
			s, err := New(WithWorkers(0), WithShardSize(64<<10), WithIncremental(8))
			if err != nil {
				return nil, err
			}
			if buf, err = s.Runtime().Malloc(256 << 10); err != nil {
				s.Close()
				return nil, err
			}
			return s, nil
		},
		Store:        store,
		Prefix:       "g",
		CompactAfter: 2,
		OnEvent:      func(ev SupervisorEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	for i := 0; i < 3; i++ {
		if err := sv.Session().Runtime().Memset(buf, byte(i+1), 256<<10); err != nil {
			t.Fatal(err)
		}
		if err := sv.Checkpoint(ctx); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	if got := sv.Stats().Compactions; got != 1 {
		t.Fatalf("%d compactions (events %v), want 1", got, events)
	}
	names, err := store.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"g000002"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("store after compaction = %v, want %v", names, want)
	}
	rep, err := DedupReport(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 0 {
		t.Fatalf("%d chunks left unreferenced after the CompactAfter step", rep.Orphans)
	}
}
