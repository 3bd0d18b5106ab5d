package crac

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cracplugin"
	"repro/internal/replaylog"
)

// Tests of the call log's normal form: a checkpoint writes the log's
// normal form, not its history, and the runtime's log stays short
// however long the session runs.

// logFloor is the shortest log replaylog.Log compacts: a log that
// churns never holds more entries.
const logFloor = 1024

// TestCheckpointWritesNormalFormNotHistory is the checkpoint mirror of
// TestRestartIssuesActiveSetNotHistory: sessions with the same live
// state but 3 000 and 12 000 malloc/free pairs behind it write
// byte-identical crac.log sections, and the log the emit walks is
// bounded by the compaction floor, not by the history.
func TestCheckpointWritesNormalFormNotHistory(t *testing.T) {
	ctx := context.Background()
	var sections [][]byte
	for _, pairs := range []int{3000, 12000} {
		s, active := churnedSession(t, pairs)
		walked := s.CRACRuntime().Log().Len()
		t.Logf("%d pairs: the emit walks %d entries", pairs, walked)
		if walked > logFloor {
			t.Errorf("%d pairs: the checkpoint walks a log of %d entries", pairs, walked)
		}
		store := NewMemStore()
		if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
			t.Fatal(err)
		}
		sec := storedSection(t, store, "img", cracplugin.SectionLog)
		log, err := replaylog.DecodeBytes(sec)
		if err != nil {
			t.Fatal(err)
		}
		if n := log.Len(); n != active {
			t.Errorf("%d pairs: crac.log holds %d entries for %d live resources", pairs, n, active)
		}
		sections = append(sections, sec)
		s.Close()
	}
	if !bytes.Equal(sections[0], sections[1]) {
		t.Fatalf("crac.log grows with history: %d bytes after 3000 pairs, %d after 12000",
			len(sections[0]), len(sections[1]))
	}
}

// TestLogBoundedWithUptime: the runtime's log does not grow with the
// calls a session has made. 100 000 malloc/free pairs over four live
// allocations leave it under the compaction floor, and 200 rounds of a
// restart → churn → checkpoint loop (the replay_churn benchmark's)
// write the same crac.log bytes every round.
func TestLogBoundedWithUptime(t *testing.T) {
	ctx := context.Background()
	t.Run("no-checkpoint", func(t *testing.T) {
		s, err := New()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rt := s.Runtime()
		for i := 0; i < 4; i++ {
			if _, err := rt.Malloc(64 << 10); err != nil {
				t.Fatal(err)
			}
		}
		churn(t, rt, rand.New(rand.NewSource(1)), 100_000)
		if n := s.CRACRuntime().Log().Len(); n > logFloor {
			t.Fatalf("after 100000 pairs the log holds %d entries", n)
		}
		if as := s.CRACRuntime().Log().Active(); len(as.Device) != 4 {
			t.Fatalf("active device buffers after churn: %d, want 4", len(as.Device))
		}
	})
	t.Run("restart-churn-checkpoint", func(t *testing.T) {
		s, _ := churnedSession(t, 6000)
		defer s.Close()
		rt := s.Runtime()
		for i := 0; i < 28; i++ {
			if _, err := rt.StreamCreate(); err != nil {
				t.Fatal(err)
			}
		}
		store := NewMemStore()
		if _, err := s.CheckpointTo(ctx, store, "golden"); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		var first []byte
		for round := 0; round < 200; round++ {
			if err := s.RestartFrom(ctx, store, "golden"); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			churn(t, rt, rng, 200)
			if _, err := s.CheckpointTo(ctx, store, "cur"); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			sec := storedSection(t, store, "cur", cracplugin.SectionLog)
			if first == nil {
				first = sec
			} else if !bytes.Equal(sec, first) {
				t.Fatalf("round %d wrote a %d-byte crac.log, round 0 a %d-byte one", round, len(sec), len(first))
			}
		}
	})
}

// restartedState is what a restart rebuilt: the arenas, the handle
// maps, the live set, and the bytes of every live device buffer.
type restartedState struct {
	arenas   any
	bindings any
	active   replaylog.ActiveSet
	device   [][]byte
}

func captureRestarted(t *testing.T, s *Session) restartedState {
	t.Helper()
	rt := s.CRACRuntime()
	st := restartedState{
		arenas:   s.Library().ArenaStates(),
		bindings: fatOrdinals(rt.Bindings()),
		active:   rt.Log().Active(),
	}
	for _, a := range st.active.Device {
		b := make([]byte, a.Size)
		if err := s.Space().ReadAt(a.Addr, b); err != nil {
			t.Fatal(err)
		}
		st.device = append(st.device, b)
	}
	return st
}

// TestFullHistoryImageRestarts: an image whose crac.log holds the whole
// call history — what checkpoints wrote before the log carried its
// normal form — still restarts, to the state the normal-form image of
// the same cut restores, and both pass invariant 1's oracle.
func TestFullHistoryImageRestarts(t *testing.T) {
	ctx := context.Background()
	const seed = 5
	s, err := New(rebuildOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hist := observeHistory(s)
	g := &oracleGen{rng: rand.New(rand.NewSource(seed)), rt: s.Runtime()}
	for i := 0; i < 400; i++ {
		if err := g.step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	for i, a := range g.dev {
		if err := s.Runtime().Memset(a, byte(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	history := hist.Entries()
	store := NewMemStore()
	if _, err := s.CheckpointTo(ctx, store, "normal"); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := replaylog.EncodeEntries(&full, history); err != nil {
		t.Fatal(err)
	}
	s.engine.Register(&sectionOverride{section: cracplugin.SectionLog, body: full.Bytes()})
	if _, err := s.CheckpointTo(ctx, store, "history"); err != nil {
		t.Fatal(err)
	}
	if n, m := len(storedSection(t, store, "history", cracplugin.SectionLog)), len(storedSection(t, store, "normal", cracplugin.SectionLog)); n <= m {
		t.Fatalf("the history image's log (%d bytes) is not longer than the normal form (%d bytes)", n, m)
	}

	var states []restartedState
	for _, name := range []string{"history", "normal"} {
		if err := s.RestartFrom(ctx, store, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		states = append(states, captureRestarted(t, s))
		checkAgainstReplay(t, s, history, seed)
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Fatalf("the full-history image restarts to another state than the normal form:\n%+v\n%+v", states[0], states[1])
	}
	if len(states[0].device) == 0 {
		t.Fatal("no live device buffer to compare")
	}
}
