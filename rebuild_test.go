package crac

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/addrspace"
	"repro/internal/cracplugin"
	"repro/internal/cracrt"
	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/dmtcp"
	"repro/internal/gpusim"
	"repro/internal/replaylog"
)

// Tests of DESIGN.md invariant 1: the allocator a restart rebuilds from
// an image's arena layout and active set equals the one full replay of
// the call history up to the image's cut (cracrt.Replay) builds on a
// fresh lower half. Neither the runtime's log nor the image keeps that
// history; each test records it with an observer on the runtime.

// rebuildOpts shrink the arena growth chunks so a few hundred calls grow
// every arena many times and regularly outgrow one growth mapping
// (a dedicated oversize chunk).
func rebuildOpts() []Option {
	return []Option{WithArenaChunks(512<<10, 128<<10, 512<<10), WithWorkers(1)}
}

// oracleGen drives a runtime through a seeded random mix of every
// logged call: the three arena allocators and their frees, cudaHostAlloc,
// growth past a chunk, and stream, event and fat-binary lifecycles.
type oracleGen struct {
	rng                 *rand.Rand
	rt                  crt.Runtime
	dev, pin, mgd, host []uint64
	streams             []crt.StreamHandle
	events              []crt.EventHandle
	fats                []crt.FatBinHandle
}

// size draws an allocation size: mostly small, sometimes a growth
// mapping's worth, and one in ten past every growth mapping.
func (g *oracleGen) size() uint64 {
	switch g.rng.Intn(10) {
	case 0:
		return uint64(200<<10 + g.rng.Intn(500<<10))
	case 1, 2:
		return uint64(16<<10 + g.rng.Intn(112<<10))
	default:
		return uint64(1 + g.rng.Intn(16<<10))
	}
}

// take removes and returns a random element of *list.
func take[T any](rng *rand.Rand, list *[]T) T {
	i := rng.Intn(len(*list))
	v := (*list)[i]
	*list = slices.Delete(*list, i, i+1)
	return v
}

func (g *oracleGen) step() error {
	rt := g.rt
	alloc := func(list *[]uint64, malloc func(uint64) (uint64, error)) error {
		a, err := malloc(g.size())
		if err == nil {
			*list = append(*list, a)
		}
		return err
	}
	switch op := g.rng.Intn(20); {
	case op < 5:
		return alloc(&g.dev, rt.Malloc)
	case op < 8 && len(g.dev) > 0:
		return rt.Free(take(g.rng, &g.dev))
	case op < 9:
		return alloc(&g.pin, rt.MallocHost)
	case op < 10 && len(g.pin) > 0:
		return rt.FreeHost(take(g.rng, &g.pin))
	case op < 11:
		return alloc(&g.mgd, rt.MallocManaged)
	case op < 12 && len(g.mgd) > 0:
		return rt.Free(take(g.rng, &g.mgd))
	case op < 13:
		if len(g.host) > 0 && g.rng.Intn(2) == 0 {
			return rt.FreeHost(take(g.rng, &g.host))
		}
		a, err := rt.HostAlloc(uint64(1+g.rng.Intn(4)) * addrspace.PageSize)
		if err == nil {
			g.host = append(g.host, a)
		}
		return err
	case op < 15:
		if len(g.streams) > 0 && g.rng.Intn(2) == 0 {
			return rt.StreamDestroy(take(g.rng, &g.streams))
		}
		s, err := rt.StreamCreate()
		if err == nil {
			g.streams = append(g.streams, s)
		}
		return err
	case op < 17:
		if len(g.events) > 0 && g.rng.Intn(2) == 0 {
			return rt.EventDestroy(take(g.rng, &g.events))
		}
		e, err := rt.EventCreate()
		if err == nil {
			g.events = append(g.events, e)
		}
		return err
	case op < 19:
		if len(g.fats) > 0 && g.rng.Intn(3) == 0 {
			return rt.UnregisterFatBinary(take(g.rng, &g.fats))
		}
		h, err := rt.RegisterFatBinary(fmt.Sprintf("mod%d", g.rng.Intn(3)))
		if err != nil {
			return err
		}
		g.fats = append(g.fats, h)
		for i := g.rng.Intn(3); i >= 0; i-- {
			if err := rt.RegisterFunction(h, fmt.Sprintf("k%d", i), func(*cuda.DevCtx, gpusim.LaunchConfig, []uint64) {}); err != nil {
				return err
			}
		}
		return nil
	default:
		return alloc(&g.dev, rt.Malloc)
	}
}

// observeHistory records every call s's runtime logs from now on.
func observeHistory(s *Session) *replaylog.History {
	h := new(replaylog.History)
	s.CRACRuntime().Observe(h.Record)
	return h
}

// checkAgainstReplay is the oracle: it replays history — every call up
// to the cut of the image s restarted from — on a fresh lower half and
// requires the two libraries to agree on every arena's chunks, free list
// and live map (with allocation order), the arena footprint, the
// cudaHostAlloc registrations and the handle maps, and then to hand out
// the same addresses for the next 64 generated allocations.
func checkAgainstReplay(t *testing.T, s *Session, history []replaylog.Entry, seed int64) {
	t.Helper()
	lib, rt := s.Library(), s.CRACRuntime()
	space := newSpace(s.cfg)
	// cudaHostAlloc buffers are upper-half memory a restart restores
	// with the image; the replay only re-registers them.
	for _, a := range replaylog.ActiveOf(history).Host {
		if _, err := space.MMap(a.Addr, a.Size, addrspace.ProtRW, addrspace.MapFixedNoReplace, addrspace.HalfUpper, "cudaHostAlloc"); err != nil {
			t.Fatalf("seed %d: mapping host buffer %#x: %v", seed, a.Addr, err)
		}
	}
	helper, ref, _, err := buildLowerHalf(s.cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	defer helper.Unload()
	defer ref.Destroy()
	refBind, err := cracrt.Replay(ref, history)
	if err != nil {
		t.Fatalf("seed %d: full replay: %v", seed, err)
	}

	got, want := lib.ArenaStates(), ref.ArenaStates()
	for k := range got {
		if err := diffArena(got[k], want[k]); err != nil {
			t.Fatalf("seed %d: arena %d rebuilt ≠ replayed: %v", seed, k, err)
		}
	}
	var gf, wf [6]uint64
	gf[0], gf[1], gf[2], gf[3], gf[4], gf[5] = lib.ArenaFootprint()
	wf[0], wf[1], wf[2], wf[3], wf[4], wf[5] = ref.ArenaFootprint()
	if gf != wf {
		t.Fatalf("seed %d: ArenaFootprint rebuilt %v, replayed %v", seed, gf, wf)
	}
	byAddr := func(a, b cuda.Allocation) int { return cmp.Compare(a.Addr, b.Addr) }
	gh, wh := lib.ActiveHostAllocs(), ref.ActiveHostAllocs()
	slices.SortFunc(gh, byAddr)
	slices.SortFunc(wh, byAddr)
	if !slices.Equal(gh, wh) {
		t.Fatalf("seed %d: host registrations rebuilt %v, replayed %v", seed, gh, wh)
	}
	if b := rt.Bindings(); !reflect.DeepEqual(fatOrdinals(b), fatOrdinals(refBind)) {
		t.Fatalf("seed %d: handle maps rebuilt %+v, replayed %+v", seed, b, refBind)
	}

	next := rand.New(rand.NewSource(seed ^ 0x64))
	g := &oracleGen{rng: next}
	for i := 0; i < 64; i++ {
		size := g.size()
		call := [3]func(*cuda.Library) (uint64, error){
			func(l *cuda.Library) (uint64, error) { return l.Malloc(size) },
			func(l *cuda.Library) (uint64, error) { return l.MallocHost(size) },
			func(l *cuda.Library) (uint64, error) { return l.MallocManaged(size) },
		}[next.Intn(3)]
		a, errA := call(lib)
		b, errB := call(ref)
		if a != b || (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: allocation %d of %d bytes after restart: rebuilt %#x (%v), replayed %#x (%v)",
				seed, i, size, a, errA, b, errB)
		}
	}
}

// fatOrdinals strips the per-instance namespace from the physical
// fat-binary handles (cuda.FatBinaryHandle: instance epoch above bit
// 20), leaving each one's registration ordinal: two libraries never
// share fat-binary handles, and CRAC patches them (Section 3.2.5).
func fatOrdinals(b cracrt.Bindings) cracrt.Bindings {
	fats := make(map[crt.FatBinHandle]cuda.FatBinaryHandle, len(b.FatBins))
	for v, p := range b.FatBins {
		fats[v] = p & (1<<20 - 1)
	}
	b.FatBins = fats
	return b
}

// diffArena names the first difference between two arena states.
func diffArena(got, want cuda.ArenaState) error {
	if !slices.Equal(got.Chunks, want.Chunks) {
		return fmt.Errorf("chunks %v, want %v", got.Chunks, want.Chunks)
	}
	if got.Mapped != want.Mapped {
		return fmt.Errorf("mapped %d, want %d", got.Mapped, want.Mapped)
	}
	for _, l := range []struct {
		name      string
		got, want []cuda.Allocation
	}{{"free list", got.Free, want.Free}, {"live map", got.Live, want.Live}} {
		for i := range max(len(l.got), len(l.want)) {
			if i >= len(l.got) || i >= len(l.want) || l.got[i] != l.want[i] {
				return fmt.Errorf("%s differs at %d: %d entries vs %d (got %v, want %v)",
					l.name, i, len(l.got), len(l.want), at(l.got, i), at(l.want, i))
			}
		}
	}
	return nil
}

func at(as []cuda.Allocation, i int) any {
	if i < len(as) {
		return as[i]
	}
	return "none"
}

// TestRebuildEqualsFullReplay is invariant 1's oracle: seeded random
// sessions, checkpointed and restarted through the session (waited and
// unwaited), against full replay of the recorded history. A failing
// seed is named by its subtest.
func TestRebuildEqualsFullReplay(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, err := New(rebuildOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			hist := observeHistory(s)
			g := &oracleGen{rng: rand.New(rand.NewSource(seed)), rt: s.Runtime()}
			for i := 0; i < 300; i++ {
				if err := g.step(); err != nil {
					t.Fatalf("seed %d: step %d: %v", seed, i, err)
				}
			}
			store := NewMemStore()
			if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
				t.Fatal(err)
			}
			if seed%2 == 0 {
				p, err := s.RestartAsync(ctx, store, "img")
				if err != nil {
					t.Fatalf("seed %d: RestartAsync: %v", seed, err)
				}
				if _, err := p.Wait(); err != nil {
					t.Fatalf("seed %d: drain: %v", seed, err)
				}
			} else if err := s.RestartFrom(ctx, store, "img"); err != nil {
				t.Fatalf("seed %d: RestartFrom: %v", seed, err)
			}
			checkAgainstReplay(t, s, hist.Entries(), seed)
		})
	}
}

// churnedSession opens a session with a fixed live state — device,
// pinned and managed buffers, streams and an event — and pairs
// malloc/free pairs of 1–8 pages behind it. It returns the session and
// the number of live resources.
func churnedSession(t *testing.T, pairs int, opts ...Option) (*Session, int) {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rt := s.Runtime()
	for i := 0; i < 4; i++ {
		if _, err := rt.Malloc(256 << 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.MallocHost(64 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.MallocManaged(64 << 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.StreamCreate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.EventCreate(); err != nil {
		t.Fatal(err)
	}
	churn(t, rt, rand.New(rand.NewSource(int64(pairs))), pairs)
	return s, 4 + 1 + 1 + 3 + 1
}

// churn issues pairs malloc/free pairs of 1–8 pages.
func churn(t *testing.T, rt crt.Runtime, rng *rand.Rand, pairs int) {
	t.Helper()
	for i := 0; i < pairs; i++ {
		a, err := rt.Malloc(uint64(1+rng.Intn(8)) * addrspace.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Free(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartIssuesActiveSetNotHistory: two sessions with the same live
// state but 3 000 and 12 000 malloc/free pairs behind it issue exactly
// the same number of CUDA calls into the fresh library across
// RestartFrom — one per live resource, plus nothing for the history.
func TestRestartIssuesActiveSetNotHistory(t *testing.T) {
	ctx := context.Background()
	var calls []uint64
	for _, pairs := range []int{3000, 12000} {
		s, active := churnedSession(t, pairs)
		store := NewMemStore()
		if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
			t.Fatal(err)
		}
		if err := s.RestartFrom(ctx, store, "img"); err != nil {
			t.Fatal(err)
		}
		n := s.Library().APICalls()
		if n > uint64(active)+2 {
			t.Errorf("%d pairs: restart issued %d calls for an active set of %d", pairs, n, active)
		}
		calls = append(calls, n)
		s.Close()
	}
	if calls[0] != calls[1] {
		t.Fatalf("restart calls grow with history: %d after 3000 pairs, %d after 12000", calls[0], calls[1])
	}
}

// TestCheckpointDuringArenaGrowth takes asynchronous checkpoints while
// another goroutine allocates sizes that keep growing the device arena,
// and holds every image to the oracle. An allocation mid-growth must
// neither deadlock the cut (the growing call holds its arena lock while
// it waits on the frozen space) nor leave chunks in the image's layout
// that its log does not account for.
func TestCheckpointDuringArenaGrowth(t *testing.T) {
	// A cut lands mid-growth in most rounds, not all: run a few.
	for seed := int64(1); seed <= 3; seed++ {
		checkpointDuringGrowth(t, seed)
	}
}

func checkpointDuringGrowth(t *testing.T, seed int64) {
	ctx := context.Background()
	s, err := New(rebuildOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cuts := &historyCut{h: observeHistory(s)}
	s.engine.Register(cuts)
	rt := s.Runtime()
	store := NewMemStore()
	mallocsDone := make(chan struct{})
	var mallocErr error
	go func() {
		defer close(mallocsDone)
		rng := rand.New(rand.NewSource(seed))
		var live []uint64
		for i := 0; i < 300 && mallocErr == nil; i++ {
			var a uint64
			if a, mallocErr = rt.Malloc(uint64(16<<10 + rng.Intn(400<<10))); mallocErr == nil {
				live = append(live, a)
			}
			if len(live) > 4 && mallocErr == nil {
				mallocErr = rt.Free(take(rng, &live))
			}
		}
	}()
	// Checkpoint back to back for as long as the allocations run.
	images := 0
	done := make(chan error, 1)
	go func() {
		var err error
		for ; images < 40 && err == nil; images++ {
			select {
			case <-mallocsDone:
				done <- nil
				return
			default:
			}
			var p *Pending
			if p, err = s.CheckpointAsync(ctx, store, fmt.Sprintf("img%d", images)); err == nil {
				_, err = p.Wait()
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("checkpoints under concurrent arena growth did not finish: deadlock")
	}
	<-mallocsDone
	if mallocErr != nil {
		t.Fatal(mallocErr)
	}
	for i := 0; i < images; i++ {
		r, err := New(rebuildOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestartFrom(ctx, store, fmt.Sprintf("img%d", i)); err != nil {
			t.Fatalf("round %d, image %d: %v", seed, i, err)
		}
		checkAgainstReplay(t, r, cuts.history[:cuts.at[i]], seed<<8|int64(i))
		r.Close()
	}
}

// historyCut is a checkpoint plugin that notes, inside each cut, how
// many calls the recorded history holds: the prefix whose normal form
// the image's log carries. The arena calls hold the launch gate the cut
// waits out, so the history cannot gain a call mid-cut.
type historyCut struct {
	h       *replaylog.History
	history []replaylog.Entry // the history at the latest cut
	at      []int             // the history's length at each cut, in order
}

func (p *historyCut) Name() string { return "history-cut" }
func (p *historyCut) Freeze(uint64, uint64, bool) (dmtcp.EmitFunc, uint64, error) {
	p.history = p.h.Entries()
	p.at = append(p.at, len(p.history))
	return func(context.Context, addrspace.View, *dmtcp.SectionMap) error { return nil }, 0, nil
}
func (p *historyCut) Resume() error                                          { return nil }
func (p *historyCut) LazyRestart(context.Context, *dmtcp.LazyRestorer) error { return nil }

// sectionOverride is a checkpoint plugin that replaces the named
// section the CRAC plugin emitted before it (emits run in registration
// order) with body, when body is set.
type sectionOverride struct {
	section string
	body    []byte
}

func (p *sectionOverride) Name() string { return "section-override" }
func (p *sectionOverride) Freeze(uint64, uint64, bool) (dmtcp.EmitFunc, uint64, error) {
	return func(_ context.Context, _ addrspace.View, sm *dmtcp.SectionMap) error {
		if p.body != nil {
			sm.Add(p.section, p.body)
		}
		return nil
	}, 0, nil
}
func (p *sectionOverride) Resume() error                                          { return nil }
func (p *sectionOverride) LazyRestart(context.Context, *dmtcp.LazyRestorer) error { return nil }

// lowerBody encodes a crac.lower body from (start, size, arena) triples.
func lowerBody(count uint32, chunks ...[3]uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, count)
	for _, c := range chunks {
		b = binary.LittleEndian.AppendUint64(b, c[0])
		b = binary.LittleEndian.AppendUint64(b, c[1])
		b = append(b, byte(c[2]))
	}
	return b
}

// TestHostileLowerSectionRejectedBeforeTeardown: an image whose
// crac.lower section is truncated, miscounted, overlapping, outside the
// lower window or not covering a live allocation is ErrBadImage on every
// store route, and the session keeps running on its old lower half.
func TestHostileLowerSectionRejectedBeforeTeardown(t *testing.T) {
	ctx := context.Background()
	lo := uint64(addrspace.DefaultLowerStart)
	hostile := []struct {
		name string
		body []byte
	}{
		{"truncated", []byte{1, 0}},
		{"count-mismatch", lowerBody(5, [3]uint64{lo + 1<<20, 1 << 20, 0})},
		{"hostile-count", lowerBody(0xffffffff)},
		{"overlapping", lowerBody(2, [3]uint64{lo + 1<<20, 1 << 20, 0}, [3]uint64{lo + 1<<20 + 4096, 1 << 20, 0})},
		{"outside-window", lowerBody(1, [3]uint64{0x1000, 4096, 0})},
		{"live-outside-chunks", lowerBody(0)},
		{"unknown-arena", lowerBody(1, [3]uint64{lo + 1<<20, 1 << 20, 7})},
	}
	for _, h := range hostile {
		for _, r := range restartRoutes[:2] {
			t.Run(h.name+"/"+r.name, func(t *testing.T) {
				s, err := New()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				override := &sectionOverride{section: cracplugin.SectionLower, body: h.body}
				s.engine.Register(override)
				rt := s.Runtime()
				d, err := rt.Malloc(64 << 10)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.Memset(d, 0x5a, 64<<10); err != nil {
					t.Fatal(err)
				}
				store := NewMemStore()
				if _, err := s.CheckpointTo(ctx, store, "bad"); err != nil {
					t.Fatal(err)
				}
				if err := r.restart(ctx, s, store, "bad", nil); !errors.Is(err, ErrBadImage) {
					t.Fatalf("restart = %v, want ErrBadImage", err)
				}
				if s.Library() == nil || s.Generation() != 0 {
					t.Fatal("the rejected image tore the session down")
				}
				buf := make([]byte, 64<<10)
				if err := s.Space().ReadAt(d, buf); err != nil || buf[0] != 0x5a || buf[len(buf)-1] != 0x5a {
					t.Fatalf("old memory after rejection: %v, %#x", err, buf[0])
				}
				if _, err := rt.Malloc(4096); err != nil {
					t.Fatalf("malloc after rejection: %v", err)
				}
				override.body = nil
				if _, err := s.CheckpointTo(ctx, store, "good"); err != nil {
					t.Fatal(err)
				}
				if err := r.restart(ctx, s, store, "good", nil); err != nil {
					t.Fatalf("restart from a good image after the rejection: %v", err)
				}
			})
		}
	}
}
