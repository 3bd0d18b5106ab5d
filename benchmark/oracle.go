package main

import (
	"fmt"
	"math/rand"
	"time"

	crac "repro"
	"repro/internal/crt"
	"repro/internal/kernels"
	"repro/internal/workloads"
)

const pageSize = 4096

// A buffer is one allocation the generator owns, with its shadow: the
// fill byte every page is expected to hold. All generated writes are
// page-aligned single-byte fills, so one byte per page is the whole
// model.
type buffer struct {
	addr  uint64
	size  uint64
	pages []byte
}

// model is the content oracle's shadow of one session: the expected
// bytes now, and the expected bytes of each image still worth
// restarting from.
type model struct {
	bufs  []*buffer
	saved map[string][][]byte
}

func (m *model) add(addr, size uint64) *buffer {
	b := &buffer{addr: addr, size: size, pages: make([]byte, size/pageSize)}
	m.bufs = append(m.bufs, b)
	return b
}

// commit remembers the current expectation under an image name.
func (m *model) commit(name string) {
	if m.saved == nil {
		m.saved = make(map[string][][]byte)
	}
	snap := m.saved[name]
	if snap == nil {
		snap = make([][]byte, len(m.bufs))
		for i, b := range m.bufs {
			snap[i] = make([]byte, len(b.pages))
		}
		m.saved[name] = snap
	}
	for i, b := range m.bufs {
		copy(snap[i], b.pages)
	}
}

// rollback makes the expectation that of a committed image: what a
// restart from it must bring back.
func (m *model) rollback(name string) error {
	snap, ok := m.saved[name]
	if !ok {
		return fmt.Errorf("oracle: no committed model for image %q", name)
	}
	for i, b := range m.bufs {
		copy(b.pages, snap[i])
	}
	return nil
}

func (m *model) forget(name string) { delete(m.saved, name) }

// A sess is one session under test together with its shadow model and
// the pieces every workload needs after a restart: the kernel handle
// and a scratch device buffer for the first-kernel launch (the scratch
// buffer is not in the model; kernels write float patterns into it).
type sess struct {
	s       *crac.Session
	rt      crt.Runtime
	fat     crt.FatBinHandle
	scratch uint64
	appBuf  *buffer // the model buffer the app phase writes, one shard's worth
	streams []crt.StreamHandle
	events  []crt.EventHandle
	m       model
	page    [pageSize]byte
}

const scratchBytes = 64 << 10

func newSess(s *crac.Session) (*sess, error) {
	x, err := bindSess(s.Runtime())
	if err == nil {
		x.s = s
	}
	return x, err
}

// bindSess prepares any runtime binding — CRAC or native — for the
// generated call mixes; only a CRAC session can checkpoint or verify.
func bindSess(rt crt.Runtime) (*sess, error) {
	x := &sess{rt: rt}
	var err error
	if x.fat, err = x.rt.RegisterFatBinary(kernels.Module); err != nil {
		return nil, err
	}
	if err = x.rt.RegisterFunction(x.fat, "fill", kernels.Fill); err != nil {
		return nil, err
	}
	if x.scratch, err = x.rt.Malloc(scratchBytes); err != nil {
		return nil, err
	}
	app, err := x.rt.Malloc(scratchBytes)
	if err != nil {
		return nil, err
	}
	x.appBuf = x.m.add(app, scratchBytes)
	if err := x.fill(x.appBuf, 0, scratchBytes, 0); err != nil {
		return nil, err
	}
	if err := x.addStreams(4, 4); err != nil {
		return nil, err
	}
	return x, nil
}

// addStreams creates more streams and events for the app-phase mix.
func (x *sess) addStreams(streams, events int) error {
	for i := 0; i < streams; i++ {
		sh, err := x.rt.StreamCreate()
		if err != nil {
			return err
		}
		x.streams = append(x.streams, sh)
	}
	for i := 0; i < events; i++ {
		ev, err := x.rt.EventCreate()
		if err != nil {
			return err
		}
		x.events = append(x.events, ev)
	}
	return nil
}

// appRoundCalls is the number of runtime calls one appRound makes.
const appRoundCalls = 31

// appRound is the call mix of an app phase, the paper's runtime-overhead
// path (trampoline, fs switch, log append): small Memsets into the
// scratch buffer, one page fill the oracle tracks (kept inside appBuf,
// so an app phase dirties one shard and no more), a kernel launch and
// sync on one of the streams, an event record.
func (x *sess) appRound(rng *rand.Rand, r int) error {
	rt := x.rt
	for k := 0; k < 27; k++ {
		if err := rt.Memset(x.scratch+uint64(k)*256, byte(r), 256); err != nil {
			return err
		}
	}
	off := uint64(rng.Intn(len(x.appBuf.pages))) * pageSize
	if err := x.fill(x.appBuf, off, pageSize, byte(rng.Intn(256))); err != nil {
		return err
	}
	sh := x.streams[r%len(x.streams)]
	if err := rt.LaunchKernel(x.fat, "fill", workloads.Launch1D(256), sh,
		x.scratch, kernels.F32Arg(1), 256); err != nil {
		return err
	}
	if err := rt.StreamSynchronize(sh); err != nil {
		return err
	}
	return rt.EventRecord(x.events[r%len(x.events)], sh)
}

// appPhase runs rounds of the call mix and records every round's cost
// per call.
func (x *sess) appPhase(e *env, rec *recorder, rng *rand.Rand, rounds int) error {
	t0 := time.Now()
	prev := t0
	for r := 0; r < rounds; r++ {
		if err := x.appRound(rng, r); err != nil {
			return err
		}
		now := time.Now()
		rec.appCallNs = append(rec.appCallNs, float64(now.Sub(prev))/appRoundCalls)
		prev = now
	}
	e.tr.op("app", t0, prev.Sub(t0))
	return nil
}

// fill writes val over [off, off+n) of b through the runtime and
// updates the shadow. off and n are page multiples.
func (x *sess) fill(b *buffer, off, n uint64, val byte) error {
	if err := x.rt.Memset(b.addr+off, val, n); err != nil {
		return err
	}
	pg := b.pages[off/pageSize : (off+n)/pageSize]
	for i := range pg {
		pg[i] = val
	}
	return nil
}

// scribble overwrites the first page of every buffer behind the
// model's back, so a restart that restored nothing cannot pass the
// content check by finding the pre-checkpoint bytes still in place.
func (x *sess) scribble() error {
	for _, b := range x.m.bufs {
		if err := x.rt.Memset(b.addr, ^b.pages[0], pageSize); err != nil {
			return err
		}
	}
	return nil
}

// firstKernel launches one kernel and waits for it: the end of the
// time-to-first-kernel window.
func (x *sess) firstKernel() error {
	const n = scratchBytes / 4
	if err := x.rt.LaunchKernel(x.fat, "fill", workloads.Launch1D(n), crt.DefaultStream,
		x.scratch, kernels.F32Arg(1), n); err != nil {
		return err
	}
	return x.rt.DeviceSynchronize()
}

// verify samples two pages of every buffer — the first, and one drawn
// from rng — through the session's address space and compares them
// with the shadow. It reports the number of mismatching pages.
func (x *sess) verify(rng *rand.Rand) (bad int, err error) {
	space := x.s.Space()
	for _, b := range x.m.bufs {
		for k := 0; k < 2; k++ {
			pg := 0
			if k > 0 {
				pg = rng.Intn(len(b.pages))
			}
			if err := space.ReadAt(b.addr+uint64(pg)*pageSize, x.page[:]); err != nil {
				return bad, fmt.Errorf("oracle: reading %#x: %w", b.addr+uint64(pg)*pageSize, err)
			}
			want := b.pages[pg]
			for _, got := range x.page {
				if got != want {
					bad++
					break
				}
			}
		}
	}
	return bad, nil
}
