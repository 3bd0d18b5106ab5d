package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	crac "repro"
)

// A span is one named interval of the traced run. Op spans ("ckpt",
// "restart", "app", "compact", "gc") are measured around the public
// call; their children are either measured by the timed stores or
// returned by the call (Stats durations), and are laid end to end from
// the parent's start because only their duration is known.
type span struct {
	ID     int
	Parent int // 0: an op span
	Name   string
	Start  time.Duration // since the tracer's epoch
	Dur    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays nothing for it.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	cursor map[int]time.Duration // next free offset inside each parent
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cursor: make(map[int]time.Duration)}
}

// op records a measured top-level span and returns its ID.
func (t *tracer) op(name string, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start.Sub(t.epoch), Dur: dur})
	return id
}

// child records a duration-only span under parent, placed after the
// parent's previous children. Non-positive durations are dropped.
func (t *tracer) child(parent int, name string, dur time.Duration) int {
	if t == nil || parent == 0 || dur <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	off := t.cursor[parent]
	t.cursor[parent] = off + dur
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: p.Start + off, Dur: dur})
	return id
}

// covered returns how much of [start, start+dur) the given child
// intervals cover, counting overlapping children once.
func covered(start, dur time.Duration, kids []span) time.Duration {
	end := start + dur
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.Start+k.Dur, end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, hi time.Duration
	hi = start
	for _, v := range iv {
		if v[1] <= hi {
			continue
		}
		sum += v[1] - max(v[0], hi)
		hi = v[1]
	}
	return sum
}

// layerRow is one line of the layer table: a span name with its count,
// total time, and self time (total minus what its children cover).
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes folds spans into per-name rows, and reports the share of
// the named op spans' wall that their children cover.
func selfTimes(spans []span, coverOps ...string) (rows []layerRow, coveragePct float64) {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byName := make(map[string]*layerRow)
	var opWall, opCovered time.Duration
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		c := covered(s.Start, s.Dur, kids[s.ID])
		r.Count++
		r.Total += s.Dur
		r.Self += s.Dur - c
		if s.Parent == 0 {
			for _, name := range coverOps {
				if s.Name == name {
					opWall += s.Dur
					opCovered += c
				}
			}
		}
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Total > rows[j].Total })
	if opWall > 0 {
		coveragePct = 100 * float64(opCovered) / float64(opWall)
	}
	return rows, coveragePct
}

// writeChromeTrace dumps the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto). Children go on the track below their
// op so the synthetic layout stays readable.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	depth := make(map[int]int, len(spans))
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		d := 0
		if s.Parent != 0 {
			d = depth[s.Parent] + 1
		}
		depth[s.ID] = d
		events = append(events, event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: d})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opAcc collects what the timed stores saw during one traced op. The
// workload puts it in the op's context; the stores find it there,
// which is what ties a store call to its op when several clients share
// one store.
type opAcc struct {
	mu sync.Mutex
	// top is the store call the session itself made (the store above
	// CAS when one is stacked); bottom sums the backing store's calls.
	top, bottom storeTimes
	// lazyBackground flips once a lazy restart's visible phase is
	// over, so reads are charged to the right phase.
	lazyBackground atomic.Bool
	visibleBytes   int64     // bytes read at the top before lazyBackground flipped
	readClosed     time.Time // when the top Get stream was closed
}

// storeTimes is the ledger of one store level.
type storeTimes struct {
	puts, gets, getAts, reads int64
	putWall                   time.Duration // whole Put calls
	putCallback               time.Duration // inside the write callback
	putWrite                  time.Duration // inside the store's own Write
	bytesPut                  int64
	getWall                   time.Duration // Get/GetAt open + time inside Read/ReadAt
	bytesGot                  int64
	getAtBytes                int64
}

func (a *storeTimes) add(b storeTimes) {
	a.puts += b.puts
	a.gets += b.gets
	a.getAts += b.getAts
	a.reads += b.reads
	a.putWall += b.putWall
	a.putCallback += b.putCallback
	a.putWrite += b.putWrite
	a.bytesPut += b.bytesPut
	a.getWall += b.getWall
	a.bytesGot += b.bytesGot
	a.getAtBytes += b.getAtBytes
}

type accKey struct{}

func withAcc(ctx context.Context, a *opAcc) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, accKey{}, a)
}

// timedStore is the benchmark's own timing decorator: it measures,
// from outside, the time a store spends in Put (split into the write
// callback, the store's own Write, and the commit that follows) and in
// reads. It forwards every optional capability of the wrapped store —
// GetAt, ExistsBatch, Len, SingleImage — because a forgotten forward
// silently turns a lazy restart into a full read.
type timedStore struct {
	inner   crac.Store
	level   level
	enabled atomic.Bool

	mu    sync.Mutex
	total storeTimes
}

// level says where in a store stack a timedStore sits. Without CAS the
// one store is both the level the session calls and the backing level.
type level int

const (
	levelOnly    level = iota
	levelTop           // above a CASStore: what the session calls
	levelBacking       // under a CASStore: chunks and manifests
)

func newTimedStore(inner crac.Store, l level) *timedStore {
	return &timedStore{inner: inner, level: l}
}

// arm switches the measuring on or off; a nil store (an untraced run
// wraps nothing) ignores it.
func (s *timedStore) arm(on bool) {
	if s != nil {
		s.enabled.Store(on)
	}
}

func (s *timedStore) charge(ctx context.Context, d storeTimes, closed time.Time) {
	s.mu.Lock()
	s.total.add(d)
	s.mu.Unlock()
	a, _ := ctx.Value(accKey{}).(*opAcc)
	if a == nil {
		return
	}
	a.mu.Lock()
	if s.level != levelBacking {
		a.top.add(d)
		if !a.lazyBackground.Load() {
			a.visibleBytes += d.bytesGot
		}
		if !closed.IsZero() {
			a.readClosed = closed
		}
	}
	if s.level != levelTop {
		a.bottom.add(d)
	}
	a.mu.Unlock()
}

func (s *timedStore) totals() storeTimes {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

type timedWriter struct {
	w    io.Writer
	wall time.Duration
	n    int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.w.Write(p)
	w.wall += time.Since(t0)
	w.n += int64(n)
	return n, err
}

func (s *timedStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	if !s.enabled.Load() {
		return s.inner.Put(ctx, name, write)
	}
	var tw timedWriter
	var callback time.Duration
	t0 := time.Now()
	err := s.inner.Put(ctx, name, func(w io.Writer) error {
		tw.w = w
		c0 := time.Now()
		werr := write(&tw)
		callback = time.Since(c0)
		return werr
	})
	s.charge(ctx, storeTimes{puts: 1, putWall: time.Since(t0), putCallback: callback,
		putWrite: tw.wall, bytesPut: tw.n}, time.Time{})
	return err
}

type timedReader struct {
	s    *timedStore
	ctx  context.Context
	rc   io.ReadCloser
	wall time.Duration
	n    int64
}

func (r *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := r.rc.Read(p)
	r.wall += time.Since(t0)
	r.n += int64(n)
	return n, err
}

func (r *timedReader) Close() error {
	err := r.rc.Close()
	r.s.charge(r.ctx, storeTimes{gets: 1, getWall: r.wall, bytesGot: r.n}, time.Now())
	return err
}

func (s *timedStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	if !s.enabled.Load() {
		return s.inner.Get(ctx, name)
	}
	t0 := time.Now()
	rc, err := s.inner.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	return &timedReader{s: s, ctx: ctx, rc: rc, wall: time.Since(t0)}, nil
}

type timedReaderAt struct {
	s   *timedStore
	ctx context.Context
	ra  crac.ReaderAtCloser
}

func (r *timedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := r.ra.ReadAt(p, off)
	r.s.charge(r.ctx, storeTimes{reads: 1, getWall: time.Since(t0), bytesGot: int64(n),
		getAtBytes: int64(n)}, time.Time{})
	return n, err
}

func (r *timedReaderAt) Close() error { return r.ra.Close() }

// GetAt forwards random access. A wrapped store without it is read
// whole into memory, the same fallback the lazy restart path uses.
func (s *timedStore) GetAt(ctx context.Context, name string) (crac.ReaderAtCloser, int64, error) {
	ras, ok := s.inner.(crac.RandomAccessStore)
	if !ok {
		rc, err := s.Get(ctx, name)
		if err != nil {
			return nil, 0, err
		}
		defer rc.Close()
		data, err := io.ReadAll(rc)
		if err != nil {
			return nil, 0, err
		}
		return nopReaderAt{bytes.NewReader(data)}, int64(len(data)), nil
	}
	if !s.enabled.Load() {
		return ras.GetAt(ctx, name)
	}
	t0 := time.Now()
	ra, size, err := ras.GetAt(ctx, name)
	if err != nil {
		return nil, 0, err
	}
	s.charge(ctx, storeTimes{getAts: 1, getWall: time.Since(t0)}, time.Time{})
	return &timedReaderAt{s: s, ctx: ctx, ra: ra}, size, nil
}

type nopReaderAt struct{ *bytes.Reader }

func (nopReaderAt) Close() error { return nil }

func (s *timedStore) List(ctx context.Context) ([]string, error) { return s.inner.List(ctx) }

func (s *timedStore) Delete(ctx context.Context, name string) error {
	return s.inner.Delete(ctx, name)
}

var errNoBatchExists = errors.New("benchmark: wrapped store has no batch-exists probe")

// ExistsBatch forwards the probe; without one underneath it fails,
// which CASStore treats exactly like a store that never offered it.
func (s *timedStore) ExistsBatch(ctx context.Context, names []string) (map[string]bool, error) {
	if be, ok := s.inner.(crac.BatchExister); ok {
		return be.ExistsBatch(ctx, names)
	}
	return nil, errNoBatchExists
}

func (s *timedStore) Len(ctx context.Context) (int, error) { return crac.StoreLen(ctx, s.inner) }

func (s *timedStore) SingleImage() bool {
	si, ok := s.inner.(crac.SingleImageStore)
	return ok && si.SingleImage()
}

var (
	_ crac.RandomAccessStore = (*timedStore)(nil)
	_ crac.BatchExister      = (*timedStore)(nil)
	_ crac.CountingStore     = (*timedStore)(nil)
	_ crac.SingleImageStore  = (*timedStore)(nil)
)

// printLayerTable writes the span ledger for people: one row per span
// name, widest first.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-26s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %8d %12.3f %12.3f\n", r.Name, r.Count, msOf(r.Total), msOf(r.Self))
	}
}
