// Package replaylog records the CUDA calls that create or destroy
// lower-half resources (paper Sections 3.1 "Log-and-replay" and
// 3.2.3/3.2.4). Its active set is what a restart recreates.
//
// Two facts from the paper shape the design:
//
//   - Only the memory of *active* mallocs is saved at checkpoint time.
//     The paper's CRAC still replays the *entire* allocation/free
//     sequence at restart, because the CUDA library's deterministic
//     internal bookkeeping only reproduces the original addresses if it
//     sees the same call history ("we still need to replay the entire
//     original sequence to get the same host and device addresses as
//     prior to checkpoint"). This reproduction records the arena layout
//     beside the log instead and issues only the active set, so no
//     route needs the history: a Log keeps itself in normal form
//     (Compact), and an image's crac.log holds the normal form of the
//     log at its cut. Full history is recorded only by whoever wants to
//     replay it (the runtime's call observer); replaying it is the
//     oracle that rebuild is tested against.
//   - The log also covers streams, events, and fat-binary registrations,
//     all of which must be recreated in a fresh lower half.
package replaylog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Kind identifies a logged CUDA call.
type Kind uint8

// Logged call kinds.
const (
	KindInvalid Kind = iota
	KindMalloc
	KindFree
	KindMallocHost
	KindFreeHost // frees a cudaMallocHost allocation
	KindHostAlloc
	KindFreeHostAlloc // frees a cudaHostAlloc registration
	KindMallocManaged
	KindFreeManaged
	KindStreamCreate
	KindStreamDestroy
	KindEventCreate
	KindEventDestroy
	KindRegisterFatBinary
	KindRegisterFunction
	KindUnregisterFatBinary
)

var kindNames = [...]string{
	KindInvalid:             "invalid",
	KindMalloc:              "cudaMalloc",
	KindFree:                "cudaFree",
	KindMallocHost:          "cudaMallocHost",
	KindFreeHost:            "cudaFreeHost",
	KindHostAlloc:           "cudaHostAlloc",
	KindFreeHostAlloc:       "cudaFreeHost(hostAlloc)",
	KindMallocManaged:       "cudaMallocManaged",
	KindFreeManaged:         "cudaFree(managed)",
	KindStreamCreate:        "cudaStreamCreate",
	KindStreamDestroy:       "cudaStreamDestroy",
	KindEventCreate:         "cudaEventCreate",
	KindEventDestroy:        "cudaEventDestroy",
	KindRegisterFatBinary:   "__cudaRegisterFatBinary",
	KindRegisterFunction:    "__cudaRegisterFunction",
	KindUnregisterFatBinary: "__cudaUnregisterFatBinary",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Entry is one logged call. Field use depends on Kind:
//
//	mallocs:      Size = requested size, Addr = returned address
//	frees:        Addr = freed address
//	streams/events: Handle = virtual handle
//	fat binaries: Handle = virtual handle, Module = module name,
//	              Name = function name (KindRegisterFunction only)
type Entry struct {
	Kind   Kind
	Size   uint64
	Addr   uint64
	Handle uint64
	Module string
	Name   string
}

// String renders the entry for diagnostics.
func (e Entry) String() string {
	switch e.Kind {
	case KindMalloc, KindMallocHost, KindHostAlloc, KindMallocManaged:
		return fmt.Sprintf("%v(size=%d) -> %#x", e.Kind, e.Size, e.Addr)
	case KindFree, KindFreeHost, KindFreeHostAlloc, KindFreeManaged:
		return fmt.Sprintf("%v(%#x)", e.Kind, e.Addr)
	case KindRegisterFatBinary:
		return fmt.Sprintf("%v(%q) -> vh%d", e.Kind, e.Module, e.Handle)
	case KindRegisterFunction:
		return fmt.Sprintf("%v(vh%d, %q)", e.Kind, e.Handle, e.Name)
	case KindUnregisterFatBinary:
		return fmt.Sprintf("%v(vh%d)", e.Kind, e.Handle)
	default:
		return fmt.Sprintf("%v(vh%d)", e.Kind, e.Handle)
	}
}

// Log is a concurrency-safe call log that keeps itself short. Once it
// reaches max(compactFloor, twice its last compacted length), Append
// replaces its contents with their normal form (Compact), which stands
// for the same live state under any calls that follow: the log then
// holds the live resources plus the calls since the last compaction,
// not the whole history. A compaction builds a new array, so a View
// taken before it stays valid, and its cost is amortised O(1) per call.
type Log struct {
	mu      sync.Mutex
	entries []Entry
	next    int // the length at which Append compacts next
}

// compactFloor is the shortest log Append compacts.
const compactFloor = 1024

// New returns an empty log.
func New() *Log { return &Log{} }

// Append records one call.
func (l *Log) Append(e Entry) {
	l.mu.Lock()
	l.entries = append(l.entries, e)
	if len(l.entries) >= max(compactFloor, l.next) {
		l.entries = Compact(l.entries)
		l.next = 2 * len(l.entries)
	}
	l.mu.Unlock()
}

// Len returns the number of entries the log holds.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Entries returns a copy of the log's entries in call order.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

// View returns the current log contents as an immutable view, without
// copying: the returned slice is capacity-clamped, and neither Append
// nor a compaction ever writes an element it covers. This is the O(1)
// capture a concurrent checkpoint takes inside its stop-the-world
// window.
func (l *Log) View() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries[:len(l.entries):len(l.entries)]
}

// History records a full call history, which a Log does not keep: hand
// its Record to the runtime's call observer (cracrt.Runtime.Observe).
// Full replay, the oracle a restart's rebuild is tested against, runs
// over it. It is safe for concurrent use.
type History struct {
	mu      sync.Mutex
	entries []Entry
}

// Record appends one call.
func (h *History) Record(e Entry) {
	h.mu.Lock()
	h.entries = append(h.entries, e)
	h.mu.Unlock()
}

// Entries returns a copy of the recorded calls in call order.
func (h *History) Entries() []Entry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Entry(nil), h.entries...)
}

// Allocation is a live allocation derived from the log.
type Allocation struct {
	Addr uint64
	Size uint64
}

// ActiveSet holds the live resources implied by the log: the "active
// mallocs" of Section 3.2.3 plus live streams, events and fat binaries.
type ActiveSet struct {
	Device  []Allocation // cudaMalloc, in allocation order
	Pinned  []Allocation // cudaMallocHost
	Host    []Allocation // cudaHostAlloc
	Managed []Allocation // cudaMallocManaged
	Streams []uint64     // virtual stream handles in creation order
	Events  []uint64     // virtual event handles in creation order
	FatBins []FatBin     // registered fat binaries in registration order

	// MaxStream, MaxEvent and MaxFatBin are the highest virtual handles
	// the log ever issued, live or not: a runtime rebuilt from the set
	// hands out new handles above them.
	MaxStream, MaxEvent, MaxFatBin uint64
}

// FatBin is a live fat binary and its registered function names.
type FatBin struct {
	Handle    uint64
	Module    string
	Functions []string
}

// Active derives the live set from the log.
func (l *Log) Active() ActiveSet {
	return ActiveOf(l.View())
}

// ActiveOf derives the live set from an explicit entry sequence —
// typically a frozen View(), so a checkpoint running concurrently with
// the application computes the active set of the cut point, not of the
// still-growing log.
//
// Deletions use tombstones plus a key→record index instead of scanning
// the creation-order slice, so a malloc/free-heavy log derives in O(n)
// rather than the quadratic cost of slice deletion. The same address
// may recur after arena reuse, so liveness is per creation, not per
// address.
func ActiveOf(entries []Entry) ActiveSet {
	as, _ := scan(entries, false)
	return as
}

// Compact returns the log's normal form: the shortest order-preserving
// subsequence of entries with the same ActiveOf under any tail appended
// after it. It keeps every live creation (with a live fat binary's
// function registrations) and, where a handle kind's highest handle is
// dead, that handle's create/destroy pair, so MaxStream, MaxEvent and
// MaxFatBin survive. A log without free, destroy or unregister entries
// is its own normal form. The result never shares an array with
// entries.
func Compact(entries []Entry) []Entry {
	_, out := scan(entries, true)
	return out
}

// Normalize returns ActiveOf(entries) and Compact(entries) from one
// pass over entries.
func Normalize(entries []Entry) (ActiveSet, []Entry) {
	return scan(entries, true)
}

// record is one creation: the entry that made it and the entry that
// ended it (-1 while it lives).
type record struct{ pos, kill int }

// table tracks one resource kind by key, an address or a handle.
type table struct {
	recs []record
	idx  map[uint64]int // key → the record a free or destroy of key ends
	// shadowed maps a key created again while it still named a live
	// record to its latest creation. The earlier record stays live, and
	// no later free can reach it; only a hand-built or hostile log does
	// this. Its normal form keeps the latest creation, and the entry that
	// ended it, so the key still shadows the earlier record.
	shadowed map[uint64]int
	// top is the highest handle created and last the record of its
	// latest creation (-1: none); handle kinds only.
	top  uint64
	last int
}

func newTable() *table { return &table{idx: make(map[uint64]int), last: -1} }

func (t *table) create(pos int, key uint64) int {
	i := len(t.recs)
	if _, live := t.idx[key]; live {
		if t.shadowed == nil {
			t.shadowed = make(map[uint64]int)
		}
		t.shadowed[key] = i
	} else if _, ok := t.shadowed[key]; ok {
		t.shadowed[key] = i
	}
	t.idx[key] = i
	t.recs = append(t.recs, record{pos: pos, kill: -1})
	return i
}

// createHandle is create for a handle kind: it also tracks the top.
func (t *table) createHandle(pos int, h uint64) int {
	i := t.create(pos, h)
	if h > 0 && h >= t.top {
		t.top, t.last = h, i
	}
	return i
}

func (t *table) end(pos int, key uint64) {
	if i, ok := t.idx[key]; ok {
		t.recs[i].kill = pos
		delete(t.idx, key)
	}
}

// keepEnded appends to keep the creation and the ending entry of every
// dead record the normal form needs: the latest creation at each
// shadowed key and the top handle's latest creation.
func (t *table) keepEnded(keep []int) []int {
	pair := func(i int) {
		if r := t.recs[i]; r.kill >= 0 {
			keep = append(keep, r.pos, r.kill)
		}
	}
	for _, i := range t.shadowed {
		pair(i)
	}
	if t.last >= 0 {
		pair(t.last)
	}
	return keep
}

// scan is ActiveOf and, when compact is set, Compact in one pass.
func scan(entries []Entry, compact bool) (ActiveSet, []Entry) {
	dev, pin, host, mgd := newTable(), newTable(), newTable(), newTable()
	streams, events, fats := newTable(), newTable(), newTable()
	var fns [][]int // per fat-binary record: its RegisterFunction entries
	for pos, e := range entries {
		switch e.Kind {
		case KindMalloc:
			dev.create(pos, e.Addr)
		case KindFree:
			dev.end(pos, e.Addr)
		case KindMallocHost:
			pin.create(pos, e.Addr)
		case KindFreeHost:
			pin.end(pos, e.Addr)
		case KindHostAlloc:
			host.create(pos, e.Addr)
		case KindFreeHostAlloc:
			host.end(pos, e.Addr)
		case KindMallocManaged:
			mgd.create(pos, e.Addr)
		case KindFreeManaged:
			mgd.end(pos, e.Addr)
		case KindStreamCreate:
			streams.createHandle(pos, e.Handle)
		case KindStreamDestroy:
			streams.end(pos, e.Handle)
		case KindEventCreate:
			events.createHandle(pos, e.Handle)
		case KindEventDestroy:
			events.end(pos, e.Handle)
		case KindRegisterFatBinary:
			fats.createHandle(pos, e.Handle)
			fns = append(fns, nil)
		case KindRegisterFunction:
			if i, ok := fats.idx[e.Handle]; ok {
				fns[i] = append(fns[i], pos)
			}
		case KindUnregisterFatBinary:
			fats.end(pos, e.Handle)
		}
	}

	var keep []int
	live := func(t *table) []record {
		out := make([]record, 0, len(t.idx))
		for _, r := range t.recs {
			if r.kill < 0 {
				out = append(out, r)
				if compact {
					keep = append(keep, r.pos)
				}
			}
		}
		return out
	}
	allocs := func(t *table) []Allocation {
		rs := live(t)
		out := make([]Allocation, len(rs))
		for i, r := range rs {
			out[i] = Allocation{Addr: entries[r.pos].Addr, Size: entries[r.pos].Size}
		}
		return out
	}
	handles := func(t *table) []uint64 {
		rs := live(t)
		out := make([]uint64, len(rs))
		for i, r := range rs {
			out[i] = entries[r.pos].Handle
		}
		return out
	}
	as := ActiveSet{
		Device:    allocs(dev),
		Pinned:    allocs(pin),
		Host:      allocs(host),
		Managed:   allocs(mgd),
		Streams:   handles(streams),
		Events:    handles(events),
		FatBins:   make([]FatBin, 0, len(fats.idx)),
		MaxStream: streams.top,
		MaxEvent:  events.top,
		MaxFatBin: fats.top,
	}
	for i, r := range fats.recs {
		if r.kill >= 0 {
			continue
		}
		fb := FatBin{Handle: entries[r.pos].Handle, Module: entries[r.pos].Module}
		for _, p := range fns[i] {
			fb.Functions = append(fb.Functions, entries[p].Name)
		}
		as.FatBins = append(as.FatBins, fb)
		if compact {
			keep = append(keep, r.pos)
			keep = append(keep, fns[i]...)
		}
	}
	if !compact {
		return as, nil
	}
	for _, t := range []*table{dev, pin, host, mgd, streams, events, fats} {
		keep = t.keepEnded(keep)
	}
	slices.Sort(keep)
	keep = slices.Compact(keep)
	out := make([]Entry, len(keep))
	for i, p := range keep {
		out[i] = entries[p]
	}
	return as, out
}

// Binary serialization: the log travels inside the checkpoint image.

const logMagic = uint32(0x43524c47) // "CRLG"

// EncodeEntries writes an entry sequence in a self-describing binary
// format.
func EncodeEntries(w io.Writer, entries []Entry) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(entries)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, e := range entries {
		if err := encodeEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

func encodeEntry(w io.Writer, e Entry) error {
	var fixed [25]byte
	fixed[0] = byte(e.Kind)
	binary.LittleEndian.PutUint64(fixed[1:], e.Size)
	binary.LittleEndian.PutUint64(fixed[9:], e.Addr)
	binary.LittleEndian.PutUint64(fixed[17:], e.Handle)
	if _, err := w.Write(fixed[:]); err != nil {
		return err
	}
	for _, s := range []string{e.Module, e.Name} {
		var n [2]byte
		if len(s) > 0xffff {
			return fmt.Errorf("replaylog: string too long (%d)", len(s))
		}
		binary.LittleEndian.PutUint16(n[:], uint16(len(s)))
		if _, err := w.Write(n[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	return nil
}

// ErrBadFormat reports a malformed serialized log.
var ErrBadFormat = errors.New("replaylog: bad format")

// minEntrySize is the encoded size of an entry with empty strings: the
// fixed fields plus two zero string lengths.
const minEntrySize = 25 + 2 + 2

// DecodeBytes decodes a log written by EncodeEntries straight out of its
// encoded bytes. The entry slice is sized by what b can hold, never by
// the count the header claims, and b must end exactly after the last
// entry.
func DecodeBytes(b []byte) (*Log, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, io.ErrUnexpectedEOF)
	}
	if binary.LittleEndian.Uint32(b[0:]) != logMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	n := binary.LittleEndian.Uint32(b[4:])
	b = b[8:]
	if uint64(n) > uint64(len(b)/minEntrySize) {
		return nil, fmt.Errorf("%w: %d entries cannot fit in %d bytes", ErrBadFormat, n, len(b))
	}
	l := &Log{entries: make([]Entry, 0, n)}
	for i := uint32(0); i < n; i++ {
		e, rest, err := decodeEntry(b)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadFormat, i, err)
		}
		l.entries = append(l.entries, e)
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFormat, len(b))
	}
	return l, nil
}

// decodeEntry decodes the entry at the head of b and returns the rest.
func decodeEntry(b []byte) (Entry, []byte, error) {
	if len(b) < 25 {
		return Entry{}, nil, io.ErrUnexpectedEOF
	}
	e := Entry{
		Kind:   Kind(b[0]),
		Size:   binary.LittleEndian.Uint64(b[1:]),
		Addr:   binary.LittleEndian.Uint64(b[9:]),
		Handle: binary.LittleEndian.Uint64(b[17:]),
	}
	var err error
	if e.Module, b, err = decodeString(b[25:]); err != nil {
		return Entry{}, nil, err
	}
	if e.Name, b, err = decodeString(b); err != nil {
		return Entry{}, nil, err
	}
	return e, b, nil
}

// decodeString decodes the u16-length-prefixed string at the head of b.
func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b)-2 < n {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}
