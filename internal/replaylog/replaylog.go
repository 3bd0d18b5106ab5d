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
//     beside the log instead and issues only the active set; full
//     replay of the log is the oracle that rebuild is tested against.
//   - The log also covers streams, events, and fat-binary registrations,
//     all of which must be recreated in a fresh lower half.
package replaylog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// Log is an append-only, concurrency-safe call log.
type Log struct {
	mu      sync.Mutex
	entries []Entry
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Append records one call.
func (l *Log) Append(e Entry) {
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

// Len returns the number of logged calls.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Entries returns a snapshot of the log in call order.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

// View returns the current log contents as an immutable prefix view,
// without copying: the log is append-only, and the returned slice is
// capacity-clamped, so later Appends (which either write beyond the
// clamp or reallocate) never mutate it. This is the O(1) capture a
// concurrent checkpoint takes inside its stop-the-world window.
func (l *Log) View() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries[:len(l.entries):len(l.entries)]
}

// Reset clears the log (used only by tests).
func (l *Log) Reset() {
	l.mu.Lock()
	l.entries = nil
	l.mu.Unlock()
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
//
// Deletions use tombstones plus an address→position index instead of
// scanning the creation-order slice, so a malloc/free-heavy log
// (HPGMG-style, tens of thousands of calls) derives in O(n) rather than
// the quadratic slice-deletion cost of the naive approach. Dead entries
// are skipped during the final collection; the same address may recur in
// the order slice after arena reuse, so liveness is per-entry, not
// per-address.
func (l *Log) Active() ActiveSet {
	return ActiveOf(l.View())
}

// ActiveOf derives the live set from an explicit entry sequence —
// typically a frozen View() prefix, so a checkpoint running
// concurrently with the application computes the active set of the cut
// point, not of the still-growing log.
func ActiveOf(entries []Entry) ActiveSet {
	var as ActiveSet
	type allocList struct {
		order []Allocation
		alive []bool
		idx   map[uint64]int // addr → live entry position in order
	}
	newAL := func() *allocList { return &allocList{idx: make(map[uint64]int)} }
	dev, pin, host, mgd := newAL(), newAL(), newAL(), newAL()
	add := func(al *allocList, e Entry) {
		al.idx[e.Addr] = len(al.order)
		al.order = append(al.order, Allocation{Addr: e.Addr, Size: e.Size})
		al.alive = append(al.alive, true)
	}
	drop := func(al *allocList, addr uint64) {
		if i, ok := al.idx[addr]; ok {
			al.alive[i] = false
			delete(al.idx, addr)
		}
	}
	type handleList struct {
		order []uint64
		alive []bool
		idx   map[uint64]int
	}
	newHL := func() *handleList { return &handleList{idx: make(map[uint64]int)} }
	streams, events := newHL(), newHL()
	addH := func(hl *handleList, h uint64) {
		hl.idx[h] = len(hl.order)
		hl.order = append(hl.order, h)
		hl.alive = append(hl.alive, true)
	}
	dropH := func(hl *handleList, h uint64) {
		if i, ok := hl.idx[h]; ok {
			hl.alive[i] = false
			delete(hl.idx, h)
		}
	}
	fatIdx := make(map[uint64]int)
	var fats []FatBin
	var fatAlive []bool
	for _, e := range entries {
		switch e.Kind {
		case KindMalloc:
			add(dev, e)
		case KindFree:
			drop(dev, e.Addr)
		case KindMallocHost:
			add(pin, e)
		case KindFreeHost:
			drop(pin, e.Addr)
		case KindHostAlloc:
			add(host, e)
		case KindFreeHostAlloc:
			drop(host, e.Addr)
		case KindMallocManaged:
			add(mgd, e)
		case KindFreeManaged:
			drop(mgd, e.Addr)
		case KindStreamCreate:
			addH(streams, e.Handle)
			as.MaxStream = max(as.MaxStream, e.Handle)
		case KindStreamDestroy:
			dropH(streams, e.Handle)
		case KindEventCreate:
			addH(events, e.Handle)
			as.MaxEvent = max(as.MaxEvent, e.Handle)
		case KindEventDestroy:
			dropH(events, e.Handle)
		case KindRegisterFatBinary:
			as.MaxFatBin = max(as.MaxFatBin, e.Handle)
			fatIdx[e.Handle] = len(fats)
			fats = append(fats, FatBin{Handle: e.Handle, Module: e.Module})
			fatAlive = append(fatAlive, true)
		case KindRegisterFunction:
			if i, ok := fatIdx[e.Handle]; ok {
				fats[i].Functions = append(fats[i].Functions, e.Name)
			}
		case KindUnregisterFatBinary:
			if i, ok := fatIdx[e.Handle]; ok {
				fatAlive[i] = false
				delete(fatIdx, e.Handle)
			}
		}
	}
	collect := func(al *allocList) []Allocation {
		out := make([]Allocation, 0, len(al.idx))
		for i, a := range al.order {
			if al.alive[i] {
				out = append(out, a)
			}
		}
		return out
	}
	collectH := func(hl *handleList) []uint64 {
		out := make([]uint64, 0, len(hl.idx))
		for i, h := range hl.order {
			if hl.alive[i] {
				out = append(out, h)
			}
		}
		return out
	}
	as.Device = collect(dev)
	as.Pinned = collect(pin)
	as.Host = collect(host)
	as.Managed = collect(mgd)
	as.Streams = collectH(streams)
	as.Events = collectH(events)
	as.FatBins = make([]FatBin, 0, len(fatIdx))
	for i, f := range fats {
		if fatAlive[i] {
			as.FatBins = append(as.FatBins, f)
		}
	}
	return as
}

// Binary serialization: the log travels inside the checkpoint image.

const logMagic = uint32(0x43524c47) // "CRLG"

// Encode writes the log to w in a self-describing binary format.
func (l *Log) Encode(w io.Writer) error {
	return EncodeEntries(w, l.View())
}

// EncodeEntries writes an explicit entry sequence (typically a frozen
// View() prefix) in the same format as Encode.
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

// DecodeBytes decodes a log written by Encode straight out of its
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
