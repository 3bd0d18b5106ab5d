// Package cracplugin is the CRAC DMTCP plugin: the glue between the
// checkpoint engine and the CUDA state managed by the cracrt runtime.
//
// At checkpoint time it implements the paper's sequence (Sections 2.2 and
// 3.2.3): drain the device queues, then save the memory of *active*
// mallocs — and only active mallocs, not whole arenas — in image
// sections alongside the call log's normal form (the live resources,
// not the history) and the lower-half arena layout (lower.go). At
// restart time (after the session has rebuilt the fresh lower half from
// that layout and the log's active set, recreating every live
// allocation at its original address) it binds those allocations to
// their saved bytes, which the restorer then refills (lazy.go).
//
// The plugin copies no device memory itself: its devmem section names
// each allocation's address range, and the engine's write pipeline
// reads those ranges through the checkpoint's view into its shard
// staging, in parallel.
package cracplugin

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/addrspace"
	"repro/internal/cracrt"
	"repro/internal/cuda"
	"repro/internal/dmtcp"
	"repro/internal/replaylog"
	"repro/internal/uvm"
)

// Section names inside the checkpoint image.
const (
	SectionLog  = "crac.log"  // the call log's normal form (replaylog.Compact)
	SectionRoot = "crac.root" // application root blob (pointer table)

	// SectionDevMem2 is the active-malloc memory payload: each entry
	// carries a presence flag, so a delta image lists every active
	// allocation but bodies only the dirty ones (a standalone image or a
	// chain base bodies all of them). The section is opaque to the
	// engine's generic shard delta; MergeDevMem folds it across a chain.
	SectionDevMem2 = "crac.devmem2"
)

// devMem2EntryHdr is the devmem2 per-allocation header: u64 addr,
// u64 size, u8 flags (bit0: payload follows).
const devMem2EntryHdr = 17

// Plugin implements dmtcp.Plugin for CUDA state.
type Plugin struct {
	rt *cracrt.Runtime

	mu   sync.Mutex
	root []byte

	// Incremental drain state. prevEntries holds the (addr → size) set
	// of allocations whose payload the committed chain tip can supply;
	// prevUVMCut is the UVM touch cut taken at that checkpoint. The
	// staged pair is written by an incremental emit and promoted by
	// CommitIncremental only once the image durably landed — a failed
	// or abandoned checkpoint must not advance the skip baseline, or
	// the next delta would skip allocations whose payload no chain
	// image carries.
	prevEntries   map[uint64]uint64
	prevUVMCut    uint64
	stagedEntries map[uint64]uint64
	stagedUVMCut  uint64
}

// New creates the plugin over the CRAC runtime.
func New(rt *cracrt.Runtime) *Plugin { return &Plugin{rt: rt} }

// Name implements dmtcp.Plugin.
func (p *Plugin) Name() string { return "crac" }

// SetRootBlob stores an application-provided blob (typically a pointer
// table) that travels in the image, letting a restarted process find its
// data structures.
func (p *Plugin) SetRootBlob(b []byte) {
	p.mu.Lock()
	p.root = append([]byte(nil), b...)
	p.mu.Unlock()
}

// RootBlob returns the stored blob.
func (p *Plugin) RootBlob() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.root...)
}

// freezeCap is the non-memory state Freeze captures inside the
// stop-the-world window: everything the later emit needs except the
// payload bytes themselves, which it reads through the engine's view.
type freezeCap struct {
	entries     []replaylog.Entry // immutable view of the call log at the cut
	root        []byte
	chain       bool // a chain image: stage the skip baseline
	since       uint64
	prevEntries map[uint64]uint64
	prevUVMCut  uint64
	uvmCut      uint64
	// uvm is the managed page state frozen at the cut: overlapped
	// faulting must not change what this image skips.
	uvm *uvm.Snapshot
}

// Freeze implements dmtcp.Plugin: drain the queue of pending CUDA
// kernels, then capture a view of the call log and, for a chain image, the
// UVM cut and page-state view and the incremental skip baseline — all
// O(metadata). The returned emit runs later (possibly concurrently with
// the application) and builds the sections from the capture, reading
// allocation payloads only through the engine's view.
func (p *Plugin) Freeze(since uint64, chain bool) (dmtcp.EmitFunc, error) {
	lib := p.rt.Library()

	// Step (a) of the classic sequence: drain the queue
	// (cudaDeviceSynchronize) so no kernel is in flight.
	if err := lib.DeviceSynchronize(); err != nil {
		return nil, fmt.Errorf("cracplugin: drain: %w", err)
	}
	fc := &freezeCap{
		entries: p.rt.Log().View(),
		chain:   chain,
		since:   since,
	}
	if chain {
		// The UVM cut is taken after the queue drain: migrations flushed
		// by pending kernels are stamped at or below it and their content
		// is captured by the emit; accesses racing the drain re-emit next
		// time.
		fc.uvmCut = lib.UVM().CutEpoch()
		fc.uvm = lib.UVM().Snapshot()
	}
	p.mu.Lock()
	fc.prevEntries = p.prevEntries
	fc.prevUVMCut = p.prevUVMCut
	fc.root = append([]byte(nil), p.root...)
	p.mu.Unlock()
	return func(_ context.Context, view addrspace.View, sections *dmtcp.SectionMap) error {
		return p.emit(view, sections, fc)
	}, nil
}

// Resume implements dmtcp.Plugin: nothing to undo — the device was only
// drained, not torn down, so execution simply continues.
func (p *Plugin) Resume() error { return nil }

// emit builds the log, devmem2, root and lower-layout sections from a
// freeze capture. It reads no payload: each emitted allocation enters
// devmem2 as a reference to its range, so a cancelled checkpoint stops
// at the engine's next shard.
//
// The devmem2 section lists every active allocation; a delta bodies only
// the dirty ones. An allocation may be skipped only when all of the
// following hold — each guard alone is insufficient:
//
//   - since > 0: this is a delta (a base carries everything);
//   - the committed chain tip has its payload at the same (addr, size)
//     (prevEntries): an allocation freed and re-issued at the same spot
//     keeps its bytes in the simulated arenas, so the address-space
//     dirty check below remains the content authority;
//   - no page of it was written since the parent's epoch cut (the
//     view's write-generation tracking — frozen stamps for a snapshot);
//   - for managed (UVM) allocations, every page is additionally
//     CPU-resident and untouched since the parent's UVM cut at freeze
//     time: a device-resident page belongs to the device and must be
//     drained, exactly as real CRAC cannot trust the host copy of a
//     page the GPU holds (paper Section 2.3).
func (p *Plugin) emit(view addrspace.View, sections *dmtcp.SectionMap, fc *freezeCap) error {
	// One pass over the frozen call log yields both its active set and
	// its normal form; the section carries the normal form, which stands
	// for the log at the cut under every call after it.
	active, normal := replaylog.Normalize(fc.entries)
	logw := sections.Writer(SectionLog, 64+25*len(normal))
	if err := replaylog.EncodeEntries(logw, normal); err != nil {
		return fmt.Errorf("cracplugin: encoding log: %w", err)
	}
	logw.Close()

	// Save the memory of active mallocs in the lower-half arenas
	// (device, pinned, managed) as of the capture. cudaHostAlloc buffers
	// are upper-half regions and travel with the DMTCP image itself.
	//
	// The section's count and entry headers are literal; each emitted
	// allocation is a reference to its range, which the engine's write
	// pipeline reads through the view straight into its shard staging.
	groups := [][]replaylog.Allocation{active.Device, active.Pinned, active.Managed}
	n := len(active.Device) + len(active.Pinned) + len(active.Managed)
	mem := sections.Writer(SectionDevMem2, 4+devMem2EntryHdr*n)
	var hdr [devMem2EntryHdr]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	mem.Write(hdr[:4])
	staged := make(map[uint64]uint64, n)
	for gi, g := range groups {
		managed := gi == 2
		for _, a := range g {
			skip := fc.since > 0 &&
				fc.prevEntries[a.Addr] == a.Size &&
				!view.RangeDirtySince(a.Addr, a.Size, fc.since) &&
				(!managed || fc.uvm.CleanSince(a.Addr, a.Size, fc.prevUVMCut))
			binary.LittleEndian.PutUint64(hdr[0:], a.Addr)
			binary.LittleEndian.PutUint64(hdr[8:], a.Size)
			hdr[16] = 0
			if !skip {
				hdr[16] = 1
			}
			mem.Write(hdr[:])
			if !skip {
				mem.WriteRange(a.Addr, int(a.Size))
			}
			staged[a.Addr] = a.Size
		}
	}
	mem.Close()
	sections.MarkOpaque(SectionDevMem2)
	sections.Add(SectionRoot, fc.root)
	// The arena layout comes from the view's region table, which the
	// engine froze at the cut, after this plugin's Freeze: no arena call
	// is mid-flight there (the session's gate waits them out), so its
	// chunks are exactly those the logged calls grew.
	sections.Add(SectionLower, EncodeLowerLayout(cuda.LayoutOf(view)))

	if fc.chain {
		p.mu.Lock()
		p.stagedEntries = staged
		p.stagedUVMCut = fc.uvmCut
		p.mu.Unlock()
	}
	return nil
}

// CommitIncremental promotes the drain state staged by the last
// incremental emit to the skip baseline. The caller invokes it once
// the image has durably landed (e.g. the Store.Put committed); without
// the call the baseline stays at the previous successful checkpoint.
func (p *Plugin) CommitIncremental() {
	p.mu.Lock()
	if p.stagedEntries != nil {
		p.prevEntries = p.stagedEntries
		p.prevUVMCut = p.stagedUVMCut
		p.stagedEntries = nil
	}
	p.mu.Unlock()
}

// ResetIncremental drops the skip baseline: the next delta drain emits
// every allocation. Sessions call it when the chain breaks (restart).
func (p *Plugin) ResetIncremental() {
	p.mu.Lock()
	p.prevEntries = nil
	p.stagedEntries = nil
	p.prevUVMCut = 0
	p.stagedUVMCut = 0
	p.mu.Unlock()
}

// maxDevMemEntryBytes caps a single allocation's claimed size and
// maxDevMemTotalBytes the merged section, so a corrupt or hostile
// image fails with an error instead of demanding an absurd allocation
// (mirroring the dmtcp decoder's sanity caps).
const (
	maxDevMemEntryBytes = 1 << 31
	maxDevMemTotalBytes = 1 << 33
)

// walkDevMem2 decodes the entry headers of a devmem2 section of
// secSize bytes and calls fn once per entry with its address, size and
// — for an entry that carries its payload — the payload's offset inside
// the section (present false: the entry was skipped, its bytes live in
// an ancestor). Only headers are read through src; the section bounds
// every claim, so hostile counts and sizes fail without being believed.
func walkDevMem2(src io.ReaderAt, secSize uint64, fn func(addr, size uint64, present bool, payloadOff uint64) error) error {
	var hdr [devMem2EntryHdr]byte
	if secSize < 4 {
		return fmt.Errorf("devmem2 count: %w", io.ErrUnexpectedEOF)
	}
	if _, err := src.ReadAt(hdr[:4], 0); err != nil {
		return fmt.Errorf("devmem2 count: %w", noEOF(err))
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	off := uint64(4)
	if uint64(n) > (secSize-off)/devMem2EntryHdr {
		return fmt.Errorf("devmem2 count %d: %w", n, io.ErrUnexpectedEOF)
	}
	for i := uint32(0); i < n; i++ {
		if secSize-off < devMem2EntryHdr {
			return fmt.Errorf("devmem2 entry %d: %w", i, io.ErrUnexpectedEOF)
		}
		if _, err := src.ReadAt(hdr[:], int64(off)); err != nil {
			return fmt.Errorf("devmem2 entry %d: %w", i, noEOF(err))
		}
		off += devMem2EntryHdr
		addr := binary.LittleEndian.Uint64(hdr[0:])
		size := binary.LittleEndian.Uint64(hdr[8:])
		if size > maxDevMemEntryBytes {
			return fmt.Errorf("devmem2 entry %d: oversized allocation (%d bytes)", i, size)
		}
		present := hdr[16]&1 != 0
		if present && secSize-off < size {
			return fmt.Errorf("devmem2 entry %d data: %w", i, io.ErrUnexpectedEOF)
		}
		if err := fn(addr, size, present, off); err != nil {
			return err
		}
		if present {
			off += size
		}
	}
	return nil
}

// noEOF reports a read that ended inside a header as truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// MergeDevMem folds the devmem2 section of a delta chain into the
// section a single non-incremental drain would have written at the tip:
// the tip's entry order and layout, every payload present. chain holds
// each member's section, tip first, down to the base or the last member
// that has one. Entries fold base to tip by their headers alone — an
// entry carrying its payload owns it; one that skipped it takes what its
// parent's entry for the same address resolved to, at the same size —
// and then each payload is copied once, from the member that owns it.
func MergeDevMem(chain []*io.SectionReader) ([]byte, error) {
	type entry struct {
		addr, size, off uint64
		present         bool
	}
	type owner struct {
		sec       *io.SectionReader
		off, size uint64
	}
	var (
		owners map[uint64]owner
		tip    []entry
		total  uint64
	)
	for i := len(chain) - 1; i >= 0; i-- {
		sec := chain[i]
		tip, total = tip[:0], 4
		err := walkDevMem2(sec, uint64(sec.Size()), func(addr, size uint64, present bool, off uint64) error {
			tip = append(tip, entry{addr, size, off, present})
			total += devMem2EntryHdr + size
			return nil
		})
		if err != nil {
			return nil, err
		}
		if total > maxDevMemTotalBytes {
			return nil, fmt.Errorf("devmem2 section too large (%d bytes)", total)
		}
		next := make(map[uint64]owner, len(tip))
		for _, e := range tip {
			o, ok := owner{sec, e.off, e.size}, true
			if !e.present {
				if o, ok = owners[e.addr]; !ok || o.size != e.size {
					return nil, fmt.Errorf("allocation %#x+%d has no payload in the parent chain", e.addr, e.size)
				}
			}
			next[e.addr] = o
		}
		owners = next
	}
	out := make([]byte, total)
	binary.LittleEndian.PutUint32(out[0:], uint32(len(tip)))
	off := uint64(4)
	for _, e := range tip {
		binary.LittleEndian.PutUint64(out[off:], e.addr)
		binary.LittleEndian.PutUint64(out[off+8:], e.size)
		out[off+16] = 1
		off += devMem2EntryHdr
		if o := owners[e.addr]; e.size > 0 {
			if _, err := o.sec.ReadAt(out[off:off+e.size], int64(o.off)); err != nil {
				return nil, fmt.Errorf("allocation %#x+%d: %w", e.addr, e.size, noEOF(err))
			}
		}
		off += e.size
	}
	return out, nil
}

var _ dmtcp.Plugin = (*Plugin)(nil)
