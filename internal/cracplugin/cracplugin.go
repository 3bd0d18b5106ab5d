// Package cracplugin is the CRAC DMTCP plugin: the glue between the
// checkpoint engine and the CUDA state managed by the cracrt runtime.
//
// At checkpoint time it implements the paper's sequence (Sections 2.2 and
// 3.2.3): drain the device queues, then save the memory of *active*
// mallocs — and only active mallocs, not whole arenas — alongside the
// call log's normal form (the live resources, not the history) and the
// lower-half arena layout (lower.go). CRAC's single address space makes
// each allocation an address range, so the plugin copies no device
// memory and keeps no chain state: it hands the engine the active
// allocations as fill-only spans (addr, len, class), one per run of
// adjacent allocations, which the engine dirty-tracks, shards, hashes
// and resolves through a chain by address, exactly like an upper-half
// region. At restart the session rebuilds the
// fresh lower half from that layout and the log's active set, recreating
// every live allocation at its original address; the restorer then
// fills the spans in place (lazy.go).
package cracplugin

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
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
)

// Plugin implements dmtcp.Plugin for CUDA state.
type Plugin struct {
	rt *cracrt.Runtime

	mu   sync.Mutex
	root []byte
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
// payload bytes themselves, which the engine reads through its view.
type freezeCap struct {
	entries []replaylog.Entry // immutable view of the call log at the cut
	root    []byte
	// uvm is the managed page state frozen at the cut, and prevUVMCut the
	// parent image's UVM cut: a delta's managed spans are touched where a
	// page is not CleanSince it. nil for a standalone image or a base.
	uvm        *uvm.Snapshot
	prevUVMCut uint64
}

// Freeze implements dmtcp.Plugin: drain the queue of pending CUDA
// kernels, then capture a view of the call log and, for a chain image,
// the UVM cut and page-state view — all O(metadata). The UVM cut is the
// cut Freeze returns: the engine hands it back as prevCut on the next
// delta, once this image is durable. The returned emit runs later
// (possibly concurrently with the application).
func (p *Plugin) Freeze(since, prevCut uint64, chain bool) (dmtcp.EmitFunc, uint64, error) {
	lib := p.rt.Library()

	// Step (a) of the classic sequence: drain the queue
	// (cudaDeviceSynchronize) so no kernel is in flight.
	if err := lib.DeviceSynchronize(); err != nil {
		return nil, 0, fmt.Errorf("cracplugin: drain: %w", err)
	}
	fc := &freezeCap{entries: p.rt.Log().View()}
	var cut uint64
	if chain {
		// The UVM cut is taken after the queue drain: migrations flushed
		// by pending kernels are stamped at or below it and their content
		// is captured by this image; accesses racing the drain re-emit
		// next time.
		cut = lib.UVM().CutEpoch()
		if since > 0 {
			fc.uvm, fc.prevUVMCut = lib.UVM().Snapshot(), prevCut
		}
	}
	fc.root = p.RootBlob()
	return func(_ context.Context, view addrspace.View, sections *dmtcp.SectionMap) error {
		return p.emit(view, sections, fc)
	}, cut, nil
}

// Resume implements dmtcp.Plugin: nothing to undo — the device was only
// drained, not torn down, so execution simply continues.
func (p *Plugin) Resume() error { return nil }

// allocClasses maps the active set's allocation groups (device, pinned,
// managed) to their span classes.
var allocClasses = [3]dmtcp.PrefetchClass{dmtcp.ClassDevice, dmtcp.ClassPinned, dmtcp.ClassManaged}

// A run is one fill-only span: a run of same-class allocations whose
// carved blocks meet end to end, in address order.
type run struct {
	dmtcp.RegionData
	allocs []replaylog.Allocation
}

// runsOf returns an active set's fill-only spans, in address order. A
// run's padding between blocks travels inside it, and thousands of small
// adjacent allocations (fig5c's UnifiedMemoryStreams holds ~1 300) cost
// a few spans and shards, not one each.
func runsOf(active replaylog.ActiveSet) []run {
	var runs []run
	for gi, g := range [3][]replaylog.Allocation{active.Device, active.Pinned, active.Managed} {
		g = slices.Clone(g)
		slices.SortFunc(g, func(a, b replaylog.Allocation) int { return cmp.Compare(a.Addr, b.Addr) })
		var end uint64 // block end of this group's last allocation
		for _, a := range g {
			if a.Addr == end {
				r := &runs[len(runs)-1]
				r.Len, r.allocs = a.Addr+a.Size-r.Start, append(r.allocs, a)
			} else {
				runs = append(runs, run{dmtcp.RegionData{Start: a.Addr, Len: a.Size, Class: allocClasses[gi]}, []replaylog.Allocation{a}})
			}
			end = a.Addr + cuda.BlockSize(a.Size)
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.Start, b.Start) })
	return runs
}

// emit builds the log, root and lower-layout sections from a freeze
// capture, and names the active allocations in the lower-half arenas
// (device, pinned, managed) as fill-only spans, one per run (runsOf).
// cudaHostAlloc buffers are upper-half regions and travel with the
// DMTCP image itself.
//
// Which shards of a span a delta carries is the engine's rule: those
// written since the parent's cut, those the parent's span table does
// not cover (an allocation freed and re-issued keeps its bytes in the
// arena, and one carved from an already-mapped chunk after the cut is
// clean there, yet the parent holds neither), and — for a managed span —
// those holding a page that is not CPU-resident and untouched since the
// parent's UVM cut: a device-resident page belongs to the device and
// must be drained, exactly as real CRAC cannot trust the host copy of a
// page the GPU holds (paper Section 2.3).
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

	for _, r := range runsOf(active) {
		var touched func(addr, n uint64) bool
		if r.Class == dmtcp.ClassManaged && fc.uvm != nil {
			touched = func(addr, n uint64) bool { return touchedSince(fc.uvm, r.allocs, addr, n, fc.prevUVMCut) }
		}
		sections.Fill(dmtcp.FillSpan{Addr: r.Start, Len: r.Len, Class: r.Class, Touched: touched})
	}
	sections.Add(SectionRoot, fc.root)
	// The arena layout comes from the view's region table, which the
	// engine froze at the cut, after this plugin's Freeze: no arena call
	// is mid-flight there (the session's gate waits them out), so its
	// chunks are exactly those the logged calls grew.
	sections.Add(SectionLower, EncodeLowerLayout(cuda.LayoutOf(view)))
	return nil
}

// touchedSince reports whether a managed allocation of allocs (ascending)
// overlapping [addr, addr+n) has a page that is not CPU-resident and
// untouched since cut. Padding between allocations is no managed memory.
func touchedSince(sn *uvm.Snapshot, allocs []replaylog.Allocation, addr, n, cut uint64) bool {
	end := addr + n
	i := sort.Search(len(allocs), func(i int) bool { return allocs[i].Addr+allocs[i].Size > addr })
	for ; i < len(allocs) && allocs[i].Addr < end; i++ {
		lo, hi := max(allocs[i].Addr, addr), min(allocs[i].Addr+allocs[i].Size, end)
		if !sn.CleanSince(lo, hi-lo, cut) {
			return true
		}
	}
	return false
}

var _ dmtcp.Plugin = (*Plugin)(nil)
