// Restart: instead of refilling every active allocation itself, the
// plugin binds each allocation's address range to its payload
// bytes inside the image (a fill plan on the dmtcp.LazyRestorer) and
// lets the address-space fault gate materialize allocations on first
// access, with the background prefetcher draining the rest — device
// memory first, managed (UVM) memory last.
//
// The devmem2 layout of a standalone image or a chain base, whose
// entries are all present, is a deterministic function of the call log
// (the same walk the emit performs), so every entry's payload offset is
// computed without reading a single payload byte.
// A delta's devmem2 is walked entry header by entry header during
// planning — only the shards holding a header are decoded: the flags
// decide which entries carry payload (the dirty set, bound to its
// offset in that delta's section like any other plan), and entries it
// skips resolve to the nearest ancestor that owns them, terminating at
// the base's computed layout.
//
// Materialization writes through Space.FillCold, never through
// uvm.Manager.Access: restoring a managed allocation's bytes is not an
// application touch, so the pages stay host-resident with untouched
// epochs ("CPU-resident managed pages left cold") and migrate only
// when the restarted application actually reaches them.
package cracplugin

import (
	"context"
	"fmt"

	"repro/internal/dmtcp"
	"repro/internal/replaylog"
)

// allocClassOf maps the active-set group order of the devmem layouts
// to prefetch classes.
var allocClasses = []dmtcp.PrefetchClass{dmtcp.ClassDevice, dmtcp.ClassPinned, dmtcp.ClassManaged}

// LazyRestart implements dmtcp.Plugin: restore the root blob eagerly
// (it is tiny) and register fill plans for every active allocation
// instead of refilling them.
func (p *Plugin) LazyRestart(ctx context.Context, r *dmtcp.LazyRestorer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tip := r.Tip()
	if tip.HasSection(SectionRoot) {
		root, err := r.SectionBytes(SectionRoot)
		if err != nil {
			return fmt.Errorf("cracplugin: %w", err)
		}
		p.mu.Lock()
		p.root = root
		p.mu.Unlock()
	}
	// The session rebinds the runtime before the restart hooks run, so
	// the active set it rebuilt from is the image's: exactly the entry
	// list the checkpoint-side emit walked.
	if !tip.HasSection(SectionDevMem2) {
		return fmt.Errorf("cracplugin: image has no %s section", SectionDevMem2)
	}
	return p.planDevMem2(r, p.rt.RebindActive())
}

// planDevMem2 registers lazy plans over a devmem2 chain (one image, for
// a standalone image or a base). The tip's active set names every
// allocation to restore; each resolves to the nearest chain image whose
// devmem2 entry carries its payload.
func (p *Plugin) planDevMem2(r *dmtcp.LazyRestorer, active replaylog.ActiveSet) error {
	type target struct {
		size  uint64
		class dmtcp.PrefetchClass
	}
	pending := make(map[uint64]target)
	for gi, g := range [][]replaylog.Allocation{active.Device, active.Pinned, active.Managed} {
		for _, a := range g {
			pending[a.Addr] = target{size: a.Size, class: allocClasses[gi]}
		}
	}
	for img, ix := range r.Chain() {
		if len(pending) == 0 {
			break
		}
		if !ix.HasSection(SectionDevMem2) {
			return fmt.Errorf("%w: chain image %d has no %s section", dmtcp.ErrDeltaChain, img, SectionDevMem2)
		}
		if !ix.Delta {
			// A full image's entries are all present, so the layout is a pure
			// function of its own call log — when the base is the tip, the
			// active set just rebuilt: compute every payload offset without
			// touching the payload shards.
			baseActive := active
			if img > 0 {
				logBytes, err := r.ImageSectionBytes(img, SectionLog)
				if err != nil {
					return fmt.Errorf("cracplugin: base log: %w", err)
				}
				baseLog, err := replaylog.DecodeBytes(logBytes)
				if err != nil {
					return fmt.Errorf("%w: base log: %v", dmtcp.ErrBadImage, err)
				}
				baseActive = baseLog.Active()
			}
			secSize, ok := sectionSize(ix.Secs, SectionDevMem2)
			if !ok {
				return fmt.Errorf("cracplugin: %s vanished from section table", SectionDevMem2)
			}
			off := uint64(4)
			for _, g := range [][]replaylog.Allocation{baseActive.Device, baseActive.Pinned, baseActive.Managed} {
				for _, a := range g {
					off += devMem2EntryHdr
					if tgt, ok := pending[a.Addr]; ok && tgt.size == a.Size {
						if err := r.PlanSection(a.Addr, a.Size, img, SectionDevMem2, off, tgt.class); err != nil {
							return fmt.Errorf("cracplugin: planning %#x+%d: %w", a.Addr, a.Size, err)
						}
						delete(pending, a.Addr)
					}
					off += a.Size
				}
			}
			if off != secSize {
				return fmt.Errorf("%w: base devmem2 layout %d bytes, section holds %d", dmtcp.ErrBadImage, off, secSize)
			}
			break // the base ends every lineage
		}
		// A delta's devmem2 is opaque — emitted in full — so the flags
		// (which entries carry payload) are local to this image, and so
		// are the payloads: each binds to its offset in this image's
		// section. Skipped entries stay pending for an older image.
		sec, err := r.ImageSection(img, SectionDevMem2)
		if err != nil {
			return fmt.Errorf("cracplugin: delta devmem2: %w", err)
		}
		err = walkDevMem2(sec, sec.Size(), func(addr, size uint64, present bool, off uint64) error {
			tgt, ok := pending[addr]
			if !present || !ok || tgt.size != size {
				return nil
			}
			delete(pending, addr)
			return r.PlanSection(addr, size, img, SectionDevMem2, off, tgt.class)
		})
		if err != nil {
			return fmt.Errorf("cracplugin: delta devmem2: %w", err)
		}
	}
	for addr, tgt := range pending {
		return fmt.Errorf("%w: allocation %#x+%d has no payload in the chain", dmtcp.ErrDeltaChain, addr, tgt.size)
	}
	return nil
}

func sectionSize(secs []dmtcp.SectionHdr, name string) (uint64, bool) {
	for _, s := range secs {
		if s.Name == name {
			return s.Size, true
		}
	}
	return 0, false
}
