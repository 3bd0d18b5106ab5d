// Restart: the plugin refills no allocation itself. The active
// allocations travel as fill-only spans of the image's span table, and
// the restorer registers a fill plan for every span (MapRegions), with
// the span's class as its prefetch class: the address-space fault gate
// materializes allocations on first access, and the background
// prefetcher drains the rest — device memory first, managed (UVM)
// memory last. The arena rebuild has already recreated every live
// allocation at its recorded address, so nothing maps a fill-only span;
// CheckFills holds the image's spans to exactly that active set.
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

// LazyRestart implements dmtcp.Plugin: restore the root blob eagerly
// (it is tiny). The active allocations' fill plans are already
// registered.
func (p *Plugin) LazyRestart(ctx context.Context, r *dmtcp.LazyRestorer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !r.Tip().HasSection(SectionRoot) {
		return nil
	}
	root, err := r.SectionBytes(SectionRoot)
	if err != nil {
		return fmt.Errorf("cracplugin: %w", err)
	}
	p.mu.Lock()
	p.root = root
	p.mu.Unlock()
	return nil
}

// CheckFills reports, as dmtcp.ErrBadImage, an image span table whose
// fill-only spans are not exactly the runs of the active allocations of
// the image's own call log (runsOf), each with its class: the restart
// rebuilds that set and fills those spans, so any other span would fill
// memory the rebuild did not recreate, or leave an allocation unfilled.
func CheckFills(table []dmtcp.RegionData, active replaylog.ActiveSet) error {
	want := runsOf(active)
	i := 0
	for _, rd := range table {
		if !rd.FillOnly() {
			continue
		}
		if i == len(want) || rd != want[i].RegionData {
			return fmt.Errorf("%w: fill-only span %#x+%d (class %d) is no run of active allocations", dmtcp.ErrBadImage, rd.Start, rd.Len, rd.Class)
		}
		i++
	}
	if i < len(want) {
		return fmt.Errorf("%w: active allocations at %#x+%d have no fill-only span", dmtcp.ErrBadImage, want[i].Start, want[i].Len)
	}
	return nil
}
