// Lazy materialization: the fault gate behind CRAC's restart.
//
// Instead of filling every restored byte before the application runs,
// a restart maps regions (and replayed allocations) with their content
// *cold*: the pages are tracked in a cold interval
// set, and the first access through any data-plane operation — ReadAt,
// WriteAt, Slice/ReadSlice — faults the page range in by calling a
// registered Materializer, which decodes the backing image shards and
// pushes the bytes back through FillCold. A background prefetcher
// drains the rest of the cold set concurrently with execution, through
// the same materializer, so faults and prefetch deduplicate on the
// shard level (the materializer's single-flight).
//
// The gate is content-only: materializing a page neither advances its
// write-generation stamp (the bytes logically existed since the
// restart that created the mapping) nor takes the Freeze/Thaw write
// gate (a quiesced session may still be checkpointed, and the
// checkpoint's reads must be able to fault cold pages in without
// deadlocking against the held gate).
package addrspace

import (
	"errors"
	"fmt"
	"sort"
)

// Materializer materializes checkpointed content: on a nil return,
// every cold page of [addr, addr+length) must hold its image bytes
// (pushed through FillCold) and be marked warm (MarkWarm). length is
// page-aligned. Implementations may materialize more than asked — a
// whole image shard, typically — but must mark warm at least the
// requested range. Called without any space lock held.
type Materializer func(addr, length uint64) error

// ErrNoMaterializer reports an access to a cold page on a space whose
// materializer was never installed (or already uninstalled) — a lazy
// restart bookkeeping bug, not an application error.
var ErrNoMaterializer = errors.New("addrspace: cold page with no materializer installed")

// lazyGate is the cold-range bookkeeping of one lazy restart: a
// sorted, disjoint, page-aligned interval set of absolute addresses
// still unmaterialized. Guarded by lazyMu; the fast path (no lazy
// restart in flight) is a single atomic counter load in the data-plane
// operations. Intervals, not a page map: marking a 64 MiB image cold
// is a handful of merges instead of tens of thousands of map inserts,
// which keeps the restart's visible phase O(plans).
type lazyGate struct {
	active bool
	mat    Materializer
	cold   []Span // sorted by Off, disjoint, page-aligned
}

func pageDown(a uint64) uint64 { return a &^ (PageSize - 1) }
func pageUp(a uint64) uint64   { return (a + PageSize - 1) &^ (PageSize - 1) }

// insertSpan merges [lo, hi) into the sorted disjoint set, returning
// the new set and how many bytes were actually added.
func insertSpan(spans []Span, lo, hi uint64) ([]Span, uint64) {
	if lo >= hi {
		return spans, 0
	}
	// First span whose end is beyond lo.
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Off+spans[i].Len > lo })
	newLo, newHi := lo, hi
	j := i
	var already uint64
	for ; j < len(spans) && spans[j].Off <= hi; j++ {
		if spans[j].Off < newLo {
			newLo = spans[j].Off
		}
		if e := spans[j].Off + spans[j].Len; e > newHi {
			newHi = e
		}
		already += spans[j].Len
	}
	// Bytes added = merged extent minus what was already there.
	added := (newHi - newLo) - already
	out := make([]Span, 0, len(spans)-(j-i)+1)
	out = append(out, spans[:i]...)
	out = append(out, Span{Off: newLo, Len: newHi - newLo})
	out = append(out, spans[j:]...)
	return out, added
}

// subtractSpan removes [lo, hi) from the set, returning the new set
// and how many bytes were actually removed.
func subtractSpan(spans []Span, lo, hi uint64) ([]Span, uint64) {
	if lo >= hi {
		return spans, 0
	}
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Off+spans[i].Len > lo })
	if i == len(spans) || spans[i].Off >= hi {
		return spans, 0
	}
	out := append([]Span(nil), spans[:i]...)
	var removed uint64
	j := i
	for ; j < len(spans) && spans[j].Off < hi; j++ {
		sp := spans[j]
		clo, chi := sp.Off, sp.Off+sp.Len
		if clo < lo {
			out = append(out, Span{Off: clo, Len: lo - clo})
			clo = lo
		}
		if chi > hi {
			out = append(out, Span{Off: hi, Len: chi - hi})
			chi = hi
		}
		if clo < chi {
			removed += chi - clo
		}
	}
	out = append(out, spans[j:]...)
	return out, removed
}

// overlapsOf returns the intersections of [lo, hi) with the set.
func overlapsOf(spans []Span, lo, hi uint64) []Span {
	var out []Span
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Off+spans[i].Len > lo })
	for ; i < len(spans) && spans[i].Off < hi; i++ {
		clo, chi := spans[i].Off, spans[i].Off+spans[i].Len
		if clo < lo {
			clo = lo
		}
		if chi > hi {
			chi = hi
		}
		if clo < chi {
			out = append(out, Span{Off: clo, Len: chi - clo})
		}
	}
	return out
}

// BeginLazy installs the materializer for a lazy restart. Any previous
// gate state is replaced (cold marks of an abandoned restart are
// dropped; the session guarantees the old space is unreachable first).
func (s *Space) BeginLazy(mat Materializer) {
	s.lazyMu.Lock()
	defer s.lazyMu.Unlock()
	s.coldBytes.Store(0)
	s.lazyG = lazyGate{active: true, mat: mat}
}

// EndLazy uninstalls the fault gate, dropping any remaining cold marks
// (their content is no longer materializable). Idempotent.
func (s *Space) EndLazy() {
	s.lazyMu.Lock()
	defer s.lazyMu.Unlock()
	s.coldBytes.Store(0)
	s.lazyG = lazyGate{}
}

// MarkCold marks every page overlapping [addr, addr+length) as
// unmaterialized. The caller must have installed a materializer with
// BeginLazy that can supply the range's content.
func (s *Space) MarkCold(addr, length uint64) {
	if length == 0 {
		return
	}
	s.lazyMu.Lock()
	defer s.lazyMu.Unlock()
	if !s.lazyG.active {
		return
	}
	var added uint64
	s.lazyG.cold, added = insertSpan(s.lazyG.cold, pageDown(addr), pageUp(addr+length))
	s.coldBytes.Add(int64(added))
}

// MarkWarm clears the cold mark of every page fully or partially
// overlapping [addr, addr+length): their content is materialized and
// accesses may proceed. Idempotent.
func (s *Space) MarkWarm(addr, length uint64) {
	if length == 0 {
		return
	}
	s.lazyMu.Lock()
	defer s.lazyMu.Unlock()
	if !s.lazyG.active {
		return
	}
	var removed uint64
	s.lazyG.cold, removed = subtractSpan(s.lazyG.cold, pageDown(addr), pageUp(addr+length))
	s.coldBytes.Add(-int64(removed))
}

// clearColdLocked drops the cold marks of an unmapped range: the
// mapping (and with it the logical content) is gone, and a later
// mapping at the same address starts fresh (zero-filled, warm).
// Called with s.mu held for writing by the structural ops.
func (s *Space) clearColdLocked(addr, length uint64) {
	if s.coldBytes.Load() == 0 || length == 0 {
		return
	}
	s.lazyMu.Lock()
	defer s.lazyMu.Unlock()
	var removed uint64
	s.lazyG.cold, removed = subtractSpan(s.lazyG.cold, pageDown(addr), pageUp(addr+length))
	s.coldBytes.Add(-int64(removed))
}

// ColdBytes counts the bytes still awaiting materialization. Zero once
// a lazy restart has fully drained (or none is in flight).
func (s *Space) ColdBytes() uint64 { return uint64(s.coldBytes.Load()) }

// ColdPages is ColdBytes in pages.
func (s *Space) ColdPages() int64 { return s.coldBytes.Load() / PageSize }

// Covers reports whether [addr, addr+length) is fully mapped, without
// touching content — unlike Slice/ReadAt it never faults cold pages
// in, so registration-style validations (cudaHostRegister at replay)
// stay O(metadata) during a lazy restart.
func (s *Space) Covers(addr, length uint64) bool {
	if length == 0 {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.coveredLocked(addr, length)
}

// Readable is Covers plus the protection check a real read would make:
// every byte of [addr, addr+length) is mapped with ProtRead. Like
// Covers it never faults cold pages in.
func (s *Space) Readable(addr, length uint64) bool {
	if length == 0 {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	end := addr + length
	at := addr
	for at < end {
		r := s.findLocked(at)
		if r == nil || r.prot&ProtRead == 0 {
			return false
		}
		at = r.end()
	}
	return true
}

// coldRuns returns the cold intervals overlapping [addr, addr+length)
// (page-aligned, merged, ascending) plus the installed materializer.
func (s *Space) coldRuns(addr, length uint64) ([]Span, Materializer) {
	s.lazyMu.Lock()
	defer s.lazyMu.Unlock()
	return overlapsOf(s.lazyG.cold, pageDown(addr), pageUp(addr+length)), s.lazyG.mat
}

// faultRange materializes whatever part of [addr, addr+length) is
// still cold, blocking until the content is in place. The fast path
// (no cold pages anywhere) is a single atomic load, checked by the
// callers before descending here. Called without space locks held.
func (s *Space) faultRange(addr, length uint64) error {
	if length == 0 {
		return nil
	}
	runs, mat := s.coldRuns(addr, length)
	if len(runs) == 0 {
		return nil
	}
	if mat == nil {
		return fmt.Errorf("%w: %#x+%#x", ErrNoMaterializer, addr, length)
	}
	for _, run := range runs {
		if err := mat(run.Off, run.Len); err != nil {
			return fmt.Errorf("addrspace: materializing %#x+%#x: %w", run.Off, run.Len, err)
		}
	}
	return nil
}

// DrainLazy materializes every remaining cold page — the whole-image
// drain a prefetcher performs, and the barrier a copy-on-write
// snapshot arming needs (Snapshot.ReadAt reads frozen backing arrays
// directly, bypassing the fault gate, so nothing may be cold once a
// snapshot arms). No-op when nothing is cold.
func (s *Space) DrainLazy() error {
	for {
		before := s.coldBytes.Load()
		if before == 0 {
			return nil
		}
		s.lazyMu.Lock()
		runs := append([]Span(nil), s.lazyG.cold...)
		mat := s.lazyG.mat
		s.lazyMu.Unlock()
		if len(runs) == 0 {
			return nil // raced with a concurrent drain: nothing left
		}
		if mat == nil {
			return fmt.Errorf("%w: %d cold bytes", ErrNoMaterializer, before)
		}
		for _, run := range runs {
			if err := mat(run.Off, run.Len); err != nil {
				return fmt.Errorf("addrspace: materializing %#x+%#x: %w", run.Off, run.Len, err)
			}
		}
		if s.coldBytes.Load() >= before {
			// The materializer made no progress: a contract violation
			// (it must mark materialized ranges warm), not a data error.
			return fmt.Errorf("%w: materializer left %d bytes cold", ErrNoMaterializer, s.coldBytes.Load())
		}
	}
}

// FillCold writes p at addr, but only onto pages still marked cold —
// the privileged push side of the materializer. It bypasses page
// protection (like the checkpointer's reads) and the Freeze/Thaw write
// gate (the content logically predates the freeze: it is the restored
// image's, not a new application write), and does not advance dirty
// stamps (the pages keep their restart-time stamps, exactly as bytes
// written during the restart would be attributed). Writing only cold pages
// makes the push idempotent and protects ranges that were unmapped (or
// unmapped-and-remapped) since the plan was laid: their cold marks are
// gone, so stale image bytes can never overwrite fresh mappings or
// application writes.
//
// Two FillCold calls must never target the same byte concurrently
// (the restorer's single-flight guarantees it); calls over disjoint
// bytes may run in parallel.
func (s *Space) FillCold(addr uint64, p []byte) {
	if len(p) == 0 {
		return
	}
	end := addr + uint64(len(p))
	s.lazyMu.Lock()
	targets := overlapsOf(s.lazyG.cold, addr, end)
	s.lazyMu.Unlock()
	if len(targets) == 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, tg := range targets {
		at := tg.Off
		for at < tg.Off+tg.Len {
			r := s.findLocked(at)
			if r == nil {
				at += PageSize // unmapped since the plan was laid
				continue
			}
			hi := tg.Off + tg.Len
			if re := r.end(); re < hi {
				hi = re
			}
			copy(r.data[at-r.start:hi-r.start], p[at-addr:hi-addr])
			r.touch(hi - r.start)
			at = hi
		}
	}
}
