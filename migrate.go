package crac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/dmtcp"
)

// A MigrateOption configures Migrate.
type MigrateOption func(*migrateSettings)

type migrateSettings struct {
	prefix     string
	maxRounds  int
	roundDelay time.Duration
}

// Pre-copy converges when a delta round's dirty payload is at most
// convergeFrac of the base round's total payload, or at most
// convergeBytes: the final cut will then be cheap.
const (
	convergeFrac  = 0.02
	convergeBytes = 64 << 10
)

func resolveMigrate(opts []MigrateOption) migrateSettings {
	cfg := migrateSettings{
		prefix:    "migrate",
		maxRounds: 5,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxRounds < 1 {
		cfg.maxRounds = 1
	}
	return cfg
}

// WithMigratePrefix names the migration's images: pre-copy rounds are
// written as <prefix>-0, <prefix>-1, ... and the final cut as
// <prefix>-final (default prefix "migrate"). Use distinct prefixes
// when one destination store receives migrations from several
// sessions.
func WithMigratePrefix(prefix string) MigrateOption {
	return func(s *migrateSettings) { s.prefix = prefix }
}

// WithMigrateRounds caps the pre-copy phase at n rounds (the full base
// plus n-1 delta rounds; default 5, minimum 1). The final cut is not
// counted — it always happens.
func WithMigrateRounds(n int) MigrateOption {
	return func(s *migrateSettings) { s.maxRounds = n }
}

// WithMigrateRoundDelay inserts a pause between pre-copy rounds,
// letting the application run (and re-dirty pages) between deltas.
// Mostly useful in demos and experiments; production migrations want
// back-to-back rounds (the default) so the chain converges as fast as
// the network allows.
func WithMigrateRoundDelay(d time.Duration) MigrateOption {
	return func(s *migrateSettings) { s.roundDelay = d }
}

// MigrateRound describes one image the migration moved: a pre-copy
// round (round 0 is the full base, later rounds are deltas of what the
// still-running application dirtied), or the final cut taken under
// quiesce.
type MigrateRound struct {
	// Name is the image's name in its store.
	Name string
	// Final marks the cut image written under quiesce.
	Final bool
	// Delta reports whether the image was a v3 delta (round 0 and
	// rebased rounds are full bases).
	Delta bool
	// ImageBytes is the encoded image size moved to the store.
	ImageBytes uint64
	// PayloadBytes is the dirty payload the round carried;
	// PayloadTotal the full span layout it was measured against. Their
	// ratio shrinking round over round is pre-copy convergence.
	PayloadBytes uint64
	PayloadTotal uint64
	// DirtyShards of TotalShards were emitted.
	DirtyShards int
	TotalShards int
	// Pause is the application-visible stop-the-world slice of the
	// round (CoW arming for pre-copy rounds; contained in the
	// migration's Downtime for the final cut).
	Pause time.Duration
	// Duration is the round's wall time including the store commit.
	Duration time.Duration
}

// MigrateReport is the migration's account of itself: every round
// moved, the convergence outcome, and the downtime split.
type MigrateReport struct {
	// Rounds lists the pre-copy rounds in order, then the final cut.
	Rounds []MigrateRound
	// PreCopyBytes is the total image bytes moved while the source kept
	// executing; FinalBytes the cut image written inside the downtime
	// window.
	PreCopyBytes uint64
	FinalBytes   uint64
	// Converged reports that pre-copy stopped because the dirty rate
	// met the convergence policy (not because it hit the round cap or
	// plateaued).
	Converged bool
	// Downtime is the service gap: source quiesce until the destination
	// session could execute (RestartAsync returned). The post-copy
	// drain continues in the background and is not part of it.
	Downtime time.Duration
	// Duration is the whole Migrate call, pre-copy included.
	Duration time.Duration
	// Tip is the chain tip image name (the final cut); restoring it
	// from the destination store reproduces the migrated state.
	Tip string
}

// Migration is a completed handoff: the destination session is live
// and executing, while the post-copy tail — the background drain of
// cold memory and the replication of the final cut image to the
// destination store — may still be in flight. Wait (or Done) observes
// it.
type Migration struct {
	// Dest is the activated destination session.
	Dest *Session
	// Report describes the migration's rounds and downtime.
	Report *MigrateReport

	done chan struct{}
	err  error
}

// Done returns a channel closed when the post-copy tail has finished
// (drain complete, final image replicated to the destination store).
func (m *Migration) Done() <-chan struct{} { return m.done }

// Wait blocks until the post-copy tail finishes. A tail error is not
// fatal to the destination session — cold memory keeps materializing
// on demand and the session stays fully usable — but until the final
// image is replicated, the destination store alone cannot reproduce
// the migrated state (the cut image still lives in the source store).
func (m *Migration) Wait() error {
	<-m.done
	return m.err
}

// migImage records one image the migration wrote, for rollback.
type migImage struct {
	store Store
	name  string
}

// Migrate moves a live session from the source store's node to the
// destination: iterative pre-copy rounds stream a full base and then
// v3 deltas of whatever the still-executing application re-dirtied
// into dst, until the dirty rate converges (or the round cap is hit);
// the source is then quiesced for the final copy-on-write cut — an
// O(dirty tail) delta written to the *source-side* store src, so no
// network transfer sits inside the downtime window — and a fresh
// destination session activates from the chain with a lazy
// RestartAsync, post-copy faulting the tail across the wire straight
// from src before the cut image has been replicated to dst. Downtime
// is quiesce → destination executable: the same order as a concurrent
// checkpoint pause plus a lazy restart's time-to-first-kernel,
// independent of the session's total footprint.
//
// src is the store local to the session's node (it receives the final
// cut and serves the post-copy tail; a DirStore served via ServeStore
// in a real deployment, any Store in-process). dst is the
// destination-side store the pre-copy chain streams into, typically an
// HTTPStore pointing at the destination node. The background tail
// (observed via the returned Migration) replicates the cut image from
// src to dst once the drain completes, after which dst holds the whole
// chain and src can be decommissioned.
//
// While Migrate runs, the session's checkpoint machinery belongs to
// the migration: checkpoints and restarts report ErrMigrationInFlight.
// On success the source session is left quiesced at the cut — the
// caller decides whether to Resume it (the two sessions then diverge)
// or Close it — and its incremental lineage is rebased —
// the migration consumed the plugin's dirty baseline, so the next
// checkpoint after a Resume writes a self-contained base. On failure —
// context cancellation or a store error in any phase — the migration
// aborts cleanly: the source resumes executing where it was, every
// image the migration wrote is deleted from both stores, no
// copy-on-write pages stay retained, and the error is returned (a
// cancelled context matches ErrCancelled).
func Migrate(ctx context.Context, sess *Session, src, dst Store, opts ...MigrateOption) (*Migration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := resolveMigrate(opts)
	// The final cut is written to src and later replicated to dst; if
	// both reach the same store the replication (and its source-side
	// delete) must not run, or it would delete the image it just
	// "copied".
	samePair := sameStore(src, dst)
	if err := sess.beginMigration(); err != nil {
		return nil, err
	}
	defer sess.endMigration()

	start := time.Now()
	rep := &MigrateReport{}
	var written []migImage
	quiesced := false
	var dest *Session
	abort := func(err error) (*Migration, error) {
		if quiesced {
			sess.Resume()
		}
		if dest != nil {
			dest.Close()
		}
		// The migration's rounds advanced the plugin's dirty baseline
		// past the session's own chain: rebase so the next checkpoint is
		// a self-contained base instead of a delta against an image that
		// is about to be deleted.
		sess.Rebase()
		sess.plugin.ResetIncremental()
		// Roll back even when the failure is the caller's own
		// cancellation: cleanup uses a detached context.
		cctx := context.WithoutCancel(ctx)
		for _, im := range written {
			im.store.Delete(cctx, im.name)
		}
		return nil, wrapCancelled(err)
	}

	// Phase 1 — pre-copy: stream a base, then deltas of what the
	// running application re-dirties, until the dirty payload converges
	// (or stops shrinking, or the round cap hits).
	var prev *dmtcp.DeltaState
	var basePayload uint64 = 1
	var lastPayload uint64
	for round := 0; ; round++ {
		name := fmt.Sprintf("%s-%d", cfg.prefix, round)
		t0 := time.Now()
		st, next, imgBytes, err := sess.migrateRound(ctx, dst, name, prev)
		if err != nil {
			return abort(fmt.Errorf("crac: migrate pre-copy round %d: %w", round, err))
		}
		written = append(written, migImage{dst, name})
		prev = next
		rep.Rounds = append(rep.Rounds, MigrateRound{
			Name:         name,
			Delta:        st.Delta,
			ImageBytes:   imgBytes,
			PayloadBytes: st.PayloadWritten,
			PayloadTotal: st.PayloadTotal,
			DirtyShards:  st.ShardsWritten,
			TotalShards:  st.ShardsTotal,
			Pause:        st.PauseDuration,
			Duration:     time.Since(t0),
		})
		rep.PreCopyBytes += imgBytes
		if round == 0 {
			basePayload = max(st.PayloadTotal, 1)
		} else {
			if st.PayloadWritten <= convergeBytes ||
				float64(st.PayloadWritten) <= convergeFrac*float64(basePayload) {
				rep.Converged = true
				break
			}
			if st.PayloadWritten >= lastPayload {
				break // dirty rate plateaued: more rounds move the same pages again
			}
		}
		lastPayload = st.PayloadWritten
		if round+1 >= cfg.maxRounds {
			break
		}
		if cfg.roundDelay > 0 {
			if err := sleepCtx(ctx, cfg.roundDelay); err != nil {
				return abort(err)
			}
		}
	}

	// The destination session is built before the downtime window opens
	// (its lower-half construction is not the source's problem). It
	// inherits the source's configuration — including the image-shaping
	// options that make the activated state byte-identical.
	var err error
	dest, err = newSession(sess.cfg)
	if err != nil {
		return abort(fmt.Errorf("crac: migrate: building destination session: %w", err))
	}
	// Replay on the destination must resolve the same kernels the
	// source could, whether they were registered via WithKernels or at
	// runtime through RegisterFunction.
	for module, funcs := range sess.rt.KernelTables() {
		dest.rt.RegisterKernelTable(module, funcs)
	}

	// Phase 2 — the cut: quiesce the source and write the final delta
	// to the source-side store. Everything from here to RestartAsync
	// returning is the migration's visible downtime.
	finalName := cfg.prefix + "-final"
	downStart := time.Now()
	if err := sess.Quiesce(); err != nil {
		return abort(err)
	}
	quiesced = true
	t0 := time.Now()
	st, _, finalBytes, err := sess.migrateRound(ctx, src, finalName, prev)
	if err != nil {
		return abort(fmt.Errorf("crac: migrate final cut: %w", err))
	}
	written = append(written, migImage{src, finalName})
	rep.Rounds = append(rep.Rounds, MigrateRound{
		Name:         finalName,
		Final:        true,
		Delta:        st.Delta,
		ImageBytes:   finalBytes,
		PayloadBytes: st.PayloadWritten,
		PayloadTotal: st.PayloadTotal,
		DirtyShards:  st.ShardsWritten,
		TotalShards:  st.ShardsTotal,
		Pause:        st.PauseDuration,
		Duration:     time.Since(t0),
	})
	rep.FinalBytes = finalBytes
	rep.Tip = finalName

	// Phase 3 — activation: the destination restarts lazily from the
	// chain tip, resolving each image from dst first and falling back
	// to src — which is where (and only where) the final cut lives
	// right now. The visible phase is metadata + the active-set rebuild; the tail
	// post-copy faults across the wire on demand.
	view := &fallbackStore{primary: dst, fallback: src}
	rst, err := dest.RestartAsync(ctx, view, finalName)
	if err != nil {
		return abort(fmt.Errorf("crac: migrate: activating destination: %w", err))
	}
	rep.Downtime = time.Since(downStart)

	// The source is no longer the session of record. Its lineage was
	// consumed by the migration either way.
	sess.Rebase()
	sess.plugin.ResetIncremental()

	rep.Duration = time.Since(start)
	m := &Migration{Dest: dest, Report: rep, done: make(chan struct{})}
	go func() {
		defer close(m.done)
		// Post-copy drain: the prefetcher pulls the rest of the chain
		// through the fallback view (dst for the pre-copy rounds, src
		// for the cut).
		if _, err := rst.Wait(); err != nil {
			m.err = fmt.Errorf("crac: migrate post-copy drain: %w", err)
			return
		}
		if samePair {
			return
		}
		// The destination no longer needs src for faults; make dst
		// self-contained by replicating the cut image, then drop it from
		// the source side.
		if err := copyImage(ctx, src, dst, finalName); err != nil {
			m.err = fmt.Errorf("crac: migrate: replicating %q to destination store: %w", finalName, err)
			return
		}
		// Best-effort: a stale cut image on the source node is garbage,
		// not a correctness problem.
		src.Delete(context.WithoutCancel(ctx), finalName)
	}()
	return m, nil
}

// beginMigration claims the session for a migration.
func (s *Session) beginMigration() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lib == nil {
		return ErrSessionClosed
	}
	if s.migrating {
		return fmt.Errorf("%w: cannot start another", ErrMigrationInFlight)
	}
	if s.inflight != nil {
		return fmt.Errorf("%w: cannot migrate", ErrCheckpointInFlight)
	}
	s.migrating = true
	return nil
}

func (s *Session) endMigration() {
	s.mu.Lock()
	s.migrating = false
	s.mu.Unlock()
}

// migrateRound takes one incremental checkpoint of the session into
// store under name, chained to prev (nil: a full base), and waits for
// it: the one checkpoint lifecycle through the migration door, with the
// migration's own lineage instead of the session's. Under the caller's
// Quiesce (the final cut) the arming skips its micro-quiesce.
func (s *Session) migrateRound(ctx context.Context, store Store, name string, prev *dmtcp.DeltaState) (Stats, *dmtcp.DeltaState, uint64, error) {
	p, err := s.checkpoint(ctx, store.Put, name, true, lineage{incremental: true, prev: prev})
	if err != nil {
		return Stats{}, nil, 0, err
	}
	st, err := p.Wait()
	if err != nil {
		return st, nil, 0, err
	}
	return st, p.next, uint64(p.imageBytes), nil
}

// fallbackStore resolves reads from primary first and falls back to
// fallback for names primary does not hold — the migration's union
// view: the pre-copy chain lives at the destination, the final cut (at
// activation time) only at the source. Writes and deletes go to
// primary alone.
type fallbackStore struct {
	primary  Store
	fallback Store
}

func (f *fallbackStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	return f.primary.Put(ctx, name, write)
}

func (f *fallbackStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	rc, err := f.primary.Get(ctx, name)
	if errors.Is(err, ErrImageNotFound) {
		return f.fallback.Get(ctx, name)
	}
	return rc, err
}

// GetAt implements RandomAccessStore over both sides.
func (f *fallbackStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	src, size, err := f.primary.GetAt(ctx, name)
	if errors.Is(err, ErrImageNotFound) {
		return f.fallback.GetAt(ctx, name)
	}
	return src, size, err
}

func (f *fallbackStore) List(ctx context.Context) ([]string, error) {
	names, err := f.primary.List(ctx)
	if err != nil {
		return nil, err
	}
	fnames, err := f.fallback.List(ctx)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range fnames {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (f *fallbackStore) Delete(ctx context.Context, name string) error {
	return f.primary.Delete(ctx, name)
}

var _ Store = (*fallbackStore)(nil)

// sameStore reports whether a and b reach the same store once every
// decorator (WithRetry, NewFaultStore) is unwrapped: two wrappers over
// one store are one store. Interface equality panics on incomparable
// dynamic types; such a pair is treated as distinct.
func sameStore(a, b Store) (same bool) {
	defer func() { _ = recover() }()
	return unwrapStore(a) == unwrapStore(b)
}

// copyImage streams the named image from one store into another.
func copyImage(ctx context.Context, from, to Store, name string) error {
	rc, err := from.Get(ctx, name)
	if err != nil {
		return err
	}
	defer rc.Close()
	return to.Put(ctx, name, func(w io.Writer) error {
		_, cerr := io.Copy(w, rc)
		return cerr
	})
}
