package crac

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SupervisorConfig configures a Supervisor.
type SupervisorConfig struct {
	// Factory builds a fresh session — the supervised "process". It is
	// called once at NewSupervisor and again on every recovery (each
	// restart is a new process in the paper's model). Required.
	Factory func() (*Session, error)
	// Store receives the periodic checkpoints and serves recoveries.
	// Required. It is wrapped in WithRetry(Retry) internally.
	Store Store
	// Prefix names the checkpoint generations: Prefix + a six-digit
	// sequence number ("ckpt-000042"). Default "ckpt-".
	Prefix string
	// Interval is Run's checkpoint cadence. Default 30s.
	Interval time.Duration
	// Retry is the store retry policy (zero: DefaultRetryPolicy).
	Retry RetryPolicy
	// OnEvent, when set, observes the supervisor's state transitions.
	// Called synchronously; keep it fast.
	OnEvent func(SupervisorEvent)
	// CompactAfter, when > 0, runs Compact, then GC on a CASStore, on a
	// checkpoint whose delta chain reaches that depth — maintenance
	// riding the supervision loop, so chain depth (and lazy-restart
	// fault chains) stays bounded without ever pausing the session. 0
	// disables compaction.
	CompactAfter int
}

// SupervisorEvent is one supervisor state transition. Kind is one of
// "checkpoint", "checkpoint-failed", "failure", "verify-skip",
// "restart-failed", "recovered", "cold-start", "compact",
// "compact-failed".
type SupervisorEvent struct {
	Kind string
	Name string // the checkpoint image involved, when there is one
	Err  error  // the failure involved, when there is one
}

// SupervisorStats counts a supervisor's life so far.
type SupervisorStats struct {
	Checkpoints        int // committed checkpoints
	CheckpointFailures int
	Failures           int // ReportFailure calls + sessions found dead
	Recoveries         int // successful restarts from a stored image
	ColdStarts         int // recoveries with no usable image
	Compactions        int // chain compactions (cfg.CompactAfter)

	// LastRecoveredFrom names the image of the most recent recovery
	// ("" after a cold start).
	LastRecoveredFrom string
	// LastMTTR / TotalMTTR time the recoveries: from entering recovery
	// to a usable session (the mean time to repair the harness's
	// "faults" experiment reports is TotalMTTR over Recoveries).
	LastMTTR  time.Duration
	TotalMTTR time.Duration
	// CheckpointTime accumulates the wall time of committed
	// checkpoints, for overhead accounting.
	CheckpointTime time.Duration
}

// Supervisor owns a session and its checkpoint store and keeps the
// pair alive: it periodically checkpoints (Run, or Checkpoint driven
// by the caller), detects failure (ReportFailure, a closed session, a
// failed checkpoint), and recovers by restarting a fresh session from
// the newest *verified* image — falling back down the generations when
// the tip is corrupt, and to a cold start when nothing intact remains.
// It extends dmtcp.Coordinator's resume-on-failure into CRAFT-style
// restart supervision for the single-process case.
//
// All methods are safe for concurrent use; checkpoint and recovery
// operations serialize internally.
type Supervisor struct {
	cfg   SupervisorConfig
	store Store // cfg.Store wrapped with retry

	// opMu serializes checkpoint/recover operations end to end.
	opMu sync.Mutex
	// mu guards the fields below.
	mu     sync.Mutex
	sess   *Session
	gen    int
	failed bool
	closed bool
	stats  SupervisorStats
}

// NewSupervisor builds the initial session via cfg.Factory and returns
// a supervisor over it. Generation numbering resumes after any
// existing Prefix-named images in the store, so a supervisor restarted
// over an old store never overwrites surviving checkpoints.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Factory == nil {
		return nil, errors.New("crac: SupervisorConfig.Factory is required")
	}
	if cfg.Store == nil {
		return nil, errors.New("crac: SupervisorConfig.Store is required")
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "ckpt-"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	sv := &Supervisor{cfg: cfg, store: WithRetry(cfg.Store, cfg.Retry)}
	if names, err := cfg.Store.List(context.Background()); err == nil {
		for _, name := range names {
			if g, ok := sv.parseGen(name); ok && g >= sv.gen {
				sv.gen = g + 1
			}
		}
	}
	sess, err := cfg.Factory()
	if err != nil {
		return nil, fmt.Errorf("crac: supervisor factory: %w", err)
	}
	sv.sess = sess
	return sv, nil
}

func (sv *Supervisor) genName(g int) string {
	return fmt.Sprintf("%s%06d", sv.cfg.Prefix, g)
}

func (sv *Supervisor) parseGen(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, sv.cfg.Prefix)
	if !ok || Quarantined(name) {
		return 0, false
	}
	g, err := strconv.Atoi(rest)
	if err != nil || g < 0 {
		return 0, false
	}
	return g, true
}

func (sv *Supervisor) emit(ev SupervisorEvent) {
	if sv.cfg.OnEvent != nil {
		sv.cfg.OnEvent(ev)
	}
}

// Session returns the current session. It changes across recoveries;
// callers holding one across a failure must be prepared for
// ErrSessionClosed and re-ask.
func (sv *Supervisor) Session() *Session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.sess
}

// Stats returns a snapshot of the counters.
func (sv *Supervisor) Stats() SupervisorStats {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.stats
}

// ReportFailure marks the supervised session failed (a poisoned
// workload, an external crash signal). The next Checkpoint — or an
// explicit Recover — restarts from the newest verified image.
func (sv *Supervisor) ReportFailure(err error) {
	sv.mu.Lock()
	sv.failed = true
	sv.stats.Failures++
	sv.mu.Unlock()
	sv.emit(SupervisorEvent{Kind: "failure", Err: err})
}

// Checkpoint takes one supervised checkpoint. A session already marked
// failed is recovered first; a checkpoint that dies on a closed
// session triggers recovery and still reports the checkpoint's error.
func (sv *Supervisor) Checkpoint(ctx context.Context) error {
	sv.opMu.Lock()
	defer sv.opMu.Unlock()
	if err := sv.recoverIfFailedLocked(ctx); err != nil {
		return err
	}
	sv.mu.Lock()
	sess := sv.sess
	name := sv.genName(sv.gen)
	sv.gen++
	sv.mu.Unlock()

	start := time.Now()
	st, err := sess.CheckpointTo(ctx, sv.store, name)
	if err != nil {
		sv.mu.Lock()
		sv.stats.CheckpointFailures++
		sv.mu.Unlock()
		sv.emit(SupervisorEvent{Kind: "checkpoint-failed", Name: name, Err: err})
		if errors.Is(err, ErrSessionClosed) {
			// The session died under us: that is a failure, not just a
			// checkpoint hiccup.
			sv.mu.Lock()
			sv.failed = true
			sv.stats.Failures++
			sv.mu.Unlock()
			sv.emit(SupervisorEvent{Kind: "failure", Err: err})
			if rerr := sv.recoverLocked(ctx); rerr != nil {
				return errors.Join(err, rerr)
			}
		}
		return err
	}
	sv.mu.Lock()
	sv.stats.Checkpoints++
	sv.stats.CheckpointTime += time.Since(start)
	sv.mu.Unlock()
	sv.emit(SupervisorEvent{Kind: "checkpoint", Name: name})

	// Maintenance: a chain that has grown past the configured depth is
	// squashed in place and its stranded chunks swept. The session keeps
	// running, and a failure never fails the checkpoint that triggered it.
	if sv.cfg.CompactAfter > 0 && st.DeltaDepth >= sv.cfg.CompactAfter {
		if _, cerr := Compact(ctx, sv.store, name); cerr != nil {
			sv.emit(SupervisorEvent{Kind: "compact-failed", Name: name, Err: cerr})
		} else {
			if cs := asCASStore(sv.cfg.Store); cs != nil {
				cs.GC(ctx) // a chunk it leaves, the next GC sweeps
			}
			sv.mu.Lock()
			sv.stats.Compactions++
			sv.mu.Unlock()
			sv.emit(SupervisorEvent{Kind: "compact", Name: name})
		}
	}
	return nil
}

// asCASStore unwraps decorators (WithRetry) down to a *CASStore, or
// nil when there is none.
func asCASStore(store Store) *CASStore {
	for {
		switch s := store.(type) {
		case *CASStore:
			return s
		case interface{ Unwrap() Store }:
			store = s.Unwrap()
		default:
			return nil
		}
	}
}

// Recover restarts the session from the newest verified checkpoint
// (regardless of the failed flag), falling back generation by
// generation past corrupt or unrestorable images, and to a cold start
// (a fresh Factory session, no image) when none survives. It returns
// an error only when no session could be built at all; the supervisor
// is then still failed and a later Recover may retry.
func (sv *Supervisor) Recover(ctx context.Context) error {
	sv.opMu.Lock()
	defer sv.opMu.Unlock()
	return sv.recoverLocked(ctx)
}

// recoverIfFailedLocked recovers only a session marked failed. Caller
// holds opMu.
func (sv *Supervisor) recoverIfFailedLocked(ctx context.Context) error {
	sv.mu.Lock()
	failed := sv.failed
	sv.mu.Unlock()
	if !failed {
		return nil
	}
	return sv.recoverLocked(ctx)
}

// recoverLocked is Recover with opMu already held.
func (sv *Supervisor) recoverLocked(ctx context.Context) error {
	start := time.Now()
	sv.mu.Lock()
	old := sv.sess
	sv.sess = nil
	sv.mu.Unlock()
	if old != nil {
		old.Close()
	}

	// Newest generation first; quarantined and foreign names are
	// already filtered by parseGen.
	names, err := sv.store.List(ctx)
	if err != nil {
		names = nil // fall through: a listing failure means a cold start
	}
	type cand struct {
		gen  int
		name string
	}
	var cands []cand
	for _, name := range names {
		if g, ok := sv.parseGen(name); ok {
			cands = append(cands, cand{gen: g, name: name})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gen > cands[j].gen })

	finish := func(sess *Session, from string, cold bool) {
		mttr := time.Since(start)
		sv.mu.Lock()
		sv.sess = sess
		sv.failed = false
		if cold {
			sv.stats.ColdStarts++
			sv.stats.LastRecoveredFrom = ""
		} else {
			sv.stats.Recoveries++
			sv.stats.LastRecoveredFrom = from
		}
		sv.stats.LastMTTR = mttr
		sv.stats.TotalMTTR += mttr
		sv.mu.Unlock()
	}

	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return err
		}
		sess, err := sv.cfg.Factory()
		if err != nil {
			return fmt.Errorf("crac: supervisor factory: %w", err)
		}
		// The restart verifies the whole chain before any teardown: a
		// corrupt tip is refused there and falls back to its predecessor.
		if err := sess.RestartFrom(ctx, sv.store, c.name); err != nil {
			sess.Close()
			kind := "restart-failed"
			if notAnImage(err) || errors.Is(err, ErrCorruptImage) || errors.Is(err, ErrDeltaChain) {
				kind = "verify-skip"
			}
			sv.emit(SupervisorEvent{Kind: kind, Name: c.name, Err: err})
			continue
		}
		finish(sess, c.name, false)
		sv.emit(SupervisorEvent{Kind: "recovered", Name: c.name})
		return nil
	}

	// Nothing intact: cold start.
	sess, err := sv.cfg.Factory()
	if err != nil {
		sv.mu.Lock()
		sv.failed = true
		sv.mu.Unlock()
		return fmt.Errorf("crac: supervisor cold start: %w", err)
	}
	finish(sess, "", true)
	sv.emit(SupervisorEvent{Kind: "cold-start"})
	return nil
}

// Run checkpoints every cfg.Interval until ctx ends, recovering from
// failures as they surface. Checkpoint errors are reported through
// OnEvent and counted; Run itself returns only ctx's error.
func (sv *Supervisor) Run(ctx context.Context) error {
	t := time.NewTicker(sv.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			sv.mu.Lock()
			closed := sv.closed
			sv.mu.Unlock()
			if closed {
				return nil
			}
			_ = sv.Checkpoint(ctx)
		}
	}
}

// Close shuts the supervisor down, closing the current session. The
// supervisor must not be used afterwards.
func (sv *Supervisor) Close() {
	sv.opMu.Lock()
	defer sv.opMu.Unlock()
	sv.mu.Lock()
	sess := sv.sess
	sv.sess = nil
	sv.closed = true
	sv.mu.Unlock()
	if sess != nil {
		sess.Close()
	}
}
