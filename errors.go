package crac

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cracrt"
	"repro/internal/dmtcp"
)

// Sentinel errors of the public checkpoint API. All of them are
// classified with errors.Is; errors returned by Session and Store
// operations wrap one of these (possibly alongside an underlying cause,
// which errors.As / errors.Is also reach).
var (
	// ErrBadImage reports a malformed checkpoint image: truncated,
	// corrupt, or not a CRAC image at all.
	ErrBadImage = dmtcp.ErrBadImage

	// ErrUnsupportedVersion reports a checkpoint image whose format
	// version this build does not speak (the CRACIMG magic matched but
	// the version digit is unknown).
	ErrUnsupportedVersion = dmtcp.ErrUnsupportedVersion

	// ErrCorruptImage reports a checkpoint image that was structurally
	// valid when written but fails its integrity checks now — a trailer
	// checksum or per-shard content hash mismatch, a truncated trailer,
	// bytes past the image's end. Distinct from ErrBadImage ("not a
	// valid image stream"): a corrupt image usually has intact siblings
	// (an older generation, a chain ancestor) worth falling back to —
	// see Scrub, RepairChain, and Supervisor.
	ErrCorruptImage = dmtcp.ErrCorruptImage

	// ErrTransient marks a store failure worth retrying: the operation
	// may succeed if reissued (a flaky disk, a dropped connection, an
	// overloaded remote). Store implementations wrap it (or expose a
	// `Transient() bool` method on their errors) to opt an error into
	// the WithRetry backoff loop; see Transient.
	ErrTransient = errors.New("crac: transient store error")

	// ErrReplayMismatch reports that replaying the CUDA call log on a
	// fresh lower half did not reproduce the original addresses — the
	// determinism violation of paper Section 3.2.4 (ASLR left on, or a
	// different platform on restart).
	ErrReplayMismatch = cracrt.ErrReplayMismatch

	// ErrCancelled reports a checkpoint or restore aborted by its
	// context. It wraps the context's own error, so both
	// errors.Is(err, ErrCancelled) and errors.Is(err, context.Canceled)
	// (or context.DeadlineExceeded) hold.
	ErrCancelled = errors.New("crac: operation cancelled")

	// ErrSessionClosed reports an operation on a Session after Close, or
	// after a failed restart tore the lower half down.
	ErrSessionClosed = errors.New("crac: session closed")

	// ErrImageNotFound reports a Store lookup for a name with no image.
	ErrImageNotFound = errors.New("crac: image not found")

	// ErrDeltaChain reports an operation that needs a delta image's
	// parent chain: restoring a bare delta image (use RestartFrom /
	// RestoreFrom / OpenImageFrom against the Store holding the chain),
	// or a chain whose parent image is missing or cyclic.
	ErrDeltaChain = dmtcp.ErrDeltaChain

	// ErrCheckpointInFlight reports a checkpoint or restart issued while
	// a concurrent checkpoint (CheckpointAsync) is still writing its
	// image. Wait on the Pending, then retry.
	ErrCheckpointInFlight = errors.New("crac: a concurrent checkpoint is in flight")

	// ErrMigrationInFlight reports a checkpoint, restart, or second
	// migration issued on a session that Migrate is currently moving:
	// the migration owns the session's checkpoint machinery (its delta
	// lineage) until it completes or aborts. Wait for Migrate to return, then retry.
	ErrMigrationInFlight = errors.New("crac: a live migration is in flight")

	// ErrNotQuiesced reports a Session.Resume with no matching Quiesce:
	// the pair must balance.
	ErrNotQuiesced = errors.New("crac: resume without matching quiesce")

	// ErrQuiesced reports an operation that cannot run while the session
	// is quiesced: a restart tears down the gated runtime and would
	// deadlock against the held launch gate (and the rebuilt address
	// space would never match the pending Resume). Resume first.
	ErrQuiesced = errors.New("crac: session is quiesced")

	// ErrQuotaExceeded reports a Pool operation rejected by a tenant's
	// quota: opening a session past MaxSessions, checkpointing past
	// MaxInFlight, or a checkpoint whose image would push the tenant
	// past its stored-bytes budget (the partial write is aborted and,
	// through a Store, leaves nothing behind). The tenant is over its
	// own limits — retrying without freeing something will fail again.
	ErrQuotaExceeded = errors.New("crac: tenant quota exceeded")

	// ErrPoolSaturated reports a Pool operation rejected by a
	// pool-wide limit rather than the caller's own quota: opening a
	// session past the pool's MaxSessions, or a checkpoint whose
	// stagger-scheduler wait exceeded the admission timeout. Unlike
	// ErrQuotaExceeded this is a load signal — backing off and
	// retrying is reasonable.
	ErrPoolSaturated = errors.New("crac: pool saturated")

	// ErrPoolClosed reports an operation on a Pool after Close.
	ErrPoolClosed = errors.New("crac: pool closed")
)

// Transient reports whether err is worth retrying: it wraps
// ErrTransient, or any error in its chain exposes a `Transient() bool`
// method returning true (the de-facto convention of net.Error and
// custom store errors). Context cancellation and deadline errors are
// never transient — the caller asked to stop, retrying would defy it.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	var te interface{ Transient() bool }
	return errors.As(err, &te) && te.Transient()
}

// wrapCancelled folds a context cancellation surfacing from the engine
// or the fan-out helpers into the public ErrCancelled sentinel while
// keeping the original context error reachable through errors.Is.
func wrapCancelled(err error) error {
	if err == nil || errors.Is(err, ErrCancelled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	return err
}
