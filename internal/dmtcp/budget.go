package dmtcp

import (
	"context"
	"sync"
)

// A WorkerBudget is a shared resourcing domain for checkpoint write
// pipelines: a bound on how many shard workers may run concurrently
// across every Engine attached to it, plus the staging buffers those
// workers recycle. A single session needs none of this — the package
// default is one unbounded budget per process — but N sessions
// multiplexed over one machine (crac.Pool) attach a shared budget so
// the fleet runs one bounded set of pipeline workers and one buffer
// economy instead of N×workers goroutines and N separate pools.
//
// A nil *WorkerBudget and NewWorkerBudget(0) both mean "unbounded":
// concurrency is then limited only by each engine's own Workers
// setting, exactly the pre-budget behavior.
type WorkerBudget struct {
	slots chan struct{} // nil: unbounded

	shardRaw sync.Pool // *[]byte staging buffers
}

// NewWorkerBudget returns a budget admitting at most maxWorkers
// concurrently running pipeline workers across every attached engine
// (maxWorkers <= 0: unbounded).
func NewWorkerBudget(maxWorkers int) *WorkerBudget {
	b := &WorkerBudget{}
	if maxWorkers > 0 {
		b.slots = make(chan struct{}, maxWorkers)
	}
	return b
}

// acquire takes one worker slot, honoring ctx so a cancelled
// checkpoint never parks on a saturated budget. Slots are held only
// across one shard's read+hash and every holder releases
// unconditionally, so waits are bounded and cycle-free.
func (b *WorkerBudget) acquire(ctx context.Context) error {
	if b == nil || b.slots == nil {
		return ctx.Err()
	}
	select {
	case b.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case b.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *WorkerBudget) release() {
	if b != nil && b.slots != nil {
		<-b.slots
	}
}

// defaultBudget is the process-wide domain engines without an explicit
// Budget share: unbounded workers, one buffer economy per process —
// the behavior single-session code has always had. The lazy-restore
// read paths draw their staging buffers from here regardless of the
// writing engine's budget (restores are reads; the budget bounds
// checkpoint CPU).
var defaultBudget = NewWorkerBudget(0)

// budget resolves the engine's resourcing domain.
func (e *Engine) budget() *WorkerBudget {
	if e.Budget != nil {
		return e.Budget
	}
	return defaultBudget
}

// getShardBuf returns a staging buffer with capacity >= shard. Buffers
// whose capacity does not fit the requested shard size are dropped
// rather than grown.
func (b *WorkerBudget) getShardBuf(shard int) *[]byte {
	if bp, _ := b.shardRaw.Get().(*[]byte); bp != nil && cap(*bp) >= shard {
		return bp
	}
	buf := make([]byte, shard)
	return &buf
}

func (b *WorkerBudget) putShardBuf(bp *[]byte) { b.shardRaw.Put(bp) }
