package dmtcp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Member is one rank participating in a coordinated checkpoint — in the
// paper's MPI+CUDA proof of principle (Section 6), one MPI rank running
// a CUDA application under CRAC.
type Member interface {
	// Quiesce brings the rank to a checkpointable state (drained GPU,
	// no in-flight communication).
	Quiesce() error
	// WriteCheckpoint writes the rank's image.
	WriteCheckpoint(w io.Writer) error
	// Resume lets the rank continue after the checkpoint.
	Resume() error
}

// Coordinator drives coordinated checkpoints across ranks, like the
// DMTCP coordinator process: all ranks quiesce (a barrier), then all
// images are written, then all ranks resume.
type Coordinator struct {
	mu      sync.Mutex
	members map[int]Member
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{members: make(map[int]Member)}
}

// Add registers a rank.
func (c *Coordinator) Add(rank int, m Member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.members[rank] = m
}

// Remove unregisters a rank.
func (c *Coordinator) Remove(rank int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.members, rank)
}

// Ranks returns the registered rank IDs in ascending order.
func (c *Coordinator) Ranks() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.members))
	for r := range c.members {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// CheckpointAll performs a coordinated checkpoint: phase 1 quiesces every
// rank in parallel and waits for all (the barrier), phase 2 writes every
// image in parallel to the writer sink(rank) provides, phase 3 resumes
// all ranks. The first error from any phase aborts with that error after
// the phase completes on all ranks.
func (c *Coordinator) CheckpointAll(sink func(rank int) (io.WriteCloser, error)) error {
	c.mu.Lock()
	members := make(map[int]Member, len(c.members))
	for r, m := range c.members {
		members[r] = m
	}
	c.mu.Unlock()

	phase := func(f func(rank int, m Member) error) error {
		var wg sync.WaitGroup
		errs := make(chan error, len(members))
		for r, m := range members {
			wg.Add(1)
			go func(r int, m Member) {
				defer wg.Done()
				if err := f(r, m); err != nil {
					errs <- fmt.Errorf("rank %d: %w", r, err)
				}
			}(r, m)
		}
		wg.Wait()
		close(errs)
		return <-errs // nil if channel empty
	}

	// Whatever happens after the quiesce barrier starts, every rank that
	// quiesced must be resumed: a Member's Quiesce really holds gates
	// (launches and memory writes block until Resume), so skipping the
	// resume phase on error would leave the whole job frozen. Ranks that
	// never quiesced reject the unmatched Resume; that error is noise
	// here, not a failure.
	resumeAll := func() {
		phase(func(_ int, m Member) error { m.Resume(); return nil })
	}
	if err := phase(func(_ int, m Member) error { return m.Quiesce() }); err != nil {
		resumeAll()
		return fmt.Errorf("dmtcp: quiesce barrier: %w", err)
	}
	if err := phase(func(r int, m Member) error {
		w, err := sink(r)
		if err != nil {
			return err
		}
		if err := m.WriteCheckpoint(w); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	}); err != nil {
		resumeAll()
		return fmt.Errorf("dmtcp: image write: %w", err)
	}
	if err := phase(func(_ int, m Member) error { return m.Resume() }); err != nil {
		return fmt.Errorf("dmtcp: resume: %w", err)
	}
	return nil
}

// Restarter is a Member that can also be restarted from an image —
// what turns the coordinator's resume-on-failure into full restart
// supervision: when a job dies, every rank is rolled back to the same
// coordinated checkpoint instead of merely resuming.
type Restarter interface {
	Member
	// Restart rebuilds the rank's state from the image in r (a
	// crac.Session's own Restart).
	Restart(ctx context.Context, r io.Reader) error
}

// RestartAll restarts every registered rank from the image source(rank)
// provides, in parallel. Every rank is attempted even after a failure —
// a partial restart is reported (first error wins), never silently
// abandoned, so the caller can retry or tear the job down knowing every
// rank was driven to a definite state. Ranks that do not implement
// Restarter fail their slot.
func (c *Coordinator) RestartAll(source func(rank int) (io.ReadCloser, error)) error {
	c.mu.Lock()
	members := make(map[int]Member, len(c.members))
	for r, m := range c.members {
		members[r] = m
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	errs := make(chan error, len(members))
	for r, m := range members {
		wg.Add(1)
		go func(r int, m Member) {
			defer wg.Done()
			rs, ok := m.(Restarter)
			if !ok {
				errs <- fmt.Errorf("rank %d: member cannot restart", r)
				return
			}
			src, err := source(r)
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			err = rs.Restart(context.TODO(), src)
			if cerr := src.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", r, err)
			}
		}(r, m)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return fmt.Errorf("dmtcp: restart: %w", err)
	}
	return nil
}
