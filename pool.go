package crac

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrspace"
	"repro/internal/dmtcp"
)

// A Pool multiplexes many Sessions — hundreds to thousands — over one
// shared Store and one shared machine. Where a bare Session assumes it
// owns the process (a worker per CPU, checkpoints whenever it likes),
// a Pool is the fleet view:
//
//   - Admission control and quotas. Open rejects sessions past the
//     pool bound (ErrPoolSaturated) or the tenant's MaxSessions
//     (ErrQuotaExceeded); a tenant's concurrent checkpoints are capped
//     by MaxInFlight and its stored image bytes by MaxStoredBytes,
//     both rejected with ErrQuotaExceeded.
//   - Shared pipeline workers. Every pooled session's checkpoint
//     pipeline draws from one bounded dmtcp.WorkerBudget instead of
//     spinning up workers-per-CPU each, so N concurrent checkpoints
//     cost one machine's worth of CPU and one buffer economy.
//   - Staggered epoch cuts. Each copy-on-write checkpoint retains up
//     to its session's mapped footprint in pages until the image is
//     written. The scheduler admits cuts against a global
//     retained-page budget (and an in-flight cap) in deadline order,
//     so concurrent snapshots never stampede memory and no tenant
//     starves behind a greedy one.
//   - PoolStats: per-tenant and aggregate checkpoint counts,
//     p50/p95/p99 checkpoint latency, the retained-page high-water
//     mark, and every admission rejection.
//
// All methods are safe for concurrent use; each PoolSession is a
// single logical client and follows Session's own concurrency rules.
type Pool struct {
	store  Store
	budget *dmtcp.WorkerBudget
	cfg    poolSettings

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when cuts/sessions drain; Close waits on it
	closed    bool
	tenants   map[string]*poolTenant
	sessions  map[*PoolSession]struct{}
	nsessions int    // open + being-opened sessions (reserved slots)
	seq       uint64 // FIFO tiebreak for equal-deadline waiters

	inFlight      int          // admitted, unreleased cuts
	reservedPages int64        // pages reserved by admitted cuts
	reservedPeak  int64        // high-water mark of reservedPages
	waiters       []*cutWaiter // deadline-ordered admission queue

	lat latencySketch // aggregate checkpoint latency

	checkpoints       atomic.Uint64
	restarts          atomic.Uint64
	failures          atomic.Uint64
	rejectedQuota     atomic.Uint64
	rejectedSaturated atomic.Uint64
}

// TenantQuota bounds one tenant's slice of a Pool. Zero fields are
// unlimited.
type TenantQuota struct {
	// MaxSessions caps the tenant's concurrently open sessions.
	MaxSessions int
	// MaxInFlight caps the tenant's concurrently running checkpoints;
	// the excess is rejected immediately (ErrQuotaExceeded), not
	// queued — the stagger queue is for pool-wide pressure, not for
	// one tenant's burst.
	MaxInFlight int
	// MaxStoredBytes caps the tenant's total image bytes in the
	// pool's store. A checkpoint that would cross the budget aborts
	// mid-write (the Store's all-or-nothing Put discards the partial
	// image) with ErrQuotaExceeded.
	MaxStoredBytes int64
}

type poolSettings struct {
	maxSessions int           // pool-wide session cap; 0 unlimited
	maxInFlight int           // pool-wide concurrent cut cap; 0 unlimited
	pageBudget  int64         // global retained-page budget; 0 unlimited
	admitWait   time.Duration // stagger-queue wait bound; 0 = wait for ctx
	quota       TenantQuota   // default quota for every tenant
	quotas      map[string]TenantQuota
	sessionOpts []Option
}

// A PoolOption configures a Pool built by NewPool.
type PoolOption func(*poolSettings)

// WithPoolMaxSessions caps how many sessions the pool will hold open
// at once, across all tenants (n <= 0: unlimited). Open past the cap
// fails with ErrPoolSaturated.
func WithPoolMaxSessions(n int) PoolOption {
	return func(s *poolSettings) { s.maxSessions = n }
}

// WithPoolMaxConcurrentCuts caps how many checkpoints may run
// concurrently across the pool (n <= 0: unlimited). The excess waits
// in the stagger queue in deadline order.
func WithPoolMaxConcurrentCuts(n int) PoolOption {
	return func(s *poolSettings) { s.maxInFlight = n }
}

// WithPoolPageBudget sets the global retained-page budget (in
// addrspace pages of 4 KiB) the stagger scheduler admits epoch cuts
// against: a checkpoint is admitted only when the pages it may retain
// — its session's mapped footprint at admission — fit under the
// budget alongside every other admitted cut. pages <= 0 removes the
// budget. A single cut larger than the whole budget is admitted alone
// rather than deadlocked.
func WithPoolPageBudget(pages int64) PoolOption {
	return func(s *poolSettings) { s.pageBudget = pages }
}

// WithPoolAdmissionTimeout bounds how long a checkpoint may wait in
// the stagger queue before it is rejected with ErrPoolSaturated
// (d <= 0: wait until the context says otherwise). The timeout also
// serves as the waiter's scheduling deadline.
func WithPoolAdmissionTimeout(d time.Duration) PoolOption {
	return func(s *poolSettings) { s.admitWait = d }
}

// WithPoolTenantDefaults sets the quota every tenant gets unless
// overridden by WithPoolTenantQuota.
func WithPoolTenantDefaults(q TenantQuota) PoolOption {
	return func(s *poolSettings) { s.quota = q }
}

// WithPoolTenantQuota overrides the quota for one named tenant.
func WithPoolTenantQuota(tenant string, q TenantQuota) PoolOption {
	return func(s *poolSettings) {
		if s.quotas == nil {
			s.quotas = make(map[string]TenantQuota)
		}
		s.quotas[tenant] = q
	}
}

// WithPoolSessionOptions sets default Session options applied to every
// Open (the per-Open options append after these, so they win).
func WithPoolSessionOptions(opts ...Option) PoolOption {
	return func(s *poolSettings) { s.sessionOpts = append(s.sessionOpts, opts...) }
}

// NewPool builds a Pool over the shared store.
func NewPool(store Store, opts ...PoolOption) (*Pool, error) {
	if store == nil {
		return nil, fmt.Errorf("crac: NewPool: nil store")
	}
	var cfg poolSettings
	for _, o := range opts {
		o(&cfg)
	}
	p := &Pool{
		store: store,
		// One shared pipeline worker set, one worker per CPU: however
		// many pooled checkpoints run, at most that many shards are
		// read and compressed at once.
		budget:   dmtcp.NewWorkerBudget(runtime.GOMAXPROCS(0)),
		cfg:      cfg,
		tenants:  make(map[string]*poolTenant),
		sessions: make(map[*PoolSession]struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// tenantSep joins tenant and image name in the shared store's
// namespace; tenants may not contain it.
const tenantSep = "--"

func validTenant(tenant string) error {
	if tenant == "" || strings.Contains(tenant, tenantSep) ||
		strings.ContainsAny(tenant, `/\`) || tenant[0] == '.' {
		return fmt.Errorf("crac: invalid tenant name %q", tenant)
	}
	return nil
}

func (p *Pool) tenantLocked(name string) *poolTenant {
	t := p.tenants[name]
	if t == nil {
		q := p.cfg.quota
		if o, ok := p.cfg.quotas[name]; ok {
			q = o
		}
		t = &poolTenant{name: name, quota: q, sizes: make(map[string]int64)}
		p.tenants[name] = t
	}
	return t
}

// Open admits a new session for the tenant, subject to the pool's
// session cap (ErrPoolSaturated) and the tenant's MaxSessions quota
// (ErrQuotaExceeded). The session is built from the pool's default
// options plus opts and attached to the shared worker budget; close it
// through the returned PoolSession.
func (p *Pool) Open(tenant string, opts ...Option) (*PoolSession, error) {
	if err := validTenant(tenant); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if p.cfg.maxSessions > 0 && p.nsessions >= p.cfg.maxSessions {
		p.rejectedSaturated.Add(1)
		n := p.nsessions
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %d sessions open (pool max %d)",
			ErrPoolSaturated, n, p.cfg.maxSessions)
	}
	t := p.tenantLocked(tenant)
	if t.quota.MaxSessions > 0 && t.sessions >= t.quota.MaxSessions {
		t.rejectedQuota.Add(1)
		p.rejectedQuota.Add(1)
		n := t.sessions
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q has %d sessions open (quota %d)",
			ErrQuotaExceeded, tenant, n, t.quota.MaxSessions)
	}
	// Reserve both slots before the (comparatively slow) session build
	// so concurrent Opens cannot overshoot the caps.
	p.nsessions++
	t.sessions++
	p.mu.Unlock()

	release := func() {
		p.mu.Lock()
		p.nsessions--
		t.sessions--
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	all := make([]Option, 0, len(p.cfg.sessionOpts)+len(opts)+1)
	all = append(all, p.cfg.sessionOpts...)
	all = append(all, opts...)
	all = append(all, withWorkerBudget(p.budget))
	s, err := New(all...)
	if err != nil {
		release()
		return nil, err
	}
	ps := &PoolSession{p: p, t: t, s: s}
	ps.store = wrapTenantStore(t, p.store)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.Close()
		release()
		return nil, ErrPoolClosed
	}
	p.sessions[ps] = struct{}{}
	p.mu.Unlock()
	return ps, nil
}

// Close drains the pool: no new sessions or checkpoints are admitted,
// queued waiters are rejected with ErrPoolClosed, in-flight
// checkpoints are waited out, and every remaining session is closed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for _, w := range p.waiters {
		close(w.ready) // admitted stays false: the waiter reads ErrPoolClosed
	}
	p.waiters = nil
	for p.inFlight > 0 {
		p.cond.Wait()
	}
	open := make([]*PoolSession, 0, len(p.sessions))
	for ps := range p.sessions {
		open = append(open, ps)
	}
	p.mu.Unlock()
	for _, ps := range open {
		ps.Close()
	}
	return nil
}

// RetainedPages sums the copy-on-write pages currently retained across
// every open session — the live figure the scheduler's reserved-page
// accounting bounds from above. After Close (or with no checkpoint in
// flight) it is zero.
func (p *Pool) RetainedPages() int64 {
	p.mu.Lock()
	open := make([]*PoolSession, 0, len(p.sessions))
	for ps := range p.sessions {
		open = append(open, ps)
	}
	p.mu.Unlock()
	var total int64
	for _, ps := range open {
		total += ps.s.Space().RetainedPages()
	}
	return total
}

// ---- stagger scheduler ----

// A cutWaiter is one checkpoint waiting for epoch-cut admission:
// inFlight and reserved retained pages are charged when it is admitted
// and returned by releaseCut.
type cutWaiter struct {
	deadline    time.Time
	hasDeadline bool
	seq         uint64
	pages       int64
	ready       chan struct{} // closed on admission (or pool close)
	admitted    bool          // guarded by Pool.mu
}

// waiterLess orders the admission queue: earliest deadline first
// (waiters with no deadline sort last), FIFO within ties. Deadline
// order is what keeps a tenant with a tight budget from starving
// behind an unbounded backlog.
func waiterLess(a, b *cutWaiter) bool {
	if a.hasDeadline != b.hasDeadline {
		return a.hasDeadline
	}
	if a.hasDeadline && !a.deadline.Equal(b.deadline) {
		return a.deadline.Before(b.deadline)
	}
	return a.seq < b.seq
}

func (p *Pool) insertWaiterLocked(w *cutWaiter) {
	i := sort.Search(len(p.waiters), func(i int) bool {
		return waiterLess(w, p.waiters[i])
	})
	p.waiters = append(p.waiters, nil)
	copy(p.waiters[i+1:], p.waiters[i:])
	p.waiters[i] = w
}

// dispatchLocked admits waiters strictly from the head of the
// deadline-ordered queue while both the in-flight cap and the
// retained-page budget have room. Head-of-line blocking is deliberate:
// letting small cuts overtake a big one would starve it forever.
func (p *Pool) dispatchLocked() {
	for len(p.waiters) > 0 {
		w := p.waiters[0]
		if p.cfg.maxInFlight > 0 && p.inFlight >= p.cfg.maxInFlight {
			return
		}
		// An oversized cut (pages > the whole budget) is admitted when
		// the pool is otherwise idle — it then holds the budget alone.
		if p.cfg.pageBudget > 0 && p.reservedPages > 0 &&
			p.reservedPages+w.pages > p.cfg.pageBudget {
			return
		}
		p.waiters = p.waiters[1:]
		w.admitted = true
		p.inFlight++
		p.reservedPages += w.pages
		if p.reservedPages > p.reservedPeak {
			p.reservedPeak = p.reservedPages
		}
		close(w.ready)
	}
}

// acquireCut queues one checkpoint for epoch-cut admission and blocks
// until it is admitted, the context is done, or the admission timeout
// expires (ErrPoolSaturated). A context that is done when the timeout
// fires wins: the caller gets ErrCancelled either way.
func (p *Pool) acquireCut(ctx context.Context, t *poolTenant, pages int64) (*cutWaiter, error) {
	w := &cutWaiter{pages: pages, ready: make(chan struct{})}
	if p.cfg.admitWait > 0 {
		w.deadline, w.hasDeadline = time.Now().Add(p.cfg.admitWait), true
	}
	if d, ok := ctx.Deadline(); ok && (!w.hasDeadline || d.Before(w.deadline)) {
		w.deadline, w.hasDeadline = d, true
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	p.seq++
	w.seq = p.seq
	p.insertWaiterLocked(w)
	p.dispatchLocked()
	p.mu.Unlock()

	var timeout <-chan time.Time
	if p.cfg.admitWait > 0 {
		tm := time.NewTimer(p.cfg.admitWait)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case <-w.ready:
		p.mu.Lock()
		ok := w.admitted
		p.mu.Unlock()
		if !ok {
			return nil, ErrPoolClosed
		}
		return w, nil
	case <-ctx.Done():
	case <-timeout:
		if ctx.Err() != nil {
			break // both fired: the cancellation wins
		}
		if p.abandonWaiter(w) {
			return w, nil // admission raced the timer: proceed
		}
		t.rejectedSaturated.Add(1)
		p.rejectedSaturated.Add(1)
		return nil, fmt.Errorf("%w: checkpoint admission waited %v (concurrent-cut cap or retained-page budget exhausted)",
			ErrPoolSaturated, p.cfg.admitWait)
	}
	if p.abandonWaiter(w) {
		p.releaseCut(w) // admission raced the cancellation
	}
	return nil, wrapCancelled(fmt.Errorf("%w while waiting for checkpoint admission", ctx.Err()))
}

// abandonWaiter removes w from the queue, reporting true if w had
// already been admitted (its reservation then belongs to the caller).
func (p *Pool) abandonWaiter(w *cutWaiter) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w.admitted {
		return true
	}
	for i, q := range p.waiters {
		if q == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			break
		}
	}
	return false
}

func (p *Pool) releaseCut(w *cutWaiter) {
	p.mu.Lock()
	p.inFlight--
	p.reservedPages -= w.pages
	p.dispatchLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// ---- per-tenant state ----

type poolTenant struct {
	name  string
	quota TenantQuota

	sessions int // guarded by Pool.mu
	inFlight int // guarded by Pool.mu

	stored  atomic.Int64 // committed image bytes in the shared store
	pending atomic.Int64 // bytes of in-flight Puts, reserved against the budget

	checkpoints       atomic.Uint64
	restarts          atomic.Uint64
	failures          atomic.Uint64
	rejectedQuota     atomic.Uint64
	rejectedSaturated atomic.Uint64

	mu    sync.Mutex
	sizes map[string]int64 // committed bytes per image name
	lat   latencySketch
}

// A PoolSession is one tenant session inside a Pool: the embedded
// Session plus the pool's admission, quota, and accounting wrapped
// around its store-bound operations. Image names are scoped to the
// tenant ("tenant--name" in the shared store).
type PoolSession struct {
	p     *Pool
	t     *poolTenant
	s     *Session
	store Store // tenant-accounted view of the pool store

	mu     sync.Mutex
	closed bool
}

// Session exposes the underlying Session (its Runtime, Quiesce/Resume,
// and inspection surface). Checkpoint and restart through the
// PoolSession methods so the pool's scheduling and accounting apply.
func (ps *PoolSession) Session() *Session { return ps.s }

// Tenant reports the owning tenant's name.
func (ps *PoolSession) Tenant() string { return ps.t.name }

func (p *Pool) imageName(tenant, name string) string {
	return tenant + tenantSep + name
}

// cutPages estimates the retained-page exposure of checkpointing this
// session now: its whole mapped footprint, the most a copy-on-write
// snapshot can retain. Regions mapped after the cut is armed never
// join the snapshot, so the estimate is an upper bound for memory
// mapped at admission.
func (ps *PoolSession) cutPages() int64 {
	sp := ps.s.Space()
	b := sp.MappedBytes(addrspace.HalfUpper) + sp.MappedBytes(addrspace.HalfLower)
	return int64((b + addrspace.PageSize - 1) / addrspace.PageSize)
}

// Checkpoint writes the session's image under the tenant-scoped name,
// subject to the tenant's MaxInFlight and MaxStoredBytes quotas
// (ErrQuotaExceeded) and the pool's stagger scheduler
// (ErrPoolSaturated after the admission timeout). Latency — including
// the admission wait — lands in the pool's percentile stats.
func (ps *PoolSession) Checkpoint(ctx context.Context, name string) (Stats, error) {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return Stats{}, ErrSessionClosed
	}
	ps.mu.Unlock()
	p, t := ps.p, ps.t

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return Stats{}, ErrPoolClosed
	}
	if t.quota.MaxInFlight > 0 && t.inFlight >= t.quota.MaxInFlight {
		t.rejectedQuota.Add(1)
		p.rejectedQuota.Add(1)
		n := t.inFlight
		p.mu.Unlock()
		return Stats{}, fmt.Errorf("%w: tenant %q has %d checkpoints in flight (quota %d)",
			ErrQuotaExceeded, t.name, n, t.quota.MaxInFlight)
	}
	t.inFlight++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		t.inFlight--
		p.mu.Unlock()
	}()

	start := time.Now()
	w, err := p.acquireCut(ctx, t, ps.cutPages())
	if err != nil {
		return Stats{}, err
	}
	st, err := ps.s.CheckpointTo(ctx, ps.store, p.imageName(t.name, name))
	p.releaseCut(w)
	if err != nil {
		t.failures.Add(1)
		p.failures.Add(1)
		return st, err
	}
	d := time.Since(start)
	t.checkpoints.Add(1)
	p.checkpoints.Add(1)
	t.lat.record(d)
	p.lat.record(d)
	return st, nil
}

// Restart restores the session from the tenant-scoped image name.
// Restarts read — they retain no copy-on-write pages — so they bypass
// the cut scheduler, and the caller waits for this one, so its drain is
// foreground work that does not queue on the shared worker budget.
func (ps *PoolSession) Restart(ctx context.Context, name string) error {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return ErrSessionClosed
	}
	ps.mu.Unlock()
	err := ps.s.RestartFrom(ctx, ps.store, ps.p.imageName(ps.t.name, name))
	if err != nil {
		ps.t.failures.Add(1)
		ps.p.failures.Add(1)
		return err
	}
	ps.t.restarts.Add(1)
	ps.p.restarts.Add(1)
	return nil
}

// Delete removes the tenant-scoped image and credits its bytes back
// to the tenant's stored-bytes budget.
func (ps *PoolSession) Delete(ctx context.Context, name string) error {
	return ps.store.Delete(ctx, ps.p.imageName(ps.t.name, name))
}

// Images lists the tenant's images (names unscoped).
func (ps *PoolSession) Images(ctx context.Context) ([]string, error) {
	names, err := ps.store.List(ctx)
	if err != nil {
		return nil, err
	}
	prefix := ps.t.name + tenantSep
	out := names[:0]
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			out = append(out, strings.TrimPrefix(n, prefix))
		}
	}
	return out, nil
}

// Close closes the underlying session and releases its pool and
// tenant slots. Idempotent.
func (ps *PoolSession) Close() {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	ps.closed = true
	ps.mu.Unlock()
	ps.s.Close()
	p := ps.p
	p.mu.Lock()
	if _, ok := p.sessions[ps]; ok {
		delete(p.sessions, ps)
		p.nsessions--
		ps.t.sessions--
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// ---- tenant-accounted store ----

// tenantStore wraps the pool's shared Store with per-tenant
// stored-bytes accounting: Put meters bytes as they stream and aborts
// the moment the tenant's budget would be crossed (the Store's
// all-or-nothing contract then discards the partial image), and
// successful Puts/Deletes keep a per-image ledger so replacing an
// image charges only the difference. The ledger tracks what the pool
// wrote; retention pruning inside a DirStore or an external GC is
// credited only when the pool observes the Delete.
type tenantStore struct {
	storeCaps // lazy restarts need the shared store's GetAt, chains its SingleImage
	t         *poolTenant
}

func wrapTenantStore(t *poolTenant, inner Store) *tenantStore {
	return &tenantStore{storeCaps: storeCaps{inner}, t: t}
}

func (ts *tenantStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	t := ts.t
	var counted int64
	err := ts.inner.Put(ctx, name, func(w io.Writer) error {
		qw := &quotaWriter{w: w, t: t}
		err := write(qw)
		counted = qw.n
		t.pending.Add(-qw.claimed)
		return err
	})
	if err != nil {
		return err
	}
	t.mu.Lock()
	old := t.sizes[name]
	t.sizes[name] = counted
	t.mu.Unlock()
	t.stored.Add(counted - old)
	return nil
}

func (ts *tenantStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	return ts.inner.Get(ctx, name)
}

func (ts *tenantStore) List(ctx context.Context) ([]string, error) {
	return ts.inner.List(ctx)
}

func (ts *tenantStore) Delete(ctx context.Context, name string) error {
	if err := ts.inner.Delete(ctx, name); err != nil {
		return err
	}
	t := ts.t
	t.mu.Lock()
	old, ok := t.sizes[name]
	delete(t.sizes, name)
	t.mu.Unlock()
	if ok {
		t.stored.Add(-old)
	}
	return nil
}

var _ Store = (*tenantStore)(nil)

// quotaWriter meters an in-flight Put against the tenant's
// stored-bytes budget: bytes are reserved (pending) before they hit
// the wire, so concurrent checkpoints of one tenant cannot jointly
// overshoot the budget and a doomed image stops writing at its first
// over-budget chunk rather than at commit.
type quotaWriter struct {
	w       io.Writer
	t       *poolTenant
	claimed int64 // bytes added to t.pending by this writer
	n       int64 // bytes actually written through
}

func (qw *quotaWriter) Write(b []byte) (int, error) {
	t := qw.t
	pend := t.pending.Add(int64(len(b)))
	qw.claimed += int64(len(b))
	if max := t.quota.MaxStoredBytes; max > 0 && t.stored.Load()+pend > max {
		t.rejectedQuota.Add(1)
		return 0, fmt.Errorf("%w: tenant %q writing %d bytes over the %d-byte stored budget (%d committed)",
			ErrQuotaExceeded, t.name, pend, max, t.stored.Load())
	}
	n, err := qw.w.Write(b)
	qw.n += int64(n)
	return n, err
}

// ---- stats ----

// PoolStats is an aggregate snapshot of the pool.
type PoolStats struct {
	Tenants  int // tenants seen (with state), not just configured
	Sessions int // open sessions
	InFlight int // checkpoints currently admitted
	Waiting  int // checkpoints queued for admission

	Checkpoints uint64 // committed checkpoints
	Restarts    uint64 // completed restarts
	Failures    uint64 // failed checkpoints/restarts (quota aborts included)

	RejectedQuota     uint64 // per-tenant quota rejections (ErrQuotaExceeded)
	RejectedSaturated uint64 // pool-limit rejections (ErrPoolSaturated)

	StoredBytes int64 // committed image bytes across tenants

	ReservedPages    int64 // pages reserved by admitted cuts now
	ReservedPagePeak int64 // high-water mark of ReservedPages
	PageBudget       int64 // configured budget (0: unlimited)

	CheckpointP50 time.Duration
	CheckpointP95 time.Duration
	CheckpointP99 time.Duration
}

// TenantStats is one tenant's slice of PoolStats.
type TenantStats struct {
	Tenant   string
	Quota    TenantQuota
	Sessions int
	InFlight int

	Checkpoints uint64
	Restarts    uint64
	Failures    uint64

	RejectedQuota     uint64
	RejectedSaturated uint64

	StoredBytes int64

	CheckpointP50 time.Duration
	CheckpointP95 time.Duration
	CheckpointP99 time.Duration
}

// Stats snapshots the pool's aggregate counters and checkpoint
// latency percentiles (latency includes the stagger-queue wait: what
// a tenant actually experiences).
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	st := PoolStats{
		Tenants:          len(p.tenants),
		Sessions:         len(p.sessions),
		InFlight:         p.inFlight,
		Waiting:          len(p.waiters),
		ReservedPages:    p.reservedPages,
		ReservedPagePeak: p.reservedPeak,
		PageBudget:       p.cfg.pageBudget,
	}
	var stored int64
	for _, t := range p.tenants {
		stored += t.stored.Load()
	}
	p.mu.Unlock()
	st.StoredBytes = stored
	st.Checkpoints = p.checkpoints.Load()
	st.Restarts = p.restarts.Load()
	st.Failures = p.failures.Load()
	st.RejectedQuota = p.rejectedQuota.Load()
	st.RejectedSaturated = p.rejectedSaturated.Load()
	q := p.lat.quantiles(0.50, 0.95, 0.99)
	st.CheckpointP50, st.CheckpointP95, st.CheckpointP99 = q[0], q[1], q[2]
	return st
}

// TenantStats snapshots one tenant's counters; ok is false if the
// tenant has never touched the pool.
func (p *Pool) TenantStats(tenant string) (TenantStats, bool) {
	p.mu.Lock()
	t := p.tenants[tenant]
	if t == nil {
		p.mu.Unlock()
		return TenantStats{}, false
	}
	st := TenantStats{
		Tenant:   t.name,
		Quota:    t.quota,
		Sessions: t.sessions,
		InFlight: t.inFlight,
	}
	p.mu.Unlock()
	st.Checkpoints = t.checkpoints.Load()
	st.Restarts = t.restarts.Load()
	st.Failures = t.failures.Load()
	st.RejectedQuota = t.rejectedQuota.Load()
	st.RejectedSaturated = t.rejectedSaturated.Load()
	st.StoredBytes = t.stored.Load()
	q := t.lat.quantiles(0.50, 0.95, 0.99)
	st.CheckpointP50, st.CheckpointP95, st.CheckpointP99 = q[0], q[1], q[2]
	return st, true
}

// latencySketch keeps a fixed-size uniform reservoir of checkpoint
// latencies: bounded memory under millions of samples, deterministic
// (seeded) replacement, and exact percentiles while the sample count
// stays under the reservoir size.
type latencySketch struct {
	mu  sync.Mutex
	buf []time.Duration
	n   int64
	rng *rand.Rand
}

const latencyReservoir = 4096

func (l *latencySketch) record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if len(l.buf) < latencyReservoir {
		l.buf = append(l.buf, d)
		return
	}
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(1))
	}
	if i := l.rng.Int63n(l.n); i < int64(len(l.buf)) {
		l.buf[i] = d
	}
}

// quantiles returns the requested quantiles (0..1, nearest-rank) of
// the sampled distribution; zeros when nothing was recorded.
func (l *latencySketch) quantiles(qs ...float64) []time.Duration {
	l.mu.Lock()
	s := append([]time.Duration(nil), l.buf...)
	l.mu.Unlock()
	out := make([]time.Duration, len(qs))
	if len(s) == 0 {
		return out
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, q := range qs {
		idx := int(q*float64(len(s)-1) + 0.5)
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out[i] = s[idx]
	}
	return out
}
