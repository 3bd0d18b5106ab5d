package crac

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cas"
)

// Store is a destination for named checkpoint images. Implementations
// must make Put all-or-nothing: either the complete image becomes
// visible under name, or nothing does — a checkpoint aborted halfway
// (error or cancellation) must never leave a partial image behind.
//
// DirStore, MemStore, HTTPStore and CASStore are the built-in
// implementations; remote or tiered storage plugs in through the same
// five methods.
type Store interface {
	// GetAt opens the named image for random access, which is what lets
	// a restart read individual shards on demand instead of streaming
	// the whole image.
	RandomAccessStore
	// Put stores the image produced by write under name, atomically.
	// write receives the destination; if it (or the commit) fails, the
	// store is left as if Put was never called.
	Put(ctx context.Context, name string, write func(io.Writer) error) error
	// Get opens the named image for reading. A missing name reports
	// ErrImageNotFound.
	Get(ctx context.Context, name string) (io.ReadCloser, error)
	// List returns the stored image names in lexical order.
	List(ctx context.Context) ([]string, error)
	// Delete removes the named image. Deleting a missing name reports
	// ErrImageNotFound.
	Delete(ctx context.Context, name string) error
}

// A CountingStore can report how many images it holds without
// materializing the sorted name slice List allocates. With thousands
// of pooled sessions checkpointing against one store, "how many images
// are there" is asked far more often than "what are they called" —
// quota accounting, retention checks, test assertions — and Len
// answers it with no per-call garbage. Optional: StoreLen falls back
// to List for stores that don't implement it.
type CountingStore interface {
	Store
	// Len returns the number of stored images.
	Len(ctx context.Context) (int, error)
}

// StoreLen returns the number of images in s: the allocation-free Len
// when the store is a CountingStore, a List fallback otherwise.
func StoreLen(ctx context.Context, s Store) (int, error) {
	if cs, ok := s.(CountingStore); ok {
		return cs.Len(ctx)
	}
	names, err := s.List(ctx)
	if err != nil {
		return 0, err
	}
	return len(names), nil
}

// validateImageName rejects names that could escape a directory store
// or collide with its temp files.
func validateImageName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." ||
		strings.HasPrefix(name, ".") {
		return fmt.Errorf("crac: invalid image name %q", name)
	}
	return nil
}

// A StoreOption configures a file-backed store (NewDirStore).
type StoreOption func(*storeSettings)

type storeSettings struct{ noSync bool }

// WithNoSync drops the fsync barriers from the store's atomic write
// path (temp-file sync, directory sync around rename and retention).
// Put remains atomic against process crashes — the rename still commits
// all-or-nothing — but a machine crash shortly after Put returns may
// lose or truncate the image. For benchmarks and tests, where the
// images are throwaway and the fsyncs would dominate the measured
// write; durable by default everywhere else.
func WithNoSync() StoreOption {
	return func(s *storeSettings) { s.noSync = true }
}

func resolveStoreOpts(opts []StoreOption) storeSettings {
	var s storeSettings
	for _, o := range opts {
		o(&s)
	}
	return s
}

// syncDir flushes a directory's entries, making a just-committed
// rename (or a retention delete) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// atomicWriteFile writes through a temp file in dir and renames it to
// dest on success; on any failure — error or panic out of write — the
// temp file is removed and dest is untouched. Unless sync is false, the
// temp file is fsynced before the rename and the directory after it,
// so a Put that returned success survives a machine crash:
// rename-without-sync can leave dest pointing at a file whose blocks
// never reached disk.
func atomicWriteFile(dir, dest string, sync bool, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(dir, ".crac-put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(name)
	}
	defer func() {
		if r := recover(); r != nil {
			cleanup()
			panic(r)
		}
		if err != nil {
			cleanup()
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if sync {
		if err = tmp.Sync(); err != nil {
			return err
		}
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(name, dest); err != nil {
		return err
	}
	if sync {
		if err = syncDir(dir); err != nil {
			// The rename is committed; report the durability failure
			// without attempting to remove dest (removing a committed
			// image would be worse than an image that may not survive
			// a power cut).
			return fmt.Errorf("crac: syncing %s: %w", dir, err)
		}
	}
	return nil
}

// DirStore keeps one image file per name inside a directory — the
// one-file-per-generation layout. Writes are atomic (temp+rename), and
// an optional retention policy prunes the oldest images after each
// successful Put.
type DirStore struct {
	// Dir is the backing directory.
	Dir string
	// Keep bounds how many images survive a Put: after a successful
	// write, only the Keep most recent images (by modification time)
	// are retained — plus every ancestor an incremental delta chain
	// among them still needs: retention never orphans a chain by
	// deleting a base or an intermediate delta that a retained image
	// depends on. A retained file that is no image keeps only itself;
	// a retained image whose header cannot be read might need any
	// other, so that pass deletes nothing. Keep <= 0 retains
	// everything. Retention is best-effort — it never fails an
	// already-committed Put.
	Keep int
	// NoSync drops the fsync barriers from Put and retention (see
	// WithNoSync).
	NoSync bool

	// pruneMu serializes retention passes: two concurrent Puts must not
	// interleave their newest-first scans and deletions.
	pruneMu sync.Mutex
	// nodes memoizes each image file's lineage node, keyed by name and
	// validated against (mtime, size): stored images are immutable, so
	// retention pays one header read per image instead of re-parsing
	// every retained file on every Put. Guarded by pruneMu.
	nodes map[string]memoNode
}

// memoNode is one memoized lineage node.
type memoNode struct {
	node  *lineageNode
	mtime time.Time
	size  int64
}

const imageExt = ".img"

// NewDirStore creates dir if needed and returns a store over it that
// retains the keep most recent images (keep <= 0: all).
func NewDirStore(dir string, keep int, opts ...StoreOption) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{Dir: dir, Keep: keep, NoSync: resolveStoreOpts(opts).noSync}, nil
}

func (s *DirStore) path(name string) string {
	return filepath.Join(s.Dir, name+imageExt)
}

// Put implements Store: an atomic temp+rename write, then retention.
// Once the rename commits, Put reports success — retention is
// best-effort and a prune hiccup never turns a persisted checkpoint
// into a reported failure.
func (s *DirStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	if err := validateImageName(name); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := atomicWriteFile(s.Dir, s.path(name), !s.NoSync, write); err != nil {
		return err
	}
	// A chunk is not an image: writing one cannot change what retention
	// would keep, and the manifest Put that follows prunes anyway.
	if !cas.IsChunkName(name) {
		s.prune(name)
	}
	return nil
}

// prune applies the retention policy through condemn, never touching
// the image that was just written, anything written after it, or any
// ancestor a retained image still reaches. Best-effort: images it
// cannot list or remove are retained until a later Put, and a retained
// header it cannot read retains everything.
func (s *DirStore) prune(justWritten string) {
	if s.Keep <= 0 {
		return
	}
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()
	var names []string
	infos := make(map[string]fs.FileInfo)
	err := s.scan(func(name string, e fs.DirEntry) {
		// Content-addressed chunk payloads (a CASStore layered over this
		// DirStore) are not images: they neither count toward Keep nor
		// get removed here — only the CAS layer's GC can prove a chunk
		// unreferenced.
		if cas.IsChunkName(name) {
			return
		}
		if info, err := e.Info(); err == nil { // else raced with a concurrent delete
			names = append(names, name)
			infos[name] = info
		}
	})
	if err != nil {
		return
	}
	// An image the scan did not list is gone: forget its memoized node,
	// or the memo would grow with every image retention ever deleted.
	for name := range s.nodes {
		if infos[name] == nil {
			delete(s.nodes, name)
		}
	}
	// Newest first; equal timestamps break on name so pruning is
	// deterministic within one fast generation burst.
	sort.Slice(names, func(i, j int) bool {
		ti, tj := infos[names[i]].ModTime(), infos[names[j]].ModTime()
		if !ti.Equal(tj) {
			return ti.After(tj)
		}
		return names[i] > names[j]
	})
	// The just-written image and the Keep newest are the seeds; every
	// older image is a candidate, except one a concurrent Put wrote
	// after ours (it belongs to that Put's retention window).
	seeds, just := []string{justWritten}, infos[justWritten]
	var candidates []string
	for i, name := range names {
		switch {
		case i < s.Keep:
			seeds = append(seeds, name)
		case just == nil || !infos[name].ModTime().After(just.ModTime()):
			candidates = append(candidates, name)
		}
	}
	g := &lineageGraph{nodes: map[string]*lineageNode{}, read: func(name string) (*lineageNode, error) {
		return s.node(name, infos[name])
	}}
	// Ordering: by the time retention runs, Put has already fsynced the
	// just-written image and its directory entry (unless NoSync), so
	// every image the survivors depend on is durable before anything is
	// removed — a crash mid-prune can strand extra files but never
	// deletes the only durable ancestor of a surviving delta. The
	// closing dir sync makes the removals themselves durable, so a
	// pruned parent cannot reappear after a crash and masquerade as a
	// live chain member.
	deleted, _ := condemn(g, seeds, candidates, func(name string) error {
		return os.Remove(s.path(name))
	})
	if len(deleted) > 0 && !s.NoSync {
		syncDir(s.Dir)
	}
}

// node returns the lineage node of an image this pass listed
// (ErrImageNotFound for any other name: missing, quarantined, or a
// chunk). Called with pruneMu held; readable nodes are memoized against
// the file's (mtime, size), so each immutable image is parsed once.
func (s *DirStore) node(name string, info fs.FileInfo) (*lineageNode, error) {
	if info == nil {
		return nil, ErrImageNotFound
	}
	if m, ok := s.nodes[name]; ok && m.mtime.Equal(info.ModTime()) && m.size == info.Size() {
		return m.node, nil
	}
	n, err := readNode(context.Background(), s, name)
	if err == nil {
		if s.nodes == nil {
			s.nodes = make(map[string]memoNode)
		}
		s.nodes[name] = memoNode{node: n, mtime: info.ModTime(), size: info.Size()}
	}
	return n, err
}

// Get implements Store.
func (s *DirStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	if err := validateImageName(name); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(s.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q in %s", ErrImageNotFound, name, s.Dir)
		}
		return nil, err
	}
	return f, nil
}

// List implements Store.
func (s *DirStore) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var names []string
	if err := s.scan(func(name string, _ fs.DirEntry) { names = append(names, name) }); err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Len implements CountingStore: the live image count, with no name
// slice built or sorted.
func (s *DirStore) Len(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := 0
	err := s.scan(func(string, fs.DirEntry) { n++ })
	return n, err
}

// scan calls fn for each live image file in the directory. Images
// Scrub quarantined are dead to the store: chain resolution,
// retention, and re-scrubs must never consider them live. They stay on
// disk (Get by exact name still works) for forensics only.
func (s *DirStore) scan(fn func(name string, e fs.DirEntry)) error {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), imageExt); ok && !e.IsDir() && !Quarantined(name) {
			fn(name, e)
		}
	}
	return nil
}

// Delete implements Store.
func (s *DirStore) Delete(ctx context.Context, name string) error {
	if err := validateImageName(name); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := os.Remove(s.path(name)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %q in %s", ErrImageNotFound, name, s.Dir)
		}
		return err
	}
	return nil
}

// MemStore keeps images in memory — tests, ephemeral checkpoints, and
// the building block for remote-store write-through caches. Safe for
// concurrent use.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Put implements Store: the image is staged in a buffer and published
// only if write succeeds, so a failed checkpoint leaves no trace. The
// buffer starts at the size of the image last stored under the same
// name (plus an eighth for growth): a checkpoint cadence rewriting one
// name then fills one allocation instead of regrowing — and copying —
// its way up from nothing every time.
func (s *MemStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	if err := validateImageName(name); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	hint := len(s.m[name])
	s.mu.Unlock()
	var buf bytes.Buffer
	buf.Grow(hint + hint/8)
	if err := write(&buf); err != nil {
		return err
	}
	// A cancellation that raced the end of write must not publish: the
	// writer may have been abandoned mid-image by the same cancel.
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.m == nil { // zero-value MemStore works, like the file stores
		s.m = make(map[string][]byte)
	}
	s.m[name] = buf.Bytes()
	s.mu.Unlock()
	return nil
}

// Get implements Store.
func (s *MemStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	b, ok := s.m[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrImageNotFound, name)
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

// List implements Store.
func (s *MemStore) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.m))
	for n := range s.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Len implements CountingStore with a map length, no allocation.
func (s *MemStore) Len(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m), nil
}

// Delete implements Store.
func (s *MemStore) Delete(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[name]; !ok {
		return fmt.Errorf("%w: %q", ErrImageNotFound, name)
	}
	delete(s.m, name)
	return nil
}

// ReaderAtCloser is a random-access image handle, as returned by
// RandomAccessStore.GetAt.
type ReaderAtCloser interface {
	io.ReaderAt
	io.Closer
}

// RandomAccessStore is the random-access method every Store has.
type RandomAccessStore interface {
	// GetAt opens the named image for random access, returning its
	// size. A missing name reports ErrImageNotFound.
	GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error)
}

// GetAt implements RandomAccessStore.
func (s *DirStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	if err := validateImageName(name); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return openFileAt(s.path(name), func() error {
		return fmt.Errorf("%w: %q in %s", ErrImageNotFound, name, s.Dir)
	})
}

func openFileAt(path string, missing func() error) (ReaderAtCloser, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, missing()
		}
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// GetAt implements RandomAccessStore. Stored images are immutable
// byte slices, so the handle is a view, not a copy.
func (s *MemStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	b, ok := s.m[name]
	s.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrImageNotFound, name)
	}
	return memImage(b), int64(len(b)), nil
}

// memImage is an image held whole in memory as a ReaderAtCloser. Its
// Bytes method lets a restart index and verify the image in place
// instead of copying it out first.
type memImage []byte

func (b memImage) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (memImage) Close() error { return nil }

func (b memImage) Bytes() []byte { return b }

var (
	_ Store = (*DirStore)(nil)
	_ Store = (*MemStore)(nil)
)

// SingleImageStore is a retired capability: nothing in this module
// implements it or consults it. The declaration remains only because
// the repository benchmark (benchmark/trace.go) still compiles against
// it; it goes with the next benchmark revision.
type SingleImageStore interface {
	SingleImage() bool
}

// existsBatch probes store for names in one round trip. A store with
// no such probe reports errors.ErrUnsupported; callers then proceed as
// if nothing were known to exist.
func existsBatch(ctx context.Context, store Store, names []string) (map[string]bool, error) {
	if be, ok := store.(BatchExister); ok {
		return be.ExistsBatch(ctx, names)
	}
	return nil, fmt.Errorf("crac: store has no batch-exists probe: %w", errors.ErrUnsupported)
}

// storeCaps forwards GetAt and the optional capabilities of the store a
// wrapper wraps. Method sets are static, so a wrapper embedding it
// always has all three methods; each one answers as the inner store
// itself would — through its own method when it has one, and otherwise
// through the fallback every caller already applies to a store without
// it: a List count (StoreLen), errors.ErrUnsupported (existsBatch).
// Embedding this is how a wrapper cannot forget a forward.
type storeCaps struct{ inner Store }

func (c storeCaps) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	return c.inner.GetAt(ctx, name)
}

func (c storeCaps) ExistsBatch(ctx context.Context, names []string) (map[string]bool, error) {
	return existsBatch(ctx, c.inner, names)
}

func (c storeCaps) Len(ctx context.Context) (int, error) { return StoreLen(ctx, c.inner) }

// Unwrap returns the wrapped store.
func (c storeCaps) Unwrap() Store { return c.inner }

// unwrapStore follows Unwrap down to the store no decorator wraps.
func unwrapStore(store Store) Store {
	for {
		u, ok := store.(interface{ Unwrap() Store })
		if !ok {
			return store
		}
		store = u.Unwrap()
	}
}
