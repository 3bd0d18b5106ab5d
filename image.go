package crac

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/cracplugin"
	"repro/internal/cuda"
	"repro/internal/dmtcp"
	"repro/internal/replaylog"
)

// KernelRegistry maps module names to kernel tables — the simulation's
// stand-in for the device code in the application's text segment. A
// restored process hands its registry to Restore / RestoreFrom (via
// WithKernels) so the restart can resolve every registered function.
type KernelRegistry struct {
	modules map[string]map[string]cuda.Kernel
}

// NewKernelRegistry returns an empty registry.
func NewKernelRegistry() *KernelRegistry {
	return &KernelRegistry{modules: make(map[string]map[string]cuda.Kernel)}
}

// Add registers one kernel under module/name and returns the registry
// for chaining.
func (r *KernelRegistry) Add(module, name string, k cuda.Kernel) *KernelRegistry {
	mod, ok := r.modules[module]
	if !ok {
		mod = make(map[string]cuda.Kernel)
		r.modules[module] = mod
	}
	mod[name] = k
	return r
}

// AddTable registers a whole kernel table under module (the form
// workloads export) and returns the registry for chaining.
func (r *KernelRegistry) AddTable(module string, funcs map[string]cuda.Kernel) *KernelRegistry {
	for name, k := range funcs {
		r.Add(module, name, k)
	}
	return r
}

// Modules returns the registered module names (unordered).
func (r *KernelRegistry) Modules() []string {
	out := make([]string, 0, len(r.modules))
	for m := range r.modules {
		out = append(out, m)
	}
	return out
}

// clone snapshots the registry so later mutation by the caller cannot
// race a session using it.
func (r *KernelRegistry) clone() *KernelRegistry {
	if r == nil {
		return nil
	}
	out := NewKernelRegistry()
	for m, funcs := range r.modules {
		out.AddTable(m, funcs)
	}
	return out
}

// Image is a checkpoint image opened without restoring it: a
// first-class, inspectable artifact. Use OpenImage / OpenImageFile /
// OpenImageFrom to obtain one and Info and Log to inspect it; restarts
// read the image from its Store or bytes themselves (RestartFrom,
// Restart). It reads through the same linked shard-index chain a
// restart does, every member held in memory.
type Image struct {
	chain []*dmtcp.ShardIndex // tip first, each linked to the next
	// devmem is the tip's devmem2 section folded across a delta chain;
	// nil when the tip carries it whole (a base) or has none.
	devmem []byte
}

// OpenImage reads one checkpoint image from r and verifies it: its
// integrity trailer and every shard. Failures classify as ErrBadImage,
// ErrCorruptImage or ErrUnsupportedVersion. A delta opened this way
// lists its tables but not its section bytes, which live in its parent
// chain (ImageInfo.Materialized is false).
func OpenImage(r io.Reader) (*Image, error) {
	ix, err := dmtcp.ReadImage(r)
	if err != nil {
		return nil, err
	}
	return &Image{chain: []*dmtcp.ShardIndex{ix}}, nil
}

// OpenImageFile reads a checkpoint image from a file.
func OpenImageFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenImage(f)
}

// OpenImageFrom opens the named checkpoint image out of a Store. A
// delta is resolved transparently: its parent chain is followed (by
// name, through the same Store) back to the base with the walk a
// restart takes, each member read once and its trailer checked, so the
// image reads back as complete. A missing or cyclic parent reports
// ErrDeltaChain.
func OpenImageFrom(ctx context.Context, store Store, name string) (*Image, error) {
	chain, closers, err := openIndexChain(ctx, store, name, chainWhole)
	if err != nil {
		return nil, wrapCancelled(err)
	}
	closeAll(closers) // every member is held in memory
	devmem, err := foldDevMem(chain)
	if err != nil {
		return nil, err
	}
	return &Image{chain: chain, devmem: devmem}, nil
}

// foldDevMem resolves the devmem2 section of a linked chain (tip first)
// through cracplugin.MergeDevMem: the one opaque section that folds
// across a chain, over every member down to the base or the first that
// lacks it. A base carries it whole, so there is nothing to fold.
func foldDevMem(chain []*dmtcp.ShardIndex) ([]byte, error) {
	tip := chain[0]
	if !tip.Delta || !slices.ContainsFunc(tip.Secs, func(s dmtcp.SectionHdr) bool {
		return s.Name == cracplugin.SectionDevMem2 && s.Opaque
	}) {
		return nil, nil
	}
	var secs []*io.SectionReader
	for _, ix := range chain {
		sr, err := ix.SectionReader(cracplugin.SectionDevMem2)
		if err != nil {
			break
		}
		secs = append(secs, io.NewSectionReader(sr, 0, int64(sr.Size())))
	}
	merged, err := cracplugin.MergeDevMem(secs)
	if err != nil {
		return nil, fmt.Errorf("dmtcp: merging section %s: %w", cracplugin.SectionDevMem2, err)
	}
	return merged, nil
}

// resolved reports whether the chain ends at a self-contained image, so
// that every tip section reads back.
func (im *Image) resolved() bool { return !im.chain[len(im.chain)-1].Delta }

// section reads a tip section through the chain: ok is false when the
// image has no such section, or is a delta opened without its chain.
func (im *Image) section(name string) (data []byte, ok bool, err error) {
	tip := im.chain[0]
	if !im.resolved() || !tip.HasSection(name) {
		return nil, false, nil
	}
	if name == cracplugin.SectionDevMem2 && im.devmem != nil {
		return im.devmem, true, nil
	}
	data, err = tip.SectionBytes(name)
	return data, err == nil, err
}

// ImageRegion describes one upper-half memory region inside an image.
type ImageRegion struct {
	Start uint64
	Len   uint64
	Prot  string
	Label string
}

// ImageSection describes one plugin payload section inside an image.
type ImageSection struct {
	Name string
	Size int
}

// ImageInfo is the static shape of a checkpoint image: format, memory
// layout, and payload sections — everything knowable without decoding
// the CUDA call log.
type ImageInfo struct {
	Regions     []ImageRegion
	Sections    []ImageSection
	RegionBytes uint64

	// Lineage. Delta marks a delta image; Parent names
	// the image it applies on top of; DeltaDepth is its distance from
	// the chain's base. DirtyRatio is the fraction of the checkpointed
	// payload the image actually carries (ShardsEmitted of ShardsTotal
	// shards) — 1 for full images. Materialized reports whether the
	// image's parent chain was resolved, so that Section and Log read
	// its complete content: false only for a delta opened on its own
	// (OpenImage, OpenImageFile), whose sections live in its parents.
	Delta         bool
	Parent        string
	DeltaDepth    int
	ShardsTotal   int
	ShardsEmitted int
	DirtyRatio    float64
	Materialized  bool
}

// Info summarizes the image.
func (im *Image) Info() ImageInfo {
	tip := im.chain[0]
	info := ImageInfo{
		DirtyRatio:   1,
		Delta:        tip.Depth > 0 || tip.Parent != "",
		Parent:       tip.Parent,
		DeltaDepth:   tip.Depth,
		Materialized: im.resolved(),
	}
	var rawTotal, rawEmitted uint64
	info.ShardsTotal, info.ShardsEmitted, rawTotal, rawEmitted = tip.Coverage()
	if rawTotal > 0 {
		info.DirtyRatio = float64(rawEmitted) / float64(rawTotal)
	}
	for _, r := range tip.Regions {
		info.RegionBytes += r.Len
		info.Regions = append(info.Regions, ImageRegion{
			Start: r.Start, Len: r.Len, Prot: fmt.Sprintf("%v", r.Prot), Label: r.Label,
		})
	}
	for _, sec := range tip.Secs {
		size := int(sec.Size)
		if sec.Name == cracplugin.SectionDevMem2 && im.devmem != nil {
			size = len(im.devmem)
		}
		info.Sections = append(info.Sections, ImageSection{Name: sec.Name, Size: size})
	}
	return info
}

// Section returns the raw bytes of a named payload section; false when
// the image has none, when a delta was opened without its chain, or
// when the section's shards fail their content hashes.
func (im *Image) Section(name string) ([]byte, bool) {
	data, ok, err := im.section(name)
	return data, ok && err == nil
}

// AllocClass summarizes one class of active CUDA allocations.
type AllocClass struct {
	Buffers int
	Bytes   uint64
}

// ModuleInfo summarizes one registered fat binary.
type ModuleInfo struct {
	Module  string
	Kernels int
}

// ImageLog summarizes the CUDA call log carried in an image: its length
// (entries of its normal form — the live resources plus dead highest
// handles — or, in an image written before logs were compacted, the
// whole history) and the resources active at checkpoint, which a
// restore reissues.
type ImageLog struct {
	Entries int
	Device  AllocClass // cudaMalloc
	Pinned  AllocClass // cudaMallocHost
	Host    AllocClass // cudaHostAlloc
	Managed AllocClass // cudaMallocManaged
	Streams int
	Events  int
	Modules []ModuleInfo
}

func (im *Image) decodeLog() (*replaylog.Log, error) {
	logBytes, ok, err := im.section(cracplugin.SectionLog)
	if !ok || err != nil {
		return nil, err
	}
	log, err := replaylog.DecodeBytes(logBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding call log: %v", ErrBadImage, err)
	}
	return log, nil
}

func allocClass(as []replaylog.Allocation) AllocClass {
	c := AllocClass{Buffers: len(as)}
	for _, a := range as {
		c.Bytes += a.Size
	}
	return c
}

// Log decodes and summarizes the image's CUDA call log. Images without
// a log section (not written by the CRAC plugin) return (nil, nil).
func (im *Image) Log() (*ImageLog, error) {
	log, err := im.decodeLog()
	if log == nil || err != nil {
		return nil, err
	}
	as := log.Active()
	il := &ImageLog{
		Entries: log.Len(),
		Device:  allocClass(as.Device),
		Pinned:  allocClass(as.Pinned),
		Host:    allocClass(as.Host),
		Managed: allocClass(as.Managed),
		Streams: len(as.Streams),
		Events:  len(as.Events),
	}
	for _, fb := range as.FatBins {
		il.Modules = append(il.Modules, ModuleInfo{Module: fb.Module, Kernels: len(fb.Functions)})
	}
	return il, nil
}

// LogEntries renders every call-log entry as text, for dump tooling
// (cracinspect -log). Images without a log section return (nil, nil).
func (im *Image) LogEntries() ([]string, error) {
	log, err := im.decodeLog()
	if log == nil || err != nil {
		return nil, err
	}
	entries := log.Entries()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.String()
	}
	return out, nil
}
