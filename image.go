package crac

import (
	"context"
	"fmt"
	"io"
	"os"

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

// Image is a parsed checkpoint image, opened without restoring it:
// a first-class, inspectable artifact. Use OpenImage / OpenImageFile /
// OpenImageFrom to obtain one and Info and Log to inspect it; restarts
// read the image from its Store or bytes themselves (RestartFrom,
// Restart).
type Image struct {
	img *dmtcp.Image
}

// OpenImage parses a checkpoint image from r and checks its integrity
// trailer; failures classify as ErrBadImage, ErrCorruptImage or
// ErrUnsupportedVersion.
func OpenImage(r io.Reader) (*Image, error) {
	img, err := dmtcp.ReadImage(r)
	if err != nil {
		return nil, err
	}
	return &Image{img: img}, nil
}

// OpenImageFile parses a checkpoint image from a file.
func OpenImageFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenImage(f)
}

// sectionMergers materializes plugin-owned opaque sections when a delta
// chain is resolved.
var sectionMergers = map[string]dmtcp.SectionMerger{
	cracplugin.SectionDevMem2: cracplugin.MergeDevMem,
}

// OpenImageFrom parses the named checkpoint image out of a Store. A
// delta image is materialized transparently: its parent chain is
// followed (by name, through the same Store) back to the base and the
// deltas are folded forward, yielding a complete image. A missing or
// cyclic parent reports ErrDeltaChain.
func OpenImageFrom(ctx context.Context, store Store, name string) (*Image, error) {
	rc, err := store.Get(ctx, name)
	if err != nil {
		return nil, wrapCancelled(err)
	}
	img, err := dmtcp.ReadImage(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	img, err = dmtcp.ResolveChain(img, func(parent string) (io.ReadCloser, error) {
		return store.Get(ctx, parent)
	}, sectionMergers)
	if err != nil {
		return nil, wrapCancelled(err)
	}
	return &Image{img: img}, nil
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
	Version     int
	Gzip        bool
	Regions     []ImageRegion
	Sections    []ImageSection
	RegionBytes uint64

	// Lineage. Delta marks a delta image; Parent names
	// the image it applies on top of; DeltaDepth is its distance from
	// the chain's base. DirtyRatio is the fraction of the checkpointed
	// payload the image actually carries (ShardsEmitted of ShardsTotal
	// shards) — 1 for full images. Materialized reports whether the
	// payload is complete (always true except for a delta opened
	// outside its Store).
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
	info := ImageInfo{
		Version:      im.img.Version,
		Gzip:         im.img.Gzip,
		RegionBytes:  im.img.TotalRegionBytes(),
		DirtyRatio:   1,
		Materialized: true,
	}
	if d := im.img.Delta; d != nil {
		info.Delta = d.Depth > 0 || d.Parent != ""
		info.Parent = d.Parent
		info.DeltaDepth = d.Depth
		info.ShardsTotal = d.ShardsTotal
		info.ShardsEmitted = d.ShardsEmitted
		info.DirtyRatio = d.DirtyRatio()
		info.Materialized = d.Materialized
	}
	for _, r := range im.img.Regions {
		info.Regions = append(info.Regions, ImageRegion{
			Start: r.Start, Len: r.Len, Prot: fmt.Sprintf("%v", r.Prot), Label: r.Label,
		})
	}
	for _, name := range im.img.Sections.Names() {
		data, _ := im.img.Sections.Get(name)
		info.Sections = append(info.Sections, ImageSection{Name: name, Size: len(data)})
	}
	if len(info.Sections) == 0 && im.img.Delta != nil && !im.img.Delta.Materialized {
		// A bare delta's section bytes are unavailable, but its header
		// table still describes the layout.
		for _, sh := range im.img.Delta.SectionLayout() {
			info.Sections = append(info.Sections, ImageSection{Name: sh.Name, Size: int(sh.Size)})
		}
	}
	return info
}

// Section returns the raw bytes of a named payload section.
func (im *Image) Section(name string) ([]byte, bool) {
	return im.img.Sections.Get(name)
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
// (the history full replay would re-execute) and the resources active
// at checkpoint, which a restore reissues.
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
	logBytes, ok := im.img.Sections.Get(cracplugin.SectionLog)
	if !ok {
		return nil, nil
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
