// Command cracinspect dumps the contents of a CRAC checkpoint image
// without restoring it, through the public crac.Image surface: the
// image format, the upper-half memory regions, the fill-only spans (the
// active mallocs' memory), the plugin payload sections, and a summary of the CUDA call log and the active resources
// it implies. The log an image carries is its normal form: the live
// resources plus each dead highest handle's create/destroy pair, not
// the call history.
//
// Images can live on disk or behind a netstore server (crac.ServeStore
// / cracmigrate -serve): an http(s):// argument names an image on such
// a server — everything after the last path segment is the image name,
// the rest is the store base URL — and delta lineage is resolved across
// the wire; the lineage listing fetches each ancestor once.
//
// Usage:
//
//	cracinspect image.img
//	cracinspect -log image.img     # include every call-log entry (the normal form)
//	cracinspect -verify image.img  # integrity-check and report
//	cracinspect http://ckpt-host:9120/gen042   # image "gen042" on a netstore server
//	cracinspect -dedup ./checkpoints           # dedup report over a whole store
//	cracinspect -dedup http://ckpt-host:9120   # same, across the wire
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	crac "repro"
)

// splitStoreURL splits an http(s) image URL into the store base URL
// and the image name (the last path segment).
func splitStoreURL(arg string) (base, name string, err error) {
	i := strings.LastIndex(arg, "/")
	base, name = arg[:i], arg[i+1:]
	if name == "" || strings.HasSuffix(base, "/") || !strings.Contains(base, "://") {
		return "", "", fmt.Errorf("store URL %q must end in /<image-name>", arg)
	}
	return base, name, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runDedup prints the content-addressed storage report for a whole
// store: unique vs referenced chunk bytes, the dedup ratio, and the
// chain depth of every lineage it holds.
func runDedup(ctx context.Context, arg string, stdout, stderr io.Writer) int {
	var store crac.Store
	if strings.HasPrefix(arg, "http://") || strings.HasPrefix(arg, "https://") {
		hs, err := crac.NewHTTPStore(arg)
		if err != nil {
			fmt.Fprintln(stderr, "cracinspect:", err)
			return 1
		}
		store = hs
	} else {
		ds, err := crac.NewDirStore(arg, 0)
		if err != nil {
			fmt.Fprintln(stderr, "cracinspect:", err)
			return 1
		}
		store = ds
	}
	st, err := crac.DedupReport(ctx, store)
	if err != nil {
		fmt.Fprintln(stderr, "cracinspect: dedup:", err)
		return 1
	}
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	fmt.Fprintf(stdout, "CRAC store dedup report: %s\n", arg)
	fmt.Fprintf(stdout, "  images: %d (%d content-addressed manifests)\n", st.Images, st.Manifests)
	fmt.Fprintf(stdout, "  chunks: %d unique, %d references, %d orphaned (pending GC)\n",
		st.Chunks, st.ChunkRefs, st.Orphans)
	fmt.Fprintf(stdout, "  bytes:  %.2f MB referenced -> %.2f MB stored (+%.2f MB inline metadata)\n",
		mb(st.ReferencedChunkBytes), mb(st.UniqueChunkBytes), mb(st.InlineBytes))
	if r := st.Ratio(); r > 0 {
		fmt.Fprintf(stdout, "  dedup ratio: %.2fx\n", r)
	} else {
		fmt.Fprintln(stdout, "  dedup ratio: n/a (no content-addressed chunks in this store)")
	}
	if len(st.Lineages) > 0 {
		fmt.Fprintln(stdout, "  lineages:")
		for _, l := range st.Lineages {
			fmt.Fprintf(stdout, "    %-24s chain depth %d\n", l.Tip, l.Depth)
		}
	}
	return 0
}

// run is the whole program behind main, split out so tests can drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cracinspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	showLog := fs.Bool("log", false, "dump every call-log entry: the log's normal form (live resources and dead highest handles), not the call history")
	verify := fs.Bool("verify", false, "integrity-check the image (trailer, shard hashes, log)")
	dedup := fs.Bool("dedup", false, "report content-addressed dedup for a whole store (argument: store dir or base URL)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cracinspect [-log] [-verify] <image-file | http(s)://host[:port]/image>")
		fmt.Fprintln(stderr, "       cracinspect -dedup <store-dir | http(s)://host[:port]>")
		return 2
	}
	ctx := context.Background()
	arg := fs.Arg(0)
	if *dedup {
		return runDedup(ctx, arg, stdout, stderr)
	}
	var (
		img   *crac.Image
		err   error
		name  string     // image name within store, when remote
		store crac.Store // non-nil when inspecting over the wire
	)
	if strings.HasPrefix(arg, "http://") || strings.HasPrefix(arg, "https://") {
		var base string
		if base, name, err = splitStoreURL(arg); err == nil {
			var hs *crac.HTTPStore
			if hs, err = crac.NewHTTPStore(base); err == nil {
				store = hs
				img, err = crac.OpenImageFrom(ctx, store, name)
			}
		}
	} else {
		img, err = crac.OpenImageFile(arg)
	}
	if err != nil {
		switch {
		case errors.Is(err, crac.ErrUnsupportedVersion):
			fmt.Fprintln(stderr, "cracinspect: image from an unsupported format version:", err)
		case errors.Is(err, crac.ErrCorruptImage):
			fmt.Fprintln(stderr, "cracinspect: corrupt CRAC image (integrity check failed):", err)
		case errors.Is(err, crac.ErrBadImage):
			fmt.Fprintln(stderr, "cracinspect: not a valid CRAC image:", err)
		default:
			fmt.Fprintln(stderr, "cracinspect:", err)
		}
		return 1
	}

	info := img.Info()
	fmt.Fprintf(stdout, "CRAC checkpoint image: %s\n", fs.Arg(0))
	fmt.Fprintln(stdout, "  format: CRACIMG3")
	if *verify {
		if store != nil {
			// Remote image: verify the whole delta lineage through the
			// store, the same resolution a restore would perform.
			chain, err := crac.VerifyChain(ctx, store, name)
			if err != nil {
				fmt.Fprintln(stderr, "cracinspect: verify:", err)
				return 1
			}
			fmt.Fprintf(stdout, "  integrity: OK (chain of %d verified across the wire: %s)\n",
				len(chain), strings.Join(chain, " <- "))
		} else {
			if err := img.Verify(ctx); err != nil {
				fmt.Fprintln(stderr, "cracinspect: verify:", err)
				return 1
			}
			fmt.Fprintln(stdout, "  integrity: OK (whole-image trailer checksum verified)")
		}
	}
	if info.Delta {
		fmt.Fprintf(stdout, "  delta: depth %d, parent %q, %.1f%% dirty (%d of %d shards)\n",
			info.DeltaDepth, info.Parent, 100*info.DirtyRatio, info.ShardsEmitted, info.ShardsTotal)
		if store != nil {
			// With a store at hand the chain is resolvable: report every
			// ancestor hop down to the base, each opened once, as stored.
			fmt.Fprintln(stdout, "  lineage:")
			seen := map[string]bool{name: true}
			for cur := info.Parent; cur != ""; {
				if seen[cur] {
					fmt.Fprintln(stderr, "cracinspect: lineage: cycle at", cur)
					return 1
				}
				seen[cur] = true
				var pimg *crac.Image
				rc, err := store.Get(ctx, cur)
				if err == nil {
					pimg, err = crac.OpenImage(rc)
					rc.Close()
				}
				if err != nil {
					fmt.Fprintf(stderr, "cracinspect: lineage: opening %q: %v\n", cur, err)
					return 1
				}
				pi := pimg.Info()
				if pi.Delta {
					fmt.Fprintf(stdout, "    %-16s delta depth %d, %.1f%% dirty (%d of %d shards)\n",
						cur, pi.DeltaDepth, 100*pi.DirtyRatio, pi.ShardsEmitted, pi.ShardsTotal)
				} else {
					fmt.Fprintf(stdout, "    %-16s base (chain root), %d shards\n", cur, pi.ShardsTotal)
				}
				cur = pi.Parent
			}
		} else if !info.Materialized {
			fmt.Fprintln(stdout, "  (payload not materialized: restore via the image's store to follow the chain)")
		}
	} else {
		fmt.Fprintf(stdout, "  full image (standalone or chain root), %d shards\n", info.ShardsTotal)
	}
	fmt.Fprintf(stdout, "  upper-half regions: %d (%d bytes)\n", len(info.Regions), info.RegionBytes)
	for _, r := range info.Regions {
		fmt.Fprintf(stdout, "    %012x-%012x %8d  %s  %s\n", r.Start, r.Start+r.Len, r.Len, r.Prot, r.Label)
	}
	fmt.Fprintf(stdout, "  fill-only spans (active mallocs): %d (%d bytes)\n", len(info.Fills), info.FillBytes)
	for _, f := range info.Fills {
		fmt.Fprintf(stdout, "    %012x-%012x %8d  %s\n", f.Start, f.Start+f.Len, f.Len, f.Class)
	}
	fmt.Fprintf(stdout, "  sections: %d\n", len(info.Sections))
	for _, s := range info.Sections {
		fmt.Fprintf(stdout, "    %-16s %d bytes\n", s.Name, s.Size)
	}

	log, err := img.Log()
	if err != nil {
		fmt.Fprintln(stderr, "cracinspect: decoding log:", err)
		return 1
	}
	if log == nil {
		fmt.Fprintln(stdout, "  (no CUDA call log section)")
		return 0
	}
	fmt.Fprintf(stdout, "  CUDA call log: %d entries (normal form)\n", log.Entries)
	fmt.Fprintf(stdout, "  active at checkpoint:\n")
	fmt.Fprintf(stdout, "    cudaMalloc:        %d buffers (%d bytes)\n", log.Device.Buffers, log.Device.Bytes)
	fmt.Fprintf(stdout, "    cudaMallocHost:    %d buffers (%d bytes)\n", log.Pinned.Buffers, log.Pinned.Bytes)
	fmt.Fprintf(stdout, "    cudaHostAlloc:     %d buffers (%d bytes)\n", log.Host.Buffers, log.Host.Bytes)
	fmt.Fprintf(stdout, "    cudaMallocManaged: %d buffers (%d bytes)\n", log.Managed.Buffers, log.Managed.Bytes)
	fmt.Fprintf(stdout, "    streams: %d, events: %d, fat binaries: %d\n",
		log.Streams, log.Events, len(log.Modules))
	for _, m := range log.Modules {
		fmt.Fprintf(stdout, "      module %q: %d kernels\n", m.Module, m.Kernels)
	}
	if *showLog {
		entries, err := img.LogEntries()
		if err != nil {
			fmt.Fprintln(stderr, "cracinspect: decoding log:", err)
			return 1
		}
		fmt.Fprintln(stdout, "  log entries:")
		for i, e := range entries {
			fmt.Fprintf(stdout, "    %5d  %s\n", i, e)
		}
	}
	return 0
}
