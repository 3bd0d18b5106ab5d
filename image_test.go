package crac

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/crt"
)

// imageBytes runs a recognizable workload and checkpoints it into a
// store — a chain base under WithIncremental, else a standalone image —
// returning the raw image bytes.
func imageBytes(t *testing.T, opts ...Option) []byte {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	const n = 1024
	fat, da, db, dc, _ := setupVecAdd(t, rt, n)
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: n / 256}, Block: crt.Dim3{X: 256}}
	if err := rt.LaunchKernel(fat, "vecAdd", cfg, crt.DefaultStream, da, db, dc, n); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StreamCreate(); err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if _, err := s.CheckpointTo(context.Background(), store, "img"); err != nil {
		t.Fatal(err)
	}
	return conformGet(t, store, "img")
}

// TestOpenImageBothVersions opens a standalone image and a chain base —
// the two kinds of full image — without restoring and checks the
// Info/Log surface reports the same state for both, and that images of
// both retired format versions (v1, v2), or with the retired gzip flag
// bit, are refused.
func TestOpenImageBothVersions(t *testing.T) {
	for version, opts := range [][]Option{nil, {WithIncremental(2)}} {
		raw := imageBytes(t, opts...)
		for _, retired := range []byte{'1', '2'} {
			if _, err := OpenImage(bytes.NewReader(retiredImage(raw, retired))); !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("OpenImage(v%c) = %v, want ErrUnsupportedVersion", retired, err)
			}
		}
		if _, err := OpenImage(bytes.NewReader(gzipFlagged(raw))); !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("OpenImage(gzip bit) = %v, want ErrUnsupportedVersion", err)
		}
		img, err := OpenImage(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("OpenImage kind %d: %v", version, err)
		}
		info := img.Info()
		if info.Delta || info.ShardsTotal == 0 || info.ShardsEmitted != info.ShardsTotal {
			t.Fatalf("kind %d: not a full image: %+v", version, info)
		}
		if len(info.Regions) == 0 || info.RegionBytes == 0 {
			t.Fatalf("v%d: no regions in info: %+v", version, info)
		}
		var names []string
		for _, s := range info.Sections {
			names = append(names, s.Name)
		}
		if !strings.Contains(strings.Join(names, ","), "crac.log") {
			t.Fatalf("v%d: missing crac.log section in %v", version, names)
		}

		lg, err := img.Log()
		if err != nil {
			t.Fatalf("v%d Log: %v", version, err)
		}
		if lg == nil {
			t.Fatalf("v%d: no log summary", version)
		}
		if lg.Device.Buffers != 3 {
			t.Fatalf("v%d: active device buffers = %d, want 3", version, lg.Device.Buffers)
		}
		if lg.Device.Bytes != 3*1024*4 {
			t.Fatalf("v%d: active device bytes = %d", version, lg.Device.Bytes)
		}
		if lg.Streams != 1 {
			t.Fatalf("v%d: streams = %d, want 1", version, lg.Streams)
		}
		if len(lg.Modules) != 1 || lg.Modules[0].Module != "vectest" || lg.Modules[0].Kernels != 2 {
			t.Fatalf("v%d: modules = %+v", version, lg.Modules)
		}
		if lg.Entries == 0 {
			t.Fatalf("v%d: empty log", version)
		}

		entries, err := img.LogEntries()
		if err != nil || len(entries) != lg.Entries {
			t.Fatalf("v%d: LogEntries = %d entries, %v (want %d)", version, len(entries), err, lg.Entries)
		}
	}
}

func TestOpenImageGarbage(t *testing.T) {
	_, err := OpenImage(bytes.NewReader([]byte("definitely not an image")))
	if !errors.Is(err, ErrBadImage) {
		t.Fatalf("OpenImage(garbage) = %v, want ErrBadImage", err)
	}
	if errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("garbage misclassified as unsupported version: %v", err)
	}
}

func TestOpenImageUnsupportedVersion(t *testing.T) {
	// A CRACIMG magic with a future version digit: recognizably ours,
	// but not a format this build speaks.
	_, err := OpenImage(bytes.NewReader([]byte("CRACIMG9........")))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("OpenImage(v9) = %v, want ErrUnsupportedVersion", err)
	}
	if errors.Is(err, ErrBadImage) {
		t.Fatalf("unsupported version misclassified as bad image: %v", err)
	}
}

// TestRestoreFromStoreRoundTrip drives the full store-based
// cross-process flow: checkpoint into a DirStore, open the image for
// inspection, then RestoreFrom with a KernelRegistry.
func TestRestoreFromStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	store, err := NewDirStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	rt := s.Runtime()
	const n = 256
	fat, da, db, dc, _ := setupVecAdd(t, rt, n)
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 256}}
	if err := rt.LaunchKernel(fat, "vecAdd", cfg, crt.DefaultStream, da, db, dc, n); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointTo(ctx, store, "gen0"); err != nil {
		t.Fatalf("CheckpointTo: %v", err)
	}
	s.Close()

	// Inspect without restoring.
	img, err := OpenImageFrom(ctx, store, "gen0")
	if err != nil {
		t.Fatalf("OpenImageFrom: %v", err)
	}
	if lg, err := img.Log(); err != nil || lg == nil || lg.Device.Buffers != 3 {
		t.Fatalf("image log = %+v, %v", lg, err)
	}

	// A brand-new process restores from the store, resolving kernels
	// from its own registry.
	s2, err := RestoreFrom(ctx, store, "gen0",
		WithKernels(NewKernelRegistry().AddTable("vectest", vecAddKernels)))
	if err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	defer s2.Close()
	rt2 := s2.Runtime()
	host, err := rt2.AppAlloc(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Memcpy(host, dc, n*4, crt.MemcpyDeviceToHost); err != nil {
		t.Fatalf("Memcpy in restored process: %v", err)
	}
	hv, err := crt.HostF32(rt2, host, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if hv[i] != float32(2*i) {
			t.Fatalf("restored c[%d] = %v, want %v", i, hv[i], float32(2*i))
		}
	}

	// RestoreFrom with a missing name classifies as ErrImageNotFound.
	if _, err := RestoreFrom(ctx, store, "genX"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("RestoreFrom missing = %v, want ErrImageNotFound", err)
	}
}

func TestKernelRegistry(t *testing.T) {
	reg := NewKernelRegistry().
		AddTable("mod1", vecAddKernels).
		Add("mod2", "k", vecAddKernels["scale"])
	mods := reg.Modules()
	if len(mods) != 2 {
		t.Fatalf("Modules = %v", mods)
	}
	// WithKernels snapshots: mutating the registry afterwards must not
	// affect an already-built session's resolution set.
	st := resolve([]Option{WithKernels(reg)})
	reg.Add("mod3", "late", vecAddKernels["scale"])
	if len(st.kernels.modules) != 2 {
		t.Fatalf("WithKernels did not snapshot the registry")
	}
}
