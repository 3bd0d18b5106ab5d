package crac

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/cracrt"
	"repro/internal/crt"
	"repro/internal/cuda"
)

// vecAddKernels is a tiny fat-binary table used across session tests.
var vecAddKernels = map[string]cuda.Kernel{
	"vecAdd": func(ctx *cuda.DevCtx, cfg crt.LaunchConfig, args []uint64) {
		n := int(args[3])
		a := ctx.Float32s(args[0], n)
		b := ctx.Float32s(args[1], n)
		c := ctx.Float32s(args[2], n)
		for i := 0; i < n; i++ {
			c[i] = a[i] + b[i]
		}
	},
	"scale": func(ctx *cuda.DevCtx, cfg crt.LaunchConfig, args []uint64) {
		n := int(args[1])
		f := float32(args[2])
		x := ctx.Float32s(args[0], n)
		for i := 0; i < n; i++ {
			x[i] *= f
		}
	},
}

// setupVecAdd allocates and fills device inputs, returning pointers.
func setupVecAdd(t *testing.T, rt crt.Runtime, n int) (fat crt.FatBinHandle, da, db, dc, host uint64) {
	t.Helper()
	var err error
	fat, err = rt.RegisterFatBinary("vectest")
	if err != nil {
		t.Fatalf("RegisterFatBinary: %v", err)
	}
	for name, k := range vecAddKernels {
		if err := rt.RegisterFunction(fat, name, k); err != nil {
			t.Fatalf("RegisterFunction(%s): %v", name, err)
		}
	}
	bytesN := uint64(n) * 4
	if da, err = rt.Malloc(bytesN); err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if db, err = rt.Malloc(bytesN); err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if dc, err = rt.Malloc(bytesN); err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if host, err = rt.AppAlloc(bytesN); err != nil {
		t.Fatalf("AppAlloc: %v", err)
	}
	hv, err := crt.HostF32(rt, host, n)
	if err != nil {
		t.Fatalf("HostF32: %v", err)
	}
	for i := range hv {
		hv[i] = float32(i)
	}
	if err := rt.Memcpy(da, host, bytesN, crt.MemcpyHostToDevice); err != nil {
		t.Fatalf("Memcpy H2D: %v", err)
	}
	if err := rt.Memcpy(db, host, bytesN, crt.MemcpyHostToDevice); err != nil {
		t.Fatalf("Memcpy H2D: %v", err)
	}
	return fat, da, db, dc, host
}

func TestSessionVectorAddNativeVsCRAC(t *testing.T) {
	for _, mode := range []string{"native", "crac"} {
		t.Run(mode, func(t *testing.T) {
			var rt crt.Runtime
			if mode == "native" {
				n, err := NewNative()
				if err != nil {
					t.Fatalf("NewNative: %v", err)
				}
				rt = n
			} else {
				s, err := New()
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				defer s.Close()
				rt = s.Runtime()
			}
			const n = 1024
			fat, da, db, dc, host := setupVecAdd(t, rt, n)
			cfg := crt.LaunchConfig{Grid: crt.Dim3{X: 4}, Block: crt.Dim3{X: 256}}
			if err := rt.LaunchKernel(fat, "vecAdd", cfg, crt.DefaultStream, da, db, dc, n); err != nil {
				t.Fatalf("LaunchKernel: %v", err)
			}
			if err := rt.DeviceSynchronize(); err != nil {
				t.Fatalf("DeviceSynchronize: %v", err)
			}
			if err := rt.Memcpy(host, dc, n*4, crt.MemcpyDeviceToHost); err != nil {
				t.Fatalf("Memcpy D2H: %v", err)
			}
			hv, err := crt.HostF32(rt, host, n)
			if err != nil {
				t.Fatalf("HostF32: %v", err)
			}
			for i := 0; i < n; i++ {
				if hv[i] != float32(2*i) {
					t.Fatalf("c[%d] = %v, want %v", i, hv[i], float32(2*i))
				}
			}
		})
	}
}

func TestSessionCheckpointRestartTransparency(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	rt := s.Runtime()

	const n = 2048
	fat, da, db, dc, host := setupVecAdd(t, rt, n)
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: 8}, Block: crt.Dim3{X: 256}}
	// First kernel before the checkpoint: dc = da + db.
	if err := rt.LaunchKernel(fat, "vecAdd", cfg, crt.DefaultStream, da, db, dc, n); err != nil {
		t.Fatalf("LaunchKernel: %v", err)
	}

	// Checkpoint mid-computation (the drain happens inside).
	var img bytes.Buffer
	st, err := s.Checkpoint(context.Background(), &img)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st.Regions == 0 || st.RegionBytes == 0 {
		t.Fatalf("checkpoint stats look empty: %+v", st)
	}

	// Simulated failure: restart from the image. The old lower half is
	// gone; the log replays against a fresh library.
	if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if s.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", s.Generation())
	}

	// The application continues with the SAME handles and pointers:
	// scale dc by 3 and verify dc[i] == 3*(a[i]+b[i]) == 6i.
	if err := rt.LaunchKernel(fat, "scale", cfg, crt.DefaultStream, dc, n, 3); err != nil {
		t.Fatalf("LaunchKernel after restart: %v", err)
	}
	if err := rt.DeviceSynchronize(); err != nil {
		t.Fatalf("DeviceSynchronize after restart: %v", err)
	}
	if err := rt.Memcpy(host, dc, n*4, crt.MemcpyDeviceToHost); err != nil {
		t.Fatalf("Memcpy D2H after restart: %v", err)
	}
	hv, err := crt.HostF32(rt, host, n)
	if err != nil {
		t.Fatalf("HostF32: %v", err)
	}
	for i := 0; i < n; i++ {
		if hv[i] != float32(6*i) {
			t.Fatalf("after restart c[%d] = %v, want %v", i, hv[i], float32(6*i))
		}
	}
}

func TestSessionRestartPreservesStreamsAndEvents(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	rt := s.Runtime()

	const n = 512
	fat, da, _, dc, host := setupVecAdd(t, rt, n)
	st1, err := rt.StreamCreate()
	if err != nil {
		t.Fatalf("StreamCreate: %v", err)
	}
	st2, err := rt.StreamCreate()
	if err != nil {
		t.Fatalf("StreamCreate: %v", err)
	}
	if err := rt.StreamDestroy(st1); err != nil {
		t.Fatalf("StreamDestroy: %v", err)
	}
	ev, err := rt.EventCreate()
	if err != nil {
		t.Fatalf("EventCreate: %v", err)
	}

	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("Restart: %v", err)
	}

	// st2 and ev survive; st1 stays dead.
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: 2}, Block: crt.Dim3{X: 256}}
	if err := rt.LaunchKernel(fat, "scale", cfg, st2, da, n, 2); err != nil {
		t.Fatalf("LaunchKernel on restored stream: %v", err)
	}
	if err := rt.EventRecord(ev, st2); err != nil {
		t.Fatalf("EventRecord on restored event: %v", err)
	}
	if err := rt.EventSynchronize(ev); err != nil {
		t.Fatalf("EventSynchronize: %v", err)
	}
	if err := rt.StreamSynchronize(st2); err != nil {
		t.Fatalf("StreamSynchronize: %v", err)
	}
	if err := rt.LaunchKernel(fat, "scale", cfg, st1, da, n, 2); err == nil {
		t.Fatalf("launch on destroyed stream unexpectedly succeeded")
	}
	// New streams keep getting fresh handles after restart.
	st3, err := rt.StreamCreate()
	if err != nil {
		t.Fatalf("StreamCreate after restart: %v", err)
	}
	if st3 == st2 || st3 == st1 {
		t.Fatalf("handle reuse after restart: st3=%d", st3)
	}
	_ = dc
	_ = host
}

func TestCrossProcessRestore(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt := s.Runtime()

	const n = 256
	fat, da, db, dc, _ := setupVecAdd(t, rt, n)
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 256}}
	if err := rt.LaunchKernel(fat, "vecAdd", cfg, crt.DefaultStream, da, db, dc, n); err != nil {
		t.Fatalf("LaunchKernel: %v", err)
	}
	// Stash the pointer table as the root blob, as a resumable app would.
	root := []byte{byte(da), byte(da >> 8)} // representative payload
	s.SetRootBlob(root)

	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.Close()

	// A brand-new process restores from the image. It resolves kernels
	// from its own text segment (the exported kernel table).
	s2, err := Restore(context.Background(), bytes.NewReader(img.Bytes()),
		WithKernels(NewKernelRegistry().AddTable("vectest", vecAddKernels)))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer s2.Close()
	if got := s2.RootBlob(); !bytes.Equal(got, root) {
		t.Fatalf("root blob = %v, want %v", got, root)
	}
	// The restored device memory holds a+b at the original address dc.
	rt2 := s2.Runtime()
	host2, err := rt2.AppAlloc(n * 4)
	if err != nil {
		t.Fatalf("AppAlloc: %v", err)
	}
	if err := rt2.Memcpy(host2, dc, n*4, crt.MemcpyDeviceToHost); err != nil {
		t.Fatalf("Memcpy D2H in restored process: %v", err)
	}
	hv, err := crt.HostF32(rt2, host2, n)
	if err != nil {
		t.Fatalf("HostF32: %v", err)
	}
	for i := 0; i < n; i++ {
		if hv[i] != float32(2*i) {
			t.Fatalf("restored c[%d] = %v, want %v", i, hv[i], float32(2*i))
		}
	}
}

func TestASLRBreaksReplayDeterminism(t *testing.T) {
	// With ASLR on, the fresh lower half lands at different addresses
	// and the replay detects the mismatch — the reason CRAC calls
	// personality(ADDR_NO_RANDOMIZE) (Section 3.2.4).
	s, err := New(WithASLR(42))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	rt := s.Runtime()
	if _, err := rt.Malloc(1 << 20); err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	err = s.Restart(context.Background(), bytes.NewReader(img.Bytes()))
	if err == nil {
		t.Skip("ASLR happened to reproduce the layout; extremely unlikely but legal")
	}
	if !errors.Is(err, cracrt.ErrReplayMismatch) {
		t.Fatalf("Restart error = %v, want ErrReplayMismatch", err)
	}
}

// TestGzipImageRoundTrip: gzip is a retired shard encoding. An image
// that sets its flag bit is refused before teardown, and the session
// still round-trips the same image without it.
func TestGzipImageRoundTrip(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	rt := s.Runtime()
	const n = 1024
	setupVecAdd(t, rt, n)
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Restart(context.Background(), bytes.NewReader(gzipFlagged(img.Bytes()))); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Restart from a gzip-flagged image = %v, want ErrUnsupportedVersion", err)
	}
	if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("Restart after the refusal: %v", err)
	}
}
