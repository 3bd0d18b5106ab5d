// Quickstart: run a CUDA vector addition under CRAC, checkpoint it into
// an image store, simulate a failure, restart from the stored image, and
// keep computing — the minimal end-to-end tour of the library.
//
// The tour covers the whole public surface in order:
//
//  1. crac.New(options...)        — launch a session
//  2. session.Runtime()           — the CUDA runtime the app programs against
//  3. session.CheckpointTo(ctx)   — atomic checkpoint into a crac.Store
//  4. crac.OpenImageFrom          — inspect the image without restoring it
//  5. session.RestartFrom(ctx)    — restart in-process from the store
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	crac "repro"
	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/kernels"
)

func main() {
	ctx := context.Background()

	// 1. Launch a CRAC session: one simulated process with the
	// application in the upper half and a disposable CUDA library in the
	// lower half. Options tune the session; the defaults match the
	// paper's main configuration (V100, syscall fs switch).
	session, err := crac.New(crac.WithWorkers(0))
	if err != nil {
		log.Fatalf("crac: %v", err)
	}
	defer session.Close()
	rt := session.Runtime()

	// 2. Register the kernel library (the application's fat binary) and
	// set up device memory.
	fat, err := rt.RegisterFatBinary(kernels.Module)
	check(err)
	for name, k := range kernels.Table() {
		check(rt.RegisterFunction(fat, name, k))
	}
	const n = 1 << 16
	a, err := rt.Malloc(4 * n)
	check(err)
	b, err := rt.Malloc(4 * n)
	check(err)
	c, err := rt.Malloc(4 * n)
	check(err)
	check(rt.LaunchKernel(fat, "iota", kernels1D(n), crt.DefaultStream, a, kernels.F32Arg(1), n))
	check(rt.LaunchKernel(fat, "iota", kernels1D(n), crt.DefaultStream, b, kernels.F32Arg(2), n))

	// 3. First half of the computation: c = a + b.
	check(rt.LaunchKernel(fat, "vecAdd", kernels1D(n), crt.DefaultStream, a, b, c, n))
	check(rt.DeviceSynchronize())
	fmt.Printf("before checkpoint: c[100] = %v (want %v)\n", peek(rt, c, 100), 300.0)

	// 4. Checkpoint into a Store. The checkpoint drains the device,
	// saves the upper half, the call log's normal form, and the memory
	// of active mallocs — the CUDA library itself is NOT saved. Put is atomic: a
	// failed or cancelled checkpoint leaves nothing behind. MemStore
	// keeps images in memory; swap in NewDirStore for one file per
	// image with retention.
	store := crac.NewMemStore()
	stats, err := session.CheckpointTo(ctx, store, "quickstart")
	check(err)
	fmt.Printf("checkpoint: %d upper-half regions, %d KiB payload\n",
		stats.Regions, stats.PayloadTotal/1024)

	// 5. The image is a first-class artifact: open it WITHOUT restoring
	// to see what a restore would reissue.
	img, err := crac.OpenImageFrom(ctx, store, "quickstart")
	check(err)
	if lg, err := img.Log(); err == nil && lg != nil {
		fmt.Printf("image: %d call-log entries (the live resources, not the history), %d active device buffers\n",
			lg.Entries, lg.Device.Buffers)
	}

	// 6. Simulated failure + restart: the old lower half is discarded, a
	// fresh CUDA library is brought up, its arenas are rebuilt from the
	// image's layout and active set so a, b, c reappear at the same
	// addresses, and their contents are refilled.
	check(session.RestartFrom(ctx, store, "quickstart"))
	fmt.Printf("restarted (generation %d)\n", session.Generation())

	// 7. The application continues with the same handles and pointers:
	// c *= 2.
	check(rt.LaunchKernel(fat, "scale", kernels1D(n), crt.DefaultStream, c, kernels.F32Arg(2), n))
	check(rt.DeviceSynchronize())
	got := peek(rt, c, 100)
	fmt.Printf("after restart:   c[100] = %v (want %v)\n", got, 600.0)
	if got != 600 {
		log.Fatal("MISMATCH — checkpoint/restart was not transparent")
	}
	fmt.Println("OK: computation transparent across checkpoint/restart")
}

func kernels1D(n int) crt.LaunchConfig {
	return crt.LaunchConfig{Grid: crt.Dim3{X: (n + 255) / 256}, Block: crt.Dim3{X: 256}}
}

// peek reads one float32 element from device memory.
func peek(rt crt.Runtime, dev uint64, idx int) float32 {
	host, err := rt.AppAlloc(4)
	check(err)
	check(rt.Memcpy(host, dev+uint64(4*idx), 4, cuda.MemcpyDeviceToHost))
	v, err := crt.HostF32(rt, host, 1)
	check(err)
	return v[0]
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
