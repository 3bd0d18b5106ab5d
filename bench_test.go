// Microbenchmarks of the primitives the paper's numbers decompose into:
// trampoline dispatch, kernel launch, logged malloc/free and the UVM
// fault round trip. Checkpoint and restart are measured end to end by
// the repository benchmark (benchmark/, bash benchmark/run.sh); the
// paper's tables and figures are regenerated by cracbench:
//
//	go run ./cmd/cracbench -exp all
package crac_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	crac "repro"
	"repro/internal/crt"
	"repro/internal/kernels"
)

// Microbenchmarks of the primitives.

// benchSession builds a CRAC session with a registered kernel module and
// one device buffer.
func benchSession(b *testing.B, opts ...crac.Option) (*crac.Session, crt.Runtime, crt.FatBinHandle, uint64) {
	b.Helper()
	s, err := crac.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	rt := s.Runtime()
	fat, err := rt.RegisterFatBinary(kernels.Module)
	if err != nil {
		b.Fatal(err)
	}
	for name, k := range kernels.Table() {
		if err := rt.RegisterFunction(fat, name, k); err != nil {
			b.Fatal(err)
		}
	}
	buf, err := rt.Malloc(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	return s, rt, fat, buf
}

// BenchmarkDispatchNative measures a small CUDA call through the direct
// binding (the baseline of every overhead figure).
func BenchmarkDispatchNative(b *testing.B) {
	rt, err := crac.NewNative()
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	buf, _ := rt.Malloc(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Memset(buf, byte(i), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchCRACSyscall measures the same call through the CRAC
// trampoline with syscall-based fs switching (unpatched kernel).
func BenchmarkDispatchCRACSyscall(b *testing.B) {
	_, rt, _, buf := benchSession(b, crac.WithSwitcher(crac.SwitchSyscall))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Memset(buf, byte(i), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchCRACFSGSBase measures the trampoline with the
// FSGSBASE register write (Section 4.4.5).
func BenchmarkDispatchCRACFSGSBase(b *testing.B) {
	_, rt, _, buf := benchSession(b, crac.WithSwitcher(crac.SwitchFSGSBase))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Memset(buf, byte(i), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelLaunchCRAC measures a full kernel launch + sync cycle
// under CRAC (three trampoline crossings per the paper's formula).
func BenchmarkKernelLaunchCRAC(b *testing.B) {
	_, rt, fat, buf := benchSession(b)
	lc := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 256}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.LaunchKernel(fat, "fill", lc, crt.DefaultStream, buf, kernels.F32Arg(1), 16); err != nil {
			b.Fatal(err)
		}
	}
	if err := rt.DeviceSynchronize(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMallocFreeCRAC measures the logged cudaMalloc/cudaFree pair
// (including the modelled driver latency that dominates restart replay).
func BenchmarkMallocFreeCRAC(b *testing.B) {
	_, rt, _, _ := benchSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := rt.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUVMFaultRoundTrip measures one host→device→host page
// migration cycle through the pager.
func BenchmarkUVMFaultRoundTrip(b *testing.B) {
	_, rt, fat, _ := benchSession(b)
	m, err := rt.MallocManaged(4096)
	if err != nil {
		b.Fatal(err)
	}
	lc := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Host write faults the page to the host...
		if _, err := rt.HostAccess(m, 8, true); err != nil {
			b.Fatal(err)
		}
		// ...the kernel faults it back to the device.
		if err := rt.LaunchKernel(fat, "fill", lc, crt.DefaultStream, m, kernels.F32Arg(1), 2); err != nil {
			b.Fatal(err)
		}
		if err := rt.DeviceSynchronize(); err != nil {
			b.Fatal(err)
		}
	}
}

// Example output comparing dispatch costs, for the documentation.
func ExampleSession() {
	s, err := crac.New()
	if err != nil {
		panic(err)
	}
	defer s.Close()
	rt := s.Runtime()
	if _, err := rt.Malloc(1 << 20); err != nil {
		panic(err)
	}
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		panic(err)
	}
	if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
		panic(err)
	}
	fmt.Println("restarted:", s.Generation() == 1)
	// Output: restarted: true
}
