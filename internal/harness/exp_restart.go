package harness

import (
	"context"
	"fmt"
	"os"
	"time"

	crac "repro"
	"repro/internal/crt"
	"repro/internal/kernels"
	"repro/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:    "restart",
		Title: "Time-to-first-kernel: waited vs unwaited restart",
		Paper: "beyond the paper: restore latency dominates GPU C/R in serving (PhoenixOS/CRIUgpu); lazy restart shrinks it to metadata + the active-set rebuild",
		Run:   runRestart,
	})
}

// runRestart measures, on the standard sparse-update workload, how
// long a restarted session takes to complete its first kernel: the
// waited restart (RestartFrom) materializes the whole image first,
// while the unwaited one (RestartAsync) rebuilds only the active set, faults
// the kernel's pages in, and drains the rest in the background.
func runRestart(opt Options) ([]*Table, error) {
	t := &Table{
		ID:    "restart",
		Title: "Restart time-to-first-kernel (waited vs unwaited)",
		Columns: []string{"Path", "Visible (ms)", "TTFK (ms)", "Drain (ms)",
			"Image", "Speedup"},
	}
	scale := opt.EffScale()
	bufSize := uint64(float64(2<<20) * scale)
	if bufSize < 64<<10 {
		bufSize = 64 << 10
	}
	const bufs = 16
	iters := opt.EffIters()

	dir, err := os.MkdirTemp("", "crac-restart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := crac.NewDirStore(dir, 0, crac.WithNoSync())
	if err != nil {
		return nil, err
	}

	s, err := crac.New(crac.WithWorkers(0))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rt := s.Runtime()
	fat, err := rt.RegisterFatBinary(kernels.Module)
	if err != nil {
		return nil, err
	}
	for name, k := range kernels.Table() {
		if err := rt.RegisterFunction(fat, name, k); err != nil {
			return nil, err
		}
	}
	var probe uint64
	for i := 0; i < bufs; i++ {
		h, err := rt.HostAlloc(bufSize)
		if err != nil {
			return nil, err
		}
		if err := rt.Memset(h, byte(i+1), bufSize); err != nil {
			return nil, err
		}
		d, err := rt.Malloc(bufSize)
		if err != nil {
			return nil, err
		}
		if err := rt.Memset(d, byte(0x21*i+3), bufSize); err != nil {
			return nil, err
		}
		probe = d
	}
	ctx := context.Background()
	if _, err := s.CheckpointTo(ctx, store, "img"); err != nil {
		return nil, err
	}
	imgSize := uint64(0)
	if fi, err := os.Stat(dir + "/img.img"); err == nil {
		imgSize = uint64(fi.Size())
	}

	firstKernel := func() error {
		if err := rt.LaunchKernel(fat, "fill", workloads.Launch1D(int(bufSize/4)), crt.DefaultStream,
			probe, kernels.F32Arg(2), bufSize/4); err != nil {
			return err
		}
		return rt.DeviceSynchronize()
	}

	var waitedTTFK, lazyTTFK, lazyVisible, lazyDrain time.Duration
	for i := 0; i < iters; i++ {
		opt.logf("restart: waited iteration %d", i)
		t0 := time.Now()
		if err := s.RestartFrom(ctx, store, "img"); err != nil {
			return nil, err
		}
		if err := firstKernel(); err != nil {
			return nil, err
		}
		waitedTTFK += time.Since(t0)
	}
	for i := 0; i < iters; i++ {
		opt.logf("restart: unwaited iteration %d", i)
		t0 := time.Now()
		p, err := s.RestartAsync(ctx, store, "img")
		if err != nil {
			return nil, err
		}
		visible := time.Since(t0)
		if err := firstKernel(); err != nil {
			return nil, err
		}
		lazyTTFK += time.Since(t0)
		st, err := p.Wait()
		if err != nil {
			return nil, err
		}
		lazyVisible += visible
		lazyDrain += st.RestoreBackgroundDuration
	}
	n := time.Duration(iters)
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.2f", float64((d/n).Microseconds())/1000)
	}
	speedup := 0.0
	if lazyTTFK > 0 {
		speedup = float64(waitedTTFK) / float64(lazyTTFK)
	}
	t.AddRow("waited (RestartFrom)", ms(waitedTTFK), ms(waitedTTFK), "0.00", FmtBytes(imgSize), "1.0x")
	t.AddRow("unwaited (RestartAsync)", ms(lazyVisible), ms(lazyTTFK), ms(lazyDrain), FmtBytes(imgSize),
		fmt.Sprintf("%.1fx", speedup))
	t.Note("TTFK = restart start until one kernel launch + sync completes on the restored session")
	t.Note("both rows are the one restart route; unwaited: execution resumes after metadata + the active-set rebuild, shards fault in on access, the prefetcher drains in the background (device first, managed last)")
	return []*Table{t}, nil
}
