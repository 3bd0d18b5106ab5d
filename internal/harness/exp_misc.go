package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	crac "repro"
	"repro/internal/cracrt"
	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/proxy"
	"repro/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:    "intro",
		Title: "TOP500 systems with NVIDIA GPUs (introduction chart)",
		Paper: "growth from 0 in 2010 to 136 of 500 in Nov 2019",
		Run:   runIntro,
	})
	register(&Experiment{
		ID:    "ablations",
		Title: "Design-choice ablations (Section 3 motivations, reproduced)",
		Paper: "naive library restore fails post-UVM; ASLR breaks replay; active-malloc images beat whole-arena; CRUM shadow UVM fails on cross-stream writes; dispatch-cost ladder",
		Run:   runAblations,
	})
	register(&Experiment{
		ID:    "pause",
		Title: "Application-visible checkpoint pause vs total latency: full vs delta",
		Paper: "beyond the paper: the stop-the-world pause shrinks to the epoch cut when the image write overlaps execution (PhoenixOS/CRIUgpu direction)",
		Run:   runPause,
	})
}

// runPause measures the stop-the-world window of full and incremental
// checkpoints on the standard sparse-update workload: only the drain +
// epoch cut + CoW arming pauses the application.
func runPause(opt Options) ([]*Table, error) {
	t := &Table{
		ID:    "pause",
		Title: "Checkpoint pause vs total latency (sparse-update workload)",
		Columns: []string{"Image", "Total (ms)", "Pause (ms)", "Pause share",
			"Payload (MiB)"},
	}
	scale := opt.EffScale()
	bufSize := uint64(float64(2<<20) * scale)
	if bufSize < 64<<10 {
		bufSize = 64 << 10
	}
	const bufs = 16
	iters := opt.EffIters()

	type policy struct {
		kind string
		opts []crac.Option
	}
	policies := []policy{
		{"full", nil},
		{"delta", []crac.Option{crac.WithIncremental(64)}},
	}
	for _, p := range policies {
		opt.logf("pause: measuring %s", p.kind)
		var total, pause time.Duration
		var payload uint64
		err := func() error {
			s, err := crac.New(append([]crac.Option{crac.WithWorkers(0)}, p.opts...)...)
			if err != nil {
				return err
			}
			defer s.Close()
			rt := s.Runtime()
			var host, dev []uint64
			for i := 0; i < bufs; i++ {
				h, err := rt.HostAlloc(bufSize)
				if err != nil {
					return err
				}
				if err := rt.Memset(h, byte(i+1), bufSize); err != nil {
					return err
				}
				host = append(host, h)
				d, err := rt.Malloc(bufSize)
				if err != nil {
					return err
				}
				if err := rt.Memset(d, byte(0x21*i+3), bufSize); err != nil {
					return err
				}
				dev = append(dev, d)
			}
			store := crac.NewMemStore()
			ctx := context.Background()
			if _, err := s.CheckpointTo(ctx, store, "base"); err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				if err := rt.Memset(host[i%bufs]+4096, byte(i), bufSize/8); err != nil {
					return err
				}
				if err := rt.Memset(dev[i%bufs], byte(i+1), bufSize); err != nil {
					return err
				}
				st, err := s.CheckpointTo(ctx, store, fmt.Sprintf("gen%d", i))
				if err != nil {
					return err
				}
				total += st.Duration
				pause += st.PauseDuration
				payload += st.PayloadWritten
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
		n := time.Duration(iters)
		t.AddRow(p.kind,
			fmt.Sprintf("%.2f", float64((total/n).Microseconds())/1000),
			fmt.Sprintf("%.3f", float64((pause/n).Microseconds())/1000),
			fmt.Sprintf("%.1f%%", 100*float64(pause)/float64(total)),
			fmt.Sprintf("%.1f", float64(payload)/float64(iters)/(1<<20)))
	}
	t.Note("the pause is drain + epoch cut + copy-on-write arming; the image write and store commit overlap execution")
	t.Note("a stop-the-world checkpoint's pause is its total: the Total column is what the pause used to be")
	t.Note("images are byte-identical to the live-view reference at the same cut (DESIGN.md invariant 10)")
	return []*Table{t}, nil
}

func runIntro(opt Options) ([]*Table, error) {
	t := &Table{
		ID:      "intro",
		Title:   "NVIDIA GPUs among TOP500 supercomputers (November lists)",
		Columns: []string{"Year", "# systems with NVIDIA GPUs"},
	}
	// Values read from the paper's introduction chart; the Nov 2019
	// count (136 of 500) is stated in the text.
	series := []struct {
		year  int
		count int
	}{
		{2010, 8}, {2011, 15}, {2012, 31}, {2013, 38}, {2014, 45},
		{2015, 52}, {2016, 60}, {2017, 87}, {2018, 122}, {2019, 136},
	}
	for _, p := range series {
		t.AddRow(fmt.Sprintf("%d", p.year), fmt.Sprintf("%d", p.count))
	}
	t.Note("static series transcribed from the paper's introduction; 136/500 for Nov 2019 is stated in Section 1")
	return []*Table{t}, nil
}

func runAblations(opt Options) ([]*Table, error) {
	t := &Table{
		ID:      "ablations",
		Title:   "Design-choice ablations",
		Columns: []string{"Ablation", "Outcome", "Detail"},
	}

	// 1. Naive save/restore of the CUDA library's in-memory state (the
	// pre-CUDA-4.0 approach) fails once UVM has been touched.
	if err := ablNaiveRestore(t); err != nil {
		return nil, err
	}
	// 2. Log-and-replay with ASLR enabled detects an address mismatch.
	if err := ablASLR(t); err != nil {
		return nil, err
	}
	// 3. Active-malloc checkpointing vs whole-arena checkpointing.
	if err := ablActiveMalloc(t); err != nil {
		return nil, err
	}
	// 4. CRUM's shadow-page UVM fails when two streams write the same
	// managed region; CRAC runs the identical program.
	if err := ablShadowConflict(t, opt); err != nil {
		return nil, err
	}
	// 5. Dispatch-cost ladder: per-call latency of each binding.
	if err := ablDispatchLadder(t, opt); err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

func ablNaiveRestore(t *Table) error {
	lib, err := cuda.NewLibrary(cuda.Config{})
	if err != nil {
		return err
	}
	defer lib.Destroy()
	if _, err := lib.MallocManaged(1 << 20); err != nil { // touch UVM
		return err
	}
	snapshot := lib.OpaqueStateSnapshot()

	fresh, err := cuda.NewLibrary(cuda.Config{})
	if err != nil {
		return err
	}
	defer fresh.Destroy()
	if err := fresh.RestoreOpaqueState(snapshot); err != nil {
		return err
	}
	_, err = fresh.Malloc(4096)
	if cuda.CodeOf(err) != cuda.ErrorStateCorrupt {
		return fmt.Errorf("ablation 1: expected corrupted library, got %v", err)
	}
	t.AddRow("naive library save/restore (pre-CUDA-4.0 style)", "FAILS as expected",
		"restored state inconsistent after UVM use (Section 3.1)")
	return nil
}

func ablASLR(t *Table) error {
	s, err := crac.New(crac.WithASLR(99))
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.Runtime().Malloc(1 << 20); err != nil {
		return err
	}
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		return err
	}
	err = s.Restart(context.Background(), bytes.NewReader(img.Bytes()))
	if err == nil {
		t.AddRow("log-and-replay with ASLR enabled", "layout happened to match", "rerun with another seed")
		return nil
	}
	if !errors.Is(err, cracrt.ErrReplayMismatch) {
		return fmt.Errorf("ablation 2: expected replay mismatch, got %v", err)
	}
	t.AddRow("log-and-replay with ASLR enabled", "FAILS as expected",
		"replay address mismatch detected; CRAC disables ASLR via personality() (Section 3.2.4)")
	return nil
}

func ablActiveMalloc(t *Table) error {
	s, err := crac.New()
	if err != nil {
		return err
	}
	defer s.Close()
	rt := s.Runtime()
	// A fragmented allocation history: many allocations, most freed.
	var keep []uint64
	for i := 0; i < 200; i++ {
		a, err := rt.Malloc(256 << 10)
		if err != nil {
			return err
		}
		if i%10 == 0 {
			keep = append(keep, a)
		} else if err := rt.Free(a); err != nil {
			return err
		}
	}
	devMapped, devLive, _, _, _, _ := s.Library().ArenaFootprint()
	var img bytes.Buffer
	st, err := s.Checkpoint(context.Background(), &img)
	if err != nil {
		return err
	}
	t.AddRow("active-malloc vs whole-arena checkpointing",
		fmt.Sprintf("image saves %s of %s mapped arena", FmtBytes(devLive), FmtBytes(devMapped)),
		fmt.Sprintf("%dx smaller device payload; %d active of 200 allocations (Section 3.2.3)",
			int(float64(devMapped)/float64(maxU64(devLive, 1))), len(keep)))
	_ = st
	return nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// ablShadowConflict launches two kernels on different streams writing
// the same managed region: CRAC handles it (hardware page faults), the
// CRUM-style proxy rejects it.
func ablShadowConflict(t *Table, opt Options) error {
	run := func(rt crt.Runtime) error {
		fat, err := rt.RegisterFatBinary(kernels.Module)
		if err != nil {
			return err
		}
		for name, k := range kernels.Table() {
			if err := rt.RegisterFunction(fat, name, k); err != nil {
				return err
			}
		}
		mgd, err := rt.MallocManaged(1 << 16)
		if err != nil {
			return err
		}
		s1, err := rt.StreamCreate()
		if err != nil {
			return err
		}
		s2, err := rt.StreamCreate()
		if err != nil {
			return err
		}
		n := uint64(1 << 14)
		// Both streams write into the same managed buffer: disjoint
		// elements, split mid-page so the page holding the split is
		// written from both.
		split := n/2 - 512
		if err := rt.LaunchKernel(fat, "fill", workloads.Launch1D(int(n)), s1,
			mgd, kernels.F32Arg(1), split); err != nil {
			return err
		}
		if err := rt.LaunchKernel(fat, "fill", workloads.Launch1D(int(n)), s2,
			mgd+4*split, kernels.F32Arg(2), n-split); err != nil {
			return err
		}
		return rt.DeviceSynchronize()
	}

	// CRAC: must succeed.
	s, err := crac.New()
	if err != nil {
		return err
	}
	cracErr := run(s.Runtime())
	s.Close()
	if cracErr != nil {
		return fmt.Errorf("ablation 4: CRAC failed the cross-stream UVM write: %v", cracErr)
	}
	// CRUM-style proxy: must reject.
	p, err := proxy.New(proxy.Config{})
	if err != nil {
		return err
	}
	proxyErr := run(p)
	p.Close()
	if !errors.Is(proxyErr, proxy.ErrShadowConflict) {
		return fmt.Errorf("ablation 4: expected shadow conflict from proxy, got %v", proxyErr)
	}
	t.AddRow("two streams writing one managed region",
		"CRAC: ok; CRUM shadow UVM: REJECTED",
		"the UVM limitation of proxy designs (Section 1 item 2)")
	return nil
}

// ablDispatchLadder measures the per-call cost of a small CUDA call
// (cudaMemset of one page) under every binding.
func ablDispatchLadder(t *Table, opt Options) error {
	reps := 2000
	if opt.Quick {
		reps = 200
	}
	modes := []Mode{ModeNative, ModeCRACFSGSBase, ModeCRAC, ModeProxyCMA, ModeProxyPipe}
	var cells []string
	for _, mode := range modes {
		r, err := NewRunner(mode, gpusim.TeslaV100())
		if err != nil {
			return err
		}
		addr, err := r.RT.Malloc(4096)
		if err != nil {
			r.Close()
			return err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := r.RT.Memset(addr, byte(i), 4096); err != nil {
				r.Close()
				return err
			}
		}
		perCall := time.Since(start) / time.Duration(reps)
		r.Close()
		cells = append(cells, fmt.Sprintf("%v %.2fus", mode, float64(perCall.Nanoseconds())/1e3))
	}
	t.AddRow("per-call dispatch cost (cudaMemset 4KB)",
		cells[0]+"; "+cells[1]+"; "+cells[2],
		cells[3]+"; "+cells[4])
	return nil
}
