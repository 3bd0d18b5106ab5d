package rodinia

import (
	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/gpusim"
	"repro/internal/par"
	"repro/internal/workloads"
)

const sradModule = "rodinia.srad"

// sradTable holds the SRAD (speckle-reducing anisotropic diffusion)
// kernels: the two-phase structure of Rodinia's srad_v1 — compute
// diffusion coefficients, then apply the divergence update.
func sradTable() map[string]workloads.Kernel {
	return map[string]workloads.Kernel{
		// args: img, coef, w, h, q0Bits — diffusion coefficient
		"srad1": func(ctx *cuda.DevCtx, _ gpusim.LaunchConfig, args []uint64) {
			w, h := int(args[2]), int(args[3])
			q0 := f32arg(args[4])
			img := ctx.Float32s(args[0], w*h)
			coef := ctx.Float32s(args[1], w*h)
			par.For(h, 64, func(lo, hi int) {
				for y := lo; y < hi; y++ {
					for x := 0; x < w; x++ {
						i := y*w + x
						c := img[i]
						if c == 0 {
							coef[i] = 0
							continue
						}
						up, down, left, right := c, c, c, c
						if y > 0 {
							up = img[i-w]
						}
						if y < h-1 {
							down = img[i+w]
						}
						if x > 0 {
							left = img[i-1]
						}
						if x < w-1 {
							right = img[i+1]
						}
						dN, dS, dW, dE := up-c, down-c, left-c, right-c
						g2 := (dN*dN + dS*dS + dW*dW + dE*dE) / (c * c)
						l := (dN + dS + dW + dE) / c
						num := 0.5*g2 - 0.0625*l*l
						den := 1 + 0.25*l
						qsqr := num / (den * den)
						cd := 1 / (1 + (qsqr-q0)/(q0*(1+q0)))
						if cd < 0 {
							cd = 0
						} else if cd > 1 {
							cd = 1
						}
						coef[i] = cd
					}
				}
			})
		},
		// args: img, coef, w, h, lambdaBits — divergence update
		"srad2": func(ctx *cuda.DevCtx, _ gpusim.LaunchConfig, args []uint64) {
			w, h := int(args[2]), int(args[3])
			lambda := f32arg(args[4])
			img := ctx.Float32s(args[0], w*h)
			coef := ctx.Float32s(args[1], w*h)
			// Every pixel reads its south and east neighbours as they were
			// before the update: from a snapshot, so a row on a block
			// boundary never reads the next block's row while its worker
			// rewrites it.
			prev := append([]float32(nil), img...)
			par.For(h, 64, func(lo, hi int) {
				for y := lo; y < hi; y++ {
					for x := 0; x < w; x++ {
						i := y*w + x
						c := prev[i]
						cC := coef[i]
						cS, cE := cC, cC
						down, right := c, c
						if y < h-1 {
							cS = coef[i+w]
							down = prev[i+w]
						}
						if x < w-1 {
							cE = coef[i+1]
							right = prev[i+1]
						}
						div := cS*(down-c) + cE*(right-c)
						img[i] = c + 0.25*lambda*div
					}
				}
			})
		},
	}
}

// SRAD is Rodinia's speckle-reducing anisotropic diffusion
// (2048 2048 ... 0.5 1000 in the paper).
func SRAD() *workloads.App {
	return &workloads.App{
		Name:      "SRAD",
		PaperArgs: "2048 2048 0 127 0 127 0.5 1000",
		Char: workloads.Characteristics{
			Description: "speckle-reducing anisotropic diffusion (two kernels per iteration)",
		},
		KernelTables: singleTable(sradModule, sradTable()),
		Run: func(rt crt.Runtime, cfg workloads.RunConfig) (workloads.Result, error) {
			return workloads.Measure(rt, "SRAD", func() (float64, map[string]float64, error) {
				e := workloads.NewEnv(rt)
				e.RegisterModule(sradModule, sradTable())

				side := workloads.ScaleInt(512, cfg.EffScale(), 32)
				iters := workloads.ScaleInt(120, cfg.EffScale(), 8)
				px := side * side
				const lambda = 0.5

				hImg := e.AppAlloc(uint64(4 * px))
				iv := e.HostF32(hImg, px)
				if e.Err() != nil {
					return 0, nil, e.Err()
				}
				rng := workloads.NewLCG(cfg.Seed + 12)
				for i := range iv {
					iv[i] = 1 + rng.Float32() // speckled intensity
				}

				dImg := e.Malloc(uint64(4 * px))
				dCoef := e.Malloc(uint64(4 * px))
				e.Memcpy(dImg, hImg, uint64(4*px), crt.MemcpyHostToDevice)

				lc := workloads.Launch2D(side, side)
				for it := 0; it < iters; it++ {
					e.Launch(sradModule, "srad1", lc, crt.DefaultStream,
						dImg, dCoef, uint64(side), uint64(side), f32bits(0.05))
					e.Launch(sradModule, "srad2", lc, crt.DefaultStream,
						dImg, dCoef, uint64(side), uint64(side), f32bits(lambda))
					if cfg.Hook != nil {
						if err := cfg.Hook(it); err != nil {
							return 0, nil, err
						}
					}
					if e.Err() != nil {
						return 0, nil, e.Err()
					}
				}
				e.DeviceSync()
				e.Memcpy(hImg, dImg, uint64(4*px), crt.MemcpyDeviceToHost)
				out := e.HostF32(hImg, px)
				if e.Err() != nil {
					return 0, nil, e.Err()
				}
				var sum float64
				for _, v := range out {
					sum += float64(v)
				}
				return sum, nil, nil
			})
		},
	}
}
