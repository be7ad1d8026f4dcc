//go:build amd64

package blas

// Native micro-kernel registration for amd64: init installs the AVX
// exact kernels (gemm_amd64.s), with the element-wise primitives of the
// factorization and solve kernels (scale_amd64.s), and, when the CPU has
// AVX2+FMA3 with OS-enabled YMM state, the fused wide-tile kernels
// (gemm_fma_amd64.s) into the registry. Pre-AVX CPUs, non-float element
// types and edge tiles run the portable Go micro-kernels.

// dgemmKernel4x4AVX is the exact float64 kernel: VMULPD + ordered
// VADDPD per k step, bitwise identical to the oracle.
//
//go:noescape
func dgemmKernel4x4AVX(kc int, a, b, c *float64, ldc int)

// sgemmKernel16x4AVX is the exact float32 kernel: VMULPS + ordered
// VADDPS per k step over a 16x4 register tile, bitwise identical to the
// oracle.
//
//go:noescape
func sgemmKernel16x4AVX(kc int, a, b, c *float32, ldc int)

// addScaled64AVX, subScaled64AVX and their four-column forms are the
// exact element-wise primitives of the factorization and solve kernels
// (scale_amd64.s): y[i] ±= x[i]*u with VMULPD and an ordered
// VADDPD/VSUBPD per element.
//
//go:noescape
func addScaled64AVX(y, x []float64, u float64)

//go:noescape
func subScaled64AVX(y, x []float64, u float64)

//go:noescape
func addScaled4x64AVX(x, y []float64, ldy int, u [4]float64)

//go:noescape
func subScaled4x64AVX(x, y []float64, ldy int, u [4]float64)

// dgemmKernel8x4FMA is the fused float64 kernel: an 8x4 register tile
// accumulated with VFMADD231PD (one rounding per term).
//
//go:noescape
func dgemmKernel8x4FMA(kc int, a, b, c *float64, ldc int)

// sgemmKernel16x4FMA is the fused float32 kernel: a 16x4 register tile
// accumulated with VFMADD231PS.
//
//go:noescape
func sgemmKernel16x4FMA(kc int, a, b, c *float32, ldc int)

// dgemmKernel16x4AVX512 is the fused float64 kernel on the 512-bit
// datapath: a 16x4 register tile accumulated with EVEX VFMADD231PD.
//
//go:noescape
func dgemmKernel16x4AVX512(kc int, a, b, c *float64, ldc int)

func init() {
	if hasAVX() {
		registerKernel64("avx", KernelExact, 4, 4, dgemmKernel4x4AVX)
		registerKernel32("avx", KernelExact, 16, 4, sgemmKernel16x4AVX)
		registered64[len(registered64)-1].scaled64 = &scaledPrims64{
			add: addScaled64AVX, sub: subScaled64AVX,
			add4: addScaled4x64AVX, sub4: subScaled4x64AVX,
		}
	}
	// Registration order is preference order within a policy
	// (resolveFromEnv picks the first match): the AVX-512 kernel beats
	// the AVX2 one wherever ZMM state exists, so it registers first.
	if hasAVX512() {
		registerKernel64("fma-avx512", KernelFMA, 16, 4, dgemmKernel16x4AVX512)
	}
	if hasAVX2FMA() {
		registerKernel64("fma-avx2", KernelFMA, 8, 4, dgemmKernel8x4FMA)
		registerKernel32("fma-avx2", KernelFMA, 16, 4, sgemmKernel16x4FMA)
	}
}
