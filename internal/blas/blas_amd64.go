package blas

// useAVX is fixed at package init from CPUID and XGETBV: the CPU must
// implement AVX and the OS must save the YMM state across context
// switches. Without both, every kernel runs its portable loop.
var useAVX = detectAVX()

// HasAVX reports whether this process runs the AVX kernels: the ones
// in this package and the dense GEMM and CSR row kernels built on the
// same probe.
func HasAVX() bool { return useAVX }

func detectAVX() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX — XGETBV is usable
		avx     = 1 << 28 // CPUID.1:ECX — AVX instructions
		ymmOS   = 0b110   // XCR0 — XMM and YMM state enabled by the OS
	)
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&ymmOS == ymmOS
}

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

// The AVX bodies of Axpy, Add and Scal over the first
// blocks·8 elements, implemented in blas_amd64.s. The exported
// functions call them for the longest multiple-of-8 prefix and finish
// the rest with the portable loop.

//go:noescape
func axpyAVX(a float32, x, y *float32, blocks int)

//go:noescape
func addAVX(x, y *float32, blocks int)

//go:noescape
func scalAVX(a float32, x *float32, blocks int)
