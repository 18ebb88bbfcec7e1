package bitset

import (
	"fmt"
	"sync/atomic"
)

// Kernel dispatch for the Grid run kernels.
//
// Exactly one body of Grid.AndCountRuns executes per process state: the
// pure-Go scalar body (always present, the bit-exact reference) or the AVX2
// assembly body (amd64 with AVX2, detected via CPUID+XGETBV at init). Init
// picks the body by CPU alone; the choice is a process-wide switch read per
// call, so tests can run every body on identical inputs in one process.

// KernelScalar and KernelAVX2 name the two kernel bodies for
// SetGridKernel/GridKernel.
const (
	KernelScalar = "scalar"
	KernelAVX2   = "avx2"
)

// avx2Active is the dispatch switch: true means Grid.AndCountRuns uses the
// AVX2 body. It is atomic only so tests may flip it without racing
// concurrent solves; production code sets it once at init.
var avx2Active atomic.Bool

func useAVX2Kernel() bool { return avx2Active.Load() }

func init() { avx2Active.Store(archHasAVX2) }

// GridKernel reports the name of the active Grid kernel body: "avx2" or
// "scalar".
func GridKernel() string {
	if useAVX2Kernel() {
		return KernelAVX2
	}
	return KernelScalar
}

// GridKernels returns the kernel bodies available on this machine, scalar
// first. Parity tests iterate it to run every body on the same inputs.
func GridKernels() []string {
	ks := []string{KernelScalar}
	if archHasAVX2 {
		ks = append(ks, KernelAVX2)
	}
	return ks
}

// SetGridKernel selects the Grid kernel body by name, overriding the init
// choice. It returns an error for unknown names and for bodies the machine
// cannot run ("avx2" without AVX2). Intended for tests and benchmarks; the
// switch is process-wide.
func SetGridKernel(name string) error {
	switch name {
	case KernelScalar:
		avx2Active.Store(false)
		return nil
	case KernelAVX2:
		if !archHasAVX2 {
			return fmt.Errorf("bitset: kernel %q not supported on this CPU", name)
		}
		avx2Active.Store(true)
		return nil
	default:
		return fmt.Errorf("bitset: unknown kernel %q", name)
	}
}
