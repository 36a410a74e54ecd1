// Package cpu reports the instruction-set extensions the vector kernels
// need, probed once at init. Every package with an assembly kernel
// reads its answer here, so there is one CPUID probe in the tree; on
// architectures without a probe every feature reads false and only the
// pure-Go kernels run.
package cpu
