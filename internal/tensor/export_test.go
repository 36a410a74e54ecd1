package tensor

import "fedms/internal/cpu"

// HaveAVX2 and SetAVX2 reach the kernel switch from the external test
// package: SetAVX2 turns the AVX2 pass on or off and returns the
// function that restores the previous setting.
func HaveAVX2() bool { return cpu.AVX2 }

func SetAVX2(on bool) (restore func()) {
	saved := gemmAVX2
	gemmAVX2 = on && cpu.AVX2
	return func() { gemmAVX2 = saved }
}
