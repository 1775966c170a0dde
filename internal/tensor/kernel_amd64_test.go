//go:build !purego

package tensor

import "testing"

// asmLanes are the assembly tiles in the order init prefers them, each
// skipped where this CPU cannot run it.
func asmLanes() []tileLane {
	avx2, avx512 := hostLanes()
	lanes := []tileLane{
		{name: "avx2", tile: avx2Tile},
		{name: "avx512", tile: avx512Tile},
	}
	if !avx2 {
		lanes[0].skip = "no usable AVX2"
	}
	if !avx512 {
		lanes[1].skip = "no usable AVX-512F"
	}
	return lanes
}

// TestCPULanes tables cpuLanes: a lane needs its CPUID feature bits and the
// register state the OS saves, in XCR0.
func TestCPULanes(t *testing.T) {
	const (
		osxsave, avx      = 1 << 27, 1 << 28
		avx2Bit, avx512f  = 1 << 5, 1 << 16
		ecx1              = osxsave | avx
		ebx7              = avx2Bit | avx512f
		ymmState, zmmFull = 0x06, 0xE6
	)
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		avx2, avx512              bool
	}{
		{"AVX-512 host", 0x1b, ecx1, ebx7, zmmFull, true, true},
		{"x87 and higher XCR0 bits set too", 0x1b, ecx1, ebx7, 0x2E7, true, true},
		{"AVX2 only", 0x1b, ecx1, avx2Bit, zmmFull, true, false},
		{"AVX512F without ZMM state", 0x1b, ecx1, ebx7, ymmState, true, false},
		{"AVX512F with opmask but not the upper ZMM", 0x1b, ecx1, ebx7, 0x26, true, false},
		{"AVX512F without AVX2", 0x1b, ecx1, avx512f, zmmFull, false, false},
		{"no YMM state", 0x1b, ecx1, ebx7, 0x02, false, false},
		{"no OSXSAVE", 0x1b, avx, ebx7, 0, false, false},
		{"no OSXSAVE, XCR0 as if read", 0x1b, avx, ebx7, zmmFull, false, false},
		{"no AVX", 0x1b, osxsave, ebx7, zmmFull, false, false},
		{"maxLeaf < 7", 6, ecx1, ebx7, zmmFull, false, false},
		{"maxLeaf 7", 7, ecx1, ebx7, zmmFull, true, true},
	} {
		avx2, avx512 := cpuLanes(c.maxLeaf, c.ecx1, c.ebx7, c.xcr0)
		if avx2 != c.avx2 || avx512 != c.avx512 {
			t.Errorf("%s: cpuLanes(%#x, %#x, %#x, %#x) = (avx2 %v, avx512 %v), want (%v, %v)",
				c.name, c.maxLeaf, c.ecx1, c.ebx7, c.xcr0, avx2, avx512, c.avx2, c.avx512)
		}
	}
}
