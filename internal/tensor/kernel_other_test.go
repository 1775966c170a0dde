//go:build !amd64 || purego

package tensor

// asmLanes names the assembly tiles this build compiled out.
func asmLanes() []tileLane {
	const why = "not compiled: purego or not amd64"
	return []tileLane{{name: "avx2", skip: why}, {name: "avx512", skip: why}}
}
