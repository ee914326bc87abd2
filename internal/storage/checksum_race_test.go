//go:build race

package storage

import "testing"

// TestChecksumKernelOffUnderRace pins the race build to the pure-Go fold:
// the race detector sees no memory access made in assembly, and the
// reclamation tests rely on it seeing every payload byte a read folds.
func TestChecksumKernelOffUnderRace(t *testing.T) {
	if foldKernel {
		t.Fatal("the AVX2 checksum kernel is on in a race build")
	}
}
