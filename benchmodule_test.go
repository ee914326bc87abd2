package optcc

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModule puts the benchmark under tier-1. bench/ is a module of its
// own (the benchmark builds it from its checkout), so `go build ./... && go
// test ./...` at the root never compiles it — and it compiles against
// internal/sim, internal/online and internal/storage. This test vets it and
// runs its short tests from here, so an engine change that breaks the
// benchmark fails the root module's tests.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the nested module's vet and tests")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	for _, args := range [][]string{
		{"-C", "bench", "vet", "./..."},
		{"-C", "bench", "test", "-short", "./..."},
	} {
		cmd := exec.Command(goBin, args...)
		cmd.Env = append(os.Environ(), "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
