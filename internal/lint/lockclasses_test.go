package lint

import (
	"go/types"
	"path/filepath"
	"testing"

	"optcc/internal/lint/loader"
)

// TestLockClassesNameMutexFields loads the module and requires every
// lockClasses key to name a sync.Mutex field of a named type in it. A class
// whose field was renamed matches no acquisition, so its rule would check
// nothing and lockorder would still pass.
func TestLockClassesNameMutexFields(t *testing.T) {
	pkgs, err := loader.Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				f := st.Field(i)
				if key := name + "." + f.Name(); lockClasses[key] != nil && isSyncMutex(f.Type()) {
					found[key] = true
				}
			}
		}
	}
	for key := range lockClasses {
		if !found[key] {
			t.Errorf("lockClasses key %q names no sync.Mutex field of a type in the module", key)
		}
	}
}

func isSyncMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Mutex"
}
