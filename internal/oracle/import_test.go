package oracle

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// module is the import-path prefix of this module's packages.
const module = "clocksync/"

// imports returns the import paths of pkg's non-test files, resolving the
// in-module pkg to its directory under root.
func imports(t *testing.T, root, pkg string) []string {
	t.Helper()
	p, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(pkg, module)), 0)
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return p.Imports
}

// TestImportBoundary: the oracle imports only the standard library, and no
// package of the solve path reaches it from non-test code, directly or
// transitively, so the judge never shares code with what it judges.
func TestImportBoundary(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	const self = module + "internal/oracle"
	for _, imp := range imports(t, root, self) {
		if strings.HasPrefix(imp, module) || strings.Contains(strings.Split(imp, "/")[0], ".") {
			t.Errorf("internal/oracle imports %s; it must import only the standard library", imp)
		}
	}
	for _, name := range []string{"graph", "core", "delay", "trace", "round", "dist", "netsync"} {
		start := module + "internal/" + name
		importer := map[string]string{start: ""}
		for queue := []string{start}; len(queue) > 0; queue = queue[1:] {
			for _, imp := range imports(t, root, queue[0]) {
				if _, seen := importer[imp]; seen || !strings.HasPrefix(imp, module) {
					continue
				}
				importer[imp] = queue[0]
				queue = append(queue, imp)
			}
		}
		if by, ok := importer[self]; ok {
			t.Errorf("%s reaches internal/oracle in non-test code (imported by %s)", start, by)
		}
	}
}
