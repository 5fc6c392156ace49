package experiments

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPaperbenchImportsNoServiceLayer: paperbench records the paper's
// claims, so neither the command nor anything it imports, transitively,
// may import the query, registry, service, store or load layers. Their
// invariants are pinned by their own package tests.
func TestPaperbenchImportsNoServiceLayer(t *testing.T) {
	forbidden := map[string]bool{
		"pak/internal/query":    true,
		"pak/internal/registry": true,
		"pak/internal/service":  true,
		"pak/internal/store":    true,
		"pak/internal/load":     true,
	}
	moduleRoot := filepath.Join("..", "..")
	fset := token.NewFileSet()
	// via records, for each reached package, the package that first
	// imported it, so a failure prints the whole import chain.
	via := map[string]string{"pak/cmd/paperbench": ""}
	queue := []string{"pak/cmd/paperbench"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.Join(moduleRoot, filepath.FromSlash(strings.TrimPrefix(pkg, "pak/")))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range entries {
			name := entry.Name()
			if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if _, seen := via[path]; seen || !strings.HasPrefix(path, "pak/") {
					continue
				}
				via[path] = pkg
				if forbidden[path] {
					chain := path
					for p := pkg; p != ""; p = via[p] {
						chain = p + " → " + chain
					}
					t.Errorf("paperbench reaches a service layer: %s", chain)
				}
				queue = append(queue, path)
			}
		}
	}
	if _, ok := via["pak/internal/experiments"]; !ok {
		t.Fatal("the walk never reached internal/experiments; the guard proves nothing")
	}
}
