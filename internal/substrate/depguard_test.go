package substrate

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestStackDoesNotImportSim guards the seams between packages, one row per
// rule. The PREMA stack (dmcs, mol, ilb, policy, core, coll, recov), the
// Charm-style baseline runtime and the three decorators (wire, faulty, trace)
// must depend only on this package, never on a concrete backend: a direct
// import of internal/sim, internal/rtm or internal/dist from one of these
// layers would silently re-couple it to one backend. And the
// wall-clock machine must know neither codecs nor sockets — a remote hop is
// a function value handed to rtm.NewShare, so every wall-clock run fills its
// ledger with the same code. This test turns either into a build-time-visible
// failure.
func TestStackDoesNotImportSim(t *testing.T) {
	rules := []struct {
		layers []string
		banned []string
		why    string
	}{
		{
			layers: []string{"dmcs", "mol", "ilb", "policy", "core", "coll", "recov", "charm", "wire", "faulty", "trace"},
			banned: []string{"prema/internal/sim", "prema/internal/rtm", "prema/internal/dist"},
			why:    "the runtimes and decorators above the seam must depend only on internal/substrate",
		},
		{
			layers: []string{"rtm"},
			banned: []string{"net", "prema/internal/wire", "prema/internal/dist"},
			why:    "the wall-clock machine stays codec- and socket-free; encoding lives in dist's link",
		},
	}
	fset := token.NewFileSet()
	for _, rule := range rules {
		for _, layer := range rule.layers {
			files, err := filepath.Glob(filepath.Join("..", layer, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) == 0 {
				t.Fatalf("no sources found for layer %s", layer)
			}
			for _, file := range files {
				if strings.HasSuffix(file, "_test.go") {
					continue // tests may build machines of any backend
				}
				f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
				if err != nil {
					t.Fatalf("parse %s: %v", file, err)
				}
				for _, imp := range f.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					if slices.Contains(rule.banned, path) {
						t.Errorf("%s imports %s; %s", file, path, rule.why)
					}
				}
			}
		}
	}
}
