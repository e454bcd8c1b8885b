// Package reach holds one test: every function declared in non-test
// internal/ code is linked into at least one shipped binary, or is on the
// allowlist below with a reason.
//
// The linker is the judge. Every main under cmd/, examples/ and ./benchmark
// is built with inlining off for this module (-gcflags='prema/...=-l', so a
// called function keeps its own symbol), `go tool nm` lists what the linker
// kept, and go/parser lists what the source declares. What is declared and
// not kept is reached by no product, whatever its tests say.
//
// What would blind it:
//   - reflect: the linker keeps every exported method of every reachable
//     type as soon as a product calls reflect.Value.MethodByName or
//     reflect.Value.Method with a non-constant argument (text/template and
//     html/template do) — dead exported methods would then pass. No product
//     does today.
//   - interface names: the linker keeps any method of a reachable type whose
//     name and signature match a method of an interface some product calls,
//     so a dead Name() string, String() string, Len() int or Error() string
//     passes here whenever fmt.Stringer, sort.Interface or error is in play.
//     The census for those: list each non-test method whose name and
//     signature match an interface method, then grep for a non-test caller,
//     remembering that fmt calls String and Error through %v and %s.
package reach

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const module = "prema"

// allowed lists the declared functions no product links that stay anyway.
// A symbol is written as the linker writes it (pkg.F, pkg.T.M, pkg.(*T).M);
// one that ends in "." stands for every function of that package. An entry
// that is linked after all, or names nothing, fails the test: the list can
// only shrink.
var allowed = []struct{ symbol, reason string }{
	// Test support: harnesses and references other packages' tests run against.
	{"prema/internal/clitest.", "the in-process golden/rejection harness of every cmd/*/main_test.go"},
	{"prema/internal/conformance.", "the backend-neutral DMCS+MOL conformance program rtm's tests run on every machine"},
	{"prema/internal/trace.(*Collector).Recorder", "how the equivalence tests (sim, bench, rtm, substrate) read one processor's stream"},
	{"prema/internal/trace.(*Recorder).Events", "how the equivalence tests (sim, bench, rtm, substrate) read one processor's stream, event by event; the exporters read it a run at a time"},
	{"prema/internal/graph.Imbalance", "the balance oracle of graph's, partition's and parmetis' tests"},
	{"prema/internal/charm.GreedyLB.Remap", "row 6 of DESIGN §5's ablation table (TestAblations): Greedy vs Refine under persistent and moving-spike weights, the evidence for EXPERIMENTS deviation 3"},
	// Named by an open ROADMAP item.
	{"prema/internal/mol.RegisterDataCodec", "ROADMAP item 12(a) ships dist checkpoints through it"},
}

func TestReach(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every product binary")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	linked := linkedSymbols(t, root)
	declared := declaredFuncs(t, root)

	covers := func(entry, sym string) bool {
		return entry == sym || strings.HasSuffix(entry, ".") && strings.HasPrefix(sym, entry) &&
			!strings.Contains(sym[len(entry):], "/")
	}
	used := make([]bool, len(allowed))
	for _, sym := range declared {
		isLinked := linked[sym]
		at := slices.IndexFunc(allowed, func(a struct{ symbol, reason string }) bool { return covers(a.symbol, sym) })
		switch {
		case at >= 0:
			used[at] = true
			if isLinked {
				t.Errorf("allowlist entry %s is stale: %s is linked into a product", allowed[at].symbol, sym)
			}
		case !isLinked:
			t.Errorf("%s is linked into no product binary: delete it, or allowlist it with a reason", sym)
		}
	}
	for i, a := range allowed {
		if !used[i] {
			t.Errorf("allowlist entry %s is stale: no such function is declared", a.symbol)
		}
		if a.reason == "" {
			t.Errorf("allowlist entry %s has no reason", a.symbol)
		}
	}
}

// linkedSymbols builds every product main and returns the module's function
// symbols the linker kept in any of them, generic instances under their
// uninstantiated name.
func linkedSymbols(t *testing.T, root string) map[string]bool {
	t.Helper()
	out := t.TempDir()
	linked := map[string]bool{}
	// One build and one output directory per tree: cmd/meshgen and
	// examples/meshgen share a basename, and a shared directory would keep
	// only one of them.
	for i, pattern := range []string{"./cmd/...", "./examples/...", "./benchmark"} {
		dir := filepath.Join(out, strconv.Itoa(i)) + string(filepath.Separator)
		run(t, root, "go", "build", "-gcflags="+module+"/...=-l", "-o", dir, pattern)
		bins, err := filepath.Glob(dir + "*")
		if err != nil || len(bins) == 0 {
			t.Fatalf("%s built no binary (%v)", pattern, err)
		}
		for _, bin := range bins {
			for _, line := range strings.Split(run(t, root, "go", "tool", "nm", bin), "\n") {
				// "  4a1b20 T prema/internal/sim.(*Engine).Run"; the name may hold spaces.
				f := strings.Fields(line)
				for len(f) > 0 && !strings.HasPrefix(f[0], module+"/") {
					f = f[1:]
				}
				if len(f) == 0 {
					continue
				}
				sym := strings.Join(f, " ")
				if open := strings.IndexByte(sym, '['); open >= 0 {
					sym = sym[:open] + sym[strings.LastIndexByte(sym, ']')+1:]
				}
				linked[sym] = true
			}
		}
	}
	return linked
}

// declaredFuncs parses the non-test sources under internal/ and returns the
// linker's name of every function and method, sorted.
func declaredFuncs(t *testing.T, root string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var syms []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			syms = append(syms, pkg+"."+receiver(fn)+fn.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(syms)
	return syms
}

// receiver renders a method's receiver as the linker does: "T." or "(*T).",
// without type parameters; "" for a plain function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ, ptr := fn.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

func run(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v", name, strings.Join(args, " "), err)
	}
	return string(out)
}
