// Package clitest is the harness the cmd/*/main_test.go files share: run a
// CLI's run function in-process, compare its output to a golden file
// recorded from a reference build, and assert usage rejections.
package clitest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// RunFunc is the testable body of a CLI: main is os.Exit(run(os.Args[1:],
// os.Stdout, os.Stderr)).
type RunFunc func(args []string, stdout, stderr io.Writer) int

// Run invokes the CLI in-process and returns its exit code and output.
func Run(run RunFunc, args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// Golden runs an invocation that must succeed and compares its stdout to
// testdata/<golden>. Occurrences of dir (a temporary output directory) in
// the output are rewritten to "t", the directory the goldens were recorded
// with.
func Golden(t *testing.T, run RunFunc, golden, dir string, args ...string) {
	t.Helper()
	code, out, errOut := Run(run, args...)
	if code != 0 {
		t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errOut)
	}
	if dir != "" {
		out = strings.ReplaceAll(out, dir, "t")
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("%v: stdout differs from testdata/%s:\n got:\n%s\nwant:\n%s", args, golden, out, want)
	}
}

// Rejected asserts that an invocation is refused as a usage error: exit
// code 2, nothing on stdout, and a "<cmd>: ..." line on stderr, which it
// returns.
func Rejected(t *testing.T, run RunFunc, cmd string, args ...string) string {
	t.Helper()
	code, out, errOut := Run(run, args...)
	if code != 2 || out != "" || !strings.HasPrefix(errOut, cmd+": ") {
		t.Errorf("%s %v: exit %d, stdout %q, stderr %q; want exit 2, no stdout, a %q-prefixed message",
			cmd, args, code, out, errOut, cmd+": ")
	}
	return errOut
}

// SHA256Files compares the files a run wrote into dir against
// testdata/<sums>, a sha256sum(1) listing ("<hex>  <name>" lines).
func SHA256Files(t *testing.T, sums, dir string) {
	t.Helper()
	list, err := os.ReadFile(filepath.Join("testdata", sums))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		want, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("testdata/%s: malformed line %q", sums, line)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: sha256 %s, want %s (testdata/%s)", name, got, want, sums)
		}
	}
}
