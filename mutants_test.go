package htmtree_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is a negative control kept as a test: one deliberate fault in
// one file, and the test that must catch it. A row is a claim that a
// test is not blind — "this test fails when the code it guards is
// wrong" — that any later change can re-check by running the row.
type mutant struct {
	name string
	// file is the mutated file, relative to the module root; snippet
	// must occur in it exactly once, and is replaced by replacement.
	file, snippet, replacement string
	// args are the go test arguments that must fail on the mutant:
	// package, -run and any other flags.
	args []string
	// want is text the failing run must print, so a mutant that fails
	// to compile, or fails some other way, does not count as killed.
	want string
}

var mutants = []mutant{
	{
		name:        "borrowed read log returned unzeroed",
		file:        "internal/htm/tx.go",
		snippet:     "\tl := tx.reads\n\tclear(l)\n",
		replacement: "\tl := tx.reads\n",
		args:        []string{"./internal/htm", "-run", "TestBorrowedLogGoesBackOnEveryEnd"},
		want:        "gave back a log holding a cell",
	},
	{
		name:        "commit locks every entry, not once per version word",
		file:        "internal/htm/tx.go",
		snippet:     "\t\tif v&lockBit != 0 && tx.holds(&locks, w.ver, i) {\n\t\t\tcontinue\n\t\t}\n",
		replacement: "",
		args:        []string{"./internal/htm", "-run", "TestBlockCommitLocksOnce"},
		want:        "entries of one block: the commit aborted",
	},
	{
		name:        "readBack looks entries up by version word instead of by storage",
		file:        "internal/htm/cell.go",
		snippet:     "\tif c := unsafe.Pointer(p); tx.findWrite(c) {\n\t\tif buf := tx.readBack(c); buf != nil {\n\t\t\treturn buf.word, buf.word2\n\t\t}\n\t}\n",
		replacement: "\tfor i := range tx.writes {\n\t\tif buf := &tx.writes[i]; buf.ver == &b.ver {\n\t\t\treturn buf.word, buf.word2\n\t\t}\n\t}\n",
		args:        []string{"./internal/htm", "-run", "TestBlockReadsBackByEntry"},
		want:        "want (30,31) from memory",
	},
	{
		name:        "range walk restarts at 0",
		file:        "internal/engine/handle.go",
		snippet:     "h.Range = h.Range[:h.rangeBase]",
		replacement: "h.Range = h.Range[:0]",
		args:        []string{"./internal/modelcheck", "-run", "TestRangeQueryKeepsPrefix"},
		want:        "lost the caller's prefix",
	},
	{
		name:        "LLXRead without its second info load",
		file:        "internal/llxscx/llxscx.go",
		snippet:     "\tif h.info.Get(nil) != rinfo {\n\t\treturn StatusFail\n\t}\n",
		replacement: "\t_ = rinfo\n",
		args:        []string{"./internal/abtree", "-run", "TestFallbackSearchRetriesOnRetag"},
		want:        "accepted a leaf snapshot its leaf's retag fell inside",
	},
	{
		name:        "LLXRead without help on marked",
		file:        "internal/llxscx/llxscx.go",
		snippet:     "\t\tLLX(nil, h, nil)\n\t\treturn StatusFinalized\n",
		replacement: "\t\treturn StatusFinalized\n",
		args:        []string{"./internal/llxscx", "-run", "TestLLXReadHelpsStoppedSCX"},
		want:        "after LLXRead: SCX state",
	},
}

// TestMutantsAreKilled runs every row of mutants: the mutated file goes
// to a temporary directory, `go test -overlay` builds the row's package
// with it in place of the original, and the run must fail printing the
// row's text. The tree is not copied and nothing is fetched (the module
// has no dependencies). A snippet that no longer occurs exactly once
// fails its row, so a change that moves mutated code updates the row in
// the same diff. Each row compiles its package afresh, so -short skips
// the test.
func TestMutantsAreKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles one package per mutant")
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.snippet); n != 1 {
				t.Fatalf("snippet occurs %d times in %s, want once:\n%s", n, m.file, m.snippet)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.snippet, m.replacement, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			orig, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {orig: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"test", "-count=1", "-timeout=120s", "-overlay=" + overlayFile}, m.args...)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err == nil {
				t.Fatalf("mutant survived: go %s passed", strings.Join(args, " "))
			}
			if !strings.Contains(string(out), m.want) {
				t.Fatalf("mutant failed without %q (%v):\n%s", m.want, err, out)
			}
		})
	}
}
