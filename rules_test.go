package htmtree_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The structural rules the paper's result rests on — an uninstrumented
// fast path, one rendering of each update through LLX/SCX, one path
// table, commits that leave the clock alone, code the compiler keeps
// cheap — each as one row over the module's own files. Every row runs
// twice: on the tree, where it must find nothing, and on its negative
// controls, each of which it must flag, so a pattern that stops
// matching fails here on every run.

// files maps module-relative slash paths to their text.
type files map[string]string

// gcFlags is the one compiler run the compiler rows read; its
// diagnostics are their input under the key buildOut.
const (
	gcFlags  = "-gcflags=-m -d=ssa/check_bce/debug=1"
	buildOut = "(go build " + gcFlags + ")"
)

type designRule struct {
	name   string
	reason string // a ROADMAP letter or the PR that made the rule
	// reads selects the module files the rule reads, by slash path.
	reads func(p string) bool
	// build adds the compiler's diagnostics to the input. The tree half
	// of such a row skips under -short; its controls always run.
	build    bool
	check    func(in files) []string
	controls []files
}

var designRules = []designRule{
	{
		// The engine is the paper's path table (engine.paths): a case
		// on an algorithm constant, a switch on an Algorithm value, or
		// a comparison of one with anything but zero (the default New
		// selects) branches on the algorithm outside the table; runTLE
		// was the last separate loop.
		name:   "one path table",
		reason: "ROADMAP M",
		reads:  and(under("internal/engine"), goSource),
		check: grep(`\bcase[[:space:]]+Alg[A-Z]|\bswitch\b[^{]*\b(Algorithm|alg)\b|` +
			`\bAlgorithm[[:space:]]*[!=]=[[:space:]]*[^0[:space:]]|[!=]=[[:space:]]*Alg[A-Z]|` +
			`\bAlg[A-Z][[:alnum:]]*[[:space:]]*[!=]=|\brunTLE\b`),
		controls: []files{
			{"internal/engine/engine.go": "\tcase AlgTLE:"},
			{"internal/engine/engine.go": "\tswitch th.e.cfg.Algorithm {"},
			{"internal/engine/engine.go": "\tif cfg.Algorithm != AlgTLE {"},
			{"internal/engine/engine.go": "\tif a == AlgThreePath {"},
			{"internal/engine/engine.go": "\tif AlgTLE == a {"},
			{"internal/engine/engine.go": "\treturn th.runTLE(op)"},
		},
	},
	{
		// The trees reach every SCX flavour through the shared mode
		// switch (internal/engine/prims.go) only.
		name:   "one rendering of each update",
		reason: "PR 16",
		reads:  and(or(under("internal/bst"), under("internal/abtree")), goSource),
		check:  grep(`llxscx\.(SCXO|SCXHTM|SCXInTx)[(\[]`),
		controls: []files{
			{"internal/abtree/ops.go": "\tok := llxscx.SCXO(v, infos, r, fld, old, nu)"},
			{"internal/bst/ops.go": "\treturn llxscx.SCXHTM[Node](tx, v, r, fld, old, nu)"},
		},
	},
	{
		// The template half of a tree's handle — the read and range
		// entry points, the pinned reads, the range setter, the update
		// ops' per-path literals and KeySum's epoch bracket — is written
		// once, in internal/engine (engine.Handle, engine.TemplateOp,
		// engine.Engine.Walk); the trees keep their updates and their
		// walks.
		name:   "one template handle",
		reason: "ROADMAP M",
		reads:  and(or(under("internal/bst"), under("internal/abtree")), goSource),
		check: grep(`^func \([^)]*\) (Search|RangeQuery|RangeAgg|RangeQueryAt|Pinnable|PinEnter|PinExit|setRange|Engine)\(|` +
			`\bsum(Rd|Mu)\b|\bengine\.Mode(Fallback|SCXHTM)\b`),
		controls: []files{
			{"internal/abtree/ops.go": "\t\tSCXHTM:   func() bool { return t.insertBody(h.prims(engine.ModeSCXHTM, nil)) },"},
			{"internal/bst/ops.go": "func (h *Handle) RangeQueryAt(rv, lo, hi uint64, out []dict.KV) ([]dict.KV, dict.PinStatus) {"},
			{"internal/bst/bst.go": "func (t *Tree) Engine() *engine.Engine { return t.eng }"},
			{"internal/abtree/abtree.go": "\tt.sumRd.Begin()"},
		},
	},
	{
		// Updates are admitted and published by the layer that closes
		// the quiesce gate (shard.handle.routeUpdate) and by nothing
		// below it: the engine has no bracket, gate or quiesce code.
		name:   "the engine admits nothing",
		reason: "ROADMAP O(1)",
		reads:  and(under("internal/engine"), goFile),
		check:  grep(`\b(nin|nout|[Ii]ngress|[Ee]gress|[Gg]ate|[Qq]uiesce[A-Za-z]*|MonitorSample)\b`),
		controls: []files{
			{"internal/engine/engine.go": "\tm.nin.Add(1)"},
			{"internal/engine/engine_test.go": "\tfor th.e.gate.Load() != 0 {"},
			{"internal/engine/engine.go": "func (m *mon) QuiesceAll() {"},
			{"internal/engine/engine.go": "\tvar s MonitorSample"},
		},
	},
	{
		// PrepareOp, engine.Config.Monitor, UpdateMonitor,
		// NewUpdateMonitor, engine.Config.HelpableFallback,
		// htm.Word.Bind, htm.Ref.Bind and engine.New's clock parameter
		// do nothing; they are kept only because the benchmark's layer
		// ladder (bench/layers.go) still names them. Outside bench/
		// they appear on their definition and doc lines only (a caller
		// of engine.New passes nil).
		name:   "the bench-only engine shims stay bench-only",
		reason: "ROADMAP A(4)",
		reads: func(p string) bool {
			return goFile(p) && !under("bench")(p) && p != "rules_test.go"
		},
		check: func(in files) []string {
			var out []string
			for _, s := range benchShims {
				out = append(out, grepLines(in, s.use, func(p, line string) bool {
					return p == s.file && s.def.MatchString(line)
				})...)
			}
			return out
		},
		controls: []files{
			{"internal/bst/bst.go": "\top = th.PrepareOp(op)"},
			{"internal/shard/shard.go": "\tcfg := engine.Config{Algorithm: alg, Monitor: m}"},
			{"internal/engine/engine.go": "var _ = NewUpdateMonitor(nil)"},
			{"internal/engine/engine.go": "// PrepareOp returns op unchanged; see Monitor."},
			{"htmtree.go": "\tecfg.HelpableFallback = true"},
			// Each behind its shim's own definition line, which the
			// row excuses: only the second line is flagged.
			{"internal/htm/cell.go": "func (w *Word) Bind(*Clock) {}\nvar bind = (*Ref[int]).Bind"},
			{"internal/engine/engine.go": "func New(cfg Config, _ *htm.Clock) *Engine {\n\teng := New(cfg, tm.Clock())"},
		},
	},
	{
		// A commit stamps its writes one past the clock and leaves the
		// clock alone (TL2's GV5): a tick, an advance, a pin or an add
		// on the clock inside Tx.commit would put back the one line
		// every commit writes.
		name:   "commits do not write the clock",
		reason: "ROADMAP B(3)",
		reads:  is("internal/htm/tx.go"),
		check: func(in files) []string {
			body, first, ok := funcText(in["internal/htm/tx.go"], "Tx", "commit")
			if !ok {
				return []string{"Tx.commit not found in internal/htm/tx.go"}
			}
			var out []string
			for _, n := range linesMatching(body, first, clockWrite) {
				out = append(out, fmt.Sprintf("internal/htm/tx.go:%d: Tx.commit writes the version clock", n))
			}
			return out
		},
		controls: []files{
			{"internal/htm/tx.go": commitSrc("clock.tick()")},
			{"internal/htm/tx.go": commitSrc("wv := clock.advance(rv)")},
			{"internal/htm/tx.go": commitSrc("wv := Pin()")},
			{"internal/htm/tx.go": commitSrc("clock.v.Add(1)")},
			{"internal/htm/tx.go": commitSrc("tx.th.tm.Clock().v.Add(1)")},
			{"internal/htm/tx.go": "package htm\n\nfunc (tx *Tx) commitAll() AbortCause { return 0 }\n"},
		},
	},
	{
		// Every metric family a tree registers is a row of the families
		// table in stats.go, read from a Stats snapshot, so a scrape and
		// Stats cannot disagree.
		name:   "one counter table",
		reason: "PR 28",
		reads:  func(p string) bool { return goSource(p) && !under("internal/obs")(p) },
		check: func(in files) []string {
			var out []string
			registers := regexp.MustCompile(`\.(Counter|Gauge)\(`)
			for _, p := range slices.Sorted(maps.Keys(in)) {
				if registers.MatchString(in[p]) != (p == "stats.go") {
					out = append(out, p+": registers metric families (expected in stats.go, and only there)")
				}
			}
			return out
		},
		controls: []files{
			{"stats.go": "\tn.Counter(f.name, f.help, collect)", "internal/shard/shard.go": "\treg.Counter(\"shard_ops\", \"\", fn)"},
			{"stats.go": "func families() {}", "internal/engine/engine.go": "\tn.Gauge(\"f\", \"\", fn)"},
		},
	},
	{
		// Every package carries a doc comment above the package clause
		// of one of its non-test files.
		name:   "godoc package comments",
		reason: "PR 2",
		reads:  goFile,
		check: func(in files) []string {
			documented := map[string]bool{}
			for _, p := range slices.Sorted(maps.Keys(in)) {
				dir := path.Dir(p)
				if _, seen := documented[dir]; !seen {
					documented[dir] = false
				}
				if strings.HasSuffix(p, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(token.NewFileSet(), p, in[p], parser.PackageClauseOnly|parser.ParseComments)
				if err == nil && f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented[dir] = true
				}
			}
			var out []string
			for _, dir := range slices.Sorted(maps.Keys(documented)) {
				if !documented[dir] {
					out = append(out, "package in "+dir+" has no doc comment")
				}
			}
			return out
		},
		controls: []files{
			{"internal/foo/foo.go": "package foo\n\nfunc F() {}\n"},
			{"internal/foo/foo.go": "// Package foo is detached.\n\npackage foo\n"},
			{"internal/foo/foo.go": "//go:build linux\npackage foo\n"},
			{"internal/foo/foo_test.go": "// Package foo is a test.\npackage foo\n"},
		},
	},
	{
		// Every cell's Get answers the common read inline — Tx.fastRead
		// admits it and Tx.logFast logs it — and sends every other read
		// to its slow half, get, which starts with Tx.findWrite, the
		// O(1) write-set membership test. Each is free only while it
		// inlines into each of the three cells' methods (a Block's
		// read an entry under it), and one more expression in it or in
		// a method stops that silently. Ref is generic: its diagnostics
		// come from a package that instantiates it.
		name:   "the read-path helpers inline into every Get and get",
		reason: "ROADMAP B(3)",
		reads:  is("internal/htm/cell.go"),
		build:  true,
		check: func(in files) []string {
			var out []string
			for _, recv := range []string{"Word", "Ref", "Block"} {
				for _, c := range readPathCalls {
					body, first, ok := funcText(in["internal/htm/cell.go"], recv, c.method)
					calls := linesMatching(body, first, regexp.MustCompile(`tx\.`+c.helper+`\(`))
					if !ok || len(calls) == 0 {
						out = append(out, fmt.Sprintf("(%s).%s: no tx.%s call in internal/htm/cell.go", recv, c.method, c.helper))
						continue
					}
					inlined := regexp.MustCompile(fmt.Sprintf(
						`internal/htm/cell\.go:%d:[0-9]+: inlining call to (htm\.)?\(\*Tx\)\.%s\b`, calls[0], c.helper))
					if !inlined.MatchString(in[buildOut]) {
						out = append(out, fmt.Sprintf("Tx.%s does not inline into (%s).%s (internal/htm/cell.go:%d)", c.helper, recv, c.method, calls[0]))
					}
				}
			}
			return out
		},
		controls: []files{
			{"internal/htm/cell.go": getsSrc, buildOut: getsInlined("Block", "Get", "fastRead")},
			{"internal/htm/cell.go": getsSrc, buildOut: getsInlined("Ref", "get", "findWrite")},
		},
	},
	{
		// Word.Init and Pair.Init are the plain stores of every leaf a
		// template-path update builds, Tx.fastRead and Tx.logFast the
		// common transactional read, Thread.fallbackIdle the one load
		// a 3-path update adds in front of its fast path, Node.keys,
		// Node.children and childIndex the (a,b)-tree descent's steps
		// through an internal node, and Node.slots its step into a leaf:
		// each is only that cheap inlined.
		name:   "the cheap helpers stay inlinable",
		reason: "PRs 22, 47",
		reads:  func(string) bool { return false },
		build:  true,
		check: func(in files) []string {
			var out []string
			for _, fn := range cheapHelpers {
				if !strings.Contains(in[buildOut], "can inline "+fn) {
					out = append(out, fn+" is no longer inlinable")
				}
			}
			return out
		},
		controls: []files{
			{buildOut: cheapInlined("childIndex")},
			{buildOut: cheapInlined("(*Node).slots")},
		},
	},
	{
		// A leaf's slots are a *[16]Pair indexed by a nibble of the
		// order word (permAt masks with 15), so the compiler proves
		// every slots[permAt(...)] in range; a slice or a plain int
		// index makes each entry a point lookup or a scan visits a
		// compare-and-branch again.
		name:   "leaf slot indexing needs no bounds check",
		reason: "PR 15",
		reads:  is("internal/abtree/ops.go"),
		build:  true,
		check: func(in files) []string {
			var out []string
			for _, fn := range []string{"leafFind", "rqCollectLeaf"} {
				body, first, _ := funcText(in["internal/abtree/ops.go"], "", fn)
				idx := linesMatching(body, first, regexp.MustCompile(`slots\[permAt\(`))
				if len(idx) == 0 {
					out = append(out, fn+": no slots[permAt(...)] index in internal/abtree/ops.go")
				}
				for _, n := range idx {
					if regexp.MustCompile(fmt.Sprintf(`internal/abtree/ops\.go:%d:[0-9]+: Found IsInBounds`, n)).MatchString(in[buildOut]) {
						out = append(out, fmt.Sprintf("%s bounds-checks its slot index (internal/abtree/ops.go:%d)", fn, n))
					}
				}
			}
			return out
		},
		controls: []files{{
			"internal/abtree/ops.go": leafSrc,
			buildOut:                 "internal/abtree/ops.go:9:21: Found IsInBounds\n",
		}},
	},
	{
		// An (a,b)-tree node is one allocation of one of two types,
		// leafNode or internalNode, behind a Node header that child
		// cells point at; Node.keys, Node.children and Node.slots
		// convert the header to its kind with unsafe.Pointer. Another
		// conversion, or a bare Node built on its own, is a *Node whose
		// arrays lie outside its allocation (-race's checkptr faults
		// the accessors' conversion of one).
		name:   "abtree nodes come only in their two kinds",
		reason: "ROADMAP B",
		reads:  and(under("internal/abtree"), goSource),
		check: func(in files) []string {
			unsafeUse := regexp.MustCompile(`\bunsafe\.`)
			var out []string
			for _, p := range slices.Sorted(maps.Keys(in)) {
				inAccessor := map[int]bool{}
				for _, fn := range []string{"keys", "children", "slots"} {
					body, first, _ := funcText(in[p], "Node", fn)
					for _, n := range linesMatching(body, first, unsafeUse) {
						inAccessor[n] = true
					}
				}
				for _, n := range linesMatching(in[p], 1, unsafeUse) {
					if !inAccessor[n] {
						out = append(out, fmt.Sprintf("%s:%d: unsafe outside Node's kind accessors", p, n))
					}
				}
			}
			return append(out, grep(`&Node\{|\bnew\(Node\)|(^|[^[:alnum:]_.*])Node\{`)(in)...)
		},
		controls: []files{
			{"internal/abtree/ops.go": "package abtree\n\nfunc (n *Node) pairs() *[MaxB]htm.Pair { return &(*leafNode)(unsafe.Pointer(n)).slotArr }\n"},
			{"internal/abtree/pool.go": "\tn := &Node{leaf: leaf}"},
			{"internal/abtree/abtree.go": "\tt.entry = new(Node)"},
			{"internal/abtree/abtree.go": "\tl := leafNode{Node: Node{leaf: true}}"},
		},
	},
	{
		// `go test -run X` passes with "no tests to run" once X is
		// renamed, deleted or moved to another package, so a named CI
		// step would go green testing nothing: each alternative of every
		// -run, -bench and -fuzz pattern of a go test command in ci.yml
		// must name a function of that kind in a package the command
		// tests.
		name:   "CI names only tests that exist",
		reason: "ROADMAP S",
		reads:  or(is(".github/workflows/ci.yml"), func(p string) bool { return strings.HasSuffix(p, "_test.go") }),
		check: func(in files) []string {
			funcs := map[string][]string{} // package directory -> test functions
			for p, src := range in {
				for _, m := range testFunc.FindAllStringSubmatch(src, -1) {
					funcs[path.Dir(p)] = append(funcs[path.Dir(p)], m[1])
				}
			}
			var out []string
			for _, line := range strings.Split(in[".github/workflows/ci.yml"], "\n") {
				if !strings.Contains(line, "go test ") {
					continue
				}
				var pkgs []string
				for _, f := range strings.Fields(line) {
					if f == "." || strings.HasPrefix(f, "./") {
						pkgs = append(pkgs, path.Clean(f))
					}
				}
				if pkgs == nil {
					pkgs = []string{"."}
				}
				var names []string
				for dir, fs := range funcs {
					for _, pkg := range pkgs {
						if covers(pkg, dir) {
							names = append(names, fs...)
							break
						}
					}
				}
				for _, m := range testPattern.FindAllStringSubmatch(line, -1) {
					flag, pat := m[1], strings.Trim(m[2], `'"`)
					for _, alt := range strings.Split(pat, "|") {
						if alt == "^$" {
							continue
						}
						re, err := regexp.Compile(alt)
						if err != nil {
							out = append(out, fmt.Sprintf("-%s %q: %v", flag, alt, err))
						} else if !namesAny(re, names, runs[flag]) {
							out = append(out, fmt.Sprintf("-%s %q names no %s function in %s",
								flag, alt, strings.Join(runs[flag], "/"), strings.Join(pkgs, " ")))
						}
					}
				}
			}
			return out
		},
		controls: []files{
			{".github/workflows/ci.yml": "run: go test -run 'TestSomething|TestNoSuchThing' .", "x_test.go": "func TestSomething(t *testing.T) {}"},
			{".github/workflows/ci.yml": "run: go test -run '^$' -bench Something .", "x_test.go": "func TestSomething(t *testing.T) {}"},
			{".github/workflows/ci.yml": "run: go test -race -run TestSomething ./internal/a/", "internal/b/x_test.go": "func TestSomething(t *testing.T) {}"},
		},
	},
}

// benchShims pairs each bench-only shim's uses with the lines of its
// file that define or document it.
var benchShims = []struct {
	use  *regexp.Regexp
	file string
	def  *regexp.Regexp
}{
	{regexp.MustCompile(`PrepareOp`), "internal/engine/engine.go",
		regexp.MustCompile(`^(// PrepareOp |func \(th \*Thread\) PrepareOp\(op Op\) Op )`)},
	{regexp.MustCompile(`\b(Monitor|UpdateMonitor|NewUpdateMonitor)\b`), "internal/engine/engine.go",
		regexp.MustCompile(`^([[:space:]]*// (Monitor is ignored|UpdateMonitor does nothing|NewUpdateMonitor returns)[ .;]|` +
			`[[:space:]]+Monitor \*UpdateMonitor$|type UpdateMonitor struct\{\}$|func NewUpdateMonitor\(Indicator\) \*UpdateMonitor )`)},
	{regexp.MustCompile(`HelpableFallback`), "internal/engine/engine.go",
		regexp.MustCompile(`^[[:space:]]+(HelpableFallback bool$|// HelpableFallback )`)},
	{regexp.MustCompile(`\bBind\b`), "internal/htm/cell.go",
		regexp.MustCompile(`^(func \((w \*Word|r \*Ref\[T\])\) Bind\(\*Clock\) \{\}$|// (Bind does nothing|like Ref\.Bind, ))`)},
	{regexp.MustCompile(`_ \*htm\.Clock|\bNew\(.*, *[[:alnum:]_.]*(Clock\(\)|clk)\)`), "internal/engine/engine.go",
		regexp.MustCompile(`^func New\(cfg Config, _ \*htm\.Clock\) \*Engine \{$`)},
}

var (
	clockWrite  = regexp.MustCompile(`tick\(|advance\(|\bPin\(|(clk|clock|Clock\(\))[[:alnum:]_.]*\.Add\(`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	testPattern = regexp.MustCompile(`(?:^|\s)-(run|bench|fuzz)(?:=|\s+)('[^']*'|"[^"]*"|[^\s'"]+)`)
	// runs is the kinds of function each go test flag selects among.
	runs = map[string][]string{"run": {"Test", "Example", "Fuzz"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
)

func TestDesignRules(t *testing.T) {
	tree := moduleFiles(t)
	diag := "" // the compiler rows' one build, run by the first of them
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			for i, c := range r.controls {
				if len(r.check(c)) == 0 {
					t.Errorf("negative control %d is not flagged: %q", i, c)
				}
			}
			if r.build && testing.Short() {
				t.Skip("the compiler rows read a go build; their controls ran")
			}
			in := files{}
			for p, src := range tree {
				if r.reads(p) {
					in[p] = src
				}
			}
			if r.build {
				if diag == "" {
					diag = compilerDiagnostics(t)
				}
				in[buildOut] = diag
			}
			if len(in) == 0 {
				t.Fatal("the row reads no file")
			}
			for _, v := range r.check(in) {
				t.Errorf("%s [%s]", v, r.reason)
			}
		})
	}
}

// moduleFiles reads every .go file of the module, skipping the
// directories the go command skips, and the CI workflow.
func moduleFiles(t *testing.T) files {
	t.Helper()
	tree := files{}
	add := func(p string) error {
		b, err := os.ReadFile(p)
		tree[filepath.ToSlash(p)] = string(b)
		return err
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			return add(p)
		}
		return nil
	})
	if err == nil {
		err = add(filepath.Join(".github", "workflows", "ci.yml"))
	}
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// compilerDiagnostics runs the one go build the compiler rows read. go
// test puts its own toolchain's bin directory first on PATH, so "go" is
// the compiler this test was built with.
func compilerDiagnostics(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "build", gcFlags, "./internal/htm", "./internal/engine", "./internal/abtree").CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", gcFlags, err, out)
	}
	return string(out)
}

// grep returns a check that flags every line matching expr.
func grep(expr string) func(files) []string {
	re := regexp.MustCompile(expr)
	return func(in files) []string { return grepLines(in, re, nil) }
}

// grepLines returns "path:line: text" for every line of in matching re
// that allowed (when non-nil) does not excuse.
func grepLines(in files, re *regexp.Regexp, allowed func(p, line string) bool) []string {
	var out []string
	for _, p := range slices.Sorted(maps.Keys(in)) {
		for i, line := range strings.Split(in[p], "\n") {
			if re.MatchString(line) && (allowed == nil || !allowed(p, line)) {
				out = append(out, fmt.Sprintf("%s:%d: %s", p, i+1, strings.TrimSpace(line)))
			}
		}
	}
	return out
}

// funcText returns the source of the function (recv "") or method on
// recv named name, from its func keyword to its closing brace, and the
// line it starts on.
func funcText(src, recv, name string) (text string, line int, ok bool) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", src, 0)
	if err != nil {
		return "", 0, false
	}
	for _, d := range f.Decls {
		fd, isFunc := d.(*ast.FuncDecl)
		if !isFunc || fd.Name.Name != name || recvType(fd) != recv {
			continue
		}
		start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
		return src[start.Offset:end.Offset], start.Line, true
	}
	return "", 0, false
}

// recvType is the base type name of fd's receiver, "" for a function.
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if g, ok := t.(*ast.IndexExpr); ok {
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// linesMatching returns the line numbers, counting text's first line as
// first, of text's lines that match re.
func linesMatching(text string, first int, re *regexp.Regexp) []int {
	var out []int
	for i, line := range strings.Split(text, "\n") {
		if re.MatchString(line) {
			out = append(out, first+i)
		}
	}
	return out
}

// covers reports whether the cleaned go test package argument pkg
// ("internal/abtree", "...", "internal/...") includes the package in dir.
func covers(pkg, dir string) bool {
	if base, ok := strings.CutSuffix(pkg, "/..."); ok {
		return dir == base || strings.HasPrefix(dir, base+"/")
	}
	return pkg == "..." || dir == pkg
}

// namesAny reports whether re matches a name of one of the kinds.
func namesAny(re *regexp.Regexp, names, kinds []string) bool {
	for _, n := range names {
		for _, k := range kinds {
			if strings.HasPrefix(n, k) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

// Path predicates for designRule.reads.

func goFile(p string) bool   { return strings.HasSuffix(p, ".go") }
func goSource(p string) bool { return goFile(p) && !strings.HasSuffix(p, "_test.go") }

func under(dir string) func(string) bool {
	return func(p string) bool { return strings.HasPrefix(p, dir+"/") }
}

func is(file string) func(string) bool { return func(p string) bool { return p == file } }

func and(a, b func(string) bool) func(string) bool {
	return func(p string) bool { return a(p) && b(p) }
}

func or(a, b func(string) bool) func(string) bool {
	return func(p string) bool { return a(p) || b(p) }
}

// Negative-control sources for the rows that parse.

func commitSrc(stmt string) string {
	return "package htm\n\nfunc (tx *Tx) commit() AbortCause {\n\t" + stmt + "\n\treturn CauseNone\n}\n"
}

// readPathCalls are the helper calls the read-path row looks for, by
// the cell method that makes them.
var readPathCalls = []struct{ method, helper string }{
	{"Get", "fastRead"}, {"Get", "logFast"}, {"get", "findWrite"},
}

// getsSrc is the three cells' Get and get as the read-path row reads
// them.
const getsSrc = `package htm

func (w *Word) Get(tx *Tx) uint64 {
	if tx.fastRead(0) {
		tx.logFast(&w.ver, 0)
	}
	return w.get(tx)
}

func (w *Word) get(tx *Tx) uint64 {
	tx.findWrite(unsafe.Pointer(&w.val))
	return 0
}

func (r *Ref[T]) Get(tx *Tx) *T {
	if tx.fastRead(0) {
		tx.logFast(&r.ver, 0)
	}
	return r.get(tx)
}

func (r *Ref[T]) get(tx *Tx) *T {
	tx.findWrite(unsafe.Pointer(&r.val))
	return nil
}

func (b *Block) Get(tx *Tx, p *Pair) (x, y uint64) {
	if tx.fastRead(0) {
		tx.logFast(&b.ver, 0)
	}
	return b.get(tx, p)
}

func (b *Block) get(tx *Tx, p *Pair) (x, y uint64) {
	tx.findWrite(unsafe.Pointer(p))
	return 0, 0
}
`

// getsInlined is a made-up build output for getsSrc that inlines every
// helper call but helper's in recv's method, Ref's from an
// instantiating package.
func getsInlined(recv, method, helper string) string {
	var out strings.Builder
	for _, r := range []string{"Word", "Ref", "Block"} {
		pkg := ""
		if r == "Ref" {
			pkg = "htm."
		}
		for _, c := range readPathCalls {
			if r == recv && c.method == method && c.helper == helper {
				continue
			}
			body, first, _ := funcText(getsSrc, r, c.method)
			for _, n := range linesMatching(body, first, regexp.MustCompile(`tx\.`+c.helper+`\(`)) {
				fmt.Fprintf(&out, "internal/htm/cell.go:%d:5: inlining call to %s(*Tx).%s\n", n, pkg, c.helper)
			}
		}
	}
	return out.String()
}

// cheapHelpers are the functions "the cheap helpers stay inlinable"
// requires the compiler to inline.
var cheapHelpers = []string{"(*Word).Init", "(*Pair).Init", "(*Tx).fastRead", "(*Tx).logFast",
	"(*Thread).fallbackIdle", "(*Node).keys", "(*Node).children", "(*Node).slots", "childIndex"}

// cheapInlined is the compiler's verdicts on the cheap helpers, all but
// missing inlined.
func cheapInlined(missing string) string {
	var out strings.Builder
	for _, fn := range cheapHelpers {
		if fn != missing {
			fmt.Fprintf(&out, "internal/x.go:1:6: can inline %s\n", fn)
		}
	}
	return out.String()
}

// leafSrc indexes slots on lines 4 and 9; the made-up build output
// bounds-checks the second.
const leafSrc = `package abtree

func leafFind(u *Node, i int) Pair {
	return u.slots[permAt(u.perm, i)]
}

func rqCollectLeaf(n *Node) {
	for i := 0; i < n.size; i++ {
		use(n.slots[permAt(n.perm, i)])
	}
}
`
