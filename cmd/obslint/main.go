// Command obslint enforces the observability naming contract across the
// tree: every metric registered through internal/metrics must be
// snake_case, counters must end in _total, histograms in _seconds, and
// every trace stage name must be snake_case. The rules are the Prometheus
// naming conventions the exposition endpoint promises; drift breaks
// dashboards silently, so CI runs this lint alongside staticcheck.
//
// Opt-in modes extend the contract to documentation and to the exported
// surface:
//
//	-doclint    every package must carry a package doc comment, and every
//	            exported constant must be covered by a doc comment —
//	            either its own or its const block's (a block doc covers
//	            the whole block, so enumerations like keysyms document
//	            once).
//	-mdlinks    every relative link in the markdown tree must resolve to
//	            an existing file (anchors and absolute URLs are skipped),
//	            every ./cmd/<x> or ./examples/<x> path in a fenced code
//	            block must be a directory, and every markdown file a Go
//	            comment cites by name must exist.
//	-testonly   every exported func, method, type or var under internal/
//	            or in the root package must be referenced by a non-test
//	            file of the module, or be named in the root's
//	            TESTONLY.allow (see lintTestOnly for the exact rule).
//
// Usage:
//
//	obslint [-doclint] [-mdlinks] [-testonly] [dir ...]    # defaults to the current tree
//
// The lint also guards the budgeted event runtime's core invariant: in the
// session-path packages (internal/uniserver, internal/hub, internal/rfb,
// internal/netsim) a naked `go` statement is an error — per-session
// concurrency belongs on the sched runtime (pool turns and wheel timers),
// where worker count is a process budget instead of scaling with sessions.
// A deliberate spawn (e.g. the one-goroutine-per-connection legacy Serve
// path) is annotated with a `goroutine-ok:` comment naming its reason, on
// the go statement's line or the line above.
//
// Test files are exempt from the naming rules (they register throwaway
// names on private registries), but a test that reads a metric from the
// default registry must read one a non-test file registers: the registry
// creates a zero metric for any name, so a read of a deleted or misspelt
// one passes while testing nothing. Generated and vendored trees are
// skipped.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"uniint/internal/trace"
)

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

var (
	docLint  = flag.Bool("doclint", false, "also require package docs and exported-constant docs")
	mdLinks  = flag.Bool("mdlinks", false, "also check that relative markdown links resolve")
	testOnly = flag.Bool("testonly", false, "also fail exported identifiers that only _test.go files reference")
)

// stderr receives every finding; the tests swap it for a buffer.
var stderr io.Writer = os.Stderr

func main() {
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	bad, err := lintRoots(roots)
	if err != nil {
		fmt.Fprintln(stderr, "obslint:", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "obslint: %d problem(s)\n", bad)
		os.Exit(1)
	}
}

// lintRoots runs every enabled rule over each root and returns the number
// of findings; an error means a tree could not be read at all.
func lintRoots(roots []string) (int, error) {
	bad := lintStageNames()
	for _, root := range roots {
		if err := lintTree(root, &bad); err != nil {
			return bad, err
		}
		if *mdLinks {
			if err := lintMarkdownTree(root, &bad); err != nil {
				return bad, err
			}
		}
		if *testOnly {
			n, err := lintTestOnly(root)
			if err != nil {
				return bad, err
			}
			bad += n
		}
	}
	return bad, nil
}

// skipDir reports the directories no Go rule descends into: vendored and
// fixture trees, and dot-directories other than the root itself.
func skipDir(root, path, name string) bool {
	return name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".") && path != root
}

func lintTree(root string, bad *int) error {
	// pkgDocs tracks, per directory, whether any non-test file carries a
	// package doc comment — the doc may live in any file of the package,
	// so the verdict is per directory, not per file.
	pkgDocs := map[string]bool{}
	registered := map[string]bool{} // "Kind name", by non-test files
	var reads []metricRead          // by test files, from the default registry
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(root, path, d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			reads = append(reads, defaultRegistryReads(path)...)
		} else {
			*bad += lintFile(path, pkgDocs, registered)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, rd := range reads {
		if !registered[rd.key] {
			fmt.Fprintf(stderr, "%s: test reads %s, which no non-test file registers\n", rd.pos, rd.key)
			*bad++
		}
	}
	if *docLint {
		for dir, has := range pkgDocs {
			if !has {
				fmt.Fprintf(stderr, "%s: package has no package doc comment in any file\n", dir)
				*bad++
			}
		}
	}
	return nil
}

// lintFile reports naming violations in one source file: any call of the
// form <expr>.Counter("name")/Gauge("name")/Histogram("name", ...) with a
// literal name is checked against the contract and recorded in registered.
// With -doclint it also records whether the file carries the package doc
// and checks exported constant documentation.
func lintFile(path string, pkgDocs, registered map[string]bool) int {
	fset := token.NewFileSet()
	mode := parser.Mode(0)
	sessionPath := isSessionPath(path)
	if *docLint || sessionPath {
		mode = parser.ParseComments
	}
	f, err := parser.ParseFile(fset, path, nil, mode)
	if err != nil {
		fmt.Fprintf(stderr, "obslint: %s: %v\n", path, err)
		return 1
	}
	bad := 0
	if sessionPath {
		bad += lintGoStmts(fset, f, path)
	}
	if *docLint {
		dir := filepath.Dir(path)
		if _, seen := pkgDocs[dir]; !seen {
			pkgDocs[dir] = false
		}
		if f.Doc != nil {
			pkgDocs[dir] = true
		}
		bad += lintConstDocs(fset, f)
	}
	metricCalls(f, func(kind, name string, recv ast.Expr, lit *ast.BasicLit) {
		if recv == nil {
			return
		}
		registered[kind+" "+name] = true
		for _, msg := range checkMetric(kind, name) {
			fmt.Fprintf(stderr, "%s: %s\n", fset.Position(lit.Pos()), msg)
			bad++
		}
	})
	return bad
}

// metricCalls calls fn for each call in f that names a metric with a
// string literal: recv.Counter("x"), recv.Gauge("x") or
// recv.Histogram("x", …), and the counter("x") and gauge("x") helpers
// tests define over the default registry, which pass a nil recv.
func metricCalls(f *ast.File, fn func(kind, name string, recv ast.Expr, lit *ast.BasicLit)) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		var kind string
		var recv ast.Expr
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			kind, recv = fun.Sel.Name, fun.X
		case *ast.Ident:
			kind = map[string]string{"counter": "Counter", "gauge": "Gauge"}[fun.Name]
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if kind != "Counter" && kind != "Gauge" && kind != "Histogram" || !ok || lit.Kind != token.STRING {
			return true
		}
		if name, err := strconv.Unquote(lit.Value); err == nil {
			fn(kind, name, recv, lit)
		}
		return true
	})
}

// metricRead is one test-file read of a default-registry metric, keyed
// like the registrations it must match.
type metricRead struct {
	pos token.Position
	key string // "Kind name"
}

// defaultRegistryReads returns the default-registry metric reads in one
// test file: metrics.Default().Counter("x") (or Gauge, Histogram), the
// same call on a variable assigned metrics.Default() in the file, and the
// counter("x") / gauge("x") helpers. A file that does not parse is the
// compiler's finding, not this one.
func defaultRegistryReads(path string) (reads []metricRead) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil
	}
	const def = "metrics.Default()"
	isDefault := map[string]bool{def: true} // receivers that are the default registry
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && types.ExprString(as.Rhs[0]) == def {
			isDefault[types.ExprString(as.Lhs[0])] = true
		}
		return true
	})
	metricCalls(f, func(kind, name string, recv ast.Expr, lit *ast.BasicLit) {
		if recv == nil || isDefault[types.ExprString(recv)] {
			reads = append(reads, metricRead{fset.Position(lit.Pos()), kind + " " + name})
		}
	})
	return reads
}

// lintConstDocs requires every exported top-level constant to be covered
// by a doc comment. Coverage is hierarchical: the const block's doc
// comment covers every name in the block (so a documented enumeration —
// keysyms, encoding ids — documents once), a ValueSpec's own doc or
// trailing line comment covers that spec, and otherwise the name is
// reported. Wire and encoding constants are the motivating case: an
// undocumented protocol constant is an undocumented wire commitment.
func lintConstDocs(fset *token.FileSet, f *ast.File) int {
	bad := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		if gd.Doc != nil {
			continue // block doc covers the whole declaration
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || vs.Doc != nil || vs.Comment != nil {
				continue
			}
			for _, id := range vs.Names {
				if !id.IsExported() {
					continue
				}
				fmt.Fprintf(stderr, "%s: exported constant %s has no doc comment (own, line, or const-block)\n",
					fset.Position(id.Pos()), id.Name)
				bad++
			}
		}
	}
	return bad
}

// sessionPathDirs are the packages living under the budgeted event
// runtime's goroutine discipline: session work runs as pool turns and
// wheel timers, never as per-session goroutines.
var sessionPathDirs = []string{
	"internal/uniserver", "internal/hub", "internal/rfb", "internal/netsim",
	"internal/fed",
}

func isSessionPath(path string) bool {
	dir := filepath.ToSlash(filepath.Dir(path))
	for _, d := range sessionPathDirs {
		if dir == d || strings.HasSuffix(dir, "/"+d) {
			return true
		}
	}
	return false
}

// goroutineOK marks a deliberate goroutine spawn in a session-path
// package; the comment must name the reason.
const goroutineOK = "goroutine-ok:"

// lintGoStmts flags naked `go` statements in session-path packages. A
// spawn annotated with a goroutine-ok: comment (same line or the line
// above) passes; everything else is a budget leak — it scales goroutines
// with sessions instead of riding the shared pool or wheel.
func lintGoStmts(fset *token.FileSet, f *ast.File, path string) int {
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, goroutineOK) {
				// The whole comment group vouches for the statement that
				// follows it (and an inline marker for its own line).
				allowed[fset.Position(c.Pos()).Line] = true
				allowed[fset.Position(cg.End()).Line] = true
			}
		}
	}
	bad := 0
	ast.Inspect(f, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		line := fset.Position(gs.Pos()).Line
		if allowed[line] || allowed[line-1] {
			return true
		}
		fmt.Fprintf(stderr, "%s: naked go statement in session-path package %s (run it as a pool turn or wheel timer, or annotate '// goroutine-ok: <reason>')\n",
			fset.Position(gs.Pos()), filepath.Dir(path))
		bad++
		return true
	})
	return bad
}

func checkMetric(kind, name string) []string {
	var msgs []string
	if !snakeCase.MatchString(name) {
		msgs = append(msgs, fmt.Sprintf("metric %q is not snake_case", name))
	}
	switch kind {
	case "Counter":
		if !strings.HasSuffix(name, "_total") {
			msgs = append(msgs, fmt.Sprintf("counter %q must end in _total", name))
		}
	case "Histogram":
		if !strings.HasSuffix(name, "_seconds") {
			msgs = append(msgs, fmt.Sprintf("histogram %q must end in _seconds (base-unit rule)", name))
		}
	}
	return msgs
}

// mdLinkPattern matches inline markdown links and captures the target.
// Reference-style links and autolinks are out of scope — the tree uses
// inline links only.
var mdLinkPattern = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// fencedPathPattern matches a command or example directory the way the
// docs' shell snippets spell it (go run ./cmd/unihub); mdNamePattern a
// markdown file cited by name in a Go comment (docs/WIRE.md).
var (
	fencedPathPattern = regexp.MustCompile(`\./(?:cmd|examples)/[\w-]+`)
	mdNamePattern     = regexp.MustCompile(`[\w./-]*[\w-]\.md\b`)
)

// lintMarkdownTree keeps references between prose and tree alive, in both
// directions. In every .md file a relative link's target — resolved
// against the file's directory and stripped of any #fragment — must exist
// (absolute URLs are external and pure-fragment links need a markdown
// anchor model this lint deliberately doesn't have; both are skipped), and
// a ./cmd/<x> or ./examples/<x> path inside a fenced code block must be a
// directory under root: a snippet that no longer runs is a broken link.
// In every .go file, tests included, a markdown file named in a comment
// must exist relative to root or to the file's own directory.
func lintMarkdownTree(root string, bad *int) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Dot-directories hold documentation too (the verify skill).
			if name := d.Name(); name == "vendor" || name == "testdata" || name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			*bad += lintCommentDocRefs(root, path)
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLinkPattern.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				fmt.Fprintf(stderr, "%s: broken relative link %q (%s does not exist)\n", path, m[1], resolved)
				*bad++
			}
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if !fenced {
				continue
			}
			for _, dir := range fencedPathPattern.FindAllString(line, -1) {
				if st, err := os.Stat(filepath.Join(root, dir)); err != nil || !st.IsDir() {
					fmt.Fprintf(stderr, "%s:%d: code block runs %s, which is not a directory\n", path, i+1, dir)
					*bad++
				}
			}
		}
		return nil
	})
}

// lintCommentDocRefs reports markdown files that comments in one Go file
// cite by name but that exist neither under root nor beside the file.
func lintCommentDocRefs(root, path string) int {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(stderr, "obslint: %s: %v\n", path, err)
		return 1
	}
	bad := 0
	for _, cg := range f.Comments {
		for _, name := range mdNamePattern.FindAllString(cg.Text(), -1) {
			_, atRoot := os.Stat(filepath.Join(root, name))
			_, beside := os.Stat(filepath.Join(filepath.Dir(path), name))
			if atRoot != nil && beside != nil {
				fmt.Fprintf(stderr, "%s: comment cites %s, which does not exist\n", fset.Position(cg.Pos()), name)
				bad++
			}
		}
	}
	return bad
}

// lintStageNames checks the trace stage vocabulary itself — the span
// names exported to Chrome trace JSON follow the same snake_case rule as
// metric names so the two surfaces cross-reference cleanly.
func lintStageNames() int {
	bad := 0
	for _, name := range trace.StageNames() {
		if !snakeCase.MatchString(name) {
			fmt.Fprintf(stderr, "trace stage %q is not snake_case\n", name)
			bad++
		}
	}
	return bad
}
