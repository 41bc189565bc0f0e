package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// allowFile is the -testonly ratchet, read from the linted root: one entry
// per line under "# reason" headers — an import path (the whole package is
// test support) or path.Name / path.Type.Method. An entry that names
// nothing, or something a non-test file now references, fails the lint, so
// the file only shrinks honestly.
const allowFile = "TESTONLY.allow"

// ifacePkgs are the standard packages whose interfaces keep a method alive
// beside the module's own (and the builtin error): a method that satisfies
// one of them is called by code this lint never reads.
var ifacePkgs = []string{"io", "net", "fmt", "sort", "net/http", "flag", "encoding"}

// module type-checks the non-test files of every package under one go.mod.
// Test files are never read: "referenced only from tests" and "referenced
// by nothing" are the same finding.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	info       *types.Info
	pkgs       map[string]*types.Package // by import path
}

// Import makes module a types.Importer: the module's own packages are
// checked from source in place, everything else is the standard library.
func (m *module) Import(pkgPath string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(pkgPath, m.path)
	if !ok || rel != "" && rel[0] != '/' {
		return m.std.Import(pkgPath)
	}
	if pkg := m.pkgs[pkgPath]; pkg != nil {
		return pkg, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(rel))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if ok, _ := build.Default.MatchFile(dir, filepath.Base(name)); !ok || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: m}).Check(pkgPath, m.fset, files, m.info)
	m.pkgs[pkgPath] = pkg
	return pkg, err
}

// methodKey turns types.Func.FullName's "(*pkg.T).M" into "pkg.T.M".
var methodKey = strings.NewReplacer("(*", "", "(", "", ")", "")

// lintTestOnly fails every exported func, method, type or var declared in
// a non-test file under root's internal/ (or in the root package) that no
// non-test file of the module references — cmd/, examples/ and the
// declaring package all count as callers — unless TESTONLY.allow names it.
// A method is exempt when some type that has it in its method set, directly
// or promoted through embedding, implements an interface that names it: one
// written anywhere in the module, one exported by ifacePkgs, or error.
//
// Struct fields get one rule of their own: an exported field of an
// exported struct whose name ends in Options or Config is a knob, and a
// knob no non-test file outside its declaring package names is one no
// caller sets — its default is the only configuration in use, so it
// should be a constant. A whole-package TESTONLY.allow entry exempts a
// test-support package's knobs.
//
// What it cannot see: other struct fields, methods declared by interfaces,
// constants (they name a vocabulary; -doclint covers them), and an
// identifier kept alive only by other dead code — a type referenced by
// nothing but its own methods, an interface by one conformance assertion.
func lintTestOnly(root string) (int, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(mod))
	if len(fields) < 2 || fields[0] != "module" {
		return 0, fmt.Errorf("%s/go.mod: no module line", root)
	}
	// The source importer must not need a C toolchain for net and os/user.
	build.Default.CgoEnabled = false
	m := &module{root: root, path: fields[1], fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if skipDir(root, dir, d.Name()) {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(src) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(root, dir)
		_, err = m.Import(path.Join(m.path, filepath.ToSlash(rel)))
		return err
	})
	if err != nil {
		return 0, err
	}

	// live: every object a non-test file uses, plus every method an
	// interface reaches. Interfaces: each one spelled in module source
	// (named or literal), the exported ones of ifacePkgs, and error.
	live := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		live[obj] = true
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for expr, tv := range m.info.Types {
		if _, lit := expr.(*ast.InterfaceType); lit {
			ifaces = append(ifaces, tv.Type.(*types.Interface))
		}
	}
	for _, p := range ifacePkgs {
		pkg, err := m.std.Import(p)
		if err != nil {
			return 0, err
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for id, obj := range m.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || id.Name == "_" || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				if sel := mset.Lookup(im.Pkg(), im.Name()); sel != nil {
					live[sel.Obj()] = true
				}
			}
		}
	}

	// setOutside: the struct fields a non-test file outside the declaring
	// package (directory) names.
	setOutside := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() &&
			filepath.Dir(m.fset.Position(id.Pos()).Filename) != filepath.Dir(m.fset.Position(v.Pos()).Filename) {
			setOutside[v] = true
		}
	}

	// known: every declaration the rule covers, by allow-list key. dead:
	// the ones nothing keeps alive, and the knobs (the covered *Options and
	// *Config fields that are not setOutside); deadIn: the packages that
	// hold one, which is what a whole-package entry must still name.
	known, dead, deadIn := map[string]bool{}, map[string]types.Object{}, map[string]bool{}
	for id, obj := range m.info.Defs {
		if obj == nil || !obj.Exported() {
			continue
		}
		file, _ := filepath.Rel(root, m.fset.Position(id.Pos()).Filename)
		if file = filepath.ToSlash(file); strings.Contains(file, "/") && !strings.HasPrefix(file, "internal/") {
			continue
		}
		key := obj.Pkg().Path() + "." + obj.Name()
		switch o := obj.(type) {
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				if types.IsInterface(recv.Type()) {
					continue
				}
				key = methodKey.Replace(o.FullName())
			}
		case *types.Var, *types.TypeName:
			if o.Parent() != o.Pkg().Scope() { // a field, a local
				continue
			}
			st, _ := o.Type().Underlying().(*types.Struct)
			if _, isType := o.(*types.TypeName); !isType || !strings.HasSuffix(key, "Options") && !strings.HasSuffix(key, "Config") {
				st = nil
			}
			for i := 0; st != nil && i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !setOutside[f] {
					dead[key+"."+f.Name()], deadIn[o.Pkg().Path()] = f, true
				}
			}
		default:
			continue
		}
		known[key] = true
		if !live[obj] {
			dead[key], deadIn[obj.Pkg().Path()] = obj, true
		}
	}

	allow, err := os.ReadFile(filepath.Join(root, allowFile))
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	bad, allowed, reason := 0, map[string]bool{}, false
	for i, line := range strings.Split(string(allow), "\n") {
		problem := ""
		switch entry := strings.TrimSpace(line); {
		case entry == "":
		case entry[0] == '#':
			reason = true
		case !reason:
			problem = "stands above the first # reason header"
		case !known[entry] && m.pkgs[entry] == nil:
			problem = "names nothing the lint checks"
		case dead[entry] == nil && !deadIn[entry]:
			problem = "has a non-test reference now: drop the entry"
		default:
			allowed[entry] = true
		}
		if problem != "" {
			fmt.Fprintf(stderr, "%s:%d: %s %s\n", allowFile, i+1, strings.TrimSpace(line), problem)
			bad++
		}
	}
	var keys []string
	for key, obj := range dead {
		if !allowed[key] && !allowed[obj.Pkg().Path()] {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		what := "has no reference outside _test.go files (delete it, or name it in " + allowFile + ")"
		if v, ok := dead[key].(*types.Var); ok && v.IsField() {
			what = "is a knob no non-test file outside its package sets (make its default a constant)"
		}
		fmt.Fprintf(stderr, "%s: %s %s\n", m.fset.Position(dead[key].Pos()), key, what)
	}
	return bad + len(keys), nil
}
