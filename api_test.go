package nocemu_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllow names the exported functions and methods under internal/
// that keep no reader outside tests, each with the reason it stays.
// Keys are package.Name or package.Type.Method.
var apiAllow = map[string]string{
	"buffer.Counters.Stats":      "the lane counters' one reader: switchfab's BufferStats test lens, held to the two-phase model; the counters are snapshot state",
	"engine.Engine.PooledCycles": "a kernel counter engine and platform tests read; ROADMAP item 10's kernel bank is to expose it",
	"engine.Engine.StandingDown": "a kernel counter engine and platform tests read; ROADMAP item 10's kernel bank is to expose it",
	"rtl.Platform.KernelStats":   "the RTL baseline's event counts rtl tests read; ROADMAP item 10's ledger is to report them",
}

// TestNoTestOnlyAPI is the API's tripwire: every exported function and
// method under internal/ must be referenced by the module's non-test
// code — another package, cmd/, bench/, examples/ or the root facade —
// somewhere outside its own declaration. A method also counts as read
// when its type satisfies an interface the module declares (named or
// inline) or one of the standard library's (fmt.Stringer, error,
// json.Marshaler, sort.Interface, ...), since such calls go through the
// interface. What only tests call belongs in the tests; a survivor needs
// an apiAllow entry, and an entry that names nothing or has gained a
// reader fails too.
func TestNoTestOnlyAPI(t *testing.T) {
	s, err := scanAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.problems(apiAllow) {
		t.Error(p)
	}
}

// TestNoTestOnlyAPICases runs the scan over small synthetic modules.
func TestNoTestOnlyAPICases(t *testing.T) {
	base := map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"internal/reg/reg.go": `package reg

import "m/internal/spec"

type Bank struct{ specs []spec.Spec }

// Specs satisfies doc.Schema, declared in another package.
func (b *Bank) Specs() []spec.Spec { return b.specs }

type Level int

func (l Level) String() string { return "level" }

func (l Level) MarshalJSON() ([]byte, error) { return []byte("0"), nil }

type Inner struct{}

func (Inner) Hop() int { return 1 }

type Outer struct{ Inner }

func Used() Outer { return Outer{} }

func BenchOnly() int { return 2 }

func ExampleOnly() int { return 3 }

// Recurse reads itself, which is no reader.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}
`,
		"internal/spec/spec.go": "package spec\n\ntype Spec struct{ Name string }\n",
		"internal/doc/doc.go": `package doc

import "m/internal/spec"

type Schema interface{ Specs() []spec.Spec }

func Render(s Schema) int { return len(s.Specs()) }
`,
		"cmd/tool/main.go": `package main

import (
	"m/internal/doc"
	"m/internal/reg"
)

func main() {
	_ = doc.Render(&reg.Bank{})
	_ = reg.Used().Hop()
	_ = reg.Recurse
}
`,
		"bench/main.go":            "package main\n\nimport \"m/internal/reg\"\n\nfunc main() { _ = reg.BenchOnly() }\n",
		"examples/ex/main.go":      "package main\n\nimport \"m/internal/reg\"\n\nfunc main() { _ = reg.ExampleOnly() }\n",
		"internal/reg/reg_test.go": "package reg\n\nimport \"testing\"\n\nfunc TestX(t *testing.T) { _ = TestOnly(); _ = Level(0).Only() }\n",
	}
	scan := func(t *testing.T, extra map[string]string) *apiScan {
		t.Helper()
		dir := t.TempDir()
		for _, files := range []map[string]string{base, extra} {
			for name, src := range files {
				p := filepath.Join(dir, name)
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		s, err := scanAPI(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Run("clean", func(t *testing.T) {
		if p := scan(t, nil).problems(nil); len(p) != 0 {
			t.Errorf("flagged on a module whose every name has a reader: %q", p)
		}
	})
	t.Run("test-only", func(t *testing.T) {
		s := scan(t, map[string]string{"internal/reg/only.go": "package reg\n\nfunc TestOnly() int { return 4 }\n\nfunc (Level) Only() int { return 5 }\n"})
		want := []string{
			"reg.Level.Only has no reader outside tests",
			"reg.TestOnly has no reader outside tests",
		}
		if got := s.problems(nil); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("problems = %q, want %q", got, want)
		}
	})
	t.Run("allow-list", func(t *testing.T) {
		s := scan(t, map[string]string{"internal/reg/only.go": "package reg\n\nfunc TestOnly() int { return 4 }\n"})
		if p := s.problems(map[string]string{"reg.TestOnly": "kept"}); len(p) != 0 {
			t.Errorf("an allowed test-only name was flagged: %q", p)
		}
		want := []string{
			"allow-list entry reg.Gone names no exported function or method under internal/",
			"allow-list entry reg.Used has a reader outside tests now; delete the entry",
		}
		got := s.problems(map[string]string{"reg.TestOnly": "kept", "reg.Gone": "deleted", "reg.Used": "read"})
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("problems = %q, want %q", got, want)
		}
	})
}

// apiScan is the module's non-test code, type-checked: the exported
// functions and methods under internal/ and which of them have a reader.
type apiScan struct {
	decls map[string]*types.Func // package.[Type.]Name -> declaration
	read  map[*types.Func]bool
}

// problems lists, sorted, each exported name without a reader that
// allow does not name, and each entry of allow that names nothing or
// has a reader.
func (s *apiScan) problems(allow map[string]string) []string {
	var out []string
	for key, f := range s.decls {
		if !s.read[f] && allow[key] == "" {
			out = append(out, key+" has no reader outside tests")
		}
	}
	for key := range allow {
		switch f, ok := s.decls[key]; {
		case !ok:
			out = append(out, "allow-list entry "+key+" names no exported function or method under internal/")
		case s.read[f]:
			out = append(out, "allow-list entry "+key+" has a reader outside tests now; delete the entry")
		}
	}
	sort.Strings(out)
	return out
}

// scanAPI type-checks the non-test Go files of the module rooted at
// root, in import order, with the standard library from its compiled
// export data.
func scanAPI(root string) (*apiScan, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(p)
		}
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> files
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		for _, p := range pkgs {
			for _, f := range p.Files {
				files[imp] = append(files[imp], f)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(fset, "gc", nil)
	checked := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		if _, ok := files[path]; ok {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return std.Import(path)
	})
	var check func(path string) error
	check = func(path string) error {
		if _, ok := checked[path]; ok {
			return nil
		}
		for _, f := range files[path] {
			for _, is := range f.Imports {
				dep := strings.Trim(is.Path.Value, `"`)
				if _, ok := files[dep]; ok {
					if err := check(dep); err != nil {
						return err
					}
				}
			}
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files[path], info)
		if err != nil {
			return err
		}
		checked[path], infos[path] = p, info
		return nil
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := check(path); err != nil {
			return nil, err
		}
	}

	// The exported functions and methods under internal/, with the
	// extent of each declaration.
	s := &apiScan{decls: map[string]*types.Func{}, read: map[*types.Func]bool{}}
	type extent struct{ from, to token.Pos }
	body := map[*types.Func]extent{}
	for _, path := range paths {
		if !strings.HasPrefix(path, modPath+"/internal/") {
			continue
		}
		for _, f := range files[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := infos[path].Defs[fd.Name].(*types.Func)
				key := checked[path].Name() + "."
				if recv := recvNamed(fn); recv != nil {
					key += recv.Obj().Name() + "."
				}
				s.decls[key+fn.Name()] = fn
				body[fn] = extent{fd.Pos(), fd.End()}
			}
		}
	}

	// Readers: every use of a function outside its own declaration.
	for _, info := range infos {
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if e, ok := body[fn]; ok && id.Pos() >= e.from && id.Pos() < e.to {
				continue
			}
			s.read[fn] = true
		}
	}

	// Interface satisfaction: the module's interfaces, named or inline,
	// and the standard library's in what the module imports and in the
	// packages whose interfaces fmt, encoding/json and sort call through.
	var ifaces []*types.Interface
	for _, info := range infos {
		for e, tv := range info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				if it := tv.Type.Underlying().(*types.Interface); it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var stdIfaces func(p *types.Package)
	stdIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, dep := range p.Imports() {
			stdIfaces(dep)
		}
	}
	for _, path := range []string{"encoding", "encoding/json", "fmt", "io", "sort"} {
		p, err := std.Import(path)
		if err != nil {
			return nil, err
		}
		stdIfaces(p)
	}
	for _, p := range checked {
		for _, dep := range p.Imports() {
			if _, ok := checked[dep.Path()]; !ok {
				stdIfaces(dep)
			}
		}
	}
	// A named type of the module that satisfies one of them reads the
	// interface's methods, its own or promoted from what it embeds.
	for _, path := range paths {
		p := checked[path]
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if _, ok := n.Underlying().(*types.Interface); ok {
				continue
			}
			for _, it := range ifaces {
				var t types.Type = n
				if !types.Implements(t, it) {
					if t = types.NewPointer(n); !types.Implements(t, it) {
						continue
					}
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(t, false, it.Method(i).Pkg(), it.Method(i).Name())
					if fn, ok := m.(*types.Func); ok {
						s.read[fn.Origin()] = true
					}
				}
			}
		}
	}
	return s, nil
}

// recvNamed is the named type a method is declared on, nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
