package nocemu_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocNamesResolve is the documents' tripwire: every backticked Go
// name in DESIGN.md, README.md, EXPERIMENTS.md, TOPOLOGIES.md, PAPER.md
// and .claude/skills/verify/SKILL.md — pkg.Name, pkg.Type.Member,
// Type.Member — must name something the module still declares, and
// every backticked repository path and Go or Markdown file name must
// exist. A change that renames or removes what the prose describes
// fails here until the prose follows; a name the prose keeps for history
// goes without backticks. Lower-case names after a package (metric keys
// such as engine.gate_ratio, JSON fields) and paths under ignored output
// directories are not judged. bench/README.md is not checked: bench/ is
// the benchmark's own directory, changed only with the benchmark, and
// its stale names wait for that change.
func TestDocNamesResolve(t *testing.T) {
	mod := parseModule(t)
	files := map[string]bool{} // base names of the repository's files
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" {
			return filepath.SkipDir
		}
		files[d.Name()] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	ident := regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*){1,2}$`)
	pathLike := regexp.MustCompile(`^[A-Za-z0-9_.\-/*]+$`)
	output := regexp.MustCompile(`\.(jsonl|json|csv|txt|pb|nocsnap|state)$`) // a run's output file
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "TOPOLOGIES.md", "PAPER.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(b), -1) {
			s := m[1]
			switch {
			case strings.Contains(s, "/") && pathLike.MatchString(s) && mod.root(s) && !ignored(s):
				p := strings.TrimSuffix(strings.TrimSuffix(s, "/..."), "/")
				if hits, _ := filepath.Glob(p); len(hits) == 0 {
					t.Errorf("%s: `%s` names no file or directory", doc, s)
				}
			case isFile(s):
				if !files[s] {
					t.Errorf("%s: `%s` names no file of the repository", doc, s)
				}
			default:
				name := strings.ReplaceAll(regexp.MustCompile(`\([^()]*\)`).ReplaceAllString(s, ""), "()", "")
				if ident.MatchString(name) && !output.MatchString(name) && !mod.resolves(strings.Split(name, ".")) {
					t.Errorf("%s: `%s` names nothing the module declares", doc, s)
				}
			}
		}
	}
}

// isFile reports whether s is a bare source or document file name.
func isFile(s string) bool {
	return regexp.MustCompile(`^[A-Za-z0-9_\-]+\.(go|md)$`).MatchString(s)
}

// ignored reports whether a path lies under a directory .gitignore
// names: where runs write their outputs.
func ignored(path string) bool {
	b, _ := os.ReadFile(".gitignore")
	for _, line := range strings.Split(string(b), "\n") {
		if dir, ok := strings.CutSuffix(strings.TrimSpace(line), "/"); ok && strings.HasPrefix(path, dir+"/") {
			return true
		}
	}
	return false
}

// module is what the module's Go files declare: per package, its
// top-level names, and per type name (over all packages) the members it
// has — methods, struct fields, interface methods.
type module struct {
	pkgs    map[string]map[string]bool // package name -> top-level names
	members map[string]map[string]bool // package.Type -> members
	types   map[string][]string        // Type -> the packages declaring it
	roots   map[string]bool            // entries of the repository root
}

func (m *module) root(path string) bool {
	return m.roots[strings.SplitN(path, "/", 2)[0]]
}

// resolves reports whether a dotted name — pkg.Name, pkg.Type.Member or
// Type.Member — is declared. pkg.Name may name a method of one of the
// package's types (engine.Armer for Engine.Armer), or a member reached
// through a variable named like the package (stats.Cycles). A first
// part that is neither a package nor a type of the module (a variable,
// another module's package) is not the tripwire's to judge.
func (m *module) resolves(parts []string) bool {
	if names, ok := m.pkgs[parts[0]]; ok {
		if first := parts[1][0]; first < 'A' || first > 'Z' {
			return true
		}
		if len(parts) == 3 {
			return m.members[parts[0]+"."+parts[1]][parts[2]]
		}
		return names[parts[1]] || m.member(parts[0]+".", parts[1]) || m.member("", parts[1])
	}
	pkgs, ok := m.types[parts[0]]
	if !ok || len(parts) != 2 {
		return true
	}
	for _, p := range pkgs {
		if m.members[p+"."+parts[0]][parts[1]] {
			return true
		}
	}
	return false
}

// member reports whether some type whose key starts with prefix has
// the named member.
func (m *module) member(prefix, name string) bool {
	for k, members := range m.members {
		if strings.HasPrefix(k, prefix) && members[name] {
			return true
		}
	}
	return false
}

func parseModule(t *testing.T) *module {
	t.Helper()
	m := &module{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, types: map[string][]string{}, roots: map[string]bool{}}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		m.roots[e.Name()] = true
	}
	member := func(pkg, typ, name string) {
		k := pkg + "." + typ
		if m.members[k] == nil {
			m.members[k] = map[string]bool{}
		}
		m.members[k][name] = true
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			name = strings.TrimSuffix(name, "_test")
			if m.pkgs[name] == nil {
				m.pkgs[name] = map[string]bool{}
			}
			names := m.pkgs[name]
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil {
							names[d.Name.Name] = true
							continue
						}
						typ := d.Recv.List[0].Type
						for {
							switch x := typ.(type) {
							case *ast.StarExpr:
								typ = x.X
								continue
							case *ast.IndexExpr:
								typ = x.X
								continue
							}
							break
						}
						if id, ok := typ.(*ast.Ident); ok {
							member(name, id.Name, d.Name.Name)
						}
					case *ast.GenDecl:
						for _, s := range d.Specs {
							switch s := s.(type) {
							case *ast.TypeSpec:
								names[s.Name.Name] = true
								m.types[s.Name.Name] = append(m.types[s.Name.Name], name)
								var fields *ast.FieldList
								switch x := s.Type.(type) {
								case *ast.StructType:
									fields = x.Fields
								case *ast.InterfaceType:
									fields = x.Methods
								}
								if fields == nil {
									continue
								}
								for _, f := range fields.List {
									for _, n := range f.Names {
										member(name, s.Name.Name, n.Name)
									}
									if len(f.Names) == 0 { // embedded: its name is a member too
										if id, ok := f.Type.(*ast.Ident); ok {
											member(name, s.Name.Name, id.Name)
										}
									}
								}
							case *ast.ValueSpec:
								for _, n := range s.Names {
									names[n.Name] = true
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}
