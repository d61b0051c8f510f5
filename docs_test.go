package wavescalar

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docIdent matches a code span that starts `pkg.Ident` or `pkg.Type.Member`.
var docIdent = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?")

// pkgNames is what a package under internal/ declares: its top-level names,
// and per type (and under "" for all of them) its methods and fields.
type pkgNames struct {
	top     map[string]bool
	members map[string]map[string]bool
}

func (p *pkgNames) member(typ, name string) {
	for _, t := range []string{typ, ""} {
		if p.members[t] == nil {
			p.members[t] = map[string]bool{}
		}
		p.members[t][name] = true
	}
}

func loadPkgNames(t *testing.T, dir string) *pkgNames {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	p := &pkgNames{top: map[string]bool{}, members: map[string]map[string]bool{}}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			p.declare(d)
		}
	}
	return p
}

func (p *pkgNames) declare(d ast.Decl) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			p.top[d.Name.Name] = true
			return
		}
		recv := d.Recv.List[0].Type
		if s, ok := recv.(*ast.StarExpr); ok {
			recv = s.X
		}
		if ix, ok := recv.(*ast.IndexExpr); ok { // generic receiver
			recv = ix.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			p.member(id.Name, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.ValueSpec:
				for _, n := range spec.Names {
					p.top[n.Name] = true
				}
			case *ast.TypeSpec:
				p.top[spec.Name.Name] = true
				var fields *ast.FieldList
				switch typ := spec.Type.(type) {
				case *ast.StructType:
					fields = typ.Fields
				case *ast.InterfaceType:
					fields = typ.Methods
				}
				if fields == nil {
					continue
				}
				for _, fl := range fields.List {
					for _, n := range fl.Names {
						p.member(spec.Name.Name, n.Name)
					}
				}
			}
		}
	}
}

// prHeading matches a Markdown heading that names a pull request.
var prHeading = regexp.MustCompile(`^#+ .*PR \d+`)

// TestDesignHeadingsNameNoPRs: DESIGN.md describes the system that is, so
// its headings say what a section is about, not which change brought it.
func TestDesignHeadingsNameNoPRs(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(text), "\n") {
		if prHeading.MatchString(line) {
			t.Errorf("DESIGN.md:%d: heading names a PR: %s", i+1, line)
		}
	}
}

// TestDocsNameRealIdentifiers: a code span in README.md or DESIGN.md that
// reads `pkg.Ident`, with pkg a directory under internal/, names something
// that package declares (test files included) — a top-level declaration, or
// a method or field; `pkg.Type.Member` names a member of that type. A name
// a refactor removes therefore cannot survive in prose.
func TestDocsNameRealIdentifiers(t *testing.T) {
	loaded := map[string]*pkgNames{}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range docIdent.FindAllStringSubmatch(line, -1) {
				pkg, name, member := m[1], m[2], m[3]
				dir := filepath.Join("internal", pkg)
				if st, err := os.Stat(dir); err != nil || !st.IsDir() || name == "go" { // `wavecache.go` is a file
					continue
				}
				if loaded[pkg] == nil {
					loaded[pkg] = loadPkgNames(t, dir)
				}
				p := loaded[pkg]
				switch {
				case member != "" && p.top[name] && !p.members[name][member]:
					t.Errorf("%s:%d: `%s.%s.%s`: %s has no such method or field", doc, i+1, pkg, name, member, name)
				case !p.top[name] && !p.members[""][name]:
					t.Errorf("%s:%d: `%s.%s`: internal/%s declares no such name", doc, i+1, pkg, name, pkg)
				}
			}
		}
	}
}
