// Package designrules holds the design rules the repository checks on
// itself: every exported name under internal/ has a production use
// (Rule A), nothing inside a simulated period reads the world (Rule B),
// the configuration knobs are counted (Rule C), and every knob is set and
// read by production code (Rule D). It holds only tests.
package designrules

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A pkg is one non-test package of a loaded module, type-checked.
type pkg struct {
	path  string
	dir   string
	names []string // its non-test Go files, as go list names them
	files []*ast.File
	types *types.Package
	info  *types.Info
	done  bool
}

// A program is the non-test packages of one or more modules that share a
// module path prefix, type-checked against each other, with the standard
// library imported from source.
type program struct {
	module string // the first root's module path, e.g. "repro"
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*pkg
	order  []*pkg // in go list order, module by module
}

// newStdImporter returns the one importer the standard library goes
// through. The "source" importer resolves in GOPATH mode, so it cannot
// find module packages; the program resolves those itself. With cgo off
// it type-checks the pure-Go files of net and os/user instead of running
// the cgo tool on them.
func newStdImporter(fset *token.FileSet) types.Importer {
	build.Default.CgoEnabled = false
	return importer.ForCompiler(fset, "source", nil)
}

// load lists the packages of every module rooted at roots with
// `go list -json ./...` and type-checks their non-test files. The first
// root names the module whose internal/ packages the rules inspect.
func load(fset *token.FileSet, std types.Importer, roots ...string) (*program, error) {
	p := &program{fset: fset, std: std, pkgs: map[string]*pkg{}}
	for i, root := range roots {
		listed, err := goList(root)
		if err != nil {
			return nil, err
		}
		for _, l := range listed {
			if len(l.GoFiles) == 0 {
				continue // a test-only package, such as this one
			}
			if i == 0 && p.module == "" {
				p.module = l.Module.Path
			}
			pk := &pkg{path: l.ImportPath, dir: l.Dir, names: l.GoFiles}
			p.pkgs[pk.path] = pk
			p.order = append(p.order, pk)
		}
	}
	for _, pk := range p.order {
		if err := p.check(pk); err != nil {
			return nil, err
		}
	}
	return p, nil
}

type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Module     struct{ Path string }
}

func goList(root string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", root, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var l listedPkg
		if err := dec.Decode(&l); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", root, err)
		}
		pkgs = append(pkgs, l)
	}
}

// Import resolves a module package from the listing and anything else
// from the standard library.
func (p *program) Import(path string) (*types.Package, error) {
	pk, ok := p.pkgs[path]
	if !ok {
		return p.std.Import(path)
	}
	if err := p.check(pk); err != nil {
		return nil, err
	}
	return pk.types, nil
}

func (p *program) check(pk *pkg) error {
	if pk.done {
		if pk.types == nil {
			return fmt.Errorf("import cycle through %s", pk.path)
		}
		return nil
	}
	pk.done = true
	for _, name := range pk.names {
		f, err := parser.ParseFile(p.fset, filepath.Join(pk.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pk.files = append(pk.files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: p}
	tp, err := conf.Check(pk.path, p.fset, pk.files, info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", pk.path, err)
	}
	pk.types, pk.info = tp, info
	return nil
}

// rel names an internal package by its path below the module's
// internal/ directory ("membership", "sim"); it reports false for any
// other package.
func (p *program) rel(path string) (string, bool) {
	return strings.CutPrefix(path, p.module+"/internal/")
}

// where renders a position relative to its package's directory parent,
// "sim/build.go:66".
func (p *program) where(pos token.Pos) string {
	at := p.fset.Position(pos)
	return fmt.Sprintf("%s/%s:%d", filepath.Base(filepath.Dir(at.Filename)), filepath.Base(at.Filename), at.Line)
}
