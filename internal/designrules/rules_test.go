package designrules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A use is one identifier in production code that refers to obj, inside
// the package-level declaration of user.
type use struct {
	obj, user types.Object
}

// unreached is Rule A: the exported package-level names and the exported
// methods of exported types under the module's internal/ directory that no
// production code in any loaded module reaches, by their names
// ("membership.View.Bump"), sorted. A name in allow is not reported, and
// counts as reached, so the names it uses do too; stale lists the entries
// of allow that name nothing, or a name reached without them.
//
// A use counts when it comes from outside the name's own declaration (a
// type's methods belong to the type's declaration) and from a declaration
// that is itself reached, or that is not a candidate at all: an unexported
// function, a main package, the root package. Reached spreads to a fixpoint.
// A method is also reached when its type is and it implements an interface
// method that is used, or an interface of a standard-library package that
// production code imports (fmt.Stringer, error, http.Handler: the standard
// library calls them). A type the root package exports through an alias
// is reached with all its exported methods.
func unreached(p *program, allow map[string]string) (out, stale []string) {
	cands := map[types.Object]string{}
	byName := map[string]types.Object{}
	var methods []*types.Func
	for _, pk := range p.order {
		rel, ok := p.rel(pk.path)
		if !ok {
			continue
		}
		scope := pk.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			cands[obj] = rel + "." + name
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					cands[m] = rel + "." + name + "." + m.Name()
					methods = append(methods, m)
				}
			}
		}
	}
	for obj, name := range cands {
		byName[name] = obj
	}

	var uses []use
	var ifaces []*types.Interface // imported standard-library interfaces
	seenStd := map[*types.Package]bool{}
	public := map[types.Object]bool{} // exported by the root package through an alias
	for _, pk := range p.order {
		for _, f := range pk.files {
			for _, d := range f.Decls {
				user := declObject(pk.info, d)
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(pk.info.Uses[id]); obj != nil && obj.Pkg() != nil {
							uses = append(uses, use{obj, user})
						}
					}
					return true
				})
			}
		}
		for _, imp := range pk.types.Imports() {
			if _, local := p.pkgs[imp.Path()]; local || seenStd[imp] {
				continue
			}
			seenStd[imp] = true
			ifaces = append(ifaces, exportedInterfaces(imp)...)
		}
		if pk.path == p.module {
			creditAliases(pk.types, public)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	byMethod := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}

	solve := func(seed []types.Object) map[types.Object]bool {
		reached := map[types.Object]bool{}
		for obj := range public {
			reached[obj] = true
		}
		for _, obj := range seed {
			reached[obj] = true
		}
		live := func(user types.Object) bool {
			if user == nil {
				return true
			}
			if tn := recvTypeName(user); tn != nil {
				if _, cand := cands[tn]; cand && !reached[tn] {
					return false
				}
			}
			_, cand := cands[user]
			return !cand || reached[user]
		}
		for changed := true; changed; {
			changed = false
			usedIface := map[string][]*types.Interface{}
			for _, u := range uses {
				if _, cand := cands[u.obj]; cand && !reached[u.obj] && u.obj != u.user &&
					recvTypeName(u.user) != u.obj && live(u.user) {
					reached[u.obj] = true
					changed = true
				}
				if it := interfaceOf(u.obj); it != nil && live(u.user) {
					usedIface[u.obj.Name()] = append(usedIface[u.obj.Name()], it)
				}
			}
			for _, m := range methods {
				tn := recvTypeName(m)
				if reached[m] || !reached[tn] {
					continue
				}
				if implementsAny(tn.Type().(*types.Named), usedIface[m.Name()]) ||
					implementsAny(tn.Type().(*types.Named), byMethod[m.Name()]) {
					reached[m] = true
					changed = true
				}
			}
		}
		return reached
	}

	var seed []types.Object
	for name := range allow {
		if obj, ok := byName[name]; ok {
			seed = append(seed, obj)
		} else {
			stale = append(stale, name+" (no such name)")
		}
	}
	bare, reached := solve(nil), solve(seed)
	for _, obj := range seed {
		if bare[obj] {
			stale = append(stale, cands[obj]+" (reached without the allowlist)")
		}
	}
	for obj, name := range cands {
		if !reached[obj] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	sort.Strings(stale)
	return out, stale
}

// declObject is the object a package-level declaration declares: the
// function or method, the type, or the first name of a one-spec var or
// const group's spec. It is nil for imports and for a group of several
// specs, whose uses then count as production uses.
func declObject(info *types.Info, d ast.Decl) types.Object {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return info.Defs[d.Name]
	case *ast.GenDecl:
		if len(d.Specs) != 1 {
			return nil
		}
		switch s := d.Specs[0].(type) {
		case *ast.TypeSpec:
			return info.Defs[s.Name]
		case *ast.ValueSpec:
			return info.Defs[s.Names[0]]
		}
	}
	return nil
}

// origin maps a method or field of an instantiated generic type to the
// generic declaration it came from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvTypeName is the named type whose method obj is, or nil.
func recvTypeName(obj types.Object) *types.TypeName {
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// interfaceOf is the interface obj is a method of, or nil.
func interfaceOf(obj types.Object) *types.Interface {
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	it, _ := recv.Type().Underlying().(*types.Interface)
	return it
}

func exportedInterfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
			if it, ok := named.Underlying().(*types.Interface); ok && !it.Empty() {
				out = append(out, it)
			}
		}
	}
	return out
}

func implementsAny(t *types.Named, its []*types.Interface) bool {
	if t.TypeParams() != nil {
		return false
	}
	for _, it := range its {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// creditAliases marks every type the root package exports through an
// alias, with its exported methods: they are public API.
func creditAliases(root *types.Package, reached map[types.Object]bool) {
	scope := root.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok {
			continue
		}
		reached[named.Origin().Obj()] = true
		for i := 0; i < named.Origin().NumMethods(); i++ {
			reached[named.Origin().Method(i)] = true
		}
	}
}

// periodPackages are the internal packages whose code runs inside a
// simulated period, or builds what does.
var periodPackages = map[string]bool{
	"core": true, "membership": true, "buffer": true, "netmodel": true,
	"sim": true, "pubsub": true, "pbcast": true, "rng": true, "event": true,
	"idmap": true, "fault": true, "proto": true, "pool": true, "golden": true,
}

// A worldRead is one of Rule B's findings. A go statement is keyed
// "file:func" and a map range "file:func range x" (the function is
// Recv.Name for a method), so an allowlist can name it; a wall-clock read
// and a math/rand import have no key, as nothing excuses them.
type worldRead struct {
	at, what, key string
}

func (w worldRead) String() string {
	if w.key == "" {
		return w.at + ": " + w.what
	}
	return fmt.Sprintf("%s: %s (key %q)", w.at, w.what, w.key)
}

// worldReads is Rule B: in the period packages, every read of the wall
// clock, every import of math/rand, every go statement and every range
// over a map that no sort follows in its block.
func worldReads(p *program) []worldRead {
	var out []worldRead
	for _, pk := range p.order {
		rel, ok := p.rel(pk.path)
		if !ok || !periodPackages[rel] {
			continue
		}
		for i, f := range pk.files {
			file := rel + "/" + pk.names[i]
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); path == "math/rand" || path == "math/rand/v2" {
					out = append(out, worldRead{at: p.where(imp.Pos()), what: "imports " + path})
				}
			}
			for _, d := range f.Decls {
				fn := funcName(d)
				report := func(n ast.Node, key, what string) {
					out = append(out, worldRead{at: p.where(n.Pos()), what: what, key: key})
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if obj := pk.info.Uses[n.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" &&
							(obj.Name() == "Now" || obj.Name() == "Since") {
							report(n, "", "reads the wall clock (time."+obj.Name()+")")
						}
					case *ast.GoStmt:
						report(n, file+":"+fn, "go statement")
					}
					for _, rs := range unsortedMapRanges(pk.info, stmtList(n)) {
						x := types.ExprString(rs.X)
						report(rs, file+":"+fn+" range "+x, "range over map "+x+" with no sort after it")
					}
					return true
				})
			}
		}
	}
	return out
}

// stmtList is the statement list of a block or a case clause, or nil.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// unsortedMapRanges returns the ranges over a map in list that no later
// statement of list sorts after.
func unsortedMapRanges(info *types.Info, list []ast.Stmt) []*ast.RangeStmt {
	var out []*ast.RangeStmt
	for i, s := range list {
		if l, ok := s.(*ast.LabeledStmt); ok {
			s = l.Stmt
		}
		rs, ok := s.(*ast.RangeStmt)
		if !ok {
			continue
		}
		if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap && !sorts(info, list[i+1:]) {
			out = append(out, rs)
		}
	}
	return out
}

// sorts reports whether list calls a function of package sort or a
// slices.Sort function.
func sorts(info *types.Info, list []ast.Stmt) bool {
	found := false
	for _, s := range list {
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
					path := obj.Pkg().Path()
					found = path == "sort" || path == "slices" && strings.HasPrefix(obj.Name(), "Sort")
				}
			}
			return !found
		})
	}
	return found
}

// funcName names the function a declaration declares, Recv.Name for a
// method, or "" for any other declaration.
func funcName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	} else if ix, ok := t.(*ast.IndexListExpr); ok {
		t = ix.X
	}
	return types.ExprString(t) + "." + fd.Name.Name
}

// knobStructs calls fn with every struct type of pk whose name ends in
// Config, Options or Spec: the structs whose fields Rules C and D call
// knobs.
func knobStructs(pk *pkg, fn func(name string, st *types.Struct)) {
	scope := pk.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")) {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			fn(name, st)
		}
	}
}

// knobs is Rule C: the exported, non-embedded fields of every struct type
// whose name ends in Config, Options or Spec, across every loaded package,
// and the number of such structs.
func knobs(p *program) (fields, structs int) {
	for _, pk := range p.order {
		knobStructs(pk, func(_ string, st *types.Struct) {
			structs++
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields++
				}
			}
		})
	}
	return fields, structs
}

// unsetKnobs is Rule D: the knobs (Rule C's fields) of the structs under
// the module's internal/ directory that production code in the loaded
// modules does not both write and read, as "sim.Options.RingSeed (no
// write)", sorted. A write is a composite-literal key, an assignment or
// ++/-- (a write to a.B.C writes B and C), or an address taken (&x.F); a
// write inside the field's own package's Default* functions or
// withDefaults does not count, as those only supply the one value in use.
// Every other use is a read. A field named in allow is not reported; stale
// lists the entries of allow that name no knob, or a knob that is written
// and read without them.
func unsetKnobs(p *program, allow map[string]string) (out, stale []string) {
	fields := map[*types.Var]string{}
	byName := map[string]*types.Var{}
	for _, pk := range p.order {
		rel, ok := p.rel(pk.path)
		if !ok {
			continue
		}
		knobStructs(pk, func(name string, st *types.Struct) {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields[f] = rel + "." + name + "." + f.Name()
					byName[fields[f]] = f
				}
			}
		})
	}
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, pk := range p.order {
		for _, f := range pk.files {
			for _, d := range f.Decls {
				writes := writtenIdents(d)
				defaults := false
				if fd, ok := d.(*ast.FuncDecl); ok {
					defaults = strings.HasPrefix(fd.Name.Name, "Default") || fd.Name.Name == "withDefaults"
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					v, ok := origin(pk.info.Uses[id]).(*types.Var)
					if _, knob := fields[v]; !ok || !knob {
						return true
					}
					switch {
					case !writes[id]:
						read[v] = true
					case !defaults || v.Pkg() != pk.types:
						written[v] = true
					}
					return true
				})
			}
		}
	}
	for name := range allow {
		v, ok := byName[name]
		switch {
		case !ok:
			stale = append(stale, name+" (no such knob)")
		case written[v] && read[v]:
			stale = append(stale, name+" (written and read without the allowlist)")
		}
	}
	for v, name := range fields {
		if _, ok := allow[name]; ok {
			continue
		}
		switch {
		case !written[v] && !read[v]:
			out = append(out, name+" (no write, no read)")
		case !written[v]:
			out = append(out, name+" (no write)")
		case !read[v]:
			out = append(out, name+" (no read)")
		}
	}
	sort.Strings(out)
	sort.Strings(stale)
	return out, stale
}

// writtenIdents returns the selector identifiers d writes through: the
// keys of its composite literals, and every selector of an assignment's
// left side, a ++/-- operand or an & operand (x.B.C: B and C).
func writtenIdents(d ast.Decl) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	mark := func(x ast.Expr) {
		for {
			switch e := x.(type) {
			case *ast.ParenExpr:
				x = e.X
			case *ast.StarExpr:
				x = e.X
			case *ast.SelectorExpr:
				w[e.Sel] = true
				x = e.X
			default:
				return
			}
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					mark(l)
				}
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						w[id] = true
					}
				}
			}
		}
		return true
	})
	return w
}
