// Package statsintegrity guards the pipeline that turns simulator counters
// into golden checksums. The golden matrix hashes json.Marshal of the
// stats structs, and the flattened JSONReport re-keys every counter by
// name; a new counter that is unexported, json-skipped, or missing from
// the flattening silently drifts out of both, and a counter the machine
// never populates pins a golden over a dead field. Three annotations make
// the contract mechanical:
//
//	//ascoma:stats            on a struct: every field must be exported,
//	                          must not carry a `json:"-"` tag, and must be
//	                          referenced by a serialization function below
//	//ascoma:stats-serialize  on same-package functions that build the
//	                          serialized views (AppendReport, counterValues, ...)
//	//ascoma:stats-finalize T on functions (any package importing the
//	                          stats types) that populate T at the end of a
//	                          run; together they must cover every field of
//	                          T, where assigning or copying a whole value
//	                          of T covers all of its fields at once
//
// A field that is deliberately excluded from serialization is suppressed
// with //ascoma:allow-unserialized <reason> on the field's line or the
// line above.
package statsintegrity

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"ascoma/internal/analysis"
)

// Analyzer is the statsintegrity analysis.
var Analyzer = &analysis.Analyzer{
	Name: "statsintegrity",
	Doc:  "require every field of an //ascoma:stats struct to reach both the golden-checksum serialization and a //ascoma:stats-finalize populator",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	checkSerialization(pass)
	checkFinalize(pass)
	return nil
}

// markedStruct is one //ascoma:stats struct declared in this package.
type markedStruct struct {
	spec *ast.TypeSpec
	st   *ast.StructType
	typ  types.Type // the named type
}

func markedStructs(pass *analysis.Pass) []markedStruct {
	var out []markedStruct
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if _, marked := analysis.HasDirective(doc, "stats"); !marked {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					pass.Reportf(ts.Pos(), "//ascoma:stats applies only to struct types")
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				out = append(out, markedStruct{spec: ts, st: st, typ: obj.Type()})
			}
		}
	}
	return out
}

// serializeFuncs returns the bodies of the //ascoma:stats-serialize
// functions in the package.
func serializeFuncs(pass *analysis.Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, marked := analysis.HasDirective(fd.Doc, "stats-serialize"); marked {
				out = append(out, fd)
			}
		}
	}
	return out
}

// fieldsSelected records, for each given struct type, the set of field
// names selected (x.Field) anywhere inside the given function bodies, plus
// whether a whole value of the type is assigned or composite-built there
// (which covers every field at once).
func fieldsSelected(pass *analysis.Pass, fds []*ast.FuncDecl, targets []types.Type) (sel map[types.Type]map[string]bool, whole map[types.Type]bool) {
	sel = make(map[types.Type]map[string]bool)
	whole = make(map[types.Type]bool)
	// matchesValue accepts only the struct type itself: copying a whole
	// VALUE covers every field, but taking or passing a pointer merely
	// aliases the struct and proves nothing about its fields.
	matchesValue := func(t types.Type) (types.Type, bool) {
		if t == nil {
			return nil, false
		}
		for _, want := range targets {
			if types.Identical(t, want) {
				return want, true
			}
		}
		return nil, false
	}
	// matches additionally sees through one pointer, for field selections
	// on a *T receiver.
	matches := func(t types.Type) (types.Type, bool) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return matchesValue(t)
	}
	record := func(t types.Type, field string) {
		if m := sel[t]; m == nil {
			sel[t] = map[string]bool{field: true}
		} else {
			m[field] = true
		}
	}
	for _, fd := range fds {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if s, ok := pass.TypesInfo.Selections[n]; ok && s.Kind() == types.FieldVal {
					if t, ok := matches(s.Recv()); ok {
						record(t, n.Sel.Name)
					}
				}
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					if tv, ok := pass.TypesInfo.Types[rhs]; ok {
						if t, ok := matchesValue(tv.Type); ok {
							whole[t] = true
						}
					}
				}
			case *ast.CompositeLit:
				if tv, ok := pass.TypesInfo.Types[n]; ok {
					if t, ok := matchesValue(tv.Type); ok && len(n.Elts) > 0 {
						// A keyed literal covers only its named fields.
						all := true
						for _, e := range n.Elts {
							kv, isKV := e.(*ast.KeyValueExpr)
							if !isKV {
								continue // positional literal covers all
							}
							all = false
							if id, ok := kv.Key.(*ast.Ident); ok {
								record(t, id.Name)
							}
						}
						if all {
							whole[t] = true
						}
					}
				}
			}
			return true
		})
	}
	return sel, whole
}

func checkSerialization(pass *analysis.Pass) {
	structs := markedStructs(pass)
	if len(structs) == 0 {
		return
	}
	fds := serializeFuncs(pass)
	if len(fds) == 0 {
		pass.Reportf(structs[0].spec.Pos(), "package declares //ascoma:stats structs but no //ascoma:stats-serialize function")
		return
	}
	targets := make([]types.Type, len(structs))
	for i, ms := range structs {
		targets[i] = ms.typ
	}
	sel, whole := fieldsSelected(pass, fds, targets)

	for _, ms := range structs {
		name := ms.spec.Name.Name
		for _, field := range ms.st.Fields.List {
			for _, id := range field.Names {
				if pass.Allowed(id.Pos(), "allow-unserialized") {
					continue
				}
				if !id.IsExported() {
					pass.Reportf(id.Pos(), "field %s.%s is unexported: json.Marshal skips it, so the golden checksums cannot see it", name, id.Name)
					continue
				}
				if jsonSkipped(field.Tag) {
					pass.Reportf(id.Pos(), "field %s.%s carries json:\"-\": the golden checksums cannot see it", name, id.Name)
					continue
				}
				if !whole[ms.typ] && !sel[ms.typ][id.Name] {
					pass.Reportf(id.Pos(), "field %s.%s is not referenced by any //ascoma:stats-serialize function: the flattened report will silently omit it", name, id.Name)
				}
			}
		}
	}
}

func jsonSkipped(tag *ast.BasicLit) bool {
	if tag == nil {
		return false
	}
	val := strings.Trim(tag.Value, "`")
	jt, ok := reflect.StructTag(val).Lookup("json")
	if !ok {
		return false
	}
	return jt == "-"
}

// finalizeTarget resolves the type named by a //ascoma:stats-finalize
// argument ("Stats" or "stats.Machine") in the context of the file's
// package.
func finalizeTarget(pass *analysis.Pass, arg string) (types.Type, bool) {
	pkgPart, typePart, qualified := strings.Cut(arg, ".")
	scope := pass.Pkg.Scope()
	if qualified {
		// Find the imported package whose local name matches.
		for _, imp := range pass.Pkg.Imports() {
			if imp.Name() == pkgPart {
				scope = imp.Scope()
				break
			}
		}
		if scope == pass.Pkg.Scope() {
			return nil, false
		}
	} else {
		typePart = pkgPart
	}
	obj := scope.Lookup(typePart)
	if obj == nil {
		return nil, false
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, false
	}
	if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
		return nil, false
	}
	return tn.Type(), true
}

func checkFinalize(pass *analysis.Pass) {
	// Pool the marked functions per target type: coverage is the union
	// across the package (construction stamps identity fields, finalize
	// stamps aggregates).
	type pool struct {
		fds   []*ast.FuncDecl
		first *ast.FuncDecl
	}
	pools := make(map[types.Type]*pool)
	var order []types.Type
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, d := range analysis.DeclDirectives(fd.Doc) {
				if d.Name != "stats-finalize" {
					continue
				}
				if d.Arg == "" {
					pass.Reportf(fd.Name.Pos(), "//ascoma:stats-finalize requires a type argument, e.g. //ascoma:stats-finalize stats.Machine")
					continue
				}
				target, ok := finalizeTarget(pass, d.Arg)
				if !ok {
					pass.Reportf(fd.Name.Pos(), "//ascoma:stats-finalize %s: cannot resolve a struct type of that name here", d.Arg)
					continue
				}
				p := pools[target]
				if p == nil {
					p = &pool{first: fd}
					pools[target] = p
					order = append(order, target)
				}
				p.fds = append(p.fds, fd)
			}
		}
	}
	for _, target := range order {
		p := pools[target]
		sel, whole := fieldsSelected(pass, p.fds, []types.Type{target})
		if whole[target] {
			continue
		}
		st := target.Underlying().(*types.Struct)
		var missing []string
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !sel[target][f.Name()] {
				missing = append(missing, f.Name())
			}
		}
		if len(missing) > 0 {
			pass.Reportf(p.first.Name.Pos(), "//ascoma:stats-finalize %s: field(s) %s never populated by the marked function(s) in this package",
				types.TypeString(target, types.RelativeTo(pass.Pkg)), strings.Join(missing, ", "))
		}
	}
}
