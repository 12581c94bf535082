package lint

import (
	"go/ast"
	"go/types"
)

// ConfigValidate enforces that every exported field of pipeline.Config is
// referenced somewhere in its Validate path (the Validate method plus every
// intra-package function it transitively calls). Config is the single entry
// point for all of Table 7's architectural parameters; a field added for a
// new experiment knob but never audited in Validate is how a zero ROB size
// or a negative latency reaches the cycle model and dies as a mid-run
// invariant panic instead of an immediate, named configuration error. Fields
// with genuinely no invariant are still referenced (`_ = c.Field`) so the
// audit is visible and complete.
var ConfigValidate = &Analyzer{
	Name: "configvalidate",
	Doc:  "every exported pipeline.Config field must be referenced in Validate",
	Match: func(pkgPath string) bool {
		return pathIn(pkgPath, "internal/pipeline")
	},
	Run: runConfigValidate,
}

func runConfigValidate(p *Pass) {
	obj, ok := p.Pkg.Types.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return
	}
	cfgType, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	if _, ok := cfgType.Underlying().(*types.Struct); !ok {
		return
	}

	decls := packageFuncs(p)
	var validate *ast.FuncDecl
	for fn, d := range decls {
		sig := fn.Type().(*types.Signature)
		if fn.Name() != "Validate" || sig.Recv() == nil {
			continue
		}
		if recvNamed(sig.Recv().Type()) == cfgType {
			validate = d
		}
	}
	if validate == nil {
		p.Reportf(cfgType.Obj().Pos(), "Config has no Validate method; every exported field needs a validation/defaulting audit")
		return
	}

	referenced := fieldRefs(p, decls, cfgType, validate)
	for _, ident := range structFieldIdents(p, cfgType) {
		if ident.IsExported() && !referenced[p.Pkg.Info.Defs[ident]] {
			p.Reportf(ident.Pos(), "exported Config field %s is never referenced in the Validate path; add a check (or an explicit `_ = c.%s` audit)", ident.Name, ident.Name)
		}
	}
}

// fieldRefs walks roots and every intra-package function they transitively
// call, and returns the fields of named that some selector in them refers
// to.
func fieldRefs(p *Pass, decls map[*types.Func]*ast.FuncDecl, named *types.Named, roots ...*ast.FuncDecl) map[types.Object]bool {
	referenced := map[types.Object]bool{}
	visited := map[*ast.FuncDecl]bool{}
	queue := roots
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if visited[d] {
			continue
		}
		visited[d] = true
		ast.Inspect(d, func(n ast.Node) bool {
			if se, ok := n.(*ast.SelectorExpr); ok {
				if sel, ok := p.Pkg.Info.Selections[se]; ok && sel.Kind() == types.FieldVal &&
					recvNamed(sel.Recv()) == named {
					referenced[sel.Obj()] = true
				}
			}
			return true
		})
		queue = append(queue, calleeDecls(p, d, decls)...)
	}
	return referenced
}

// recvNamed unwraps a (possibly pointer) receiver or selection type to its
// named type.
func recvNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// packageFuncs maps every function/method declared in the package to its
// declaration.
func packageFuncs(p *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	return decls
}

// calleeDecls resolves the static intra-package calls made inside d.
func calleeDecls(p *Pass, d *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	ast.Inspect(d, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		if fn, ok := p.Pkg.Info.Uses[id].(*types.Func); ok {
			if callee, ok := decls[fn]; ok {
				out = append(out, callee)
			}
		}
		return true
	})
	return out
}
