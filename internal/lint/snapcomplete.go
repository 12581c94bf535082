package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// SnapComplete enforces the checkpoint-completeness contract on every type
// with a checkpoint method: a method whose first parameter is a
// *snap.Codec, *snap.Writer or *snap.Reader (Checkpoint, an unexported
// helper it delegates to, or a Snapshot/Restore entry point). Checkpointing
// splits simulator state into architectural + profile state (coded) and
// transient scratch (excluded, rebuilt on decode); a struct field added
// after the checkpoint method was written and silently absent from it is
// how a resumed run diverges from the uninterrupted one, thousands of
// cycles after the restore, with no error at the restore point. The rule:
// every named field of such a struct must be referenced somewhere in its
// checkpoint path (those methods plus every intra-package function they
// transitively call). Scratch fields that are deliberately excluded are
// still referenced (`_ = x.field`) so the exclusion is a visible, reviewable
// decision. One method codes both directions, so a field cannot be written
// and never read back: the layout is stated once.
var SnapComplete = &Analyzer{
	Name: "snapcomplete",
	Doc:  "every field of a checkpointed struct must be referenced in its checkpoint path",
	Run:  runSnapComplete,
}

// isSnapParam reports whether t is *Codec, *Writer or *Reader of a package
// whose import path ends in internal/snap. Matching on the parameter type
// rather than an interface assertion keeps the rule structural: any method
// shaped like a checkpoint method is held to it.
func isSnapParam(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	switch obj.Name() {
	case "Codec", "Writer", "Reader":
		return obj.Pkg() != nil && pathIn(obj.Pkg().Path(), "internal/snap")
	}
	return false
}

func runSnapComplete(p *Pass) {
	decls := packageFuncs(p)

	// Collect the checkpoint methods keyed by receiver type.
	roots := map[*types.Named][]*ast.FuncDecl{}
	for fn, d := range decls { // the roots' order does not matter: fieldRefs unions them
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil || sig.Params().Len() == 0 || !isSnapParam(sig.Params().At(0).Type()) {
			continue
		}
		if named := recvNamed(sig.Recv().Type()); named != nil {
			roots[named] = append(roots[named], d)
		}
	}

	// Deterministic reporting order over the map of receiver types.
	typeOrder := make([]*types.Named, 0, len(roots))
	for named := range roots { // keys are sorted by name before use
		typeOrder = append(typeOrder, named)
	}
	sort.Slice(typeOrder, func(i, j int) bool {
		return typeOrder[i].Obj().Name() < typeOrder[j].Obj().Name()
	})

	for _, named := range typeOrder {
		fieldDecl := structFieldIdents(p, named)
		if fieldDecl == nil {
			continue // non-struct receiver (or struct declared elsewhere)
		}
		referenced := fieldRefs(p, decls, named, roots[named]...)
		for _, ident := range fieldDecl {
			if !referenced[p.Pkg.Info.Defs[ident]] {
				p.Reportf(ident.Pos(), "field %s.%s is not in the checkpoint path; code it or audit its exclusion with `_ = x.%s`",
					named.Obj().Name(), ident.Name, ident.Name)
			}
		}
	}
}

// structFieldIdents finds the struct declaration of named in the package's
// files and returns its field name identifiers in declaration order, exported
// or not (checkpoint completeness is about state, not API; configvalidate
// keeps only the exported ones). Embedded fields have no name identifier and
// are skipped.
func structFieldIdents(p *Pass, named *types.Named) []*ast.Ident {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || p.Pkg.Info.Defs[ts.Name] != named.Obj() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return nil
				}
				var idents []*ast.Ident
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.Name != "_" {
							idents = append(idents, name)
						}
					}
				}
				return idents
			}
		}
	}
	return nil
}
