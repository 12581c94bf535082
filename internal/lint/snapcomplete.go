package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// SnapComplete enforces the checkpoint-completeness contract on every type
// that implements the snap.Checkpointable interface (an exported Snapshot
// method taking *snap.Writer and/or an exported Restore taking *snap.Reader).
// Checkpointing splits simulator state into architectural + profile state
// (serialized) and transient scratch (excluded, rebuilt on restore); a struct
// field added after the Snapshot method was written and silently absent from
// it is how a resumed run diverges from the uninterrupted one, thousands of
// cycles after the restore, with no error at the restore point. The rule:
// every named field of a Checkpointable struct must be referenced somewhere
// in the union of its Snapshot and Restore paths (the two methods plus every
// intra-package function they transitively call). Scratch fields that are
// deliberately excluded are still referenced (`_ = x.field`) so the exclusion
// is a visible, reviewable decision. A type with only one of the two methods
// is reported too — a snapshot nothing can restore is dead weight, and a
// restore with no producer can never have been tested round-trip.
var SnapComplete = &Analyzer{
	Name: "snapcomplete",
	Doc:  "every field of a Checkpointable struct must be referenced in its Snapshot/Restore path",
	Run:  runSnapComplete,
}

// isSnapPtrParam reports whether t is *T for a named type called want
// ("Writer" or "Reader") declared in a package whose import path ends in
// internal/snap. Matching on the parameter type rather than an interface
// assertion keeps the rule structural: any method shaped like the contract
// is held to it.
func isSnapPtrParam(t types.Type, want string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == want && obj.Pkg() != nil && pathIn(obj.Pkg().Path(), "internal/snap")
}

func runSnapComplete(p *Pass) {
	decls := packageFuncs(p)

	// Collect Snapshot/Restore methods keyed by receiver type.
	type snapMethods struct {
		snapshot, restore *ast.FuncDecl
	}
	byType := map[*types.Named]*snapMethods{}
	for fn, d := range decls {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil || sig.Params().Len() != 1 {
			continue
		}
		named := recvNamed(sig.Recv().Type())
		if named == nil {
			continue
		}
		m := byType[named]
		switch {
		case fn.Name() == "Snapshot" && isSnapPtrParam(sig.Params().At(0).Type(), "Writer"):
			if m == nil {
				m = &snapMethods{}
				byType[named] = m
			}
			m.snapshot = d
		case fn.Name() == "Restore" && isSnapPtrParam(sig.Params().At(0).Type(), "Reader"):
			if m == nil {
				m = &snapMethods{}
				byType[named] = m
			}
			m.restore = d
		}
	}
	if len(byType) == 0 {
		return
	}

	// Deterministic reporting order over the map of receiver types.
	typeOrder := make([]*types.Named, 0, len(byType))
	for named := range byType { // keys are sorted by name before use
		typeOrder = append(typeOrder, named)
	}
	sort.Slice(typeOrder, func(i, j int) bool {
		return typeOrder[i].Obj().Name() < typeOrder[j].Obj().Name()
	})

	for _, named := range typeOrder {
		m := byType[named]
		switch {
		case m.snapshot == nil:
			p.Reportf(named.Obj().Pos(), "%s has Restore but no Snapshot; a restore path with no producer cannot be round-trip tested", named.Obj().Name())
			continue
		case m.restore == nil:
			p.Reportf(named.Obj().Pos(), "%s has Snapshot but no Restore; a snapshot nothing can restore is dead state", named.Obj().Name())
			continue
		}

		fieldDecl := structFieldIdents(p, named)
		if fieldDecl == nil {
			continue // non-struct receiver (or struct declared elsewhere)
		}

		referenced := fieldRefs(p, decls, named, m.snapshot, m.restore)
		for _, ident := range fieldDecl {
			obj := p.Pkg.Info.Defs[ident]
			if !referenced[obj] {
				p.Reportf(ident.Pos(), "field %s.%s is in neither the Snapshot nor the Restore path; serialize it or audit its exclusion with `_ = x.%s`",
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
