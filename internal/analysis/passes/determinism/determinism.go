// Package determinism machine-checks the map-order half of the simulator's
// bit-identical-output invariant: within the scoped packages (sim, obfus,
// palermo, backend, bus, memctl, pcm, exp, metrics, trace, leakage, stats,
// campaign, system, workload, attack) it reports map iteration whose effect depends
// on iteration order.
//
// Keyed writes, loop-local state, and commutative integer accumulation are
// order-insensitive and allowed. Appending to an outer slice is allowed only
// when a total-order sort (sort.Strings/Ints/Float64s, slices.Sort) follows
// in the same function; sort.Slice and sort.SliceStable do NOT qualify,
// because a partial comparator preserves map order among ties (exactly the
// bug class that once leaked into the Chrome trace export).
//
// Only map order is checked here. Wall-clock reads, the global math/rand
// source, goroutines and channel races in model code all change output on
// every run, so the golden and determinism tests catch them (DESIGN.md
// section 6). A map-order bug can hide: a map with one key, or keys whose
// order happens not to reach the output, passes every run.
package determinism

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"obfusmem/internal/analysis/load"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// Check runs the pass over the packages and returns its findings in
// position (file, line, column) order.
func Check(pkgs []*load.Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		if !inScope(pkg.Pkg.Path()) {
			continue
		}
		c := &checker{fset: pkg.Fset, info: pkg.Info}
		c.run(pkg.Files)
		out = append(out, c.diags...)
	}
	slices.SortStableFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Column, b.Pos.Column))
	})
	return out
}

// checker carries one type-checked package through the pass.
type checker struct {
	fset  *token.FileSet
	info  *types.Info
	diags []Diagnostic
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Pos: c.fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// scoped lists the leaf package names (under internal/) the analyzer
// applies to.
var scoped = map[string]bool{
	"sim": true, "obfus": true, "palermo": true, "backend": true,
	"bus": true, "memctl": true, "pcm": true, "exp": true,
	"metrics": true, "trace": true, "leakage": true, "stats": true,
	"campaign": true, "system": true, "workload": true, "attack": true,
}

// inScope reports whether the import path is .../internal/<scoped leaf>.
func inScope(path string) bool {
	parts := strings.Split(path, "/")
	return len(parts) >= 2 && parts[len(parts)-2] == "internal" && scoped[parts[len(parts)-1]]
}

func (c *checker) run(files []*ast.File) {
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				if rng, ok := n.(*ast.RangeStmt); ok {
					c.checkRange(enclosingBody(fn), rng)
				}
				return true
			})
		}
	}
}

// enclosingBody returns fn's body, or nil for non-function declarations.
func enclosingBody(fn *ast.FuncDecl) *ast.BlockStmt {
	if fn == nil {
		return nil
	}
	return fn.Body
}

// calleeFunc resolves the static callee of a call, or nil for dynamic calls,
// builtins, and conversions.
func (c *checker) calleeFunc(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = c.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = c.info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// checkRange classifies the body of a map-range statement. body is the
// enclosing function body, used to look for a later total-order sort of any
// slice the loop appends to.
func (c *checker) checkRange(body *ast.BlockStmt, rng *ast.RangeStmt) {
	t := c.info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}

	local := func(e ast.Expr) bool { return c.declaredWithin(e, rng) }

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.reportf(n.Pos(), "function literal inside map-range: its effects cannot be proven order-insensitive")
			return false
		case *ast.RangeStmt:
			// A nested range's leaves are still classified against this
			// loop's rules (they run in map-iteration order); whether the
			// nested range is itself a map-range is checked separately by
			// the top-level walk.
			return true
		case *ast.AssignStmt:
			c.checkRangeAssign(body, rng, n, local)
			return false // leaves classified; don't re-visit as idents
		case *ast.IncDecStmt:
			if !local(n.X) && !isIndexed(n.X) && !c.integerTyped(n.X) {
				c.reportf(n.Pos(), "order-dependent update of %s in map-range: only keyed writes and integer accumulation are order-insensitive", exprString(n.X))
			}
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
					if _, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin {
						return false
					}
				}
				c.reportf(n.Pos(), "call with side effects inside map-range: effects ordered by map iteration are nondeterministic")
				return false
			}
		case *ast.ReturnStmt:
			c.reportf(n.Pos(), "return inside map-range selects an iteration-order-dependent element")
			return false
		}
		return true
	})
}

// checkRangeAssign classifies one assignment inside a map-range body.
func (c *checker) checkRangeAssign(body *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt, local func(ast.Expr) bool) {
	for i, lhs := range as.Lhs {
		if isBlank(lhs) || local(lhs) || isIndexed(lhs) || as.Tok == token.DEFINE {
			continue // keyed or loop-local writes carry the key; order-free
		}
		// x = append(x, ...) on an outer slice: allowed iff a total-order
		// sort of x follows the loop in the same function.
		if i < len(as.Rhs) {
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok && c.isAppendTo(call, lhs) {
				if c.sortedAfter(body, lhs, rng.End()) {
					continue
				}
				c.reportf(as.Pos(), "map keys accumulate into %s with no total-order sort after the loop (sort.Slice does not qualify: a partial comparator keeps map order among ties)", exprString(lhs))
				continue
			}
		}
		// Commutative integer accumulation is order-insensitive.
		switch as.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			if c.integerTyped(lhs) {
				continue
			}
		}
		c.reportf(as.Pos(), "order-dependent write to %s in map-range: the final value depends on map iteration order", exprString(lhs))
	}
}

// sortedAfter reports whether a total-order sort of the slice named by lhs
// appears in body after pos. Only element-ordered sorts qualify:
// sort.Strings, sort.Ints, sort.Float64s, and slices.Sort.
func (c *checker) sortedAfter(body *ast.BlockStmt, lhs ast.Expr, pos token.Pos) bool {
	obj := c.exprObject(lhs)
	if body == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 || found {
			return !found
		}
		fn := c.calleeFunc(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		totalOrder := (fn.Pkg().Path() == "sort" && (fn.Name() == "Strings" || fn.Name() == "Ints" || fn.Name() == "Float64s")) ||
			(fn.Pkg().Path() == "slices" && fn.Name() == "Sort")
		if totalOrder && c.exprObject(call.Args[0]) == obj {
			found = true
		}
		return !found
	})
	return found
}

// declaredWithin reports whether e names a variable declared inside the
// range statement (the key/value vars or a body-local).
func (c *checker) declaredWithin(e ast.Expr, rng *ast.RangeStmt) bool {
	obj := c.exprObject(e)
	return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}

func (c *checker) exprObject(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := c.info.Uses[id]; obj != nil {
			return obj
		}
		return c.info.Defs[id]
	}
	return nil
}

func isIndexed(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.IndexExpr)
	return ok
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

func (c *checker) integerTyped(e ast.Expr) bool {
	t := c.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isAppendTo reports whether call is append(target, ...) for the same
// variable as target.
func (c *checker) isAppendTo(call *ast.CallExpr, target ast.Expr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := c.info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	tObj := c.exprObject(target)
	return tObj != nil && c.exprObject(call.Args[0]) == tObj
}

// exprString renders a short name for diagnostics.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "expression"
}
