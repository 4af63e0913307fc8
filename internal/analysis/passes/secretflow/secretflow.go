// Package secretflow is the compile-time half of the repository's
// obliviousness argument: an interprocedural taint analysis proving that
// nothing observable on the memory bus depends on secret data.
//
// The leakage observatory (internal/attack/leakage) measures empirically
// what an attacker recovers from the wire; this pass proves the
// complementary static property, in the spirit of Haider et al.'s
// definitional framing — obfuscation is a transformation from a secret
// request stream to a wire trace, and the trace must be computable without
// the secrets. Sources are plaintext addresses and data (//obfus:secret
// parameters and fields), ground-truth views (attack.Truth field reads,
// Observer.TruthTrace), and secret-returning functions (bare
// //obfus:secret). Sinks are the wire-observable effects the membus attack
// exploits: event times handed to sim scheduling (Engine.Schedule), bus
// transfer times (Bus.Transfer), and the wire-view fields of bus.Packet
// (CmdCipher, HasCmd, Data, MAC, HasMAC, Channel — the fields attack.Wire
// projects). A branch on a secret-derived condition that guards a wire
// sink is also reported: the choice itself modulates observable traffic.
//
// A flow is legal only through an //obfus:public <reason> declassifier —
// e.g. a sealed command after AES-CTR encryption, or a memory-service time
// the paper's threat model scopes out. Every declassifier carries its
// justification in source, so `git grep obfus:public` is the complete audit
// surface of the security argument.
//
// Findings are reported only inside the obfuscation-relevant packages
// (bus, memctl, obfus, oram, palermo, and golden test packages named
// secretflow); summaries are computed for every package so flows through
// shared helpers stay visible.
package secretflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"obfusmem/internal/analysis/annot"
	"obfusmem/internal/analysis/framework"
)

// Analyzer is the secretflow pass.
var Analyzer = &framework.Analyzer{
	Name: "secretflow",
	Doc:  "forbids secret-derived values from reaching wire-observable sinks (times, packet shapes, secret-guarded branches) outside //obfus:public declassifiers",
	Run:  run,
}

// scoped lists the package basenames whose findings are reported. Summaries
// are still computed everywhere else.
var scoped = map[string]bool{
	"bus":        true,
	"memctl":     true,
	"obfus":      true,
	"oram":       true,
	"palermo":    true,
	"secretflow": true, // golden test packages
}

// wireFields are bus.Packet's wire-observable fields — exactly the view
// attack.Wire projects for the attacker. The ground-truth metadata fields
// (Addr, Type, IsDummy, ...) are not sinks; on the inference side the
// leakage observatory's recovery caps catch any consumption of them.
var wireFields = map[string]bool{
	"CmdCipher": true, "HasCmd": true, "Data": true,
	"MAC": true, "HasMAC": true, "Channel": true,
}

// sink describes one wire-observable callee: which argument indices (into
// call.Args) the attacker can see.
type sink struct {
	args []int
	what string
}

// sinkTable maps (package basename, Recv.Name function key) to its
// wire-observable arguments.
var sinkTable = map[[2]string]sink{
	{"sim", "Engine.Schedule"}: {[]int{0}, "an event timestamp"},
	{"bus", "Bus.Transfer"}:    {[]int{0}, "a bus transfer time"},
}

// publicResults lists calls whose results are wire-observable and therefore
// public by definition: the attacker already sees arrival times, so feeding
// them back into later scheduling is the model, not a leak.
var publicResults = map[[2]string]bool{
	{"bus", "Bus.Transfer"}:     true,
	{"bus", "Bus.TransferTime"}: true,
}

func run(pass *framework.Pass) error {
	report := scoped[path.Base(pass.Pkg.Path())] || scoped[pass.Pkg.Name()]

	// Same-package annotation lookup bridges *types.Func back to the
	// declaration the directives hang off. Cross-package lookups go through
	// the module index; golden test packages are not part of the module, so
	// their own annotations must resolve through pass.Annot.
	decls := make(map[string]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				decls[annot.DeclKey(fn)] = fn
			}
		}
	}
	funcArgs := func(fn *types.Func, directive string) ([]string, bool) {
		if fn == nil {
			return nil, false
		}
		if fn.Pkg() == pass.Pkg {
			if decl, ok := decls[annot.FuncKey(fn)]; ok {
				return pass.Annot.FuncArgs(decl, directive)
			}
			return nil, false
		}
		return pass.Module.FuncArgs(fn, directive)
	}

	spec := &framework.TaintSpec{
		Analyzer: "secretflow",
		SinkArgs: func(fn *types.Func) ([]int, string) {
			if s, ok := sinkTable[funcID(fn)]; ok {
				return s.args, s.what
			}
			return nil, ""
		},
		SinkField: func(owner types.Type, field *types.Var) (string, bool) {
			name, pkg := namedOf(owner)
			if name == "Packet" && pkg == "bus" && wireFields[field.Name()] {
				return "a wire-observable bus.Packet field (the attack.Wire view)", true
			}
			return "", false
		},
		SourceCall: func(fn *types.Func) bool {
			if id := funcID(fn); id[0] == "attack" && id[1] == "Observer.TruthTrace" {
				return true
			}
			args, ok := funcArgs(fn, annot.Secret)
			return ok && len(args) == 0 // bare //obfus:secret: results are secret
		},
		SecretField: func(owner types.Type, field *types.Var) bool {
			name, pkg := namedOf(owner)
			if name == "Truth" && pkg == "attack" {
				return true // ground truth is secret by construction
			}
			if name == "" {
				return false
			}
			if field.Pkg() == pass.Pkg {
				return pass.Annot.FieldHas(name, field.Name(), annot.Secret)
			}
			return pass.Module.FieldHas(field.Pkg(), name, field.Name(), annot.Secret)
		},
		SecretParams: func(decl *ast.FuncDecl) map[string]bool {
			args, ok := pass.Annot.FuncArgs(decl, annot.Secret)
			if !ok || len(args) == 0 {
				return nil
			}
			set := make(map[string]bool, len(args))
			for _, a := range args {
				set[a] = true
			}
			return set
		},
		PublicFn: func(fn *types.Func) bool {
			_, ok := funcArgs(fn, annot.Public)
			return ok
		},
		PublicResults: func(fn *types.Func) bool {
			return publicResults[funcID(fn)]
		},
		Report: func(pos token.Pos, rule, format string, args ...any) {
			if report {
				pass.ReportRulef(pos, rule, format, args...)
			}
		},
	}
	ta := &framework.TaintAnalysis{Pass: pass, Spec: spec}
	ta.Run()
	return nil
}

// funcID keys a function by (declaring package basename, Recv.Name).
func funcID(fn *types.Func) [2]string {
	if fn == nil || fn.Pkg() == nil {
		return [2]string{}
	}
	return [2]string{path.Base(fn.Pkg().Path()), annot.FuncKey(fn)}
}

// namedOf resolves a (possibly pointer) type to its named type and
// declaring package basename.
func namedOf(t types.Type) (name, pkg string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Name(), n.Obj().Pkg().Name()
}
