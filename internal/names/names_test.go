package names_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"obfusmem/internal/attack"
	"obfusmem/internal/campaign"
	"obfusmem/internal/cpu"
	"obfusmem/internal/exp"
	"obfusmem/internal/leakage"
	"obfusmem/internal/metrics"
	"obfusmem/internal/system"
	"obfusmem/internal/trace"
	"obfusmem/internal/workload"
)

// declared returns the value of every Name-typed constant in names.go.
func declared(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Name" {
				continue
			}
			for _, v := range vs.Values {
				s, err := strconv.Unquote(v.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				out[s] = true
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no Name constants found in names.go")
	}
	return out
}

// TestDeclaredNamesGrammar checks every declared name against the
// dotted-lowercase grammar: [a-z0-9] runs joined by '_', '-' or '+',
// segments joined by dots.
func TestDeclaredNamesGrammar(t *testing.T) {
	grammar := regexp.MustCompile(`^[a-z0-9]+([._+-][a-z0-9]+)*$`)
	for n := range declared(t) {
		if !grammar.MatchString(n) {
			t.Errorf("declared name %q violates the dotted-lowercase grammar", n)
		}
	}
}

// TestInstrumentedRunNamesDeclared runs every backend with metrics, tracing
// and fault injection attached, plus a leakage sweep and a one-cell
// campaign, and checks that every metric key and span name they register is
// a declared name or is derived from one through PerChannel, Dummy or
// Scheme, joined by registry scopes.
func TestInstrumentedRunNamesDeclared(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := trace.New(0)
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range system.BackendNames() {
		cfg := system.DefaultConfig(scheme)
		cfg.Metrics, cfg.Trace = reg, rec
		cfg.InjectFaults(2e-3)
		sys := system.New(cfg)
		obs := attack.NewObserver(cfg.Channels, 1<<16)
		sys.Bus().AttachObserver(obs)
		probe := leakage.NewProbe(sys)
		cpu.Run(p, 300, probe, cpu.Config{WriteBuffer: 16, Trace: rec}, 1)
		leakage.Evaluate(obs.WireTrace(), probe.Issued(), rec)
	}
	opts := exp.QuickOptions()
	opts.Requests, opts.Metrics = 200, reg
	exp.LeakageReport(opts)
	r, err := campaign.NewRunner(campaign.Manifest{
		Name: "names", Requests: 100, Schemes: []string{"obfusmem"}, Workloads: []string{"milc"},
	}, campaign.Options{Dir: t.TempDir(), Metrics: reg, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	valid := derivable(declared(t), system.BackendNames())
	snap := reg.Snapshot()
	var got []string
	for k := range snap.Counters {
		got = append(got, k)
	}
	for k := range snap.Gauges {
		got = append(got, k)
	}
	for k := range snap.Histograms {
		got = append(got, k)
	}
	for _, s := range rec.Spans() {
		got = append(got, s.Name)
	}
	if len(got) == 0 {
		t.Fatal("instrumented run registered no names")
	}
	for _, n := range got {
		if !valid(n) {
			t.Errorf("registered name %q is neither declared nor derived from declared names", n)
		}
	}
}

// derivable returns a predicate accepting dot-joins of declared names and
// scheme names, where any part after the first may also be a PerChannel
// "ch<i>" or a Dummy "dummy" suffix.
func derivable(decl map[string]bool, schemes []string) func(string) bool {
	atoms := make(map[string]bool, len(decl)+len(schemes))
	for n := range decl {
		atoms[n] = true
	}
	for _, s := range schemes {
		atoms[s] = true
	}
	channel := regexp.MustCompile(`^ch[0-9]+$`)
	return func(name string) bool {
		parts := strings.Split(name, ".")
		ok := make([]bool, len(parts)+1) // ok[i]: parts[:i] parse
		ok[0] = true
		for i := 0; i < len(parts); i++ {
			if !ok[i] {
				continue
			}
			if i > 0 && (channel.MatchString(parts[i]) || parts[i] == "dummy") {
				ok[i+1] = true
			}
			for j := i + 1; j <= len(parts); j++ {
				if atoms[strings.Join(parts[i:j], ".")] {
					ok[j] = true
				}
			}
		}
		return ok[len(parts)]
	}
}
