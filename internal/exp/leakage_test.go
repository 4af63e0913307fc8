package exp

import (
	"fmt"
	"reflect"
	"testing"

	"obfusmem/internal/leakage"
)

// leakTestOpts is the leakage sweep at CI scale: large enough that the
// ordering acceptance margins below hold with room to spare.
func leakTestOpts() Options {
	o := testOpts()
	o.Requests = 1200
	return o
}

func schemeRows(rep *leakage.Report) map[string]leakage.SchemeLeakage {
	m := make(map[string]leakage.SchemeLeakage, len(rep.Schemes))
	for _, s := range rep.Schemes {
		m[s.Scheme] = s
	}
	return m
}

// TestLeakageOrdering is the acceptance check of the leakage observatory:
// the quantitative metrics must reproduce the qualitative security story —
// unprotected >> encrypt-only > ObfusMem >= Palermo ~ Path ORAM on address
// recovery, and mutual information strictly decreasing from plaintext bus
// to ORAM's silent (perf-model) bus.
func TestLeakageOrdering(t *testing.T) {
	rows := schemeRows(LeakageReport(leakTestOpts()))
	for _, want := range []string{"unprotected", "encrypt-only", "obfusmem", "palermo", "oram"} {
		if _, ok := rows[want]; !ok {
			t.Fatalf("leakage report is missing scheme %q", want)
		}
	}

	// Address recovery: the plaintext bus is an open book; encrypt-only
	// still ships plaintext addresses but its counter-fetch traffic
	// misaligns some of them; the obfuscating schemes collapse to near
	// nothing; ORAM's perf model produces no observable traffic at all.
	unRec := rows["unprotected"].RecoveryAccuracy
	encRec := rows["encrypt-only"].RecoveryAccuracy
	obfRec := rows["obfusmem"].RecoveryAccuracy
	palRec := rows["palermo"].RecoveryAccuracy
	oramRec := rows["oram"].RecoveryAccuracy
	if unRec < 0.95 {
		t.Errorf("unprotected recovery = %.4f, want >= 0.95 (plaintext addresses)", unRec)
	}
	if encRec >= unRec || encRec < 0.5 {
		t.Errorf("encrypt-only recovery = %.4f, want in [0.5, %.4f)", encRec, unRec)
	}
	if obfRec >= encRec/2 || obfRec > 0.1 {
		t.Errorf("obfusmem recovery = %.4f, want << encrypt-only %.4f", obfRec, encRec)
	}
	if palRec > obfRec+0.05 {
		t.Errorf("palermo recovery = %.4f, want <= obfusmem %.4f + eps", palRec, obfRec)
	}
	if oramRec != 0 {
		t.Errorf("oram recovery = %.4f, want 0 (no observable traffic)", oramRec)
	}

	// Mutual information: strictly ordered plaintext > encrypted+addressed
	// > obfuscated, and exactly zero for the silent ORAM bus.
	if rows["unprotected"].MIBitsPerRequest <= rows["encrypt-only"].MIBitsPerRequest {
		t.Errorf("MI: unprotected %.4f should exceed encrypt-only %.4f",
			rows["unprotected"].MIBitsPerRequest, rows["encrypt-only"].MIBitsPerRequest)
	}
	if rows["encrypt-only"].MIBitsPerRequest <= rows["obfusmem"].MIBitsPerRequest {
		t.Errorf("MI: encrypt-only %.4f should exceed obfusmem %.4f",
			rows["encrypt-only"].MIBitsPerRequest, rows["obfusmem"].MIBitsPerRequest)
	}
	if rows["oram"].MIBitsPerRequest != 0 || rows["oram"].MIPluginBitsPerReq != 0 {
		t.Errorf("MI: oram = %.4f (plug-in %.4f), want exactly 0",
			rows["oram"].MIBitsPerRequest, rows["oram"].MIPluginBitsPerReq)
	}

	// Miller-Madow never exceeds the plug-in estimate (the correction's
	// sign is fixed by Kxy >= max(Kx, Ky), minus the non-negativity clamp).
	for name, r := range rows {
		if r.MIBitsPerRequest > r.MIPluginBitsPerReq+1e-12 {
			t.Errorf("%s: MM MI %.6f exceeds plug-in %.6f", name, r.MIBitsPerRequest, r.MIPluginBitsPerReq)
		}
	}

	// Workload identification: an empty wire carries no workload identity,
	// so ORAM sits at chance (advantage 0); the plaintext bus identifies
	// the workload essentially always.
	if rows["oram"].ClassifierAdvantage != 0 {
		t.Errorf("oram classifier advantage = %.4f, want 0", rows["oram"].ClassifierAdvantage)
	}
	if rows["unprotected"].ClassifierAdvantage < 0.5 {
		t.Errorf("unprotected classifier advantage = %.4f, want >= 0.5", rows["unprotected"].ClassifierAdvantage)
	}
}

// TestLeakageWorkerIndependence: the leakage sweep must be bit-identical
// for any worker count, like every other suite in this package.
func TestLeakageWorkerIndependence(t *testing.T) {
	o := leakTestOpts()
	o.Requests = 400

	o.Workers = 1
	one := LeakageReport(o)
	o.Workers = 3
	many := LeakageReport(o)
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("leakage report differs between 1 and 3 workers:\n1: %+v\n3: %+v", one, many)
	}

	again := LeakageReport(o)
	if !reflect.DeepEqual(many, again) {
		t.Fatalf("leakage report is not reproducible for a fixed seed")
	}
}

// TestBackendsCarriesLeakageColumns: the head-to-head matrix's security
// columns must match the standalone leakage report cell for cell (same
// sweep, same seed).
func TestBackendsCarriesLeakageColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("full backend matrix in -short mode")
	}
	o := leakTestOpts()
	o.Requests = 400
	rows := schemeRows(LeakageReport(o))
	tb := Backends(o)
	for r := 0; r < tb.Rows(); r++ {
		name := tb.Cell(r, 0)
		want := rows[name]
		if got := tb.Cell(r, 4); got != fmt.Sprintf("%.4f", want.MIBitsPerRequest) {
			t.Errorf("%s: matrix MI %q != leakage report %.4f", name, got, want.MIBitsPerRequest)
		}
		if got := tb.Cell(r, 5); got != fmt.Sprintf("%.4f", want.RecoveryAccuracy) {
			t.Errorf("%s: matrix recovery %q != leakage report %.4f", name, got, want.RecoveryAccuracy)
		}
		if got := tb.Cell(r, 6); got != fmt.Sprintf("%.4f", want.ClassifierAdvantage) {
			t.Errorf("%s: matrix classifier adv %q != leakage report %.4f", name, got, want.ClassifierAdvantage)
		}
	}
}
