package stats

import (
	"slices"
	"strings"
	"testing"

	"obfusmem/internal/xrand"
)

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestTableFormat(t *testing.T) {
	tb := NewTable("Table X", "Benchmark", "Overhead")
	tb.AddRowf(1, "mcf", 32.1)
	tb.AddRowf(1, "lbm", 12.5)
	tb.AddNote("n=%d", 2)
	s := tb.String()
	for _, want := range []string{"Table X", "Benchmark", "mcf", "32.1", "note: n=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	if tb.Cell(0, 0) != "mcf" || tb.Cell(1, 1) != "12.5" {
		t.Error("Cell accessor wrong")
	}
	if tb.Cell(5, 0) != "" || tb.Cell(0, 9) != "" {
		t.Error("out-of-range Cell should be empty")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `q"u`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""u"`) {
		t.Errorf("CSV escaping wrong: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
}

func TestAddRowTruncates(t *testing.T) {
	tb := NewTable("", "only")
	tb.AddRow("a", "b", "c")
	if tb.Cell(0, 0) != "a" || tb.Cell(0, 1) != "" {
		t.Error("extra cells should be dropped")
	}
}

func TestPercentile(t *testing.T) {
	// Nearest-rank over a known distribution: 1..100, each percentile p
	// picks the ceil(p)-th smallest element.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // reversed: Percentile must sort a copy
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100},
		{50.5, 51}, // fractional percentile rounds rank up
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input order is preserved (sorts a copy).
	if xs[0] != 100 {
		t.Error("Percentile mutated its input")
	}
}

// TestSortedPercentileMatchesPercentile requires SortedPercentile of a
// sorted sample to equal Percentile of it unsorted, across sample sizes,
// ties and the percentiles at and beyond the ends.
func TestSortedPercentileMatchesPercentile(t *testing.T) {
	rng := xrand.New(5)
	ps := []float64{-10, 0, 0.1, 1, 25, 50, 50.5, 90, 95, 99, 99.9, 100, 200}
	for n := 0; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(40)) - 10 + float64(rng.Intn(4))/4 // ties likely
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, p := range ps {
			if got, want := SortedPercentile(sorted, p), Percentile(xs, p); got != want {
				t.Fatalf("n=%d p=%v: SortedPercentile = %v, Percentile = %v", n, p, got, want)
			}
		}
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{7.5}, 99); got != 7.5 {
		t.Errorf("single-element p99 = %v, want 7.5", got)
	}
	if got := Percentile([]float64{7.5}, 0); got != 7.5 {
		t.Errorf("single-element p0 = %v, want 7.5", got)
	}
	// Out-of-range percentiles clamp to the extremes.
	xs := []float64{1, 2, 3}
	if got := Percentile(xs, -10); got != 1 {
		t.Errorf("p<0 = %v, want min", got)
	}
	if got := Percentile(xs, 200); got != 3 {
		t.Errorf("p>100 = %v, want max", got)
	}
	// Two elements: p50 is the first (ceil(0.5*2)=1), p51 the second.
	two := []float64{10, 20}
	if got := Percentile(two, 50); got != 10 {
		t.Errorf("two-element p50 = %v, want 10", got)
	}
	if got := Percentile(two, 51); got != 20 {
		t.Errorf("two-element p51 = %v, want 20", got)
	}
}
