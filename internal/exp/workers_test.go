package exp

import (
	"bytes"
	"reflect"
	"testing"

	"obfusmem/internal/metrics"
)

// TestWorkersOneVsManyIdentical pins the PR 4 worker-pool contract: the
// suite result may not depend on pool size. Every job is independently
// seeded and writes to its own result slot, so 1 worker and N workers must
// produce bit-identical numbers.
func TestWorkersOneVsManyIdentical(t *testing.T) {
	o := testOpts()
	o.Requests = 300

	o.Workers = 1
	one := Table3Numbers(o)
	o.Workers = 3
	many := Table3Numbers(o)
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("suite results differ between 1 and 3 workers:\n1: %+v\n3: %+v", one, many)
	}

	// Workers = 0 (GOMAXPROCS) must agree too.
	o.Workers = 0
	auto := Table3Numbers(o)
	if !reflect.DeepEqual(one, auto) {
		t.Fatalf("suite results differ between 1 worker and GOMAXPROCS workers")
	}
}

// TestQuickSuiteByteIdentical is the suite-level half of the
// determinism-under-pooling contract (the unit-level half is
// TestPooledDeterminismSameSeed in internal/obfus): rendering the same
// table twice from the same options must produce byte-identical strings,
// pooled scratch buffers and packet arenas notwithstanding.
func TestQuickSuiteByteIdentical(t *testing.T) {
	o := testOpts()
	o.Requests = 300
	a := Table3(o).String()
	b := Table3(o).String()
	if a != b {
		t.Fatalf("quick-suite tables differ between identical runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestMetricsWorkerIndependence extends the pool-size contract to the
// shared metrics registry: every run of a suite aggregates into one
// registry, so its histogram sums must not depend on the order the pool's
// goroutines add in. The snapshot JSON of 1 and 4 workers must match
// byte for byte.
func TestMetricsWorkerIndependence(t *testing.T) {
	snapshot := func(workers int) []byte {
		o := testOpts()
		o.Requests = 300
		o.Workers = workers
		o.Metrics = metrics.NewRegistry()
		Table3Numbers(o)
		var buf bytes.Buffer
		if err := o.Metrics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := snapshot(1)
	for i := 0; i < 3; i++ {
		if many := snapshot(4); !bytes.Equal(one, many) {
			t.Fatalf("metrics snapshot differs between 1 and 4 workers (trial %d)", i)
		}
	}
}
