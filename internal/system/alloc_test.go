package system

import (
	"runtime"
	"testing"
)

// newAllocLimit bounds the bytes one machine build may allocate: the Go
// runtime serves an object above 32 KB from the heap under its lock, and a
// protected machine's largest object, the counter-cache tag store, is 16 KB.
const newAllocLimit = 32 << 10

// TestNewAllocBytes builds each registered backend's default machine 20
// times and requires every build to allocate under newAllocLimit bytes in
// all, the counter cache, page counters and PCM wear tables included.
func TestNewAllocBytes(t *testing.T) {
	const builds = 20
	for _, name := range BackendNames() {
		cfg := DefaultConfig(name)
		New(cfg) // warm package-level state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < builds; i++ {
			New(cfg)
		}
		runtime.ReadMemStats(&after)
		perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
		t.Logf("%-14s %6d B %3d allocs", name, perBuild, (after.Mallocs-before.Mallocs)/builds)
		if perBuild >= newAllocLimit {
			t.Errorf("%s: system.New allocates %d B, want under %d", name, perBuild, newAllocLimit)
		}
	}
}
