package system

import (
	"io"
	"testing"
	"time"

	"obfusmem/internal/cpu"
	"obfusmem/internal/trace"
	"obfusmem/internal/workload"
)

// BenchmarkTracedRun times the traced half of the bench harness's observed
// cell: a 2-channel obfusmem-auth machine with a default span recorder,
// driven through 2000 mcf requests, then the recorder's Chrome export. It
// reports the drive loop's host time per request and the export's per
// retained span; machine construction is not timed.
func BenchmarkTracedRun(b *testing.B) {
	const requests = 2000
	p, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	var driveNS, exportNS time.Duration
	spans := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultConfig("obfusmem-auth")
		cfg.Channels = 2
		rec := trace.New(0)
		ccfg := cpu.DefaultConfig()
		cfg.Trace, ccfg.Trace = rec, rec
		sys := New(cfg)
		b.StartTimer()
		t0 := time.Now()
		cpu.Run(p, requests, sys, ccfg, 42)
		t1 := time.Now()
		if err := rec.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
		exportNS += time.Since(t1)
		driveNS += t1.Sub(t0)
		spans += rec.Len()
	}
	b.ReportMetric(float64(driveNS.Nanoseconds())/float64(b.N*requests), "drive-ns/req")
	b.ReportMetric(float64(exportNS.Nanoseconds())/float64(spans), "export-ns/span")
}
