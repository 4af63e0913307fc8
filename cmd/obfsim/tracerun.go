package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"obfusmem/internal/cpu"
	"obfusmem/internal/metrics"
	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/trace"
	"obfusmem/internal/workload"
)

// traceOptions collects the flags of one traced run.
type traceOptions struct {
	Bench    string
	Mode     string
	Channels int
	Requests int
	Seed     uint64
	Exposure float64
	// FaultRate > 0 injects uniform transient bus faults at that per-packet
	// rate and (for the ObfusMem modes) turns the recovery protocol on, so
	// retry/resync spans show up in the exported trace.
	FaultRate float64

	TraceOut   string // Chrome trace JSON path; "" disables, "-" is stdout
	TraceLimit int
	AttribOut  string // attribution report JSON path; "" disables

	SampleEveryUS float64 // metrics sampling interval; 0 disables
	SampleOut     string
}

// enabled reports whether any tracing artifact was requested.
func (o traceOptions) enabled() bool {
	return o.TraceOut != "" || o.AttribOut != "" || o.SampleEveryUS > 0
}

// systemConfigFor maps a -trace-mode name to a machine configuration. The
// name set comes from the backend registry, so every registered scheme —
// including ones added after this file was written — traces without a CLI
// change.
func systemConfigFor(mode string, channels int, seed uint64) (system.Config, error) {
	cfg, err := system.DefaultConfigByName(mode)
	if err != nil {
		return cfg, fmt.Errorf("bad -trace-mode: %w", err)
	}
	cfg.Channels = channels
	cfg.Seed = seed
	return cfg, nil
}

// traceRun drives one dedicated single-machine run with the lifecycle
// tracing layer on and writes the requested artifacts. Unlike the
// experiment suites (which fan machines out over goroutines), the traced
// run is strictly single-threaded: a trace.Recorder captures the
// synchronous call tree of exactly one machine.
func traceRun(o traceOptions, stdout, stderr io.Writer) error {
	p, err := workload.ByName(o.Bench)
	if err != nil {
		return fmt.Errorf("trace run: %w", err)
	}
	scfg, err := systemConfigFor(o.Mode, o.Channels, o.Seed)
	if err != nil {
		return err
	}
	if o.FaultRate > 0 {
		scfg.InjectFaults(o.FaultRate)
	}

	rec := trace.New(o.TraceLimit)
	scfg.Trace = rec
	// The traced run gets a private registry so the time series covers only
	// this machine, independent of any -metrics experiment aggregation.
	reg := metrics.NewRegistry()
	scfg.Metrics = reg
	var smp *trace.Sampler
	if o.SampleEveryUS > 0 {
		every, err := sim.TryNanos(o.SampleEveryUS * 1000)
		if err != nil {
			return fmt.Errorf("trace run: bad -sample-every: %w", err)
		}
		smp = trace.NewSampler(reg, every)
	}

	sys := system.New(scfg)
	ccfg := cpu.Config{Exposure: o.Exposure, Trace: rec, Sampler: smp}
	res := cpu.Run(p, o.Requests, sys, ccfg, o.Seed)
	fmt.Fprintf(stderr, "[trace run: %s on %s x%d, %d requests, exec %.1f us, mean read %.1f ns]\n",
		o.Bench, o.Mode, o.Channels, o.Requests,
		res.ExecTime.Float64Nanos()/1000, res.MeanReadNS)
	if inj := sys.FaultInjector(); inj != nil {
		fs := inj.Stats()
		fmt.Fprintf(stderr, "[faults: %d fault events over %d packets (%d lost, %d cmd flips, %d data flips, %d MAC flips, %d stalls)]\n",
			fs.Faults(), fs.Packets, fs.Losses, fs.CmdFlips, fs.DataFlips, fs.MACFlips, fs.Stalls)
		if obf := sys.Obfus(); obf != nil {
			st := obf.Stats()
			fmt.Fprintf(stderr, "[recovery: %d retransmits, %d NACKs, %d resyncs, %d recovered, %d quarantines, %d unaccounted]\n",
				st.Retransmits, st.NACKsSent, st.Resyncs, st.Recovered, st.Quarantines, st.UnaccountedFailures())
		}
	}
	if err := sys.Err(); err != nil {
		fmt.Fprintf(stderr, "[machine degraded: %v]\n", err)
	}

	if o.TraceOut != "" {
		if err := writeTo(o.TraceOut, stdout, rec.WriteChromeTrace); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		if o.TraceOut != "-" {
			fmt.Fprintf(stderr, "[chrome trace (%d spans) written to %s]\n", rec.Len(), o.TraceOut)
		}
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(stderr, "[trace ring full: %d oldest spans evicted (limit %d; raise -trace-limit)]\n",
			d, rec.Limit())
	}

	att := rec.Attribution("")
	fmt.Fprintln(stdout, att.Table(fmt.Sprintf("Latency attribution: %s on %s", o.Bench, o.Mode)))
	if o.AttribOut != "" {
		write := func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(att)
		}
		if err := writeTo(o.AttribOut, stdout, write); err != nil {
			return fmt.Errorf("attribution export: %w", err)
		}
		if o.AttribOut != "-" {
			fmt.Fprintf(stderr, "[attribution report written to %s]\n", o.AttribOut)
		}
	}

	if smp != nil {
		if err := writeTo(o.SampleOut, stdout, smp.WriteCSV); err != nil {
			return fmt.Errorf("sample export: %w", err)
		}
		if smp.Dropped() > 0 {
			fmt.Fprintf(stderr, "[sampler cap reached: %d boundaries dropped]\n", smp.Dropped())
		}
		if o.SampleOut != "-" {
			fmt.Fprintf(stderr, "[%d metric samples written to %s]\n", smp.Rows(), o.SampleOut)
		}
	}
	return nil
}

// writeTo writes via fn to the named file, or stdout when path is "-".
func writeTo(path string, stdout io.Writer, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
