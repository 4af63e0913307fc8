package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"

	"obfusmem/internal/campaign"
	"obfusmem/internal/metrics"
)

// campaignOptions carries the -campaign* flag values into the campaign
// branch of the program.
type campaignOptions struct {
	Manifest string // -campaign: manifest JSON path
	Dir      string // -campaign-out: journal + merged results directory
	Workers  int    // worker-pool size (0 = one per CPU)
	Metrics  *metrics.Registry
}

// runCampaignCmd executes (or resumes) a journaled campaign. The first
// SIGINT drains in-flight cells, commits them, and exits cleanly with the
// journal intact; re-running the same invocation resumes where it stopped.
func runCampaignCmd(ctx context.Context, o campaignOptions, stdout, stderr io.Writer) error {
	m, err := campaign.LoadManifest(o.Manifest)
	if err != nil {
		return err
	}
	// Fail fast on an unwritable campaign directory: the journal is the
	// whole point, so discover permission problems before any cell runs.
	if err := checkWritableDir("campaign-out", o.Dir); err != nil {
		return err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	r, err := campaign.NewRunner(m, campaign.Options{
		Dir:     o.Dir,
		Workers: workers,
		Metrics: o.Metrics,
		Log:     stderr,
	})
	if err != nil {
		return err
	}
	sum, err := r.Run(ctx)
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if eerr := enc.Encode(sum); eerr != nil {
		return eerr
	}
	if errors.Is(err, campaign.ErrInterrupted) {
		return err // non-zero exit: the campaign is incomplete (resumable)
	}
	return err
}

// checkWritableDir verifies an output directory can be created and written
// before any simulation work starts — the directory analogue of
// checkWritable.
func checkWritableDir(flagName, dir string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("-%s: %w", flagName, err)
	}
	probe := filepath.Join(dir, ".writable-probe")
	f, err := os.OpenFile(probe, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return fmt.Errorf("-%s: %w", flagName, err)
	}
	f.Close()
	os.Remove(probe)
	return nil
}

// interruptContext returns a context cancelled by the first SIGINT. The
// handler uninstalls itself after that first signal, so a second SIGINT
// kills the process the default way (the escape hatch when a drain hangs).
func interruptContext(stderr io.Writer) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() {
		select {
		case <-ch:
			fmt.Fprintln(stderr, "[interrupt: finishing in-flight work, flushing partial outputs; interrupt again to kill]")
			signal.Stop(ch)
			cancel()
		case <-ctx.Done():
			signal.Stop(ch)
		}
	}()
	return ctx, cancel
}
