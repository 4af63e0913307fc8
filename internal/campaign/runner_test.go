package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"obfusmem/internal/cpu"
	"obfusmem/internal/metrics"
	"obfusmem/internal/xrand"
)

// runCampaign executes the manifest to completion in dir and returns the
// merged artifact bytes.
func runCampaign(t *testing.T, m Manifest, dir string, workers int) ([]byte, Summary) {
	t.Helper()
	r, err := NewRunner(m, Options{Dir: dir, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw, sum
}

// smallManifest is the fast grid used across runner tests.
func smallManifest() Manifest {
	m := testManifest()
	m.Requests = 200
	return m
}

// TestCampaignCompletes: a full run commits every unique cell, balances
// every ledger, and produces a parseable merged artifact in grid order.
func TestCampaignCompletes(t *testing.T) {
	raw, sum := runCampaign(t, smallManifest(), t.TempDir(), 4)
	if !sum.Complete || sum.Done != 16 || sum.Failed != 0 {
		t.Fatalf("summary %+v, want 16 done / 0 failed / complete", sum.Progress)
	}
	var merged Merged
	if err := json.Unmarshal(raw, &merged); err != nil {
		t.Fatal(err)
	}
	if len(merged.Cells) != 16 || merged.Done != 16 {
		t.Fatalf("merged %d cells (%d done), want 16/16", len(merged.Cells), merged.Done)
	}
	for i, c := range merged.Cells {
		if c.Index != i {
			t.Fatalf("merged cell %d out of grid order (index %d)", i, c.Index)
		}
		if c.Status != statusDone || c.Result == nil {
			t.Fatalf("cell %d not done: %+v", i, c)
		}
		if c.Result.Issued != c.Result.Completed+c.Result.Lost+c.Result.Refused {
			t.Errorf("cell %d ledger unbalanced: %+v", i, c.Result)
		}
		if c.Result.ExecPS <= 0 || c.Result.Reads == 0 {
			t.Errorf("cell %d result degenerate: %+v", i, c.Result)
		}
	}
}

// TestCampaignWorkerCountInvariant: the merged artifact is byte-identical
// for any worker count — the campaign-level analogue of the PR 4
// one-vs-many discipline.
func TestCampaignWorkerCountInvariant(t *testing.T) {
	base, _ := runCampaign(t, smallManifest(), t.TempDir(), 1)
	for _, workers := range []int{2, 8} {
		got, _ := runCampaign(t, smallManifest(), t.TempDir(), workers)
		if !bytes.Equal(base, got) {
			t.Fatalf("workers=%d produced different merged bytes than workers=1", workers)
		}
	}
}

// TestCampaignKillResumeProperty is the crash-safety property test: a
// campaign whose journal is cut at ANY byte offset (the on-disk state a
// SIGKILL at that instant leaves behind, given fsync-per-record) must
// resume and produce exactly the bytes of an uninterrupted run.
func TestCampaignKillResumeProperty(t *testing.T) {
	m := smallManifest()
	full, _ := runCampaign(t, m, t.TempDir(), 3)

	refDir := t.TempDir()
	runCampaign(t, m, refDir, 3)
	journal, err := os.ReadFile(filepath.Join(refDir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}

	rng := xrand.New(0xC4A5)
	const trials = 12
	for i := 0; i < trials; i++ {
		cut := int(rng.Uint64() % uint64(len(journal)+1))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, JournalFile), journal[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(m, Options{Dir: dir, Workers: 2})
		if err != nil {
			t.Fatalf("cut=%d: resume refused: %v", cut, err)
		}
		sum, err := r.Run(context.Background())
		if err != nil {
			t.Fatalf("cut=%d: resume failed: %v", cut, err)
		}
		if !sum.Complete {
			t.Fatalf("cut=%d: resume did not complete: %+v", cut, sum.Progress)
		}
		got, err := os.ReadFile(filepath.Join(dir, ResultsFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full, got) {
			t.Fatalf("cut=%d: resumed merge differs from uninterrupted run", cut)
		}
	}
}

// TestCampaignResumesJournalWithAttempts: a journal written when cells
// could be retried carries an "attempts" key on each cell record. Decoding
// ignores it, so such a journal still resumes and merges to the bytes of
// an uninterrupted run.
func TestCampaignResumesJournalWithAttempts(t *testing.T) {
	m := smallManifest()
	refDir := t.TempDir()
	full, _ := runCampaign(t, m, refDir, 2)
	journal, err := os.ReadFile(filepath.Join(refDir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}

	var old bytes.Buffer
	cells := 0
	for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
		rec, err := decodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil || rec.Type == "shutdown" {
			continue
		}
		if rec.Type == "cell" {
			if cells++; cells > 8 {
				continue // the rest of the grid was never committed
			}
			payload := bytes.SplitN(line, []byte(" "), 3)[2]
			payload = bytes.Replace(bytes.TrimSuffix(payload, []byte("\n")),
				[]byte(`"status":"done"`), []byte(`"status":"done","attempts":1`), 1)
			fmt.Fprintf(&old, "%s %08x %s\n", journalMagic, crc32.Checksum(payload, crcTable), payload)
			continue
		}
		old.Write(line)
	}
	if !bytes.Contains(old.Bytes(), []byte(`"attempts":1`)) {
		t.Fatal("no cell record gained an attempts key")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, JournalFile), old.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	got, sum := runCampaign(t, m, dir, 2)
	if sum.Resumed != 8 {
		t.Errorf("resumed %d cells, want the 8 in the old journal", sum.Resumed)
	}
	if !bytes.Equal(full, got) {
		t.Fatal("resume from a journal with attempts keys merged different bytes")
	}
}

// TestCampaignResumeSkipsCommittedCells: a resume re-runs only what the
// journal lacks.
func TestCampaignResumeSkipsCommittedCells(t *testing.T) {
	m := smallManifest()
	dir := t.TempDir()
	runCampaign(t, m, dir, 4)

	var executed atomic.Int64
	r, err := NewRunner(m, Options{Dir: dir, Workers: 2,
		runCellFn: func(c Cell, reg *metrics.Registry) (CellResult, error) {
			executed.Add(1)
			return runCell(c, reg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("complete campaign re-ran %d cells on resume", n)
	}
	if sum.Resumed != 16 || !sum.Complete {
		t.Fatalf("resume summary %+v, want 16 resumed / complete", sum.Progress)
	}
}

// TestCampaignPanicIsolation: a cell that panics executes once, is
// journaled as failed with its panic value, and the rest of the grid
// completes — the campaign must not abort.
func TestCampaignPanicIsolation(t *testing.T) {
	m := smallManifest()
	cells := m.Cells()
	poison := cells[5].Key
	var executions atomic.Int64
	dir := t.TempDir()
	r, err := NewRunner(m, Options{Dir: dir, Workers: 4,
		runCellFn: func(c Cell, reg *metrics.Registry) (CellResult, error) {
			if c.Key == poison {
				executions.Add(1)
				panic("poisoned cell")
			}
			return runCell(c, reg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("poisoned cell executed %d times, want once", n)
	}
	if sum.Done != 15 || sum.Failed != 1 || !sum.Complete {
		t.Fatalf("summary %+v, want 15 done / 1 failed / complete", sum.Progress)
	}

	var merged Merged
	raw, _ := os.ReadFile(filepath.Join(dir, ResultsFile))
	if err := json.Unmarshal(raw, &merged); err != nil {
		t.Fatal(err)
	}
	mc := merged.Cells[5]
	if mc.Status != statusFailed || mc.Error != "poisoned cell" {
		t.Fatalf("failed cell not journaled faithfully: %+v", mc)
	}
	for i, c := range merged.Cells {
		if i != 5 && c.Status != statusDone {
			t.Errorf("healthy cell %d did not complete: %+v", i, c)
		}
	}
}

// TestCampaignDeadline: a cell whose simulated clock exceeds its budget is
// detected (via the typed *cpu.BudgetError panic), counted once in the
// progress and the metrics, and recorded as failed while the campaign
// continues. This exercises the REAL executor.
func TestCampaignDeadline(t *testing.T) {
	m := smallManifest()
	m.Schemes = []string{"unprotected", "oram"}
	m.FaultRates = []float64{0}
	m.Seeds = []uint64{1}
	m.DeadlineNSPerRequest = 0.001 // 1ps per request: everything trips
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	r, err := NewRunner(m, Options{Dir: dir, Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 4 || sum.Done != 0 || sum.Deadlines != 4 {
		t.Fatalf("summary %+v, want all 4 cells failed and counted as deadlines", sum.Progress)
	}
	if got := reg.Snapshot().Counters["campaign.deadline_exceeded"]; got != 4 {
		t.Errorf("campaign.deadline_exceeded = %d, want 4", got)
	}
	var merged Merged
	raw, _ := os.ReadFile(filepath.Join(dir, ResultsFile))
	if err := json.Unmarshal(raw, &merged); err != nil {
		t.Fatal(err)
	}
	for _, c := range merged.Cells {
		if !strings.Contains(c.Error, "exceeded simulated budget") {
			t.Fatalf("deadline failure not attributed: %+v", c)
		}
	}
}

// TestCampaignDeadlineRunsOnce: a cell that trips its budget mid-run
// executes once, so the shared registry holds exactly one execution's
// traffic: the bus packets of a single runCell of the same cell.
func TestCampaignDeadlineRunsOnce(t *testing.T) {
	m := smallManifest()
	m.Schemes = []string{"obfusmem-auth"}
	m.Workloads = []string{"milc"}
	m.FaultRates = []float64{0}
	m.Seeds = []uint64{1}
	m.DeadlineNSPerRequest = 10 // trips after some traffic has crossed the bus
	cell := m.Cells()[0]

	alone := metrics.NewRegistry()
	func() {
		defer func() {
			if _, ok := recover().(*cpu.BudgetError); !ok {
				t.Fatal("cell did not trip its simulated-time budget")
			}
		}()
		runCell(cell, alone)
	}()
	want := alone.Snapshot().Counters["bus.ch0.read_packets"]
	if want == 0 {
		t.Fatal("tripping cell put no read packets on the bus; the check below would be vacuous")
	}

	reg := metrics.NewRegistry()
	var executions atomic.Int64
	r, err := NewRunner(m, Options{Dir: t.TempDir(), Workers: 1, Metrics: reg,
		runCellFn: func(c Cell, reg *metrics.Registry) (CellResult, error) {
			executions.Add(1)
			return runCell(c, reg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("tripping cell executed %d times, want once", n)
	}
	if sum.Failed != 1 || sum.Deadlines != 1 {
		t.Fatalf("summary %+v, want 1 failed deadline cell", sum.Progress)
	}
	if got := reg.Snapshot().Counters["bus.ch0.read_packets"]; got != want {
		t.Errorf("bus.ch0.read_packets = %d in the campaign registry, want one execution's %d", got, want)
	}
}

// TestCampaignDedupExecution: duplicate grid cells execute once and every
// grid position still gets its result.
func TestCampaignDedupExecution(t *testing.T) {
	m := smallManifest()
	m.Seeds = []uint64{7, 7}
	var executed atomic.Int64
	dir := t.TempDir()
	r, err := NewRunner(m, Options{Dir: dir, Workers: 1,
		runCellFn: func(c Cell, reg *metrics.Registry) (CellResult, error) {
			executed.Add(1)
			return runCell(c, reg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 8 {
		t.Fatalf("%d executions for 16 grid cells with 8 unique, want 8", n)
	}
	if sum.CellsTotal != 16 || sum.CellsUnique != 8 || sum.Done != 8 {
		t.Fatalf("summary %+v", sum.Progress)
	}
	var merged Merged
	raw, _ := os.ReadFile(filepath.Join(dir, ResultsFile))
	if err := json.Unmarshal(raw, &merged); err != nil {
		t.Fatal(err)
	}
	if len(merged.Cells) != 16 {
		t.Fatalf("merged %d cells, want all 16 grid positions", len(merged.Cells))
	}
	for i, c := range merged.Cells {
		if c.Result == nil {
			t.Fatalf("grid position %d missing its (deduplicated) result", i)
		}
	}
}

// TestCampaignInterruptDrains: cancelling mid-run stops dispatch, drains
// and commits in-flight cells, writes a clean shutdown record, and a
// subsequent resume finishes with the canonical merged bytes.
func TestCampaignInterruptDrains(t *testing.T) {
	m := smallManifest()
	full, _ := runCampaign(t, m, t.TempDir(), 3)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	r, err := NewRunner(m, Options{Dir: dir, Workers: 2,
		runCellFn: func(c Cell, reg *metrics.Registry) (CellResult, error) {
			if started.Add(1) == 5 {
				cancel() // SIGINT arrives while cells are in flight
			}
			return runCell(c, reg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(ctx)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if !sum.Interrupted || sum.Complete {
		t.Fatalf("summary %+v, want interrupted and incomplete", sum.Progress)
	}
	if sum.Committed == 0 || sum.Committed >= 16 {
		t.Fatalf("committed %d cells before shutdown, want some but not all", sum.Committed)
	}
	if _, err := os.Stat(filepath.Join(dir, ResultsFile)); !os.IsNotExist(err) {
		t.Fatal("interrupted campaign must not publish a merged artifact")
	}

	// The journal ends with a clean shutdown record.
	j, err := OpenJournal(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	recs := j.Records()
	j.Close()
	last := recs[len(recs)-1]
	if last.Type != "shutdown" || last.Reason != "interrupt" || last.Committed != sum.Committed {
		t.Fatalf("journal tail %+v, want clean interrupt shutdown", last)
	}

	// Resume completes and merges to the canonical bytes.
	got, sum2 := runCampaign(t, m, dir, 4)
	if !bytes.Equal(full, got) {
		t.Fatal("post-interrupt resume merged different bytes than an uninterrupted run")
	}
	if sum2.Resumed != sum.Committed {
		t.Errorf("resume re-used %d cells, want the %d committed before interrupt", sum2.Resumed, sum.Committed)
	}
}

// TestCampaignJournalFailure: a journal append that fails mid-run is fatal.
// Run returns the append error, publishes no merged artifact, and returns
// only after the cells already in flight have finished.
func TestCampaignJournalFailure(t *testing.T) {
	dir := t.TempDir()
	var r *Runner
	var started, running atomic.Int64
	r, err := NewRunner(smallManifest(), Options{Dir: dir, Workers: 2,
		runCellFn: func(c Cell, reg *metrics.Registry) (CellResult, error) {
			running.Add(1)
			defer running.Add(-1)
			switch started.Add(1) {
			case 1:
				r.mu.Lock()
				r.journal.Close() // every later append fails
				r.mu.Unlock()
			case 2:
				time.Sleep(100 * time.Millisecond) // in flight when cell 1's commit fails
			}
			return runCell(c, reg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background())
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Run returned %v, want the failed append's error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ResultsFile)); !os.IsNotExist(err) {
		t.Fatal("a campaign whose journal failed must not publish a merged artifact")
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("Run returned with %d cells still executing", n)
	}
}

// TestCampaignRejectsForeignJournal: a journal from a different manifest
// cannot be resumed into.
func TestCampaignRejectsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	runCampaign(t, smallManifest(), dir, 2)
	other := smallManifest()
	other.Seeds = []uint64{9}
	if _, err := NewRunner(other, Options{Dir: dir, Workers: 1}); err == nil ||
		!strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("foreign journal accepted: %v", err)
	}
}

// TestCampaignMetrics: the campaign.* instruments reflect the run.
func TestCampaignMetrics(t *testing.T) {
	m := smallManifest()
	m.Seeds = []uint64{7, 7} // dedup visible in metrics
	reg := metrics.NewRegistry()
	r, err := NewRunner(m, Options{Dir: t.TempDir(), Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["campaign.cells_done"]; got != 8 {
		t.Errorf("campaign.cells_done = %d, want 8", got)
	}
	if got := snap.Counters["campaign.dedup_hits"]; got != 8 {
		t.Errorf("campaign.dedup_hits = %d, want 8", got)
	}
	if got := snap.Counters["campaign.journal_records"]; got == 0 {
		t.Error("campaign.journal_records not recorded")
	}
	if snap.Gauges["campaign.journal_bytes"] == 0 {
		t.Error("campaign.journal_bytes not recorded")
	}
	// The simulated machines recorded their own metrics through the same
	// registry (the campaign composes with the observability layer).
	if snap.Counters["bus.ch0.read_packets"] == 0 {
		t.Error("cell machines did not record bus metrics")
	}
}
