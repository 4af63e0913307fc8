package exp

import (
	"obfusmem/internal/attack"
	"obfusmem/internal/cpu"
	"obfusmem/internal/leakage"
	"obfusmem/internal/names"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// leakBenches is the workload panel of the leakage sweep: three SPEC
// profiles with distinct access shapes (pointer-chasing, streaming,
// strided), so workload identification has something real to identify.
func leakBenches() []string { return []string{"mcf", "milc", "libquantum"} }

// leakSeedCount is how many independently-seeded runs each (scheme,
// workload) cell gets — the folds of the leave-one-seed-out classifier.
const leakSeedCount = 3

// leakRun is one observed run's evaluation.
type leakRun struct {
	eval leakage.Evaluation
}

// LeakageReport runs every registered backend over the identical workload x
// seed panel with a passive observer on the bus and a request probe on the
// defender side, evaluates the inference pipelines per trace, and
// aggregates the quantitative leakage metrics per scheme. The sweep is
// deterministic for a fixed opts.Seed regardless of worker count: jobs
// write to per-index slots and aggregation walks fixed orders.
func LeakageReport(opts Options) *leakage.Report {
	schemes := backendOrder()
	benches := leakBenches()

	type job struct {
		scheme  string
		bench   string
		seedIdx int
	}
	jobs := make([]job, 0, len(schemes)*len(benches)*leakSeedCount)
	for _, sc := range schemes {
		for _, b := range benches {
			for s := 0; s < leakSeedCount; s++ {
				jobs = append(jobs, job{sc, b, s})
			}
		}
	}

	results := make([]leakRun, len(jobs))
	errs := RunJobs(opts.workerCount(), len(jobs), opts.Interrupted, func(i int) {
		j := jobs[i]
		p, err := workload.ByName(j.bench)
		if err != nil {
			panic(err)
		}
		// Each seed index shifts the whole seeding scheme so the folds are
		// genuinely independent runs of the same benchmark.
		salt := uint64(j.seedIdx) * 1009
		cfg := backendConfig(j.scheme)
		cfg.Seed = runSeed(opts.Seed+salt, p)
		cfg.Metrics = opts.Metrics
		sys := system.New(cfg)
		obs := attack.NewObserver(cfg.Channels, tapLimit)
		sys.Bus().AttachObserver(obs)
		probe := leakage.NewProbe(sys)
		cpu.Run(p, opts.Requests, probe, opts.CPU, opts.Seed+salt+3)
		checkTap(obs)
		results[i] = leakRun{eval: leakage.Evaluate(obs.WireTrace(), probe.Issued(), nil)}
	})
	if err := firstError(errs); err != nil {
		panic(err)
	}

	byJob := make(map[job]leakage.Evaluation, len(jobs))
	for i, j := range jobs {
		byJob[j] = results[i].eval
	}

	rep := &leakage.Report{
		Requests:       opts.Requests,
		Workloads:      benches,
		SeedCount:      leakSeedCount,
		Seed:           int64(opts.Seed),
		AnchorFraction: leakage.AnchorFraction,
	}
	for _, sc := range schemes {
		var mi, plugin, rec, pkts, anch []float64
		vectors := make([][][]float64, len(benches))
		for bi, b := range benches {
			vectors[bi] = make([][]float64, leakSeedCount)
			for s := 0; s < leakSeedCount; s++ {
				ev := byJob[job{sc, b, s}]
				mi = append(mi, ev.MI.BitsPerRequest)
				plugin = append(plugin, ev.MI.PluginBitsPerRequest)
				rec = append(rec, ev.Recovery.Accuracy)
				pkts = append(pkts, float64(ev.WirePackets))
				anch = append(anch, float64(ev.Anchors))
				vectors[bi][s] = ev.Features
			}
		}
		acc := leakage.ClassifierAccuracy(vectors)
		chance := 1 / float64(len(benches))
		row := leakage.SchemeLeakage{
			Scheme:              sc,
			MIBitsPerRequest:    stats.Mean(mi),
			MIPluginBitsPerReq:  stats.Mean(plugin),
			RecoveryAccuracy:    stats.Mean(rec),
			ClassifierAdvantage: acc - chance,
			ClassifierAccuracy:  acc,
			WirePacketsPerRun:   stats.Mean(pkts),
			AnchorsPerRun:       stats.Mean(anch),
		}
		rep.Schemes = append(rep.Schemes, row)

		m := opts.Metrics.Scope(names.ScopeLeakage).Scope(names.Scheme(sc))
		m.Gauge(names.LeakMIBitsPerReq).Set(row.MIBitsPerRequest)
		m.Gauge(names.LeakMIPluginBitsPerReq).Set(row.MIPluginBitsPerReq)
		m.Gauge(names.LeakRecoveryAccuracy).Set(row.RecoveryAccuracy)
		m.Gauge(names.LeakClassifierAdv).Set(row.ClassifierAdvantage)
		m.Gauge(names.LeakWirePackets).Set(row.WirePacketsPerRun)
		m.Gauge(names.LeakAnchors).Set(row.AnchorsPerRun)
	}
	return rep
}
