package exp

import (
	"obfusmem/internal/obfus"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
)

// OpenLoop runs the open-loop scenario on an 8-channel machine (the
// Figure 5 sweep's widest point) under both cover policies and returns the
// combined report. The table title is kept from the retired parallel engine
// so archived outputs still compare byte for byte; system.TestOpenLoopGolden
// pins the runs behind it.
func OpenLoop(opts Options) *stats.Table {
	perLane := opts.Requests / 8
	if perLane < 50 {
		perLane = 50
	}
	out := stats.NewTable("Open-loop channel-sharded runs (8 channels)",
		"policy", "reqs/lane", "covers", "wire pkts", "read lat (ns)", "gap entropy (bits)", "wire digest")
	for _, policy := range []obfus.ChannelPolicy{obfus.PolicyUNOPT, obfus.PolicyOPT} {
		cfg := system.DefaultOpenLoopConfig()
		cfg.Requests = perLane
		cfg.Seed = opts.Seed
		cfg.Policy = policy
		res := system.RunOpenLoop(cfg)
		// Pull the TOTAL row (last) of the per-run table.
		last := res.Table.Rows() - 1
		out.AddRowf(4, policy.String(), perLane,
			res.Table.Cell(last, 3), res.Table.Cell(last, 5),
			res.Table.Cell(last, 4), res.GapEntropyBits,
			fmtDigest(res.WireDigest))
	}
	out.AddNote("open-loop arrivals (no completion feedback); per-lane front end — see DESIGN.md §10")
	return out
}

// fmtDigest renders a wire digest as fixed-width hex.
func fmtDigest(d uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := range b {
		b[i] = hexdigits[d>>(60-4*i)&0xf]
	}
	return string(b[:])
}
