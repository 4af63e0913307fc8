// Golden sources for the metricnames analyzer: consumers of the real
// metrics and names packages.
package metricnames

import (
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
)

func literal(r *metrics.Registry) *metrics.Counter {
	return r.Counter("requests") // want "string literal"
}

func laundered(r *metrics.Registry, s string) *metrics.Counter {
	return r.Counter(names.Name(s)) // want "conversion to names.Name"
}

func launderedLiteral(r *metrics.Registry) *metrics.Counter {
	return r.Counter(names.Name("requests")) // want "conversion to names.Name"
}

func registered(r *metrics.Registry) *metrics.Counter {
	return r.Counter(names.BusCmdPackets) // registry constant: fine
}

func derived(r *metrics.Registry, ch int) *metrics.Registry {
	return r.Scope(names.PerChannel(names.ScopeBus, ch)) // helper-derived: fine
}

func allowed(r *metrics.Registry) *metrics.Counter {
	//lint:allow metricnames scratch metric for a local experiment
	return r.Counter("scratch") // suppressed: no finding
}

var sink = names.Dummy(names.LegCmdData) // helper at package level: fine
