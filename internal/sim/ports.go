package sim

// Resource models a unit that can serve one item at a time (a pipeline stage,
// a bus, a bank data path). Acquire returns the earliest time at or after
// `at` that the resource is free, and marks it busy for `hold` picoseconds
// starting then. It is the standard building block for occupancy modelling.
type Resource struct {
	freeAt   Time
	busyTime Time // accumulated busy picoseconds
	uses     uint64
}

// NewResource returns an idle resource.
func NewResource() *Resource {
	return &Resource{}
}

// Acquire reserves the resource for hold picoseconds at the earliest slot at
// or after `at`, returning the start time of the reservation.
func (r *Resource) Acquire(at Time, hold Time) Time {
	if hold < 0 {
		panic("sim: negative hold")
	}
	start := at
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + hold
	r.busyTime += hold
	r.uses++
	return start
}

// acquireN is n back-to-back Acquire(at, hold) calls in closed form: the
// first starts at max(at, FreeAt) and each later one where the previous
// ends. It returns the start time of the last reservation.
func (r *Resource) acquireN(at Time, hold Time, n int) Time {
	if hold < 0 {
		panic("sim: negative hold")
	}
	start := at
	if r.freeAt > start {
		start = r.freeAt
	}
	last := start + Time(n-1)*hold
	r.freeAt = last + hold
	r.busyTime += Time(n) * hold
	r.uses += uint64(n)
	return last
}

// FreeAt returns the time the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// IdleAt reports whether the resource is idle at time t.
func (r *Resource) IdleAt(t Time) bool { return r.freeAt <= t }

// BusyTime returns total reserved picoseconds.
func (r *Resource) BusyTime() Time { return r.busyTime }

// Uses returns the number of Acquire calls.
func (r *Resource) Uses() uint64 { return r.uses }

// Pipeline models a fully pipelined unit with a fixed latency and an
// initiation interval: a new operation can start every Interval picoseconds
// and completes Latency picoseconds after it starts. This matches the
// pipelined AES and MD5 engines used by ObfusMem.
type Pipeline struct {
	Latency  Time
	Interval Time
	issue    *Resource
}

// NewPipeline returns a pipeline with the given latency and initiation
// interval.
func NewPipeline(latency, interval Time) *Pipeline {
	if latency < 0 || interval <= 0 {
		panic("sim: invalid pipeline parameters")
	}
	return &Pipeline{Latency: latency, Interval: interval, issue: NewResource()}
}

// Issue schedules one operation at or after `at`; it returns the completion
// time of that operation.
func (p *Pipeline) Issue(at Time) (done Time) {
	start := p.issue.Acquire(at, p.Interval)
	return start + p.Latency
}

// IssueN schedules n back-to-back operations and returns the completion time
// of the last one.
func (p *Pipeline) IssueN(at Time, n int) (done Time) {
	if n <= 0 {
		return at
	}
	return p.issue.acquireN(at, p.Interval, n) + p.Latency
}

// Ops returns the number of operations issued.
func (p *Pipeline) Ops() uint64 { return p.issue.Uses() }
