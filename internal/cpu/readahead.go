package cpu

import (
	"runtime"
	"sync"

	"obfusmem/internal/workload"
)

// Read-ahead geometry. A block of 256 requests is 6 KB, so the channel
// handoff is paid once per 256 requests; three blocks let the producer fill
// one while the drive loop reads another and a third waits, full.
const (
	blockLen    = 256
	aheadBlocks = 3
)

// reqBlock is the read-ahead pipeline's unit of handoff.
type reqBlock struct {
	reqs [blockLen]workload.Request
	n    int // requests filled
	// panicked is a value the producer recovered while filling this
	// block; the drive loop re-raises it after the n requests before it.
	panicked any
}

// readAhead draws a request stream on its own goroutine, up to
// aheadBlocks blocks ahead of the drive loop. It has one producer and
// FIFO channels, so the drive loop reads exactly the sequence the source
// yields.
type readAhead struct {
	blocks [aheadBlocks]reqBlock
	full   chan *reqBlock // filled blocks, in stream order, to the drive loop
	empty  chan *reqBlock // read blocks, back to the producer
	quit   chan struct{}  // closed to stop the producer mid-stream
	done   sync.WaitGroup // the producer's exit
	cur    *reqBlock      // the block the drive loop is reading
	i      int            // next request in cur
}

// idle keeps pipelines that were read to the end, one per concurrent Run
// up to GOMAXPROCS, so a warm Run allocates no blocks. It is a buffered
// channel, not a sync.Pool: the drive goroutine changes Ps while it waits
// on its producer, and a pipeline put in one P's private slot is invisible
// to a Get on another, so a single worker kept building pipelines.
var idle = make(chan *readAhead, runtime.GOMAXPROCS(0))

// getReadAhead takes an idle pipeline, or builds one.
func getReadAhead() *readAhead {
	select {
	case ra := <-idle:
		return ra
	default:
	}
	ra := &readAhead{
		full:  make(chan *reqBlock, aheadBlocks),
		empty: make(chan *reqBlock, aheadBlocks),
		quit:  make(chan struct{}),
	}
	for i := range ra.blocks {
		ra.empty <- &ra.blocks[i]
	}
	return ra
}

// driveAhead runs drive on n requests that a producer goroutine draws from
// src. Whether drive returns or panics, the producer has exited when
// driveAhead does.
func driveAhead(name string, src requestSource, n int, sys MemorySystem, cfg Config) Result {
	ra := getReadAhead()
	ra.done.Add(1)
	go ra.produce(src, n)
	finished := false
	defer func() { ra.stop(finished) }()
	res := drive(name, ra, n, sys, cfg)
	finished = true
	return res
}

// produce fills blocks with the next n requests of src. A panic in src is
// recovered and sent to the drive loop with the block it spoiled.
func (ra *readAhead) produce(src requestSource, n int) {
	defer ra.done.Done()
	var b *reqBlock
	defer func() {
		if v := recover(); v != nil {
			b.panicked = v
			ra.full <- b // never blocks: full has room for every block
		}
	}()
	for n > 0 {
		select {
		case <-ra.quit:
			return
		case b = <-ra.empty:
		}
		k := min(n, blockLen)
		for b.n = 0; b.n < k; b.n++ {
			b.reqs[b.n] = src.Next()
		}
		ra.full <- b
		n -= k
	}
}

// Next implements requestSource for the drive loop. A block the producer
// spoiled yields the requests drawn before its panic, then re-raises it,
// so the drive loop fails at the request it would fail at inline.
func (ra *readAhead) Next() workload.Request {
	for ra.cur == nil || ra.i == ra.cur.n {
		if ra.cur != nil {
			if ra.cur.panicked != nil {
				panic(ra.cur.panicked)
			}
			ra.empty <- ra.cur
		}
		ra.cur, ra.i = <-ra.full, 0
	}
	r := ra.cur.reqs[ra.i]
	ra.i++
	return r
}

// stop ends the pipeline once the drive loop has returned or panicked. A
// pipeline read to the end goes back to idle. One stopped mid-stream
// (a budget trip, a backend or producer panic) has its producer told to
// quit, and is dropped once the producer has exited.
func (ra *readAhead) stop(finished bool) {
	if !finished {
		close(ra.quit)
	}
	ra.done.Wait()
	if !finished {
		return
	}
	if ra.cur != nil {
		ra.empty <- ra.cur
		ra.cur = nil
	}
	select {
	case idle <- ra:
	default: // as many pipelines idle as GOMAXPROCS Runs can use
	}
}
