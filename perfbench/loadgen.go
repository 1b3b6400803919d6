package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// reqKind is one class of steady-phase response, as its latency is
// reported.
type reqKind int

const (
	kindCached      reqKind = iota // a 200 served from the server's caches
	kindNotModified                // a conditional GET answered 304
	kindBlock                      // a /v1/block point lookup
	numKinds
)

func (k reqKind) String() string {
	return [...]string{"cached", "not_modified", "block"}[k]
}

// mixEntry is one weighted kind of request in the steady mix.
type mixEntry struct {
	name   string
	weight int
	urls   []string // the targets it rotates through; none for block
}

// steadyMix is cmd/loadgen's documented default mix —
// artifact:6,report:2,artifacts:1,manifest:1 over the same URLs — with
// block:1 added: point lookups at a uniformly drawn block of the world.
// They cost about 10ms each, so they set the tail.
var steadyMix = []mixEntry{
	{"artifact", 6, []string{
		"/v1/artifact/table1?format=json",
		"/v1/artifact/fig3?format=json",
		"/v1/artifact/fig9?format=json",
		"/v1/artifact/bundles?format=csv",
	}},
	{"report", 2, []string{"/v1/report?format=text"}},
	{"artifacts", 1, []string{"/v1/artifacts"}},
	{"manifest", 1, []string{"/v1/manifest"}},
	{"block", 1, nil},
}

// inmShare is loadgen's default -inm: the share of requests sent with the
// target's If-None-Match; a target without an ETag goes unconditional.
const inmShare = 0.5

// steadyURLs lists the mix's URL targets in mix order: an arrival's
// Target indexes it, unless the arrival is a block lookup.
func steadyURLs() []string {
	var out []string
	for _, e := range steadyMix {
		out = append(out, e.urls...)
	}
	return out
}

// arrival is one scheduled request: when it is due, relative to the
// start of its rung, and what it asks for — a block offset when Block,
// else an index into steadyURLs, sent with If-None-Match when
// Conditional.
type arrival struct {
	Due         time.Duration
	Block       bool
	Target      int
	Conditional bool
}

// schedule draws a Poisson arrival process at rate requests per second
// for dur, each arrival's entry drawn by steadyMix weight, its target
// uniformly from the entry's URLs (or the world's blocks blocks) and its
// condition with probability inmShare. The same rng state gives the same
// schedule.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, blocks int) []arrival {
	total := 0
	for _, e := range steadyMix {
		total += e.weight
	}
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		a := arrival{Due: due}
		n, first := rng.Intn(total), 0
		for _, e := range steadyMix {
			if n >= e.weight {
				n -= e.weight
				first += len(e.urls)
				continue
			}
			if e.urls == nil {
				a.Block, a.Target = true, rng.Intn(blocks)
			} else {
				a.Target = first + rng.Intn(len(e.urls))
				a.Conditional = rng.Float64() < inmShare
			}
			break
		}
		out = append(out, a)
	}
}

// outcome is one finished request of an open-loop rung.
type outcome struct {
	Kind    reqKind       // set by the caller, which knows the targets' ETags
	Wait    time.Duration // due → an executor picked it up
	Latency time.Duration // due → the response was complete
	Done    time.Duration // rung start → the response was complete
	Resp    *httptest.ResponseRecorder
	OK      bool // set by the caller once it has checked Resp
}

// openLoop offers the arrivals to h from executors concurrent executors.
// Each free executor takes the next arrival in schedule order and, if it
// is not yet due, sleeps until it is; an arrival that falls due while
// every executor is busy waits its turn. Latency counts from the due
// time, so a stall charges every request that queued behind it. build
// makes each request ahead of the rung, and responses are kept for the
// caller to check after it, so neither costs an executor time. It returns
// every outcome in schedule order, and, for each arrival an idle executor
// slept for, how late the executor woke: the generator's own lateness.
func openLoop(h http.Handler, arrivals []arrival, executors int, build func(arrival) *http.Request) (outs []outcome, late []time.Duration) {
	reqs := make([]*http.Request, len(arrivals))
	for i, a := range arrivals {
		reqs[i] = build(a)
	}
	outs = make([]outcome, len(arrivals))
	lateness := make([]time.Duration, len(arrivals))
	slept := make([]bool, len(arrivals))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(executors)
	for e := 0; e < executors; e++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				if a.Due > time.Since(start) {
					waitUntil(start, a.Due)
					slept[i] = true
				}
				picked := time.Since(start)
				if slept[i] {
					lateness[i] = picked - a.Due
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, reqs[i])
				done := time.Since(start)
				outs[i] = outcome{Wait: picked - a.Due, Latency: done - a.Due, Done: done, Resp: rr}
			}
		}()
	}
	wg.Wait()
	for i, s := range slept {
		if s {
			late = append(late, lateness[i])
		}
	}
	return outs, late
}

// spinWindow is how long before a due time a waiting executor stops
// sleeping and spins: OS timers wake about a millisecond late, which
// would swamp the tens of microseconds a cached request takes.
const spinWindow = 2 * time.Millisecond

// waitUntil blocks until the given offset from start, sleeping while the
// wait is long and spinning, yielding the processor, for the last
// stretch.
func waitUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Since(start) < due {
		runtime.Gosched()
	}
}

// rungLatencies are a rung's latencies in milliseconds, a failed request
// counting as +Inf: it misses any limit.
func rungLatencies(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		ms[i] = float64(o.Latency) / float64(time.Millisecond)
		if !o.OK {
			ms[i] = math.Inf(1)
		}
	}
	return ms
}

// meetsLimit reports whether a rung held the latency limit: its p99
// latency (failures counting as misses) within limitMs, and the last
// request done within limitMs of the rung's end — a backlog that grew
// through the rung shows as a drain longer than the limit.
func meetsLimit(outs []outcome, rungDur time.Duration, limitMs float64) bool {
	if len(outs) == 0 {
		return false
	}
	if percentile(rungLatencies(outs), 99) > limitMs {
		return false
	}
	var end time.Duration
	for _, o := range outs {
		end = max(end, o.Done)
	}
	return float64(end-rungDur)/float64(time.Millisecond) <= limitMs
}
