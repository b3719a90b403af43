package main

import (
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/core"
)

// jobRec is one verified job or window: its timeline (unix ns) and what
// the engine reported about it.
type jobRec struct {
	id      string
	records int64
	// start is the first call into the engine for the job (compile or
	// submit; for a window, the creation time of its last event), submit
	// its submission and end when its output was collected.
	start, submit, end int64
	stats              core.MasterStats
	metrics            map[string]float64 // registry series of the job (traced runs only)

	// query-skewjoin: compiled from warm statistics, and to a skewed join.
	warm, skewed bool

	// stream-clicks: the window's seal and completion times.
	sealed, done int64
	seeded       bool
}

func (j *jobRec) latencyMS() float64 { return float64(j.end-j.start) / 1e6 }

// phase is one measured run of a workload: its repeated set-ups and the
// timed loop after them.
type phase struct {
	mu                sync.Mutex
	setupS            []float64
	jobs              []*jobRec
	attempted, failed int
	errors            []string

	t0, t1       time.Time
	cpu0, cpu1   float64
	mem0, mem1   runtime.MemStats // traced runs only
	traceDropped float64          // trace events the cluster's ring displaced
	streamExtras streamExtras
}

// streamExtras are the stream source's and handle's own counts.
type streamExtras struct {
	polls, emptyPolls int64
	lateMaxNS         int64
	inflightMax       int
}

func (p *phase) addSetup(d time.Duration) {
	p.setupS = append(p.setupS, d.Seconds())
}

// start opens the timed part of the phase. On a traced run it drops
// what the tracer saw during set-up and starts the CPU profile.
func (p *phase) start(t *tracer) error {
	if t != nil {
		t.reset()
		runtime.ReadMemStats(&p.mem0)
		if err := pprof.StartCPUProfile(&t.prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	p.t0 = time.Now()
	p.cpu0 = cpuSeconds()
	return nil
}

// stop closes the timed part on rig r.
func (p *phase) stop(t *tracer, r *rig) {
	p.t1 = time.Now()
	p.cpu1 = cpuSeconds()
	if t != nil {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&p.mem1)
		p.traceDropped = r.cluster.Observer().Registry().Snapshot()["hurricane_trace_dropped_total"]
	}
}

// record counts one attempted job: a verified job contributes its
// timing; a failed one (error or oracle mismatch) is counted and
// contributes nothing else.
func (p *phase) record(j *jobRec, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errors) < 5 {
			p.errors = append(p.errors, err.Error())
		}
		return
	}
	p.jobs = append(p.jobs, j)
}

func (p *phase) records() int64 {
	var n int64
	for _, j := range p.jobs {
		n += j.records
	}
	return n
}

func (p *phase) wallS() float64 { return p.t1.Sub(p.t0).Seconds() }

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = j.latencyMS()
	}
	return out
}

// tail returns the tail latency, the percentile it is at and the sample
// count it was taken over.
func (p *phase) tail() (ms, pct float64, n int, err error) {
	lat := p.latencies()
	pct, ok := tailPercentile(len(lat), tailCap)
	if !ok {
		return 0, 0, len(lat), fmt.Errorf("only %d verified samples: too few for any tail percentile", len(lat))
	}
	return percentile(lat, pct), pct, len(lat), nil
}
