// Command perfbench is the repository's end-to-end benchmark. It drives
// the engine only through its public entry points, in three workloads
// that copy the job shapes hurricane-run deploys:
//
//	query-skewjoin  closed loop, 1 client: a planner-compiled skewed join
//	groupby-tcp     closed loop, 2 clients: the served groupby over TCP storage
//	stream-clicks   open loop, fixed rate: a windowed click stream
//
// Every job and window is checked against an oracle computed from the
// generated inputs. The last line of standard output is one JSON object:
// the end-to-end metrics of an untraced run, or with -trace 1 the
// per-layer metrics of a traced run (which first runs the workload
// untraced, to report the tracing overhead; each phase takes half the
// time). Run it through run.py, which
// builds it from the checkout:
//
//	python3 perfbench/run.py --workload query-skewjoin --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type workloadFunc func(context.Context, params, *tracer) (*phase, error)

var workloads = map[string]struct {
	run    workloadFunc
	stream bool
}{
	"query-skewjoin": {runQuery, false},
	"groupby-tcp":    {runGroupBy, false},
	"stream-clicks":  {runStream, true},
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "query-skewjoin | groupby-tcp | stream-clicks")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	res, err := run(*name, params{seed: *seed, seconds: time.Duration(*seconds) * time.Second}, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, p params, traced bool) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if p.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	// Every call into the engine is bounded, so a hung job ends the run
	// with an error instead of outliving the caller's time limit.
	ctx, cancel := context.WithTimeout(context.Background(), 3*p.seconds+60*time.Second)
	defer cancel()

	// A traced run measures the untraced and the traced phase for half the
	// time each, so that it takes as long as an untraced run.
	if traced {
		p.seconds /= 2
	}
	before := sampleHost()
	cpu0, wall0 := cpuSeconds(), time.Now()
	ph, err := w.run(ctx, p, nil)
	if err != nil {
		return nil, err
	}
	e2e, err := endToEnd(ph)
	if err != nil {
		return nil, err
	}
	printEndToEnd(fmt.Sprintf("%s seed %d, untraced", name, p.seed), e2e, ph, w.stream)
	res := &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: make(map[string]resultMetric)}

	if !traced {
		for _, m := range e2e {
			res.Metrics[m.name] = resultMetric{m.value, m.unit}
		}
	} else {
		t := newTracer()
		tph, err := w.run(ctx, p, t)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		te2e, err := endToEnd(tph)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		printEndToEnd(fmt.Sprintf("%s seed %d, traced", name, p.seed), te2e, tph, w.stream)
		cpu, err := cpuByLayer(t.prof.Bytes())
		if err != nil {
			return nil, err
		}
		lm := layerReport(tph, t, cpu)
		spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl.gz", name, p.seed))
		if err := t.writeSpans(spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(t.spans), spans)
		fmt.Println("tracing overhead (how much worse the traced half reads):")
		for i, m := range e2e {
			traced := te2e[i].value
			switch m.name {
			case "peak_rss_mb":
				continue // one process high-water mark covers both runs
			case "latency_ms_tail":
				// At the untraced run's percentile, whatever the traced
				// run's own sample count would allow.
				_, pct, _, _ := ph.tail()
				traced = percentile(tph.latencies(), pct)
			}
			v := traced/m.value - 1
			if m.name == "throughput_rec_per_s" { // higher is better
				v = m.value/traced - 1
			}
			lm["trace_overhead."+m.name] = v
			fmt.Printf("  %-24s %+7.1f%%\n", m.name, 100*v)
		}
		printLayers(lm, cpu)
		for _, s := range perLayerSpec {
			res.Metrics[s.name] = resultMetric{lm[s.name], s.unit}
		}
		res.Attempted += tph.attempted
		res.Failed += tph.failed
	}
	host := hostReport{before: before, after: sampleHost(), wallS: time.Since(wall0).Seconds()}
	host.cpuPerWall = (cpuSeconds() - cpu0) / host.wallS
	fmt.Println("host:", host)
	res.Correct = res.Failed == 0
	return res, nil
}
