package main

import (
	"fmt"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
	note       string // printed beside the value in the readable report
}

// endToEndNames are the metrics of an untraced run, in BENCHMARK.json's
// order. For the batch workloads latency is a job's time from its first
// engine call (compile or submit) to its collected output; for the
// stream it is a window's time from the creation of its last event to
// its collected output.
var endToEndNames = []string{
	"setup_s", "latency_ms_p50", "latency_ms_tail", "throughput_rec_per_s",
	"cpu_s_per_mrec", "peak_rss_mb",
}

// endToEnd computes the end-to-end metrics of one phase.
func endToEnd(ph *phase) ([]metric, error) {
	recs := ph.records()
	if len(ph.jobs) == 0 || recs == 0 {
		return nil, fmt.Errorf("no verified job in the timed phase (%d attempted, %d failed: %s)",
			ph.attempted, ph.failed, strings.Join(ph.errors, "; "))
	}
	tail, pct, n, err := ph.tail()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	lat := ph.latencies()
	return []metric{
		{"setup_s", "s", median(ph.setupS), fmt.Sprintf("median of %d set-ups", len(ph.setupS))},
		{"latency_ms_p50", "ms", median(lat), fmt.Sprintf("over %d", n)},
		{"latency_ms_tail", "ms", tail, fmt.Sprintf("p%g of %d", pct, n)},
		{"throughput_rec_per_s", "rec/s", float64(recs) / ph.wallS(), fmt.Sprintf("%d records in %.2fs", recs, ph.wallS())},
		{"cpu_s_per_mrec", "s", (ph.cpu1 - ph.cpu0) / (float64(recs) / 1e6), "user+sys"},
		{"peak_rss_mb", "MiB", rss, "VmHWM"},
	}, nil
}

// skewGuard checks that every warm query compiled to the skewed join.
// A warm query that falls back to a repartition join means the previous
// job's skew memory never reached the planner; the classic cause is
// handing StatsFromMemory a bag name (h.Bag("")) instead of the job's
// namespace (h.ID()), which leaves every statistic under a name the
// compiler does not look up.
func skewGuard(jobs []*jobRec) error {
	warm, skewed := 0, 0
	for _, j := range jobs {
		if j.warm {
			warm++
			if j.skewed {
				skewed++
			}
		}
	}
	if skewed < warm {
		return fmt.Errorf("%d of %d warm queries did not compile to the skewed join: the warm statistics did not reach the planner",
			warm-skewed, warm)
	}
	return nil
}

// reportNames are the workload-specific names the end-to-end metrics go
// by in the readable report.
func reportNames(stream bool) map[string]string {
	if stream {
		return map[string]string{
			"latency_ms_p50": "window_latency_ms_p50", "latency_ms_tail": "window_latency_ms_tail",
			"throughput_rec_per_s": "events_per_s",
		}
	}
	return map[string]string{
		"latency_ms_p50": "job_s_p50", "latency_ms_tail": "job_s_tail",
		"throughput_rec_per_s": "records_per_s",
	}
}

// printEndToEnd writes the readable end-to-end report: every metric by
// its workload-specific name and unit, plus the error rate.
func printEndToEnd(title string, ms []metric, ph *phase, stream bool) {
	fmt.Printf("%s: %d attempted, %d failed\n", title, ph.attempted, ph.failed)
	alias := reportNames(stream)
	for _, m := range ms {
		name, v, unit := m.name, m.value, m.unit
		if a, ok := alias[name]; ok {
			name = a
			if strings.HasPrefix(a, "job_s") {
				v, unit = v/1e3, "s"
			}
		}
		fmt.Printf("  %-24s %14.6g %-6s %s\n", name, v, unit, m.note)
	}
	rate := 0.0
	if ph.attempted > 0 {
		rate = float64(ph.failed) / float64(ph.attempted)
	}
	fmt.Printf("  %-24s %14.6g %-6s %s\n", "error_rate", rate, "ratio", "failed or wrong ÷ attempted")
	for _, e := range ph.errors {
		fmt.Printf("  error: %s\n", e)
	}
	if err := skewGuard(ph.jobs); err != nil {
		fmt.Printf("  guard: %v\n", err)
	}
}

// perLayerMetric describes one per-layer metric of BENCHMARK.json.
type perLayerMetric struct{ name, unit, better string }

// perLayerSpec lists the traced run's metrics in BENCHMARK.json's order.
// Metrics of a layer a workload does not exercise read 0.
var perLayerSpec = func() []perLayerMetric {
	s := []perLayerMetric{
		{"hurricane.load_ms_per_job", "ms", "lower"},
		{"hurricane.collect_ms_per_job", "ms", "lower"},
		{"sched.submit_ms_p50", "ms", "lower"},
		{"sched.discard_ms_p50", "ms", "lower"},
		{"core.first_task_ms_p50", "ms", "lower"},
		{"core.task_runs_per_job", "count", "lower"},
		{"core.stage_straggler_ratio", "ratio", "lower"},
		{"core.clones_per_job", "count", "lower"},
		{"core.splits_per_job", "count", "lower"},
		{"core.isolations_per_job", "count", "lower"},
		{"ctrl.evals_per_job", "count", "lower"},
		{"ctrl.eval_us_p50", "us", "lower"},
		{"ctrl.actions_per_job", "count", "lower"},
		{"ctrl.applied_ratio", "ratio", "higher"},
		{"plan.compile_ms", "ms", "lower"},
		{"plan.skewed_share", "ratio", "higher"},
		{"shuffle.bytes_per_rec", "B/rec", "lower"},
		{"shuffle.top_partition_share", "ratio", "lower"},
		{"sketch.push_ops_per_job", "count", "lower"},
		{"sketch.fetch_ops_per_job", "count", "lower"},
		{"chunk.chunks_per_mrec", "count", "lower"},
		{"chunk.fill_ratio", "ratio", "higher"},
		{"bag.read_ops_per_chunk", "ratio", "lower"},
		{"bag.empty_probe_ratio", "ratio", "lower"},
		{"transport.ops_per_mrec", "count", "lower"},
		{"transport.call_us_p50", "us", "lower"},
		{"transport.call_us_tail", "us", "lower"},
		{"transport.bytes_per_rec", "B/rec", "lower"},
		{"transport.errors", "count", "lower"},
		{"transport.wire_us_p50", "us", "lower"},
		{"storage.handle_us_p50", "us", "lower"},
		{"storage.busy_ms_per_job", "ms", "lower"},
		{"stream.seal_lag_ms_p50", "ms", "lower"},
		{"stream.queue_ms_p50", "ms", "lower"},
		{"stream.exec_ms_p50", "ms", "lower"},
		{"stream.emit_ms_p50", "ms", "lower"},
		{"stream.empty_poll_ratio", "ratio", "lower"},
		{"stream.inflight_max", "count", "lower"},
		{"stream.source_late_ms_max", "ms", "lower"},
		{"stream.seeded_share", "ratio", "higher"},
		{"obs.trace_dropped", "count", "lower"},
		{"runtime.alloc_bytes_per_rec", "B/rec", "lower"},
		{"runtime.gc_cycles_per_mrec", "count", "lower"},
	}
	for _, l := range cpuLayers {
		s = append(s, perLayerMetric{l + ".cpu_ns_per_rec", "ns/rec", "lower"})
	}
	for _, l := range spanLayers {
		s = append(s, perLayerMetric{l + ".self_share", "ratio", "lower"})
	}
	s = append(s, perLayerMetric{"unattributed.self_share", "ratio", "lower"})
	for _, n := range endToEndNames {
		if n != "peak_rss_mb" {
			s = append(s, perLayerMetric{"trace_overhead." + n, "ratio", "lower"})
		}
	}
	return s
}()

// spanDepth orders the layers the benchmark records spans for, outermost
// first. A layer's self time is its spans' time not covered by a deeper
// layer's spans of the same job.
var spanDepth = map[string]int{
	"job": 0, "hurricane": 1, "sched": 1, "plan": 1, "stream": 1,
	"core": 2, "ctrl": 2, "transport": 3, "storage": 4,
}

var spanLayers = []string{"hurricane", "sched", "plan", "stream", "core", "ctrl", "transport", "storage"}

// selfShares returns each span layer's self time, and the unattributed
// remainder, as shares of the verified jobs' total latency.
func selfShares(spans []span, jobs map[string]bool) map[string]float64 {
	byJob := make(map[string][]span)
	for _, s := range spans {
		if jobs[s.job] && s.end > s.start {
			byJob[s.job] = append(byJob[s.job], s)
		}
	}
	self := make(map[string]int64)
	var total int64
	for _, ss := range byJob {
		var root []interval
		for _, s := range ss {
			if s.name == "job" {
				root = append(root, interval{s.start, s.end})
			}
		}
		if len(root) == 0 {
			continue
		}
		r := union(root)
		lo, hi := r[0].start, r[len(r)-1].end
		clip := func(s span) interval { return interval{max(s.start, lo), min(s.end, hi)} }
		byDepth := make(map[string][]interval)
		var all []interval
		for _, s := range ss {
			if l := s.layer(); s.name != "job" && spanDepth[l] > 0 {
				iv := clip(s)
				byDepth[l] = append(byDepth[l], iv)
				all = append(all, iv)
			}
		}
		for _, l := range spanLayers {
			var deeper []interval
			for l2, ivs := range byDepth {
				if spanDepth[l2] > spanDepth[l] {
					deeper = append(deeper, ivs...)
				}
			}
			self[l] += selfTime(byDepth[l], deeper)
		}
		self["unattributed"] += selfTime(r, all)
		total += totalLen(r)
	}
	out := make(map[string]float64)
	for l, ns := range self {
		if total > 0 {
			out[l] = float64(ns) / float64(total)
		}
	}
	return out
}

// layerReport computes every per-layer metric of a traced phase.
func layerReport(ph *phase, t *tracer, cpu map[string]int64) map[string]float64 {
	m := make(map[string]float64)
	recs := float64(ph.records())
	jobs := make(map[string]bool, len(ph.jobs))
	for _, j := range ph.jobs {
		jobs[j.id] = true
	}
	nJobs := float64(len(ph.jobs))
	perJob := func(x float64) float64 { return x / nJobs }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Spans around public calls.
	durs := make(map[string][]float64)
	for _, s := range t.spans {
		if jobs[s.job] && s.end > s.start {
			durs[s.name] = append(durs[s.name], float64(s.end-s.start)/1e6)
		}
	}
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t
	}
	m["hurricane.load_ms_per_job"] = perJob(sum(durs["hurricane.load"]))
	m["hurricane.collect_ms_per_job"] = perJob(sum(durs["hurricane.collect"]))
	m["sched.submit_ms_p50"] = median(durs["sched.submit"])
	m["sched.discard_ms_p50"] = median(durs["sched.discard"])
	m["plan.compile_ms"] = median(durs["plan.compile"])

	// Task bodies.
	firstTask := make(map[string]int64)
	stages := make(map[string][]float64)
	runs := 0
	for _, r := range t.tasks {
		if !jobs[r.job] {
			continue
		}
		runs++
		if f, ok := firstTask[r.job]; !ok || r.start < f {
			firstTask[r.job] = r.start
		}
		k := r.job + "\x00" + r.task
		stages[k] = append(stages[k], float64(r.end-r.start))
	}
	var firsts, stragglers []float64
	var clones, splits, isolations, warm, skewed float64
	var seals, queues, execs, emits []float64
	seeded := 0.0
	for _, j := range ph.jobs {
		if f, ok := firstTask[j.id]; ok {
			firsts = append(firsts, float64(f-j.submit)/1e6)
		}
		clones += float64(j.stats.Clones)
		splits += float64(j.stats.Splits)
		isolations += float64(j.stats.Isolations)
		if j.warm {
			warm++
			if j.skewed {
				skewed++
			}
		}
		if j.sealed != 0 {
			seals = append(seals, float64(j.sealed-j.start)/1e6)
			queues = append(queues, float64(j.submit-j.sealed)/1e6)
			execs = append(execs, float64(j.done-j.submit)/1e6)
			emits = append(emits, float64(j.end-j.done)/1e6)
			if j.seeded {
				seeded++
			}
		}
	}
	for _, ws := range stages {
		if len(ws) >= 2 {
			stragglers = append(stragglers, maxOf(ws)/median(ws))
		}
	}
	m["core.first_task_ms_p50"] = median(firsts)
	m["core.task_runs_per_job"] = perJob(float64(runs))
	m["core.stage_straggler_ratio"] = median(stragglers)
	m["core.clones_per_job"] = perJob(clones)
	m["core.splits_per_job"] = perJob(splits)
	m["core.isolations_per_job"] = perJob(isolations)
	m["plan.skewed_share"] = ratio(skewed, warm)
	m["stream.seal_lag_ms_p50"] = median(seals)
	m["stream.queue_ms_p50"] = median(queues)
	m["stream.exec_ms_p50"] = median(execs)
	m["stream.emit_ms_p50"] = median(emits)
	if len(seals) > 0 {
		m["stream.seeded_share"] = seeded / float64(len(seals))
	}

	// Control-plane policies.
	var evalUS []float64
	proposed := 0.0
	for _, e := range t.evals {
		if jobs[e.job] {
			evalUS = append(evalUS, float64(e.end-e.start)/1e3)
			proposed += float64(e.mitigation)
		}
	}
	m["ctrl.evals_per_job"] = perJob(float64(len(evalUS)))
	m["ctrl.eval_us_p50"] = median(evalUS)
	m["ctrl.actions_per_job"] = perJob(proposed)
	m["ctrl.applied_ratio"] = ratio(clones+splits+isolations, proposed)

	// Shuffle series of each job's registry view.
	var shufBytes float64
	var topShares []float64
	for _, j := range ph.jobs {
		parts := make(map[string][]float64) // edge -> partition record counts
		for k, v := range j.metrics {
			switch {
			case strings.HasPrefix(k, "hurricane_shuffle_bytes_total"):
				shufBytes += v
			case strings.HasPrefix(k, "hurricane_shuffle_partition_records_total"):
				parts[labelValue(k, "edge")] = append(parts[labelValue(k, "edge")], v)
			}
		}
		top := 0.0
		for _, counts := range parts {
			top = max(top, ratio(maxOf(counts), sum(counts)))
		}
		if len(parts) > 0 {
			topShares = append(topShares, top)
		}
	}
	m["shuffle.bytes_per_rec"] = ratio(shufBytes, recs)
	m["shuffle.top_partition_share"] = median(topShares)

	// Storage ops, at the client and at the nodes.
	o := &t.ops
	var push, fetch, busyNS float64
	for j, jo := range o.perJob {
		if jobs[j] {
			push += float64(jo.sketchPush)
			fetch += float64(jo.sketchFetch)
			busyNS += float64(jo.handleNS)
		}
	}
	m["sketch.push_ops_per_job"] = perJob(push)
	m["sketch.fetch_ops_per_job"] = perJob(fetch)
	m["chunk.chunks_per_mrec"] = ratio(float64(o.inserts), recs/1e6)
	m["chunk.fill_ratio"] = ratio(float64(o.insertBytes), float64(o.inserts)*chunkSize)
	m["bag.read_ops_per_chunk"] = ratio(float64(o.reads), float64(o.readChunks))
	m["bag.empty_probe_ratio"] = ratio(float64(o.emptyProbes), float64(o.reads))
	m["transport.ops_per_mrec"] = ratio(float64(o.ops), recs/1e6)
	m["transport.call_us_p50"] = median(o.callNS) / 1e3
	if p, ok := tailPercentile(len(o.callNS), 99.9); ok {
		m["transport.call_us_tail"] = percentile(o.callNS, p) / 1e3
	}
	m["transport.bytes_per_rec"] = ratio(float64(o.bytes), recs)
	m["transport.errors"] = float64(o.errors)
	m["transport.wire_us_p50"] = (median(o.callNS) - median(o.handleNS)) / 1e3
	m["storage.handle_us_p50"] = median(o.handleNS) / 1e3
	m["storage.busy_ms_per_job"] = perJob(busyNS / 1e6)

	// The stream source and handle.
	x := ph.streamExtras
	m["stream.empty_poll_ratio"] = ratio(float64(x.emptyPolls), float64(x.polls))
	m["stream.inflight_max"] = float64(x.inflightMax)
	m["stream.source_late_ms_max"] = float64(x.lateMaxNS) / 1e6

	m["obs.trace_dropped"] = ph.traceDropped
	m["runtime.alloc_bytes_per_rec"] = ratio(float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc), recs)
	m["runtime.gc_cycles_per_mrec"] = ratio(float64(ph.mem1.NumGC-ph.mem0.NumGC), recs/1e6)

	for _, l := range cpuLayers {
		m[l+".cpu_ns_per_rec"] = ratio(float64(cpu[l]), recs)
	}
	shares := selfShares(t.spans, jobs)
	for _, l := range append(spanLayers, "unattributed") {
		m[l+".self_share"] = shares[l]
	}
	return m
}

// labelValue extracts a label's value from a rendered series name such
// as `name{edge="x",part="y"}`.
func labelValue(series, key string) string {
	_, rest, ok := strings.Cut(series, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// printLayers writes the readable traced report: every per-layer metric,
// then the CPU and self-time shares.
func printLayers(m map[string]float64, cpu map[string]int64) {
	fmt.Println("per-layer (traced run):")
	for _, s := range perLayerSpec {
		fmt.Printf("  %-34s %14.6g %s\n", s.name, m[s.name], s.unit)
	}
	var total int64
	for _, ns := range cpu {
		total += ns
	}
	if total > 0 {
		fmt.Println("cpu share by layer (leaf-most engine frame; runtime = GC and scheduler):")
		ls := append([]string(nil), cpuLayers...)
		sort.SliceStable(ls, func(i, j int) bool { return cpu[ls[i]] > cpu[ls[j]] })
		for _, l := range ls {
			fmt.Printf("  %-10s %6.1f%%\n", l, 100*float64(cpu[l])/float64(total))
		}
	}
	fmt.Println("self time by layer, share of job latency (same-depth layers may overlap):")
	for _, l := range append(spanLayers, "unattributed") {
		fmt.Printf("  %-12s %6.1f%%\n", l, 100*m[l+".self_share"])
	}
}
