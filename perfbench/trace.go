package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/transport"
)

// A span is one timed call into a layer, recorded by the benchmark's own
// code around the engine's public entry points and interfaces. Spans are
// kept in memory and summarized when the run ends.
type span struct {
	name       string // "<layer>.<what>", e.g. "transport.call"
	start, end int64  // unix nanoseconds
	parent     int    // index of the enclosing span, -1 when unknown
	job        string // job (namespace) the span worked for
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// opStats are the counts the transport client wrapper and the storage
// handler wrapper take per storage op.
type opStats struct {
	ops, errors          int64
	bytes                int64 // request + response payload bytes
	inserts, insertBytes int64
	reads, readChunks    int64 // OpRemove/OpReadAt calls and chunks they returned
	emptyProbes          int64 // reads answered ErrAgain or ErrEmpty
	callNS, handleNS     []float64
	perJob               map[string]*jobOps
}

type jobOps struct {
	sketchPush, sketchFetch int64
	handleNS                int64
}

// taskRun is one execution of a task body (an original worker or a clone).
type taskRun struct {
	job, task  string
	worker     int
	start, end int64
}

// policyEval is one Evaluate call of a control-plane policy.
type policyEval struct {
	job        string
	start, end int64
	mitigation int // proposed CloneTask, SplitPartition and IsolateKey actions
}

// tracer collects spans and per-layer counts for the traced run. A nil
// *tracer records nothing and wraps nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ops   opStats
	tasks []taskRun
	evals []policyEval
	prof  bytes.Buffer // CPU profile of the timed phase
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.tasks, t.evals = nil, nil, nil
	t.ops = opStats{perJob: make(map[string]*jobOps)}
	t.prof.Reset()
}

func now() int64 { return time.Now().UnixNano() }

// begin opens a span and returns its index; end closes it. Both are
// no-ops on a nil tracer.
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now(), parent: parent, job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	e := now()
	t.mu.Lock()
	t.spans[i].end = e
	t.mu.Unlock()
}

// add records a span whose bounds the caller already knows.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeSpans writes every span as one gzipped JSON line; a span's parent
// is the line index of its enclosing span.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	for _, s := range t.spans {
		fmt.Fprintf(bw, "{\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"job\":%q}\n",
			s.name, s.start, s.end, s.parent, s.job)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// jobOf maps a physical bag name to its job: the namespace prefix before
// the first '/'. Names outside any namespace belong to no job.
func jobOf(bagName string) string {
	if i := strings.IndexByte(bagName, '/'); i > 0 {
		return bagName[:i]
	}
	return ""
}

func (t *tracer) jobOps(job string) *jobOps {
	j := t.ops.perJob[job]
	if j == nil {
		j = &jobOps{}
		t.ops.perJob[job] = j
	}
	return j
}

// ---- transport client wrapper ----

type tracedClient struct {
	inner transport.Client
	t     *tracer
}

// client wraps c so every storage op is timed and counted; it returns c
// itself on a nil tracer.
func (t *tracer) client(c transport.Client) transport.Client {
	if t == nil {
		return c
	}
	return &tracedClient{inner: c, t: t}
}

func (c *tracedClient) Call(ctx context.Context, node string, req *transport.Request) (*transport.Response, error) {
	start := now()
	resp, err := c.inner.Call(ctx, node, req)
	end := now()
	c.t.recordCall(req, resp, err, start, end)
	return resp, err
}

func (c *tracedClient) Close() error { return c.inner.Close() }

func (t *tracer) recordCall(req *transport.Request, resp *transport.Response, err error, start, end int64) {
	job := jobOf(req.Bag)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: "transport.call", start: start, end: end, parent: -1, job: job})
	o := &t.ops
	o.ops++
	o.callNS = append(o.callNS, float64(end-start))
	o.bytes += int64(len(req.Data))
	if resp != nil {
		o.bytes += int64(len(resp.Data))
	}
	if err != nil || (resp != nil && resp.Status == transport.StatusErr) {
		o.errors++
	}
	switch req.Op {
	case transport.OpInsert:
		o.inserts++
		o.insertBytes += int64(len(req.Data))
	case transport.OpRemove, transport.OpReadAt:
		o.reads++
		if err == nil && resp != nil {
			switch resp.Status {
			case transport.StatusOK:
				o.readChunks++
			case transport.StatusAgain, transport.StatusEmpty:
				o.emptyProbes++
			}
		}
	case transport.OpSketch:
		switch {
		case len(req.Data) > 0:
			t.jobOps(job).sketchPush++
		case req.Arg != transport.SketchClear:
			t.jobOps(job).sketchFetch++
		}
	}
}

// ---- storage handler wrapper ----

type tracedHandler struct {
	inner transport.Handler
	t     *tracer
}

// handler wraps a storage node's handler so every op it serves is timed;
// it returns h itself on a nil tracer.
func (t *tracer) handler(h transport.Handler) transport.Handler {
	if t == nil {
		return h
	}
	return &tracedHandler{inner: h, t: t}
}

func (h *tracedHandler) Handle(req *transport.Request) *transport.Response {
	start := now()
	resp := h.inner.Handle(req)
	end := now()
	job := jobOf(req.Bag)
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, span{name: "storage.handle", start: start, end: end, parent: -1, job: job})
	h.t.ops.handleNS = append(h.t.ops.handleNS, float64(end-start))
	h.t.jobOps(job).handleNS += end - start
	h.t.mu.Unlock()
	return resp
}

// ---- control-plane policy wrapper ----

type tracedPolicy struct {
	inner ctrl.Policy
	t     *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Evaluate(snap *ctrl.Snapshot) []ctrl.Action {
	start := now()
	acts := p.inner.Evaluate(snap)
	end := now()
	n := 0
	for _, a := range acts {
		switch a.(type) {
		case ctrl.CloneTask, ctrl.SplitPartition, ctrl.IsolateKey:
			n++
		}
	}
	p.t.mu.Lock()
	p.t.evals = append(p.t.evals, policyEval{job: snap.Job, start: start, end: end, mitigation: n})
	p.t.spans = append(p.t.spans, span{name: "ctrl.eval", start: start, end: end, parent: -1, job: snap.Job})
	p.t.mu.Unlock()
	return acts
}

// tracedEdgePolicy keeps the EdgeStatsConsumer marker of the policy it
// wraps: without it the master would stop fetching edge sketches.
type tracedEdgePolicy struct{ tracedPolicy }

func (p *tracedEdgePolicy) WantsEdgeStats() bool {
	return p.inner.(ctrl.EdgeStatsConsumer).WantsEdgeStats()
}

// policies returns the master's default policy set for m, each entry
// wrapped so its evaluations are timed. On a nil tracer it returns nil,
// which makes the master install the same defaults itself.
func (t *tracer) policies(m core.MasterConfig) []ctrl.Policy {
	if t == nil {
		return nil
	}
	var out []ctrl.Policy
	for _, p := range core.DefaultPolicies(m) {
		tp := tracedPolicy{inner: p, t: t}
		if _, ok := p.(ctrl.EdgeStatsConsumer); ok {
			out = append(out, &tracedEdgePolicy{tp})
		} else {
			out = append(out, &tp)
		}
	}
	return out
}

// ---- task bodies ----

// wrapTasks times every task body (Run and Merge) of app. Call it before
// submission: the namespaced copy the scheduler makes keeps the wrapped
// bodies.
func (t *tracer) wrapTasks(app *core.App) {
	if t == nil {
		return
	}
	for _, name := range app.Tasks() {
		spec := app.Task(name)
		spec.Run = t.timedBody(name, spec.Run)
		spec.Merge = t.timedBody(name, spec.Merge)
	}
}

func (t *tracer) timedBody(task string, body core.TaskFunc) core.TaskFunc {
	if body == nil {
		return nil
	}
	return func(tc *core.TaskCtx) error {
		start := now()
		err := body(tc)
		end := now()
		var bagName string
		if tc.NumInputs() > 0 {
			bagName = tc.InputName(0)
		} else if tc.NumOutputs() > 0 {
			bagName = tc.OutputName(0)
		}
		job := jobOf(bagName)
		t.mu.Lock()
		t.tasks = append(t.tasks, taskRun{job: job, task: task, worker: tc.Blueprint().Worker, start: start, end: end})
		t.spans = append(t.spans, span{name: "core.task", start: start, end: end, parent: -1, job: job})
		t.mu.Unlock()
		return err
	}
}
