package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/core"
)

// Workload sizes. Each is chosen so that one run of the default length
// holds enough jobs or windows for the tail percentile cap with at least
// minBeyond samples beyond it.
const (
	setupReps = 5 // set-ups per run; setup_s is their median

	queryKeys   = 5000  // R: every key once (query.go: records/12)
	queryProbes = 60000 // S: Zipf(1.3) probes

	groupRecords = 40000 // per served groupby job
	groupClients = 2

	streamWindow = 100 * time.Millisecond
	streamRate   = 50000 // clicks/s offered on a fixed schedule (see README: Stream rate)
)

// params are one run's settings.
type params struct {
	seed    int64
	seconds time.Duration
}

// ---- query-skewjoin ----

// runQuery is the closed-loop skewed planner join on the embedded
// cluster: one client compiles, submits, loads, waits for, collects and
// discards one join after the other. From the second job on the plan is
// compiled from the previous job's skew memory, as a repeated query is.
func runQuery(ctx context.Context, p params, t *tracer) (*phase, error) {
	in := newJoinInput(p.seed, queryKeys, queryProbes)
	ph := &phase{}
	var r *rig
	var prev *warmMemory
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		cfg := queryCluster()
		cfg.Master.Policies = t.policies(cfg.Master)
		var err error
		if r, err = inprocRig(cfg, t); err != nil {
			return nil, err
		}
		if _, prev, err = queryJob(ctx, r, in, "q0", nil, t); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up join: %w", err)
		}
		ph.addSetup(time.Since(start))
	}
	defer r.close()

	if err := ph.start(t); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(p.seconds)
	for i := 1; time.Now().Before(deadline); i++ {
		rec, mem, err := queryJob(ctx, r, in, fmt.Sprintf("q%d", i), prev.stats(), t)
		ph.record(rec, err)
		if err == nil {
			prev = mem
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	ph.stop(t, r)
	return ph, nil
}

// warmMemory is a finished job's skew memory and namespace: what a
// repeated query compiles its statistics from.
type warmMemory struct {
	mem map[string]core.EdgeMemory
	job string
}

func (w *warmMemory) stats() *q.Stats {
	if w == nil {
		return nil
	}
	return q.StatsFromMemory(w.mem, w.job)
}

func queryJob(ctx context.Context, r *rig, in *joinInput, name string, stats *q.Stats, t *tracer) (*jobRec, *warmMemory, error) {
	rec := &jobRec{id: name, records: int64(len(in.r) + len(in.s)), start: now(), warm: stats != nil}
	root := t.begin("job", name, -1)
	sp := t.begin("plan.compile", name, root)
	c, err := apps.HashJoinPlan().Compile(queryOptions(stats))
	t.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	rec.skewed = len(c.Joins) > 0 && c.Joins[0].Strategy == q.JoinSkewed
	t.wrapTasks(c.App)
	sp = t.begin("sched.submit", name, root)
	rec.submit = now()
	h, err := c.Submit(ctx, r.cluster, core.JobConfig{Name: name})
	t.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: submit: %w", name, err)
	}
	sp = t.begin("hurricane.load", name, root)
	err = loadSealed(ctx, r.store, h.Bag(apps.JoinBagR), in.r)
	if err == nil {
		err = loadSealed(ctx, r.store, h.Bag(apps.JoinBagS), in.s)
	}
	t.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: load: %w", name, err)
	}
	if err := h.Wait(ctx); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	mem := &warmMemory{mem: h.Master().EdgeMemory(), job: h.ID()}
	sp = t.begin("hurricane.collect", name, root)
	got, err := hurricane.Collect(ctx, r.store, h.Bag(c.SinkBag(apps.JoinShufOut)), apps.MatchCodec)
	rec.end = now()
	t.end(sp)
	t.end(root)
	if err == nil {
		err = in.verifyJoin(got)
	}
	return rec, mem, finishJob(ctx, h, h.Discard, rec, t, err)
}

// finishJob takes the job's counters, then discards the job; err is the
// job's outcome so far.
func finishJob(ctx context.Context, h *core.JobHandle, discard func(context.Context) error, rec *jobRec, t *tracer, err error) error {
	rec.stats = h.Stats().Master
	if t != nil {
		rec.metrics = h.Metrics()
	}
	sp := t.begin("sched.discard", rec.id, -1)
	derr := discard(ctx)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", rec.id, err)
	}
	if derr != nil {
		return fmt.Errorf("%s: discard: %w", rec.id, derr)
	}
	return nil
}

func loadSealed(ctx context.Context, store *hurricane.Store, bagName string, tuples []tuple) error {
	if err := hurricane.Load(ctx, store, bagName, apps.TupleCodec, tuples); err != nil {
		return err
	}
	return hurricane.Seal(ctx, store, bagName)
}

// ---- groupby-tcp ----

// runGroupBy is the closed-loop served groupby: two clients submit the
// row-API groupby to one long-lived scheduler cluster whose storage
// nodes sit behind loopback TCP listeners, as `hurricane-run -serve`
// with `-submit` clients does.
func runGroupBy(ctx context.Context, p params, t *tracer) (*phase, error) {
	ins := make([]*groupInput, groupClients)
	for c := range ins {
		ins[c] = newGroupInput(p.seed+int64(c), groupRecords)
	}
	ph := &phase{}
	var r *rig
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		cfg := serveCluster()
		cfg.Master.Policies = t.policies(cfg.Master)
		var err error
		if r, err = tcpRig(cfg, t); err != nil {
			return nil, err
		}
		if _, err := groupJob(ctx, r, ins[0], "g-warm", t); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up groupby: %w", err)
		}
		ph.addSetup(time.Since(start))
	}
	defer r.close()

	if err := ph.start(t); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(p.seconds)
	var wg sync.WaitGroup
	for c := 0; c < groupClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				rec, err := groupJob(ctx, r, ins[c], fmt.Sprintf("g%d-%d", c, i), t)
				ph.record(rec, err)
			}
		}()
	}
	wg.Wait()
	ph.stop(t, r)
	return ph, ctx.Err()
}

func groupJob(ctx context.Context, r *rig, in *groupInput, name string, t *tracer) (*jobRec, error) {
	app := apps.GroupByApp(parts, true, false, 0)
	spec := app.BagSpecFor(apps.GroupByShuf)
	spec.SketchEvery, spec.PollEvery = sketchEvery, pollEvery
	t.wrapTasks(app)
	rec := &jobRec{id: name, records: int64(len(in.tuples)), start: now()}
	root := t.begin("job", name, -1)
	sp := t.begin("sched.submit", name, root)
	rec.submit = rec.start
	h, err := r.cluster.SubmitJob(ctx, app, core.JobConfig{Name: name})
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: submit: %w", name, err)
	}
	sp = t.begin("hurricane.load", name, root)
	err = loadSealed(ctx, r.store, h.Bag(apps.GroupByIn), in.tuples)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: load: %w", name, err)
	}
	if err := h.Wait(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sp = t.begin("hurricane.collect", name, root)
	got, err := apps.CollectGroupByFrom(ctx, r.store, h.Bag(apps.GroupByOut))
	rec.end = now()
	t.end(sp)
	t.end(root)
	if err == nil {
		err = in.verify(got)
	}
	return rec, finishJob(ctx, h, h.Discard, rec, t, err)
}

// ---- stream-clicks ----

// clickSource releases the generated clicks on a fixed schedule: click i
// is due at origin + i/rate, and its event time is that due time. The
// pump polls it; a poll returns every click that has come due. limit
// ends the stream (io.EOF) after that many clicks.
type clickSource struct {
	in     *clickInput
	origin int64
	limit  int

	next       int
	polls      atomic.Int64
	emptyPolls atomic.Int64
	lateMaxNS  atomic.Int64
}

func (s *clickSource) due(i int) int64 {
	w, off := i/s.in.perWindow, i%s.in.perWindow
	return s.origin + int64(w)*int64(streamWindow) + int64(off)*int64(streamWindow)/int64(s.in.perWindow)
}

func (s *clickSource) Poll(ctx context.Context) ([]hurricane.StreamRecord, error) {
	if s.next >= s.limit {
		return nil, io.EOF
	}
	s.polls.Add(1)
	now := time.Now().UnixNano()
	var recs []hurricane.StreamRecord
	for s.next < s.limit {
		due := s.due(s.next)
		if due > now {
			break
		}
		if len(recs) == 0 && now-due > s.lateMaxNS.Load() {
			s.lateMaxNS.Store(now - due)
		}
		recs = append(recs, hurricane.StreamRecord{Time: due, Data: hurricane.Uint64Of.Encode(nil, uint64(s.in.ips[s.next]))})
		s.next++
	}
	if len(recs) == 0 {
		s.emptyPolls.Add(1)
	}
	return recs, nil
}

// runStream is the open-loop click stream on the embedded cluster: a
// benchmark-owned source offers streamRate clicks per second whatever
// the engine does, cut into streamWindow event-time windows. Window 0 is
// the warm-up (part of set-up); the timed windows follow it.
func runStream(ctx context.Context, p params, t *tracer) (*phase, error) {
	perWindow := int(int64(streamRate) * int64(streamWindow) / int64(time.Second))
	timed := int(p.seconds / streamWindow)
	in := newClickInput(p.seed, 1+timed, perWindow)
	ph := &phase{}
	for rep := 0; rep < setupReps; rep++ {
		last := rep == setupReps-1
		limit := perWindow
		if last {
			limit = len(in.ips)
		}
		if err := streamOnce(ctx, in, limit, ph, t, last); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// streamOnce deploys a cluster, streams limit clicks through it and
// collects every window. Set-up ends when window 0 has been collected;
// when timed is set, the remaining windows are the measured phase.
func streamOnce(ctx context.Context, in *clickInput, limit int, ph *phase, t *tracer, timed bool) error {
	start := time.Now()
	r, err := inprocRig(streamCluster(), t)
	if err != nil {
		return err
	}
	defer r.close()
	app := apps.ClickStreamApp(parts, true, 0)
	spec := app.BagSpecFor(apps.ClickStreamShuf)
	spec.SketchEvery, spec.PollEvery = sketchEvery, pollEvery
	t.wrapTasks(app)
	master := skewMaster()
	master.Policies = t.policies(master)
	src := &clickSource{in: in, origin: time.Now().Add(20 * time.Millisecond).UnixNano(), limit: limit}
	h, err := hurricane.RunStream(ctx, r.cluster, hurricane.StreamSpec{
		Name:    "clicks",
		App:     app,
		Sources: map[string]hurricane.StreamSource{apps.ClickStreamIn: src},
		Window:  streamWindow,
		Origin:  src.origin,
		Master:  &master,
	})
	if err != nil {
		return err
	}
	windows := limit / in.perWindow
	var polls0, empty0 int64
	for w := 0; w < windows; w++ {
		res, err := h.Next(ctx)
		if err != nil {
			return fmt.Errorf("window %d: %w", w, err)
		}
		if n := h.Stats().InFlight; n > ph.streamExtras.inflightMax && timed && w > 0 {
			ph.streamExtras.inflightMax = n
		}
		rec, err := collectWindow(ctx, r, in, src, res, t)
		if w == 0 {
			if err != nil {
				return fmt.Errorf("warm-up window: %w", err)
			}
			ph.addSetup(time.Since(start))
			if timed {
				if err := ph.start(t); err != nil {
					return err
				}
				polls0, empty0 = src.polls.Load(), src.emptyPolls.Load()
			}
			continue
		}
		ph.record(rec, err)
	}
	if err := h.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if timed {
		// The timed phase began with window 1's first click and ended when
		// the last window was collected.
		ph.stop(t, r)
		ph.t0 = time.Unix(0, src.due(in.perWindow))
		ph.streamExtras.lateMaxNS = src.lateMaxNS.Load()
		ph.streamExtras.polls = src.polls.Load() - polls0
		ph.streamExtras.emptyPolls = src.emptyPolls.Load() - empty0
	}
	return nil
}

func collectWindow(ctx context.Context, r *rig, in *clickInput, src *clickSource, res *hurricane.WindowResult, t *tracer) (*jobRec, error) {
	if res.Err != nil {
		return nil, fmt.Errorf("window %d: %w", res.Index, res.Err)
	}
	h := res.Job()
	if h == nil {
		return nil, fmt.Errorf("window %d ran no job", res.Index)
	}
	name := h.ID()
	last := (res.Index+1)*in.perWindow - 1
	rec := &jobRec{
		id: name, records: res.Records, start: src.due(last),
		sealed: res.SealedAt.UnixNano(), submit: res.SubmittedAt.UnixNano(), done: res.DoneAt.UnixNano(),
		seeded: res.Seeded,
	}
	sp := t.begin("hurricane.collect", name, -1)
	got, err := apps.CollectClickStream(ctx, r.store, res.Bag(apps.ClickStreamOut))
	rec.end = now()
	t.end(sp)
	t.add(span{name: "job", start: rec.start, end: rec.end, parent: -1, job: name})
	t.add(span{name: "stream.seal", start: rec.start, end: rec.sealed, parent: -1, job: name})
	t.add(span{name: "stream.queue", start: rec.sealed, end: rec.submit, parent: -1, job: name})
	if err == nil {
		err = in.verifyWindow(res.Index, got)
	}
	return rec, finishJob(ctx, h, res.Discard, rec, t, err)
}
