package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps"
)

// A corrupted result must be caught by the oracle and counted as failed,
// and a failed job must contribute no timing.
func TestCorruptedResultsAreCounted(t *testing.T) {
	join := newJoinInput(7, 50, 2000)
	good := make([]match, len(join.s))
	for i, s := range join.s {
		good[i] = match{First: s.First}
		good[i].Second.First = join.buildPay[s.First]
		good[i].Second.Second = s.Second
	}
	if err := join.verifyJoin(good); err != nil {
		t.Fatalf("correct join rejected: %v", err)
	}
	wrongPayload := append([]match(nil), good...)
	wrongPayload[3].Second.First++
	movedKey := append([]match(nil), good...)
	movedKey[0].First = (movedKey[0].First + 1) % 50
	dropped := good[1:]

	group := newGroupInput(7, 3000)
	goodGroup := make(map[uint64]apps.GroupByResult)
	for k, n := range group.counts {
		goodGroup[k] = apps.GroupByResult{Count: n}
	}
	if err := group.verify(goodGroup); err != nil {
		t.Fatalf("correct groupby rejected: %v", err)
	}
	badGroup := make(map[uint64]apps.GroupByResult)
	for k, n := range group.counts {
		badGroup[k] = apps.GroupByResult{Count: n}
	}
	badGroup[0] = apps.GroupByResult{Count: badGroup[0].Count - 1}

	clicks := newClickInput(7, 3, 500)
	window := func(w int, bump bool) map[uint64]apps.ClickStreamResult {
		got := make(map[uint64]apps.ClickStreamResult)
		for r, n := range clicks.truth[w] {
			if n > 0 {
				got[uint64(r)] = apps.ClickStreamResult{Count: n}
			}
		}
		if bump {
			for r, v := range got {
				v.Count++
				got[r] = v
				break
			}
		}
		return got
	}
	if err := clicks.verifyWindow(1, window(1, false)); err != nil {
		t.Fatalf("correct window rejected: %v", err)
	}

	ph := &phase{}
	ph.record(&jobRec{id: "ok", records: 10, start: 0, end: int64(time.Millisecond)}, nil)
	for name, err := range map[string]error{
		"join payload":   join.verifyJoin(wrongPayload),
		"join key":       join.verifyJoin(movedKey),
		"join dropped":   join.verifyJoin(dropped),
		"groupby count":  group.verify(badGroup),
		"window count":   clicks.verifyWindow(2, window(2, true)),
		"wrong window":   clicks.verifyWindow(0, window(1, false)),
		"missing window": clicks.verifyWindow(3, window(2, false)),
	} {
		if err == nil {
			t.Errorf("%s: corrupted result passed the oracle", name)
		}
		ph.record(&jobRec{id: name, records: 1000, start: 0, end: int64(time.Second)}, err)
	}
	if ph.attempted != 8 || ph.failed != 7 {
		t.Errorf("attempted %d, failed %d; want 8 and 7", ph.attempted, ph.failed)
	}
	if len(ph.jobs) != 1 || ph.records() != 10 || maxOf(ph.latencies()) != 1 {
		t.Errorf("failed jobs contributed timing: %d jobs, %d records, latencies %v", len(ph.jobs), ph.records(), ph.latencies())
	}
}

// The guard must flag warm queries whose statistics never reached the
// planner. Handing StatsFromMemory the namespace as a bag name (what
// h.Bag("") returns) is the mistake that silently produces them.
func TestSkewGuardFlagsStatsUnderTheWrongPrefix(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r, err := inprocRig(queryCluster(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	in := newJoinInput(3, 1000, 20000)
	_, mem, err := queryJob(ctx, r, in, "cold", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	right, _, err := queryJob(ctx, r, in, "right", mem.stats(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := skewGuard([]*jobRec{right}); err != nil {
		t.Errorf("warm query compiled from the job's namespace: %v", err)
	}
	// h.Bag("") of the cold job is its namespace followed by "/".
	wrongMem := &warmMemory{mem: mem.mem, job: mem.job + "/"}
	wrong, _, err := queryJob(ctx, r, in, "wrong", wrongMem.stats(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if wrong.skewed {
		t.Fatal("statistics under the wrong prefix still reached the planner; the guard has nothing to catch")
	}
	if err := skewGuard([]*jobRec{right, wrong}); err == nil {
		t.Error("guard passed a warm query that fell back from the skewed join")
	}
}
