package q_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/workload"
)

// TestVectorizedPlanOracle runs scan -> filter -> map -> countByKey on
// Zipf(1.3) input — a fused narrow prefix the compiler lowers to batch
// kernels (filter as a compacting selection pass, map over the vector)
// ahead of a batch-routed shuffle edge — and checks every key against
// ground truth. It then asserts the job really moved batch chunks: with
// a columnar record codec the planner's batch plane is on by default,
// and the shuffle writers count every batch they insert.
func TestVectorizedPlanOracle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	gen := workload.RelationGen{Keys: 64, S: 1.3, Seed: 17}
	tuples := gen.Generate(30000)
	want := make(map[uint64]int64)
	for _, tu := range tuples {
		if tu.Key%3 != 0 {
			want[tu.Key*2]++
		}
	}

	p := q.New("vec")
	src := q.Scan(p, "in", tupleCodec)
	kept := q.Filter(src, func(t tuple) bool { return t.First%3 != 0 })
	doubled := q.Map(kept, tupleCodec, func(t tuple) tuple {
		return tuple{First: t.First * 2, Second: t.Second}
	})
	q.CountByKey(doubled, func(t tuple) uint64 { return t.First }).Sink("out")
	c, err := p.Compile(q.Options{Parts: 4, SketchEvery: 256, PollEvery: 128})
	if err != nil {
		t.Fatal(err)
	}

	store := cluster.Store()
	loadTuples(ctx, t, store, "in", tuples)
	if err := c.Run(ctx, cluster); err != nil {
		t.Fatal(err)
	}
	got, err := q.CollectGrouped(ctx, store, c.SinkBag("out"), hurricane.Int64Of,
		func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	verifyCounts(t, got, want)

	var batches float64
	for series, v := range cluster.Observer().Registry().Snapshot() {
		if strings.HasPrefix(series, "hurricane_chunk_batches_total") {
			batches += v
		}
	}
	if batches == 0 {
		t.Fatal("no batch chunks recorded — the compiled plan fell back to rows")
	}
}

// TestVectorFinalizeStageError asserts an operator error raised in a
// finalize stage (the merged partials of a CountByKey feeding a FlatMap)
// fails the job instead of being dropped.
func TestVectorFinalizeStageError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	p := q.New("finerr")
	counts := q.CountByKey(q.Scan(p, "in", tupleCodec), func(t tuple) uint64 { return t.First })
	q.FlatMap(counts, hurricane.Int64Of, func(hurricane.Pair[uint64, int64], func(int64) error) error {
		return errors.New("finalize boom")
	}).Sink("out")
	c, err := p.Compile(q.Options{Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.RelationGen{Keys: 16, S: 1.1, Seed: 5}
	loadTuples(ctx, t, cluster.Store(), "in", gen.Generate(2000))
	if err := c.Run(ctx, cluster); err == nil || !strings.Contains(err.Error(), "finalize boom") {
		t.Fatalf("Run = %v, want the finalize stage's error", err)
	}
}
