package plan

import (
	"fmt"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/shuffle"
)

// Stage execution. Every compiled stage runs one loop: decode an input
// chunk — batch or row — into a record vector, run the fused prefix of
// narrow operators over the whole vector (Filter as a selection pass
// that compacts the vector in place, Map as an in-place transform), feed
// the survivors through the per-record tail (FlatMap/Join/GroupBy/TopK),
// and write the tail's output to a batch sink. Finalize stages run the
// same loop over the merged partials. Each worker resolves its own
// column views (AnyCodec.View), since views carry per-stream scratch.

// sinkBatch is how many emitted records a sink buffers before writing
// them as one batch (one encode pass; for an edge, one map poll, one
// routing pass and one bulk sketch feed).
const sinkBatch = 1024

// vecKernel transforms one record vector in place (the returned slice
// shares the input's backing array).
type vecKernel func(vec []any) ([]any, error)

// vecPrefixLen returns how many leading ops of the fused chain are
// vectorizable. Filter and Map keep the vector a vector; the first
// FlatMap/Join/GroupBy/TopK starts the per-record tail.
func vecPrefixLen(ops []*Node) int {
	n := 0
	for n < len(ops) && (ops[n].kind == opFilter || ops[n].kind == opMap) {
		n++
	}
	return n
}

// lowerVecOps compiles the vectorizable prefix into batch kernels. Like
// lowerOps, the per-worker factories run once per call, so clones get
// their own operator state.
func lowerVecOps(ops []*Node) []vecKernel {
	out := make([]vecKernel, 0, len(ops))
	for _, n := range ops {
		switch n.kind {
		case opFilter:
			pred := n.filterF()
			out = append(out, func(vec []any) ([]any, error) {
				kept := vec[:0]
				for _, v := range vec {
					if pred(v) {
						kept = append(kept, v)
					}
				}
				return kept, nil
			})
		case opMap:
			fn := n.mapF()
			out = append(out, func(vec []any) ([]any, error) {
				for i, v := range vec {
					m, err := fn(v)
					if err != nil {
						return nil, err
					}
					vec[i] = m
				}
				return vec, nil
			})
		}
	}
	return out
}

// runStage executes one compiled stage inside a worker. All per-run
// state (views, aggregation maps, top-k buffers, build tables) is created
// here, so any number of workers run the same stage concurrently.
func runStage(tc *core.TaskCtx, s *stage) error {
	builds := make(map[*Node]map[uint64][]any, len(s.scans))
	for i, b := range s.scans {
		m, err := loadBuild(tc, i, b)
		if err != nil {
			return err
		}
		for _, op := range s.ops {
			if op.kind == opJoin && op.in[0] == b.node {
				builds[op] = m
			}
		}
	}
	sink, err := newBatchSink(tc, s)
	if err != nil {
		return err
	}
	prefix := vecPrefixLen(s.ops)
	kernels := lowerVecOps(s.ops[:prefix])
	feed, finishAll := pipeline(lowerOps(s.ops[prefix:], builds), sink.append)
	process := func(vec []any) error {
		var err error
		for _, k := range kernels {
			if vec, err = k(vec); err != nil {
				return err
			}
		}
		for _, v := range vec {
			if err := feed(v); err != nil {
				return err
			}
		}
		return nil
	}
	if !s.finalize {
		err = drain(tc.Remove, 0, s.inCodec, process)
	} else {
		// The stage is NoClone, so one worker sees every partial: merge
		// them by key and run the loop once, in key order.
		g := s.inNode.gb
		var merged map[uint64]any
		if merged, err = mergePartials(tc.Remove, 0, g, s.inCodec); err == nil {
			vec := make([]any, 0, len(merged))
			for _, k := range sortedKeys(merged) {
				vec = append(vec, g.MakePartial(k, merged[k]))
			}
			err = process(vec)
		}
	}
	if err != nil {
		return err
	}
	return finishAll()
}

// drain decodes every chunk of input i (consumed through tc.Remove or
// read through tc.Scan) into a record vector and hands it to fn.
func drain(next func(int) (chunk.Chunk, error), input int, codec AnyCodec, fn func([]any) error) error {
	view, _ := codec.View() // Compile rejected codecs without a view
	d := chunk.NewDecoder(view)
	for {
		c, err := next(input)
		if err == bag.ErrEmpty {
			return nil
		}
		if err != nil {
			return err
		}
		vec, err := d.Decode(c)
		if err != nil {
			return err
		}
		if err := fn(vec); err != nil {
			return err
		}
	}
}

// mergePartials drains a GroupBy's partials and merges them by key.
func mergePartials(next func(int) (chunk.Chunk, error), input int, g *GroupBySpec, codec AnyCodec) (map[uint64]any, error) {
	merged := make(map[uint64]any)
	err := drain(next, input, codec, func(vec []any) error {
		for _, v := range vec {
			k, acc := g.SplitPartial(v)
			if prev, ok := merged[k]; ok {
				merged[k] = g.Merge(prev, acc)
			} else {
				merged[k] = acc
			}
		}
		return nil
	})
	return merged, err
}

// loadBuild hash-loads a join build side: join key -> build records. A
// GroupBy build side is finalized while loading (partials of one key
// merge into a single accumulator before keying).
func loadBuild(tc *core.TaskCtx, scanInput int, b scanSide) (map[uint64][]any, error) {
	out := make(map[uint64][]any)
	add := func(v any) {
		k := b.joinKey(v)
		out[k] = append(out[k], v)
	}
	if g := b.node.gb; b.node.kind == opGroupBy {
		merged, err := mergePartials(tc.Scan, scanInput, g, b.node.codec)
		if err != nil {
			return nil, err
		}
		for k, acc := range merged {
			add(g.MakePartial(k, acc))
		}
		return out, nil
	}
	err := drain(tc.Scan, scanInput, b.node.codec, func(vec []any) error {
		for _, v := range vec {
			add(v)
		}
		return nil
	})
	return out, err
}

// batchSink buffers a stage's output records and writes them sinkBatch at a
// time: to a plain bag through a chunk.BatchWriter, to a shuffle edge
// through one PartitionBatchUint64 routing pass and a
// shuffle.BatchScatter. The task's finish hook writes the remainder and
// closes the writer, so nothing is lost on completion.
type batchSink struct {
	pend  []any
	write func([]any) error
	close func() error
}

func (s *batchSink) append(v any) error {
	s.pend = append(s.pend, v)
	if len(s.pend) < sinkBatch {
		return nil
	}
	return s.flush()
}

func (s *batchSink) flush() error {
	if len(s.pend) == 0 {
		return nil
	}
	err := s.write(s.pend)
	s.pend = s.pend[:0]
	return err
}

func newBatchSink(tc *core.TaskCtx, s *stage) (*batchSink, error) {
	view, _ := s.outCodec.View() // Compile rejected codecs without a view
	size := tc.Store().ChunkSize()
	out := &batchSink{}
	if s.edgeKeyFn == nil {
		w := chunk.NewBatchWriter(view, size, func(c chunk.Chunk) error { return tc.Insert(0, c) })
		out.write, out.close = w.WriteBatch, w.Close
	} else {
		spec := tc.OutputBagSpec(0)
		if spec == nil || spec.Partitions <= 0 {
			return nil, fmt.Errorf("plan: stage %s output %q is not partitioned", s.name, tc.OutputName(0))
		}
		w := shuffle.NewWriter(tc.Context(), shuffle.WriterConfig{
			Store:       tc.Store(),
			Edge:        tc.OutputName(0),
			Parts:       spec.Partitions,
			WriterID:    tc.Blueprint().ID,
			PollEvery:   spec.PollEvery,
			SketchEvery: spec.SketchEvery,
			Obs:         tc.Obs(),
			Job:         tc.Job(),
			OnSpans:     tc.ShuffleSpanHook(),
		})
		sc := shuffle.NewBatchScatter(w, view, size)
		var keys []uint64
		out.write = func(vs []any) error {
			keys = keys[:0]
			for _, v := range vs {
				keys = append(keys, s.edgeKeyFn(v))
			}
			return sc.Write(vs, w.PartitionBatchUint64(keys))
		}
		out.close = sc.Close
	}
	tc.OnFinish(func() error {
		err := out.flush()
		if cerr := out.close(); err == nil {
			err = cerr
		}
		return err
	})
	return out, nil
}
