package hurricane

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/shuffle"
)

// Vectorized task bodies. ForEachBatch and PartitionedWriter.WriteBatch
// are the batch counterparts of ForEach and PartitionedWriter.Write: a
// task that consumes and produces whole column batches pays the codec,
// routing, and sketch costs once per batch instead of once per record.
// Both go through the one column contract (chunk.ColumnCodec): batch
// chunks need a codec with a column view to be read, and WriteBatch
// needs one to write.

// ForEachBatch drains input i of the task, invoking fn with the values
// of each chunk: a batch chunk decodes column by column, a row chunk
// record by record. The slice is reused between calls — fn must not
// retain it.
func ForEachBatch[T any](tc *TaskCtx, input int, codec Codec[T], fn func([]T) error) error {
	return drain(func() (chunk.Chunk, error) { return tc.Remove(input) }, codec, fn)
}

// drain decodes every chunk next yields, until bag.ErrEmpty, and hands
// each chunk's values to fn. It is the one read loop of the typed API.
func drain[T any](next func() (chunk.Chunk, error), codec Codec[T], fn func([]T) error) error {
	d := chunk.NewDecoder(codec)
	for {
		c, err := next()
		if err == bag.ErrEmpty {
			return nil
		}
		if err != nil {
			return err
		}
		vs, err := d.Decode(c)
		if err != nil {
			return err
		}
		if len(vs) > 0 {
			if err := fn(vs); err != nil {
				return err
			}
		}
	}
}

// WriteBatch routes a batch of records in one pass: the partition map is
// consulted once, the routing vector is computed for the whole batch,
// rows are scattered into per-leaf column builders, and the edge's sketch
// receives exact per-key counts in bulk. It returns an error wrapping
// ErrNotColumnar when the writer's codec has no column view.
func (pw *PartitionedWriter[T]) WriteBatch(vs []T) error {
	if len(vs) == 0 {
		return nil
	}
	if pw.scatter == nil {
		view, ok := chunk.ViewOf(pw.codec)
		if !ok {
			return fmt.Errorf("hurricane: WriteBatch: %w", chunk.ErrNotColumnar)
		}
		pw.scatter = shuffle.NewBatchScatter(pw.w, view, pw.chunkSize)
	}
	var refs []shuffle.RouteRef
	if pw.keyU64 != nil {
		pw.u64keys = pw.u64keys[:0]
		for i := range vs {
			pw.u64keys = append(pw.u64keys, pw.keyU64(vs[i]))
		}
		refs = pw.w.PartitionBatchUint64(pw.u64keys)
	} else {
		refs = pw.w.PartitionBatch(len(vs), func(i int) []byte { return pw.key(vs[i]) })
	}
	return pw.scatter.Write(vs, refs)
}

// close flushes pending batches and closes the shuffle writer.
// Registered as the task-finish hook by NewPartitionedWriterWith.
func (pw *PartitionedWriter[T]) close() error {
	if pw.scatter != nil {
		return pw.scatter.Close()
	}
	return pw.w.Close()
}

// ---- skew-exploiting aggregation (Zhang & Ross style) ----

// heavyLinearMax is the slot count up to which a linear scan beats the
// open-addressed table (the keys fit in one or two cache lines).
const heavyLinearMax = 8

// HeavySlots gives an aggregation's heavy-hitter keys dense pre-allocated
// accumulator slots, resolved without touching the tail hash map: a
// linear scan when the key set fits in a cache line, a small
// open-addressed table otherwise. Seed it from the edge's warm sketch
// (WarmTopKeys64) at task start; keys outside the set fall through to the
// caller's map path. On a Zipf-skewed edge the handful of heavy keys
// covers most records, so most lookups never hash.
type HeavySlots[A any] struct {
	keys []uint64
	accs []A
	// Open-addressed index (used when len(keys) > heavyLinearMax):
	// table[h] holds slot+1, 0 marks an empty cell.
	table []int32
	mask  uint64

	hits    uint64
	lookups uint64
}

// NewHeavySlots builds dense accumulator slots for the given keys
// (duplicates are dropped). A nil or empty key set returns nil, which
// every method treats as "no fast path".
func NewHeavySlots[A any](keys []uint64) *HeavySlots[A] {
	if len(keys) == 0 {
		return nil
	}
	h := &HeavySlots[A]{}
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			h.keys = append(h.keys, k)
		}
	}
	h.accs = make([]A, len(h.keys))
	if len(h.keys) > heavyLinearMax {
		size := 4
		for size < 4*len(h.keys) {
			size <<= 1
		}
		h.table = make([]int32, size)
		h.mask = uint64(size - 1)
		for i, k := range h.keys {
			p := mix64(k) & h.mask
			for h.table[p] != 0 {
				p = (p + 1) & h.mask
			}
			h.table[p] = int32(i) + 1
		}
	}
	return h
}

// Slot returns the dense accumulator for key, or ok=false when key is not
// heavy — the caller then takes its hash-map path.
func (h *HeavySlots[A]) Slot(key uint64) (*A, bool) {
	if h == nil {
		return nil, false
	}
	h.lookups++
	if h.table == nil {
		for i, k := range h.keys {
			if k == key {
				h.hits++
				return &h.accs[i], true
			}
		}
		return nil, false
	}
	p := mix64(key) & h.mask
	for {
		s := h.table[p]
		if s == 0 {
			return nil, false
		}
		if h.keys[s-1] == key {
			h.hits++
			return &h.accs[s-1], true
		}
		p = (p + 1) & h.mask
	}
}

// Len reports the number of slots.
func (h *HeavySlots[A]) Len() int {
	if h == nil {
		return 0
	}
	return len(h.keys)
}

// Each visits every slot, in seeding order. Accumulators that were never
// hit hold the zero value; callers typically skip them.
func (h *HeavySlots[A]) Each(fn func(key uint64, acc *A)) {
	if h == nil {
		return
	}
	for i, k := range h.keys {
		fn(k, &h.accs[i])
	}
}

// Hits reports how many lookups resolved in a dense slot.
func (h *HeavySlots[A]) Hits() uint64 {
	if h == nil {
		return 0
	}
	return h.hits
}

// Lookups reports the total number of Slot calls.
func (h *HeavySlots[A]) Lookups() uint64 {
	if h == nil {
		return 0
	}
	return h.lookups
}

// FlushMetrics accumulates the fast path's hit counters into the job's
// registry under the consuming edge's label, so benchmark documents can
// report the hit rate next to the timing. Call once at task end.
func (h *HeavySlots[A]) FlushMetrics(tc *TaskCtx, edge string) {
	if h == nil || tc.Obs() == nil {
		return
	}
	labels := []string{"job", tc.Job(), "edge", edge}
	tc.Obs().Counter("hurricane_agg_heavy_slot_hits_total", labels...).Add(h.hits)
	tc.Obs().Counter("hurricane_agg_heavy_slot_lookups_total", labels...).Add(h.lookups)
}

// EdgeOf returns the logical shuffle-edge name a physical partition bag
// belongs to ("gb.shuf.p1.s3" → "gb.shuf"); non-partition names are
// returned unchanged. Consumers use it to label metrics for the edge they
// drain when all they are handed is one leaf bag name.
func EdgeOf(leaf string) string { return shuffle.EdgeOf(leaf) }

// WarmTopKeyBytes returns up to k heavy keys of the shuffle edge feeding
// input i, heaviest first: the merged producer sketch's keys whose
// estimated share exceeds minFraction, supplemented by the keys isolated
// in the edge's published partition map. The two sources cover different
// lifetimes — the sketch slot is live while producers run but is wiped by
// the master when the edge seals, while the partition-map control bag
// (including a streaming window's warm-start seed, which pre-isolates the
// previous window's heavy hitters) survives until the job is reclaimed —
// so a consumer sees the heavy keys whether it starts before or after the
// producers finish. Best-effort: a cold edge returns nil.
func WarmTopKeyBytes(tc *TaskCtx, input int, k int, minFraction float64) [][]byte {
	edge := shuffle.EdgeOf(tc.InputName(input))
	var keys [][]byte
	seen := make(map[string]bool, k)
	if st, err := tc.Store().FetchSketch(tc.Context(), edge); err == nil {
		for _, h := range st.TopKeys(k, minFraction) {
			if !seen[string(h.Key)] {
				seen[string(h.Key)] = true
				keys = append(keys, h.Key)
			}
		}
	}
	if len(keys) < k {
		if pm := latestMap(tc, edge); pm != nil {
			for _, iso := range pm.Isolated {
				if len(iso.Key) == 0 || seen[string(iso.Key)] {
					continue
				}
				seen[string(iso.Key)] = true
				keys = append(keys, iso.Key)
				if len(keys) >= k {
					break
				}
			}
		}
	}
	return keys
}

// latestMap reads the newest partition map published for the edge, nil
// when none was (the base map is derived locally and never published).
func latestMap(tc *TaskCtx, edge string) *shuffle.PartitionMap {
	var latest *shuffle.PartitionMap
	sc := tc.Store().Scanner(shuffle.PMapBag(edge))
	_, _ = sc.Drain(tc.Context(), func(c chunk.Chunk) error {
		pm, err := shuffle.DecodePartitionMap(c)
		if err != nil || pm.Bag != edge {
			return nil // ignore foreign/corrupt records
		}
		if latest == nil || pm.Version > latest.Version {
			latest = pm
		}
		return nil
	})
	return latest
}

// WarmTopKeys64 is WarmTopKeyBytes for the engine's canonical 8-byte
// little-endian uint64 keys (Uint64Key producers); keys of other widths
// are skipped.
func WarmTopKeys64(tc *TaskCtx, input int, k int, minFraction float64) []uint64 {
	var out []uint64
	for _, kb := range WarmTopKeyBytes(tc, input, k, minFraction) {
		if len(kb) == 8 {
			out = append(out, binary.LittleEndian.Uint64(kb))
		}
	}
	return out
}
