package shuffle

import (
	"bytes"
	"encoding/binary"

	"repro/internal/chunk"
)

// Batch-at-a-time producer path. A producer computes the routing vector
// for a whole batch in one pass (PartitionBatch, PartitionBatchUint64),
// and a BatchScatter appends each row into a per-leaf batch builder and
// inserts the encoded batch chunks through InsertBatchChunk — so the per-record
// work drops to one route computation and a few column appends, with the
// control-plane duties (map polling, sketch feeding, stat pushes) paid
// once per batch instead of amortized per record.

// PartitionBatch computes the routing vector for a batch of n records in
// one pass. The partition map is polled at most once per batch, and the
// per-key counts of the whole batch are fed to the edge's count-min
// sketch in bulk — exact counts per distinct key, not the 1-in-N sampling
// of the row path. The returned slice is reused by the next call.
func (w *Writer) PartitionBatch(n int, key func(i int) []byte) []RouteRef {
	if w.n == 0 || w.n-w.lastPoll >= uint64(w.cfg.PollEvery) {
		w.pollMap()
		w.lastPoll = w.n
	}
	if cap(w.refs) < n {
		w.refs = make([]RouteRef, n)
	}
	w.refs = w.refs[:n]
	// The partition map is fixed for the whole batch, so the routing
	// shape checks (default partitioner? any isolations or splits?) hoist
	// out of the record loop; the common case reduces to hash-mod-base.
	_, defaultPart := w.cfg.Partitioner.(HashPartitioner)
	if plain := defaultPart && len(w.pm.Isolated) == 0 && len(w.pm.Splits) == 0; plain {
		base := uint64(w.pm.Base)
		if base&(base-1) == 0 {
			// Power-of-two partition counts (the common configuration)
			// route with a mask; the 64-bit divide is otherwise the single
			// largest instruction in this loop.
			mask := base - 1
			for i := 0; i < n; i++ {
				k := key(i)
				h := KeyHash(k)
				w.refs[i] = RouteRef{Iso: -1, Part: int(h & mask), Sub: -1}
				w.countBatchKey(k, h)
			}
		} else {
			for i := 0; i < n; i++ {
				k := key(i)
				h := KeyHash(k)
				w.refs[i] = RouteRef{Iso: -1, Part: int(h % base), Sub: -1}
				w.countBatchKey(k, h)
			}
		}
		w.rr += n
	} else {
		for i := 0; i < n; i++ {
			k := key(i)
			h := KeyHash(k)
			w.refs[i] = w.pm.routeRefHashed(w.cfg.Partitioner, k, h, w.rr)
			w.rr++
			w.countBatchKey(k, h)
		}
	}
	w.n += uint64(n)
	w.drainBatchCounts()
	if w.n-w.lastPush >= uint64(w.cfg.SketchEvery) {
		w.pushStats()
		w.lastPush = w.n
	}
	return w.refs
}

// PartitionBatchUint64 is PartitionBatch for uint64 keys, identified by
// their 8-byte little-endian encoding (the Uint64Key convention). Routing
// and counting work on the words directly — KeyHashUint64 agrees with
// KeyHash over the encoding, so the placement is identical to the generic
// path — and key bytes materialize only once per distinct key per batch,
// when a count slot is first claimed.
func (w *Writer) PartitionBatchUint64(keys []uint64) []RouteRef {
	n := len(keys)
	if w.n == 0 || w.n-w.lastPoll >= uint64(w.cfg.PollEvery) {
		w.pollMap()
		w.lastPoll = w.n
	}
	if cap(w.refs) < n {
		w.refs = make([]RouteRef, n)
	}
	w.refs = w.refs[:n]
	_, defaultPart := w.cfg.Partitioner.(HashPartitioner)
	if plain := defaultPart && len(w.pm.Isolated) == 0 && len(w.pm.Splits) == 0; plain {
		base := uint64(w.pm.Base)
		if base&(base-1) == 0 {
			mask := base - 1
			for i, v := range keys {
				h := KeyHashUint64(v)
				w.refs[i] = RouteRef{Iso: -1, Part: int(h & mask), Sub: -1}
				w.countBatchKeyUint64(v, h)
			}
		} else {
			for i, v := range keys {
				h := KeyHashUint64(v)
				w.refs[i] = RouteRef{Iso: -1, Part: int(h % base), Sub: -1}
				w.countBatchKeyUint64(v, h)
			}
		}
		w.rr += n
	} else {
		var kb [8]byte
		for i, v := range keys {
			binary.LittleEndian.PutUint64(kb[:], v)
			h := KeyHashUint64(v)
			w.refs[i] = w.pm.routeRefHashed(w.cfg.Partitioner, kb[:], h, w.rr)
			w.rr++
			w.countBatchKeyUint64(v, h)
		}
	}
	w.n += uint64(n)
	w.drainBatchCounts()
	if w.n-w.lastPush >= uint64(w.cfg.SketchEvery) {
		w.pushStats()
		w.lastPush = w.n
	}
	return w.refs
}

// batchTabSlots sizes the per-batch count table. Power of two; holds up
// to batchTabSlots/2 distinct keys before an early drain. Typical batch
// key cardinality is far below this, so the steady state is one drain
// per batch with zero allocations.
const batchTabSlots = 512

// batchSlot is one entry of the per-batch key count table. n doubles as
// the occupancy marker (occupied slots always count at least one
// record); key storage is reused across batches. key8 holds the first
// min(len,8) key bytes inline (little-endian, zero-padded): for keys of
// at most 8 bytes — the common case, e.g. Uint64Key — the equality check
// is three register compares with no pointer chase into the stored copy.
type batchSlot struct {
	hash uint64
	n    uint64
	key8 uint64
	klen int32
	key  []byte
}

// slotKey8 packs key's first bytes for batchSlot.key8.
func slotKey8(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.LittleEndian.Uint64(key)
	}
	var v uint64
	for i := len(key) - 1; i >= 0; i-- {
		v = v<<8 | uint64(key[i])
	}
	return v
}

// countBatchKey adds one record to the batch's per-key count, reusing the
// routing hash instead of re-hashing through the runtime map. The open
// table replaces a map[string]uint64 whose per-record assign (string
// hashing plus bucket walk) dominated the batch routing profile.
func (w *Writer) countBatchKey(key []byte, hash uint64) {
	// Skewed streams repeat keys on consecutive records; the previous
	// record's slot resolves those with one compare, no table probe.
	if s := w.lastSlot; s != nil && w.lastHash == hash &&
		s.key8 == slotKey8(key) && s.klen == int32(len(key)) &&
		(len(key) <= 8 || bytes.Equal(s.key, key)) {
		s.n++
		return
	}
	if w.batchTab == nil {
		w.batchTab = make([]batchSlot, batchTabSlots)
	}
	if len(w.batchLive) >= batchTabSlots/2 {
		// High key cardinality: feed the sketch early and reuse the
		// table. Count-min adds accumulate, so splitting one batch's
		// feed into several keeps the counts exact.
		w.drainBatchCounts()
	}
	k8 := slotKey8(key)
	for i := hash & (batchTabSlots - 1); ; i = (i + 1) & (batchTabSlots - 1) {
		s := &w.batchTab[i]
		if s.n == 0 {
			s.hash = hash
			s.key8 = k8
			s.klen = int32(len(key))
			s.key = append(s.key[:0], key...)
			s.n = 1
			w.batchLive = append(w.batchLive, int32(i))
			w.lastSlot, w.lastHash = s, hash
			return
		}
		if s.hash == hash && s.key8 == k8 && s.klen == int32(len(key)) &&
			(len(key) <= 8 || bytes.Equal(s.key, key)) {
			s.n++
			w.lastSlot, w.lastHash = s, hash
			return
		}
	}
}

// countBatchKeyUint64 is countBatchKey for a uint64 key: the word IS the
// whole key (key8 == v, klen == 8), so the equality check never touches
// the stored byte copy, which exists only for the sketch drain.
func (w *Writer) countBatchKeyUint64(v, hash uint64) {
	if s := w.lastSlot; s != nil && s.key8 == v && s.klen == 8 {
		s.n++
		return
	}
	if w.batchTab == nil {
		w.batchTab = make([]batchSlot, batchTabSlots)
	}
	if len(w.batchLive) >= batchTabSlots/2 {
		w.drainBatchCounts()
	}
	for i := hash & (batchTabSlots - 1); ; i = (i + 1) & (batchTabSlots - 1) {
		s := &w.batchTab[i]
		if s.n == 0 {
			s.hash = hash
			s.key8 = v
			s.klen = 8
			s.key = binary.LittleEndian.AppendUint64(s.key[:0], v)
			s.n = 1
			w.batchLive = append(w.batchLive, int32(i))
			w.lastSlot, w.lastHash = s, hash
			return
		}
		if s.hash == hash && s.key8 == v && s.klen == 8 {
			s.n++
			w.lastSlot, w.lastHash = s, hash
			return
		}
	}
}

// drainBatchCounts feeds the accumulated per-key counts to the edge's
// count-min sketch — exact counts per distinct key, not the 1-in-N
// sampling of the row path — and resets the table for the next batch.
func (w *Writer) drainBatchCounts() {
	for _, i := range w.batchLive {
		s := &w.batchTab[i]
		w.stats.CM.Add(s.key, s.n)
		w.noteHeavy(s.key)
		s.n = 0
	}
	w.batchLive = w.batchLive[:0]
	w.lastSlot = nil
}

// InsertBatchChunk inserts one encoded batch chunk for the given routing
// decision. The rows count feeds the leaf's exact record counter (the
// master's primary load signal), so batch and row producers are
// indistinguishable to the control plane.
func (w *Writer) InsertBatchChunk(ref RouteRef, c chunk.Chunk, rows int) error {
	out := w.outs[ref]
	if out == nil {
		out = w.newLeaf(ref)
	}
	if err := out.ins.Insert(c); err != nil {
		return err
	}
	out.count += uint64(rows)
	w.bytes += uint64(len(c))
	w.batches++
	return nil
}

// BatchScatter writes routed batches of typed records to an edge's
// leaves. Rows are grouped by routing decision, and each group is
// bulk-encoded column-major into its leaf's pooled batch builder, which
// is inserted as a batch chunk once it reaches the chunk size. Row order
// within a leaf is stream order. It is the one batch scatter: the typed
// PartitionedWriter.WriteBatch and the query planner's edge sink both
// write through it. A BatchScatter belongs to one producer, like its
// column view.
type BatchScatter[T any] struct {
	w     *Writer
	view  chunk.ColumnCodec[T]
	kinds []chunk.ColKind
	size  int
	// Base partitions — the overwhelmingly common routing outcome — index
	// a dense slice; isolation and sub-partition refs take the map (a
	// struct-keyed map lookup per record is measurable at batch rates).
	base    []*scatterLeaf
	mapped  map[RouteRef]*scatterLeaf
	touched []*scatterLeaf
	rows    []T
}

// scatterLeaf is one routing decision's open batch and the row indices
// routed to it by the current Write.
type scatterLeaf struct {
	ref RouteRef
	b   *chunk.BatchBuilder
	idx []int32
}

// NewBatchScatter returns a scatter over w encoding rows through view and
// flushing leaf batches at size bytes.
func NewBatchScatter[T any](w *Writer, view chunk.ColumnCodec[T], size int) *BatchScatter[T] {
	return &BatchScatter[T]{w: w, view: view, kinds: view.AppendColKinds(nil), size: size,
		mapped: make(map[RouteRef]*scatterLeaf)}
}

// Write scatters vs, where refs[i] is the routing decision for vs[i] (as
// returned by PartitionBatch or PartitionBatchUint64).
func (s *BatchScatter[T]) Write(vs []T, refs []RouteRef) error {
	s.touched = s.touched[:0]
	for i, ref := range refs {
		var l *scatterLeaf
		if ref.Iso < 0 && ref.Sub < 0 && ref.Part < len(s.base) {
			l = s.base[ref.Part] // the inlined common case of leaf
		} else {
			l = s.leaf(ref)
		}
		if len(l.idx) == 0 {
			s.touched = append(s.touched, l)
		}
		l.idx = append(l.idx, int32(i))
	}
	// Every touched leaf is encoded even after a failed insert, so no
	// leaf keeps this batch's row indices into the next Write.
	var firstErr error
	for _, l := range s.touched {
		s.rows = s.rows[:0]
		for _, i := range l.idx {
			s.rows = append(s.rows, vs[i])
		}
		l.idx = l.idx[:0]
		if l.b == nil {
			l.b = chunk.GetBatchBuilder(s.kinds)
		}
		s.view.EncodeRows(l.b, 0, s.rows)
		l.b.EndRows(len(s.rows))
		if firstErr == nil && l.b.Size() >= s.size {
			firstErr = s.flush(l)
		}
	}
	return firstErr
}

func (s *BatchScatter[T]) leaf(ref RouteRef) *scatterLeaf {
	if ref.Iso >= 0 || ref.Sub >= 0 {
		l := s.mapped[ref]
		if l == nil {
			l = &scatterLeaf{ref: ref}
			s.mapped[ref] = l
		}
		return l
	}
	for ref.Part >= len(s.base) {
		s.base = append(s.base, &scatterLeaf{ref: RouteRef{Iso: -1, Part: len(s.base), Sub: -1}})
	}
	return s.base[ref.Part]
}

// flush encodes and inserts one leaf's pending batch.
func (s *BatchScatter[T]) flush(l *scatterLeaf) error {
	rows := l.b.Rows()
	if rows == 0 {
		return nil
	}
	c := l.b.Encode()
	l.b.Clear()
	return s.w.InsertBatchChunk(l.ref, c, rows)
}

// Close flushes every leaf's pending batch, returns the builders to the
// pool, and closes the underlying Writer.
func (s *BatchScatter[T]) Close() error {
	var firstErr error
	release := func(l *scatterLeaf) {
		if l.b == nil {
			return
		}
		if err := s.flush(l); err != nil && firstErr == nil {
			firstErr = err
		}
		chunk.PutBatchBuilder(l.b)
		l.b = nil
	}
	for _, l := range s.base {
		release(l)
	}
	for _, l := range s.mapped {
		release(l)
	}
	if err := s.w.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
