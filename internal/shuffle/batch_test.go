package shuffle

import (
	"context"
	"testing"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/transport"
)

func TestEdgeOf(t *testing.T) {
	cases := map[string]string{
		PartitionBag("gb.shuf", 1):       "gb.shuf",
		SubPartitionBag("gb.shuf", 1, 3): "gb.shuf",
		IsolatedBag("gb.shuf", 0, 0, 1):  "gb.shuf",
		IsolatedBag("gb.shuf", 2, 5, 8):  "gb.shuf",
		"gb.shuf":                        "gb.shuf",
		"plain":                          "plain",
		"w5/gb.shuf.p12.s4":              "w5/gb.shuf",
	}
	for leaf, want := range cases {
		if got := EdgeOf(leaf); got != want {
			t.Errorf("EdgeOf(%q) = %q, want %q", leaf, got, want)
		}
	}
}

func newBatchTestStore(t *testing.T) *bag.Store {
	t.Helper()
	tr := transport.NewInProc()
	names := []string{"s0", "s1"}
	for _, n := range names {
		tr.Register(n, storage.NewNode(n))
	}
	st, err := bag.NewStore(bag.Config{Nodes: names, Client: tr, ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPartitionBatchMatchesRowRouting pins the core batch-path contract:
// the routing vector for a batch is exactly what per-record Write calls
// would have decided, per-leaf counts stay exact, and the bulk sketch
// feed gives the edge's sketch exact per-key counts.
func TestPartitionBatchMatchesRowRouting(t *testing.T) {
	ctx := context.Background()
	st := newBatchTestStore(t)
	w := NewWriter(ctx, WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: "w0"})

	const n = 1000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(uint64(i % 37))
	}
	refs := w.PartitionBatch(n, func(i int) []byte { return keys[i] })
	if len(refs) != n {
		t.Fatalf("got %d refs, want %d", len(refs), n)
	}
	want := BaseMap("e", 4)
	for i, ref := range refs {
		if wref := want.RouteRefWith(HashPartitioner{}, keys[i], i); ref != wref {
			t.Fatalf("row %d routed %+v, want %+v", i, ref, wref)
		}
	}

	// Scatter whole batches per ref and check leaf counts stay exact.
	perRef := make(map[RouteRef]int)
	for _, ref := range refs {
		perRef[ref]++
	}
	for ref, rows := range perRef {
		b := chunk.NewBatchBuilder([]chunk.ColKind{chunk.ColVarint})
		for i := 0; i < rows; i++ {
			b.AppendUvarint(0, uint64(i))
		}
		b.EndRows(rows)
		if err := w.InsertBatchChunk(ref, b.Encode(), rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	est, err := st.FetchSketch(ctx, "e")
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Total(); got != n {
		t.Fatalf("sketch leaf-count total %d, want %d", got, n)
	}
	// Exact bulk feed: each of the 37 keys appeared either 27 or 28 times;
	// count-min over-counts but never under-counts.
	for i := 0; i < 37; i++ {
		c := est.CM.Estimate(key(uint64(i)))
		if c < n/37 {
			t.Fatalf("key %d sketch estimate %d below exact count", i, c)
		}
	}
	// The batch counters made it into the leaf counts map.
	var total uint64
	for leaf, c := range est.Counts {
		if EdgeOf(leaf) != "e" {
			t.Fatalf("unexpected leaf %q", leaf)
		}
		total += c
	}
	if total != n {
		t.Fatalf("leaf counts sum to %d, want %d", total, n)
	}
}

// TestPartitionBatchUint64MatchesGeneric pins the uint64-native routing
// path's contract: hashing the key word directly must agree with hashing
// its 8-byte little-endian encoding, so placement — and therefore the
// whole partition map — is identical whichever entry point a producer
// uses.
func TestPartitionBatchUint64MatchesGeneric(t *testing.T) {
	for _, v := range []uint64{0, 1, 7, 255, 1 << 20, 0xdeadbeefcafef00d, ^uint64(0)} {
		if got, want := KeyHashUint64(v), KeyHash(key(v)); got != want {
			t.Fatalf("KeyHashUint64(%#x) = %#x, want KeyHash of encoding %#x", v, got, want)
		}
	}

	ctx := context.Background()
	st := newBatchTestStore(t)
	wg := NewWriter(ctx, WriterConfig{Store: st, Edge: "eg", Parts: 4, WriterID: "w0"})
	wu := NewWriter(ctx, WriterConfig{Store: st, Edge: "eu", Parts: 4, WriterID: "w0"})

	const n = 1000
	words := make([]uint64, n)
	keys := make([][]byte, n)
	for i := range words {
		words[i] = uint64(i % 37)
		keys[i] = key(words[i])
	}
	gRefs := wg.PartitionBatch(n, func(i int) []byte { return keys[i] })
	uRefs := wu.PartitionBatchUint64(words)
	for i := range gRefs {
		if gRefs[i] != uRefs[i] {
			t.Fatalf("row %d: uint64 path routed %+v, generic %+v", i, uRefs[i], gRefs[i])
		}
	}
	if err := wu.Close(); err != nil {
		t.Fatal(err)
	}

	// The bulk count feed saw the same exact counts.
	est, err := st.FetchSketch(ctx, "eu")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 37; i++ {
		if c := est.CM.Estimate(key(i)); c < n/37 {
			t.Fatalf("key %d sketch estimate %d below exact count", i, c)
		}
	}
}
