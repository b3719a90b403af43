package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

var kvTestCodec = PairCodec[uint64, Pair[int64, []byte]]{
	A: Uint64Codec{},
	B: PairCodec[int64, []byte]{A: Int64Codec{}, B: BytesCodec{}},
}

type kvTestRow = Pair[uint64, Pair[int64, []byte]]

func testRows(n int) []kvTestRow {
	rows := make([]kvTestRow, 0, n)
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i%7)
		rows = append(rows, kvTestRow{
			First:  uint64(i) * 7919,
			Second: Pair[int64, []byte]{First: int64(i - n/2), Second: payload},
		})
	}
	return rows
}

func encodeBatch(t testing.TB, rows []kvTestRow, size int) []Chunk {
	t.Helper()
	return encodeWith(t, kvTestCodec, rows, size)
}

// encodeWith packs vs into batch chunks of about size bytes through a
// column view of codec.
func encodeWith[T any](t testing.TB, codec Codec[T], vs []T, size int) []Chunk {
	t.Helper()
	view, ok := ViewOf(codec)
	if !ok {
		t.Fatalf("%T should have a column view", codec)
	}
	var chunks []Chunk
	w := NewBatchWriter(view, size, func(c Chunk) error {
		chunks = append(chunks, c)
		return nil
	})
	if err := w.WriteBatch(vs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return chunks
}

// decodeAll decodes chunks through one Decoder of codec.
func decodeAll[T any](codec Codec[T], chunks []Chunk) ([]T, error) {
	d := NewDecoder(codec)
	var out []T
	for _, c := range chunks {
		vs, err := d.Decode(c)
		if err != nil {
			return out, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

func TestBatchRoundTripColumnar(t *testing.T) {
	rows := testRows(500)
	chunks := encodeBatch(t, rows, 1<<10)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple batches, got %d", len(chunks))
	}
	for _, c := range chunks {
		if !IsBatch(c) {
			t.Fatal("batch writer emitted a non-batch chunk")
		}
	}
	for _, c := range chunks {
		// A chunk overshoots the size by about one row, not by a run.
		if len(c) > 1<<10+64 {
			t.Fatalf("batch of %d bytes for a %d-byte chunk size", len(c), 1<<10)
		}
	}
	got, err := decodeAll(kvTestCodec, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i].First != rows[i].First || got[i].Second.First != rows[i].Second.First ||
			!bytes.Equal(got[i].Second.Second, rows[i].Second.Second) {
			t.Fatalf("row %d mismatch: got %+v want %+v", i, got[i], rows[i])
		}
	}
}

func TestBatchCountByHeader(t *testing.T) {
	rows := testRows(300)
	chunks := encodeBatch(t, rows, DefaultSize)
	total := 0
	for _, c := range chunks {
		n, err := Count(c)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != len(rows) {
		t.Fatalf("Count total %d, want %d", total, len(rows))
	}
}

// TestRowReaderRejectsBatch asserts a row Reader pointed at a batch chunk
// fails with ErrCorrupt rather than misparsing column payloads as rows.
func TestRowReaderRejectsBatch(t *testing.T) {
	chunks := encodeBatch(t, testRows(100), DefaultSize)
	r := NewReader(chunks[0])
	if _, err := r.Next(); err == nil || !isCorrupt(err) {
		t.Fatalf("row reader on batch chunk: got %v, want ErrCorrupt", err)
	}
	if _, err := Records(chunks[0]); err == nil || !isCorrupt(err) {
		t.Fatalf("Records on batch chunk: got %v, want ErrCorrupt", err)
	}
}

// rowOnlyCodec is a Uint64Codec with no column view.
type rowOnlyCodec struct{}

func (rowOnlyCodec) Encode(buf []byte, v uint64) []byte     { return Uint64Codec{}.Encode(buf, v) }
func (rowOnlyCodec) Decode(rec []byte) (uint64, int, error) { return Uint64Codec{}.Decode(rec) }

// TestRowOnlyCodecRejectsBatch asserts a codec without a column view
// still reads row chunks, and that a batch chunk read through it (or a
// pair with it as a component) is an ErrNotColumnar error.
func TestRowOnlyCodecRejectsBatch(t *testing.T) {
	var rows []Chunk
	tw := NewTypedWriter[uint64](rowOnlyCodec{}, 64, func(c Chunk) error {
		rows = append(rows, c)
		return nil
	})
	for i := uint64(0); i < 100; i++ {
		if err := tw.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := decodeAll[uint64](rowOnlyCodec{}, rows); err != nil || len(got) != 100 || got[99] != 99 {
		t.Fatalf("row-only codec over row chunks: %d values, err %v", len(got), err)
	}
	batch := encodeWith[uint64](t, Uint64Codec{}, []uint64{1, 2, 3}, DefaultSize)
	if _, err := decodeAll[uint64](rowOnlyCodec{}, batch); !errors.Is(err, ErrNotColumnar) {
		t.Fatalf("row-only codec over a batch chunk: got %v, want ErrNotColumnar", err)
	}
	pair := PairCodec[uint64, uint64]{A: Uint64Codec{}, B: rowOnlyCodec{}}
	if _, ok := ViewOf[Pair[uint64, uint64]](pair); ok {
		t.Fatal("pair with a row-only half has a column view")
	}
}

// decodeWith returns a typed read of one chunk through a fresh Decoder.
func decodeWith[T any](codec Codec[T]) func(Chunk) error {
	return func(c Chunk) error {
		_, err := NewDecoder(codec).Decode(c)
		return err
	}
}

// TestCorruptBatchHeader asserts every malformed-header shape, and every
// batch whose columns do not match the reading codec, surfaces as
// ErrCorrupt through the Decoder — never a panic or a silent misread.
func TestCorruptBatchHeader(t *testing.T) {
	base := encodeBatch(t, testRows(64), DefaultSize)[0]
	mutate := func(fn func(c []byte)) Chunk {
		c := append([]byte(nil), base...)
		fn(c)
		return c
	}
	oneVarint := encodeWith[uint64](t, Uint64Codec{}, []uint64{1, 2, 3}, DefaultSize)[0]
	fixed := encodeWith[uint64](t, Uint64FixedCodec{}, []uint64{1, 2, 3, 4}, DefaultSize)[0]
	readKV := decodeWith[kvTestRow](kvTestCodec)
	cases := []struct {
		name   string
		c      Chunk
		read   func(Chunk) error
		header bool // DecodeBatch itself rejects the chunk
	}{
		{"bad version", mutate(func(c []byte) { c[len(batchMagic)] = 0x7f }), readKV, true},
		{"bad kind", mutate(func(c []byte) { c[len(batchMagic)+4] = 0x9f }), readKV, true},
		{"truncated", base[:len(base)-3], readKV, true},
		{"trailing", append(append([]byte(nil), base...), 0xaa, 0xbb), readKV, true},
		{"column bound", mutate(func(c []byte) { c[len(batchMagic)+5] = 0xff }), readKV, true},
		{"rows beyond columns", func() Chunk {
			c := append([]byte(nil), oneVarint...)
			c[len(batchMagic)+2] = 0x7f // 127 rows over a 3-byte varint column
			return c
		}(), decodeWith[uint64](Uint64Codec{}), true},
		{"pair over one varint column", oneVarint,
			decodeWith[Pair[uint64, uint64]](PairCodec[uint64, uint64]{A: Uint64Codec{}, B: Uint64Codec{}}), false},
		{"varint codec over a fixed column", fixed, decodeWith[uint64](Uint64Codec{}), false},
	}
	for _, tc := range cases {
		if _, err := DecodeBatch(tc.c, nil); tc.header != (err != nil) || (err != nil && !isCorrupt(err)) {
			t.Errorf("%s: DecodeBatch err = %v, want ErrCorrupt: %v", tc.name, err, tc.header)
		}
		if err := tc.read(tc.c); err == nil || !isCorrupt(err) {
			t.Errorf("%s: typed read err = %v, want ErrCorrupt", tc.name, err)
		}
	}
	// Count answers from the header alone (O(1)), so only header
	// corruption is visible to it.
	if _, err := Count(cases[0].c); err == nil || !isCorrupt(err) {
		t.Errorf("Count on bad version: got %v, want ErrCorrupt", err)
	}
}

func isCorrupt(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == ErrCorrupt {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// readAny sends c through DecodeBatch and typed Decoders of several
// schemas; every read may fail but none may panic.
func readAny(c Chunk) {
	_, _ = DecodeBatch(c, nil)
	_ = decodeWith[kvTestRow](kvTestCodec)(c)
	_ = decodeWith[Pair[uint64, uint64]](PairCodec[uint64, uint64]{A: Uint64Codec{}, B: Uint64Codec{}})(c)
	_ = decodeWith[uint64](Uint64Codec{})(c)
	_ = decodeWith[KV](KVCodec{})(c)
}

// FuzzBatchRoundTrip drives arbitrary row content through the batch
// writer and back through the Decoder, and feeds corrupted batches and
// arbitrary raw chunks to DecodeBatch and typed Decoders: round-trips
// must be exact and corruption must error, never panic. The last two
// seeds are batches whose columns do not match a reading schema.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(-5), []byte("payload"), false, []byte(nil))
	f.Add(uint64(0), int64(0), []byte{}, true, []byte(nil))
	f.Add(^uint64(0), int64(math.MinInt64), bytes.Repeat([]byte{0x80}, 32), false, []byte(nil))
	f.Add(uint64(0), int64(0), []byte{}, false, []byte(encodeWith[uint64](f, Uint64Codec{}, []uint64{1, 2, 3}, DefaultSize)[0]))
	f.Add(uint64(0), int64(0), []byte{}, false, []byte(encodeWith[uint64](f, Uint64FixedCodec{}, []uint64{1, 2, 3, 4}, DefaultSize)[0]))
	f.Fuzz(func(t *testing.T, k uint64, v int64, payload []byte, corrupt bool, raw []byte) {
		if len(raw) > 0 {
			readAny(raw)
			return
		}
		rows := []kvTestRow{
			{First: k, Second: Pair[int64, []byte]{First: v, Second: payload}},
			{First: k ^ 0xdead, Second: Pair[int64, []byte]{First: -v, Second: nil}},
		}
		chunks := encodeBatch(t, rows, DefaultSize)
		if len(chunks) != 1 {
			t.Fatalf("expected one batch, got %d", len(chunks))
		}
		c := chunks[0]
		if corrupt && len(payload) > 0 {
			// Arbitrary single-byte corruption anywhere in the chunk:
			// decoding may still succeed (payload bytes are opaque) but
			// must never panic.
			pos := int(k % uint64(len(c)))
			c = append([]byte(nil), c...)
			c[pos] ^= payload[0]
			readAny(c)
			return
		}
		got, err := decodeAll(kvTestCodec, []Chunk{c})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("got %d rows, want %d", len(got), len(rows))
		}
		for i := range rows {
			if got[i].First != rows[i].First || got[i].Second.First != rows[i].Second.First ||
				!bytes.Equal(got[i].Second.Second, rows[i].Second.Second) {
				t.Fatalf("row %d mismatch", i)
			}
		}
	})
}

// TestBatchBuilderPooled pins the pooled-builder contract: steady-state
// encode cycles reuse column buffers, so per-batch allocations stay at
// the one Encode output allocation (plus the iterator's column vectors on
// decode).
func TestBatchBuilderPooled(t *testing.T) {
	view, _ := ViewOf[kvTestRow](kvTestCodec)
	b := GetBatchBuilder(view.AppendColKinds(nil))
	defer PutBatchBuilder(b)
	rows := testRows(128)
	// Warm the column buffers (and the view's scratch) once.
	view.EncodeRows(b, 0, rows)
	b.EndRows(len(rows))
	b.Encode()
	b.Clear()
	allocs := testing.AllocsPerRun(20, func() {
		view.EncodeRows(b, 0, rows)
		b.EndRows(len(rows))
		b.Encode()
		b.Clear()
	})
	// One allocation for the encoded chunk; a small slack for size-class
	// growth under varying row content.
	if allocs > 2 {
		t.Fatalf("pooled builder allocates %.1f per batch, want <= 2", allocs)
	}
}

// BenchmarkBatchEncode is the allocs/op guard for the batch encode path:
// the regression it pins is "one allocation per batch", the property the
// shuffle scatter path depends on.
func BenchmarkBatchEncode(b *testing.B) {
	rows := testRows(1024)
	view, _ := ViewOf[kvTestRow](kvTestCodec)
	bb := GetBatchBuilder(view.AppendColKinds(nil))
	defer PutBatchBuilder(bb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.EncodeRows(bb, 0, rows)
		bb.EndRows(len(rows))
		bb.Encode()
		bb.Clear()
	}
}

// BenchmarkBatchDecodeColumnar measures the vectorized decode path
// against BenchmarkReaderNext-style row decoding.
func BenchmarkBatchDecodeColumnar(b *testing.B) {
	rows := testRows(1024)
	c := encodeBatch(b, rows, DefaultSize)[0]
	d := NewDecoder[kvTestRow](kvTestCodec)
	b.ReportAllocs()
	b.SetBytes(int64(len(c)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReaderReset is the allocs/op guard for Reader reuse: resetting
// a Reader across chunks must not allocate.
func BenchmarkReaderReset(b *testing.B) {
	var chunks []Chunk
	w := NewWriter(4<<10, func(c Chunk) error { chunks = append(chunks, c); return nil })
	enc := Uint64Codec{}
	var buf []byte
	for i := 0; i < 4096; i++ {
		buf = enc.Encode(buf[:0], uint64(i)*2654435761)
		if err := w.Append(buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	r := new(Reader)
	for i := 0; i < b.N; i++ {
		total := 0
		for _, c := range chunks {
			r.Reset(c)
			for {
				rec, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				total += len(rec)
			}
		}
		if total == 0 {
			b.Fatal("empty scan")
		}
	}
}

func TestCountOffsetArithmetic(t *testing.T) {
	var chunks []Chunk
	w := NewWriter(1<<10, func(c Chunk) error { chunks = append(chunks, c); return nil })
	for i := 0; i < 300; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, i%40)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range chunks {
		n, err := Count(c)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 300 {
		t.Fatalf("Count total %d, want 300", total)
	}
	// A length prefix pointing past the chunk is corrupt, not a crash.
	bad := Chunk(binary.AppendUvarint(nil, 1<<30))
	if _, err := Count(bad); !isCorrupt(err) {
		t.Fatalf("Count on truncated frame: got %v, want ErrCorrupt", err)
	}
}
