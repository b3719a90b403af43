// Columnar batch layout: the vectorized alternative to row framing.
//
// A batch chunk stores one section per column instead of one frame per
// record. The header carries a schema tag and the row count, then each
// column is a length-prefixed vector: varint columns hold back-to-back
// uvarints, fixed columns hold 8-byte little-endian values, and blob
// columns come in (lengths, bytes) pairs. A ColumnCodec maps values to
// and from these columns; the schema tag is always written as 0.
//
// Batch chunks are self-identifying: they open with a magic prefix that
// no valid row chunk can produce (an empty record followed by an
// overlong uvarint), so a row Reader pointed at a batch fails with
// ErrCorrupt instead of silently misparsing, and a Decoder dispatches per
// chunk — mixing row and batch chunks in one bag is legal.
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// batchMagic opens every batch chunk. The leading 0x00 reads as an empty
// record and the ten 0x80 continuation bytes overflow a uvarint, so a row
// Reader deterministically returns ErrCorrupt — no valid row chunk can
// begin with this sequence.
var batchMagic = [11]byte{0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}

// batchVersion is the current batch header version.
const batchVersion = 1

const (
	maxBatchCols = 256
	maxBatchRows = 1 << 28
)

// ErrNotColumnar is returned when a batch operation is attempted through
// a codec that has no column view (see ViewOf).
var ErrNotColumnar = errors.New("chunk: codec has no column view")

// ColKind identifies the physical layout of one batch column.
type ColKind byte

const (
	// ColVarint holds back-to-back uvarints (zig-zag encoded for signed
	// values), one per row.
	ColVarint ColKind = 1
	// ColFixed8 holds 8-byte little-endian values, one per row.
	ColFixed8 ColKind = 2
	// ColLen holds back-to-back uvarint lengths for the ColBytes column
	// that must immediately follow it.
	ColLen ColKind = 3
	// ColBytes holds the concatenated payloads sliced by the preceding
	// ColLen column.
	ColBytes ColKind = 4
)

func (k ColKind) valid() bool { return k >= ColVarint && k <= ColBytes }

// IsBatch reports whether c is a batch chunk. Row and batch chunks are
// mutually exclusive, so this is the dispatch point for every consumer
// that understands both formats.
func IsBatch(c Chunk) bool {
	return len(c) > len(batchMagic) && string(c[:len(batchMagic)]) == string(batchMagic[:])
}

// A Col is one decoded column of a batch. Data aliases the chunk.
type Col struct {
	Kind ColKind
	Data []byte
}

// A Batch is the decoded view of a batch chunk. Column data aliases the
// chunk, so a Batch is only valid while the chunk is.
type Batch struct {
	Tag  uint64
	Rows int
	Cols []Col
}

// DecodeBatch parses the batch chunk c. If into is non-nil its storage is
// reused. Malformed headers and out-of-bounds column extents return
// ErrCorrupt, never panic.
func DecodeBatch(c Chunk, into *Batch) (*Batch, error) {
	if !IsBatch(c) {
		return nil, fmt.Errorf("%w: missing batch magic", ErrCorrupt)
	}
	off := len(batchMagic)
	if c[off] != batchVersion {
		return nil, fmt.Errorf("%w: unknown batch version %d", ErrCorrupt, c[off])
	}
	off++
	tag, n := binary.Uvarint(c[off:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad batch tag", ErrCorrupt)
	}
	off += n
	rows, n := binary.Uvarint(c[off:])
	if n <= 0 || rows > maxBatchRows {
		return nil, fmt.Errorf("%w: bad batch row count", ErrCorrupt)
	}
	off += n
	ncols, n := binary.Uvarint(c[off:])
	if n <= 0 || ncols > maxBatchCols {
		return nil, fmt.Errorf("%w: bad batch column count", ErrCorrupt)
	}
	off += n
	if ncols == 0 && rows != 0 {
		return nil, fmt.Errorf("%w: rows without columns", ErrCorrupt)
	}
	if into == nil {
		into = new(Batch)
	}
	into.Tag, into.Rows, into.Cols = tag, int(rows), into.Cols[:0]
	pendLen := false
	for i := uint64(0); i < ncols; i++ {
		if off >= len(c) {
			return nil, fmt.Errorf("%w: truncated column descriptor", ErrCorrupt)
		}
		kind := ColKind(c[off])
		off++
		if !kind.valid() {
			return nil, fmt.Errorf("%w: unknown column kind %d", ErrCorrupt, kind)
		}
		size, n := binary.Uvarint(c[off:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad column length", ErrCorrupt)
		}
		off += n
		end := off + int(size)
		if int(size) < 0 || end < off || end > len(c) {
			return nil, fmt.Errorf("%w: column extends past chunk", ErrCorrupt)
		}
		switch {
		case pendLen && kind != ColBytes:
			return nil, fmt.Errorf("%w: length column without bytes column", ErrCorrupt)
		case !pendLen && kind == ColBytes:
			return nil, fmt.Errorf("%w: bytes column without length column", ErrCorrupt)
		case kind == ColFixed8 && size != rows*8:
			return nil, fmt.Errorf("%w: fixed column size %d for %d rows", ErrCorrupt, size, rows)
		case (kind == ColVarint || kind == ColLen) && size < rows:
			// At least one byte per row: this bounds the row count by the
			// chunk size before any decoder sizes a vector from it.
			return nil, fmt.Errorf("%w: varint column size %d for %d rows", ErrCorrupt, size, rows)
		}
		pendLen = kind == ColLen
		into.Cols = append(into.Cols, Col{Kind: kind, Data: c[off:end]})
		off = end
	}
	if pendLen {
		return nil, fmt.Errorf("%w: trailing length column", ErrCorrupt)
	}
	if off != len(c) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last column", ErrCorrupt, len(c)-off)
	}
	return into, nil
}

// batchRows reads only the row count from a batch chunk's header, without
// touching column payloads — O(header) regardless of batch size.
func batchRows(c Chunk) (int, error) {
	off := len(batchMagic)
	if c[off] != batchVersion {
		return 0, fmt.Errorf("%w: unknown batch version %d", ErrCorrupt, c[off])
	}
	off++
	_, n := binary.Uvarint(c[off:]) // tag
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad batch tag", ErrCorrupt)
	}
	off += n
	rows, n := binary.Uvarint(c[off:])
	if n <= 0 || rows > maxBatchRows {
		return 0, fmt.Errorf("%w: bad batch row count", ErrCorrupt)
	}
	return int(rows), nil
}

// ---- batch building ----

// BatchBuilder accumulates column vectors for one batch. A ColumnCodec's
// EncodeRows appends whole row runs column-major, EndRows accounts them,
// and Encode serializes the batch in a single allocation. Builders are
// reusable (Clear) and poolable (GetBatchBuilder/PutBatchBuilder).
type BatchBuilder struct {
	kinds []ColKind
	cols  [][]byte
	rows  int
	bytes int
}

// NewBatchBuilder returns a builder for batches with the given column
// kinds.
func NewBatchBuilder(kinds []ColKind) *BatchBuilder {
	b := new(BatchBuilder)
	b.Reset(kinds)
	return b
}

// Reset re-targets the builder at a new schema, keeping column capacity.
func (b *BatchBuilder) Reset(kinds []ColKind) {
	b.kinds = append(b.kinds[:0], kinds...)
	for len(b.cols) < len(b.kinds) {
		b.cols = append(b.cols, nil)
	}
	b.cols = b.cols[:len(b.kinds)]
	b.Clear()
}

// Clear drops buffered rows, keeping the schema and column capacity.
func (b *BatchBuilder) Clear() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.rows, b.bytes = 0, 0
}

// Rows reports the number of completed rows.
func (b *BatchBuilder) Rows() int { return b.rows }

// Size reports the encoded size estimate: column payload bytes plus the
// per-batch header overhead. Writers flush when it reaches the chunk size.
func (b *BatchBuilder) Size() int {
	return b.bytes + len(batchMagic) + 1 + 3*binary.MaxVarintLen64 + len(b.kinds)*(1+binary.MaxVarintLen64)
}

// EndRows marks n rows complete. Every column must have received exactly
// n values since the previous EndRows.
func (b *BatchBuilder) EndRows(n int) { b.rows += n }

// AppendUvarint appends one uvarint value to a ColVarint column.
func (b *BatchBuilder) AppendUvarint(col int, v uint64) {
	n := len(b.cols[col])
	b.cols[col] = binary.AppendUvarint(b.cols[col], v)
	b.bytes += len(b.cols[col]) - n
}

// AppendVarint appends one zig-zag varint value to a ColVarint column.
func (b *BatchBuilder) AppendVarint(col int, v int64) {
	n := len(b.cols[col])
	b.cols[col] = binary.AppendVarint(b.cols[col], v)
	b.bytes += len(b.cols[col]) - n
}

// AppendFixed8 appends one 8-byte little-endian value to a ColFixed8 column.
func (b *BatchBuilder) AppendFixed8(col int, v uint64) {
	b.cols[col] = binary.LittleEndian.AppendUint64(b.cols[col], v)
	b.bytes += 8
}

// AppendBlob appends one variable-length value to a (ColLen, ColBytes)
// column pair rooted at col.
func (b *BatchBuilder) AppendBlob(col int, p []byte) {
	n := len(b.cols[col])
	b.cols[col] = binary.AppendUvarint(b.cols[col], uint64(len(p)))
	b.bytes += len(b.cols[col]) - n
	b.cols[col+1] = append(b.cols[col+1], p...)
	b.bytes += len(p)
}

// AppendBlobString is AppendBlob for strings, avoiding a []byte conversion.
func (b *BatchBuilder) AppendBlobString(col int, s string) {
	n := len(b.cols[col])
	b.cols[col] = binary.AppendUvarint(b.cols[col], uint64(len(s)))
	b.bytes += len(b.cols[col]) - n
	b.cols[col+1] = append(b.cols[col+1], s...)
	b.bytes += len(s)
}

// Encode serializes the buffered rows as a batch chunk. The returned
// chunk is freshly allocated; the builder can be cleared and reused.
func (b *BatchBuilder) Encode() Chunk {
	out := make([]byte, 0, b.Size())
	out = append(out, batchMagic[:]...)
	out = append(out, batchVersion, 0) // version, schema tag
	out = binary.AppendUvarint(out, uint64(b.rows))
	out = binary.AppendUvarint(out, uint64(len(b.kinds)))
	for i, k := range b.kinds {
		out = append(out, byte(k))
		out = binary.AppendUvarint(out, uint64(len(b.cols[i])))
		out = append(out, b.cols[i]...)
	}
	return Chunk(out)
}

var batchBuilderPool = sync.Pool{New: func() any { return new(BatchBuilder) }}

// GetBatchBuilder returns a pooled builder reset to the given column
// kinds, so per-partition scatter paths do not allocate a fresh builder
// per chunk.
func GetBatchBuilder(kinds []ColKind) *BatchBuilder {
	b := batchBuilderPool.Get().(*BatchBuilder)
	b.Reset(kinds)
	return b
}

// PutBatchBuilder returns a builder to the pool.
func PutBatchBuilder(b *BatchBuilder) { batchBuilderPool.Put(b) }

// ---- the column contract ----

// A ColumnCodec is a Codec that also lays values out as batch columns.
// It is the one columnar contract: the batch writer, the shuffle's batch
// scatter, the Decoder and the query planner use it and nothing else.
//
// A ColumnCodec value is a view for one stream. EncodeRows and
// DecodeColumn may reuse per-view scratch, so a view must not be shared
// by concurrent goroutines: resolve one per worker with ViewOf. The leaf
// codecs of this package are stateless and are their own views.
type ColumnCodec[T any] interface {
	Codec[T]
	// AppendColKinds appends the kinds of the codec's columns to dst.
	AppendColKinds(dst []ColKind) []ColKind
	// EncodeRows appends every value of vs, in order, to the builder's
	// columns starting at column col, and returns the next free column.
	// Columns fill column-major; the caller accounts the rows with
	// EndRows.
	EncodeRows(b *BatchBuilder, col int, vs []T) int
	// DecodeColumn decodes every row of the batch starting at column col,
	// appending to out, and returns the grown slice and the next column.
	// The caller has checked the batch's column kinds against
	// AppendColKinds (a Decoder does, once per chunk).
	DecodeColumn(bt *Batch, col int, out []T) ([]T, int, error)
}

// viewer is implemented by composite codecs, whose column view resolves
// their components' views once and owns per-view scratch.
type viewer[T any] interface {
	view() (ColumnCodec[T], bool)
}

// ViewOf returns a column view of c for one stream's exclusive use, or
// ok=false when c has no column layout (a row-only codec, or a composite
// with a row-only component).
func ViewOf[T any](c Codec[T]) (ColumnCodec[T], bool) {
	if v, ok := c.(viewer[T]); ok {
		return v.view()
	}
	cc, ok := c.(ColumnCodec[T])
	return cc, ok
}

func (Uint64Codec) AppendColKinds(dst []ColKind) []ColKind { return append(dst, ColVarint) }

func (Uint64Codec) EncodeRows(b *BatchBuilder, col int, vs []uint64) int {
	for _, v := range vs {
		b.AppendUvarint(col, v)
	}
	return col + 1
}

func (Uint64Codec) DecodeColumn(bt *Batch, col int, out []uint64) ([]uint64, int, error) {
	data := bt.Cols[col].Data
	out = growCap(out, bt.Rows)
	for i, off := 0, 0; i < bt.Rows; i++ {
		// Single-byte values dominate varint columns in practice (group
		// IDs, counts, enum-ish keys). Scan them eight at a time: one
		// 64-bit load whose high bits are all clear means eight complete
		// varints, decoded with shifts instead of eight bounds-checked
		// byte loads.
		for off+8 <= len(data) && i+8 <= bt.Rows {
			w := binary.LittleEndian.Uint64(data[off:])
			if w&0x8080808080808080 != 0 {
				break
			}
			out = append(out,
				w&0xff, w>>8&0xff, w>>16&0xff, w>>24&0xff,
				w>>32&0xff, w>>40&0xff, w>>48&0xff, w>>56)
			off += 8
			i += 8
		}
		if i >= bt.Rows {
			break
		}
		if off < len(data) && data[off] < 0x80 {
			out = append(out, uint64(data[off]))
			off++
			continue
		}
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return out, col, fmt.Errorf("%w: varint column underflow at row %d", ErrCorrupt, i)
		}
		off += n
		out = append(out, v)
	}
	return out, col + 1, nil
}

func (Int64Codec) AppendColKinds(dst []ColKind) []ColKind { return append(dst, ColVarint) }

func (Int64Codec) EncodeRows(b *BatchBuilder, col int, vs []int64) int {
	for _, v := range vs {
		b.AppendVarint(col, v)
	}
	return col + 1
}

func (Int64Codec) DecodeColumn(bt *Batch, col int, out []int64) ([]int64, int, error) {
	data := bt.Cols[col].Data
	out = growCap(out, bt.Rows)
	for i, off := 0, 0; i < bt.Rows; i++ {
		v, n := binary.Varint(data[off:])
		if n <= 0 {
			return out, col, fmt.Errorf("%w: varint column underflow at row %d", ErrCorrupt, i)
		}
		off += n
		out = append(out, v)
	}
	return out, col + 1, nil
}

func (Uint64FixedCodec) AppendColKinds(dst []ColKind) []ColKind { return append(dst, ColFixed8) }

func (Uint64FixedCodec) EncodeRows(b *BatchBuilder, col int, vs []uint64) int {
	for _, v := range vs {
		b.AppendFixed8(col, v)
	}
	return col + 1
}

// DecodeColumn relies on DecodeBatch having checked that a ColFixed8
// column holds exactly eight bytes per row.
func (Uint64FixedCodec) DecodeColumn(bt *Batch, col int, out []uint64) ([]uint64, int, error) {
	data := bt.Cols[col].Data
	out = growCap(out, bt.Rows)
	for i := 0; i < bt.Rows; i++ {
		out = append(out, binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out, col + 1, nil
}

func (Float64Codec) AppendColKinds(dst []ColKind) []ColKind { return append(dst, ColFixed8) }

func (Float64Codec) EncodeRows(b *BatchBuilder, col int, vs []float64) int {
	for _, v := range vs {
		b.AppendFixed8(col, math.Float64bits(v))
	}
	return col + 1
}

func (Float64Codec) DecodeColumn(bt *Batch, col int, out []float64) ([]float64, int, error) {
	data := bt.Cols[col].Data
	out = growCap(out, bt.Rows)
	for i := 0; i < bt.Rows; i++ {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:])))
	}
	return out, col + 1, nil
}

// blobSpans parses a (ColLen, ColBytes) pair into [start,end) offsets of
// each row's payload inside the bytes column.
func blobSpans(bt *Batch, col int) ([]int, error) {
	lens, bytes := bt.Cols[col].Data, bt.Cols[col+1].Data
	spans := make([]int, 0, 2*bt.Rows)
	off, pos := 0, 0
	for i := 0; i < bt.Rows; i++ {
		size, n := binary.Uvarint(lens[off:])
		if n <= 0 {
			return spans, fmt.Errorf("%w: length column underflow at row %d", ErrCorrupt, i)
		}
		off += n
		end := pos + int(size)
		if int(size) < 0 || end < pos || end > len(bytes) {
			return spans, fmt.Errorf("%w: blob extends past bytes column at row %d", ErrCorrupt, i)
		}
		spans = append(spans, pos, end)
		pos = end
	}
	return spans, nil
}

func (StringCodec) AppendColKinds(dst []ColKind) []ColKind {
	return append(dst, ColLen, ColBytes)
}

func (StringCodec) EncodeRows(b *BatchBuilder, col int, vs []string) int {
	for _, v := range vs {
		b.AppendBlobString(col, v)
	}
	return col + 2
}

func (StringCodec) DecodeColumn(bt *Batch, col int, out []string) ([]string, int, error) {
	spans, err := blobSpans(bt, col)
	if err != nil {
		return out, col, err
	}
	// One string conversion for the whole column; rows are substring
	// slices of it.
	all := string(bt.Cols[col+1].Data)
	out = growCap(out, bt.Rows)
	for i := 0; i < len(spans); i += 2 {
		out = append(out, all[spans[i]:spans[i+1]])
	}
	return out, col + 2, nil
}

func (BytesCodec) AppendColKinds(dst []ColKind) []ColKind {
	return append(dst, ColLen, ColBytes)
}

func (BytesCodec) EncodeRows(b *BatchBuilder, col int, vs [][]byte) int {
	for _, v := range vs {
		b.AppendBlob(col, v)
	}
	return col + 2
}

// DecodeColumn's byte slices alias the batch's chunk, mirroring the row
// Decode contract.
func (BytesCodec) DecodeColumn(bt *Batch, col int, out [][]byte) ([][]byte, int, error) {
	spans, err := blobSpans(bt, col)
	if err != nil {
		return out, col, err
	}
	data := bt.Cols[col+1].Data
	out = growCap(out, bt.Rows)
	for i := 0; i < len(spans); i += 2 {
		out = append(out, data[spans[i]:spans[i+1]:spans[i+1]])
	}
	return out, col + 2, nil
}

func (KVCodec) AppendColKinds(dst []ColKind) []ColKind {
	return append(dst, ColLen, ColBytes, ColLen, ColBytes)
}

func (KVCodec) EncodeRows(b *BatchBuilder, col int, vs []KV) int {
	for _, v := range vs {
		b.AppendBlobString(col, v.Key)
		b.AppendBlob(col+2, v.Value)
	}
	return col + 4
}

func (KVCodec) DecodeColumn(bt *Batch, col int, out []KV) ([]KV, int, error) {
	keys, col, err := StringCodec{}.DecodeColumn(bt, col, nil)
	if err != nil {
		return out, col, err
	}
	vals, col, err := BytesCodec{}.DecodeColumn(bt, col, nil)
	if err != nil {
		return out, col, err
	}
	out = growCap(out, len(keys))
	for i := range keys {
		out = append(out, KV{Key: keys[i], Value: vals[i]})
	}
	return out, col, nil
}

// view resolves both halves' views once, so an arbitrarily deep tuple
// pays for interface resolution once per stream, not per batch.
func (c PairCodec[A, B]) view() (ColumnCodec[Pair[A, B]], bool) {
	ca, okA := ViewOf(c.A)
	cb, okB := ViewOf(c.B)
	if !okA || !okB {
		return nil, false
	}
	return &pairView[A, B]{PairCodec: c, ca: ca, cb: cb}, true
}

// pairView is a PairCodec's column view: the halves' views plus the
// half-column vectors its bulk methods reuse from batch to batch.
type pairView[A, B any] struct {
	PairCodec[A, B]
	ca ColumnCodec[A]
	cb ColumnCodec[B]
	as []A
	bs []B
}

func (v *pairView[A, B]) AppendColKinds(dst []ColKind) []ColKind {
	return v.cb.AppendColKinds(v.ca.AppendColKinds(dst))
}

// EncodeRows splits the pairs into per-half column vectors once, then
// hands each half to its view's bulk loop — two virtual calls per batch,
// with the inner appends fully concrete.
func (v *pairView[A, B]) EncodeRows(b *BatchBuilder, col int, vs []Pair[A, B]) int {
	v.as, v.bs = v.as[:0], v.bs[:0]
	for i := range vs {
		v.as = append(v.as, vs[i].First)
		v.bs = append(v.bs, vs[i].Second)
	}
	return v.cb.EncodeRows(b, v.ca.EncodeRows(b, col, v.as), v.bs)
}

func (v *pairView[A, B]) DecodeColumn(bt *Batch, col int, out []Pair[A, B]) ([]Pair[A, B], int, error) {
	as, col, err := v.ca.DecodeColumn(bt, col, v.as[:0])
	v.as = as[:0]
	if err != nil {
		return out, col, err
	}
	bs, col, err := v.cb.DecodeColumn(bt, col, v.bs[:0])
	v.bs = bs[:0]
	if err != nil {
		return out, col, err
	}
	out = growCap(out, len(as))
	for i := range as {
		out = append(out, Pair[A, B]{First: as[i], Second: bs[i]})
	}
	return out, col, nil
}

func growCap[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]T, len(s), len(s)+n)
	copy(grown, s)
	return grown
}

// AnyView returns a column view of c over values boxed in any — the
// record shape of the untyped query planner — or ok=false when c has no
// column view. Like every view, it belongs to one stream.
func AnyView[T any](c Codec[T]) (ColumnCodec[any], bool) {
	v, ok := ViewOf(c)
	if !ok {
		return nil, false
	}
	return &anyView[T]{view: v}, true
}

type anyView[T any] struct {
	view ColumnCodec[T]
	vs   []T
}

func (a *anyView[T]) Encode(buf []byte, v any) []byte { return a.view.Encode(buf, v.(T)) }

func (a *anyView[T]) Decode(record []byte) (any, int, error) {
	v, n, err := a.view.Decode(record)
	return v, n, err
}

func (a *anyView[T]) AppendColKinds(dst []ColKind) []ColKind { return a.view.AppendColKinds(dst) }

func (a *anyView[T]) EncodeRows(b *BatchBuilder, col int, vs []any) int {
	a.vs = a.vs[:0]
	for _, v := range vs {
		a.vs = append(a.vs, v.(T))
	}
	return a.view.EncodeRows(b, col, a.vs)
}

func (a *anyView[T]) DecodeColumn(bt *Batch, col int, out []any) ([]any, int, error) {
	vs, col, err := a.view.DecodeColumn(bt, col, a.vs[:0])
	a.vs = vs[:0]
	if err != nil {
		return out, col, err
	}
	out = growCap(out, len(vs))
	for _, v := range vs {
		out = append(out, v)
	}
	return out, col, nil
}

// ---- batch writer and decoder ----

// BatchWriter packs values into batch chunks through a column view,
// emitting a chunk each time the builder reaches the chunk size.
type BatchWriter[T any] struct {
	size int
	emit func(Chunk) error
	view ColumnCodec[T]
	b    *BatchBuilder
}

// NewBatchWriter returns a BatchWriter emitting batch chunks of roughly
// size bytes (DefaultSize when size <= 0) through emit.
func NewBatchWriter[T any](view ColumnCodec[T], size int, emit func(Chunk) error) *BatchWriter[T] {
	if size <= 0 {
		size = DefaultSize
	}
	return &BatchWriter[T]{size: size, emit: emit, view: view, b: GetBatchBuilder(view.AppendColKinds(nil))}
}

// WriteBatch appends vs as rows, emitting every chunk that fills up.
// Rows are encoded in runs that fill the open chunk's remaining space at
// its average row width so far (a first run of 16 rows measures it), so
// a chunk overshoots the size by about one row, not by a whole run.
func (w *BatchWriter[T]) WriteBatch(vs []T) error {
	for len(vs) > 0 {
		n := 16
		if w.b.rows > 0 {
			n = (w.size-w.b.Size())/(w.b.bytes/w.b.rows+1) + 1
		}
		n = min(n, len(vs))
		w.view.EncodeRows(w.b, 0, vs[:n])
		w.b.EndRows(n)
		vs = vs[n:]
		if w.b.Size() >= w.size {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush emits the buffered batch, if any.
func (w *BatchWriter[T]) Flush() error {
	if w.b.Rows() == 0 {
		return nil
	}
	c := w.b.Encode()
	w.b.Clear()
	return w.emit(c)
}

// Close flushes and returns the builder to the pool. The writer must not
// be used afterwards.
func (w *BatchWriter[T]) Close() error {
	err := w.Flush()
	PutBatchBuilder(w.b)
	w.b = nil
	return err
}

// A Decoder turns chunks into values, and is the one decode path every
// reader of a bag goes through. Row chunks decode record by record
// through the codec. Batch chunks decode column by column through the
// codec's column view, after their column kinds are checked against the
// view's, so a batch written under another schema is ErrCorrupt rather
// than a panic or a misread. A codec without a column view reads row
// chunks only. A Decoder belongs to one stream.
type Decoder[T any] struct {
	codec Codec[T]
	view  ColumnCodec[T]
	kinds []ColKind
	bt    Batch
	r     Reader
	vec   []T
}

// NewDecoder returns a Decoder for codec, resolving its column view once.
func NewDecoder[T any](codec Codec[T]) *Decoder[T] {
	d := &Decoder[T]{codec: codec}
	if v, ok := ViewOf(codec); ok {
		d.view, d.kinds = v, v.AppendColKinds(nil)
	}
	return d
}

// Decode returns every value of c. The slice is reused by the next call.
func (d *Decoder[T]) Decode(c Chunk) ([]T, error) {
	d.vec = d.vec[:0]
	if !IsBatch(c) {
		d.r.Reset(c)
		for {
			rec, err := d.r.Next()
			if err != nil {
				if err == io.EOF {
					return d.vec, nil
				}
				return nil, err
			}
			v, _, err := d.codec.Decode(rec)
			if err != nil {
				return nil, err
			}
			d.vec = append(d.vec, v)
		}
	}
	if d.view == nil {
		return nil, fmt.Errorf("%w: cannot decode a batch chunk", ErrNotColumnar)
	}
	bt, err := DecodeBatch(c, &d.bt)
	if err != nil {
		return nil, err
	}
	if !slices.EqualFunc(bt.Cols, d.kinds, func(c Col, k ColKind) bool { return c.Kind == k }) {
		return nil, fmt.Errorf("%w: batch columns do not match the codec's %v", ErrCorrupt, d.kinds)
	}
	if d.vec, _, err = d.view.DecodeColumn(bt, 0, d.vec); err != nil {
		return nil, err
	}
	return d.vec, nil
}
