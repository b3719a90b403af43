package hurricane

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestHeavySlots(t *testing.T) {
	for _, n := range []int{1, heavyLinearMax, heavyLinearMax + 1, 32} {
		keys := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			keys = append(keys, uint64(i)*0x1000+7)
		}
		keys = append(keys, keys[0]) // duplicate must be dropped
		hs := NewHeavySlots[int64](keys)
		if hs.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, hs.Len())
		}
		for _, k := range keys {
			a, ok := hs.Slot(k)
			if !ok {
				t.Fatalf("n=%d: heavy key %d missed", n, k)
			}
			*a++
		}
		if _, ok := hs.Slot(0xdeadbeef); ok {
			t.Fatalf("n=%d: tail key resolved to a slot", n)
		}
		var sum int64
		hs.Each(func(k uint64, a *int64) { sum += *a })
		// n+1 lookups hit (the duplicate key hits its slot twice).
		if sum != int64(n)+1 {
			t.Fatalf("n=%d: accumulated %d, want %d", n, sum, n+1)
		}
		if hs.Hits() != uint64(n)+1 || hs.Lookups() != uint64(n)+2 {
			t.Fatalf("n=%d: hits=%d lookups=%d", n, hs.Hits(), hs.Lookups())
		}
	}
	// The nil fast path is inert.
	var nilSlots *HeavySlots[int]
	if _, ok := nilSlots.Slot(1); ok || nilSlots.Len() != 0 {
		t.Fatal("nil HeavySlots must miss everything")
	}
	if NewHeavySlots[int](nil) != nil {
		t.Fatal("empty key set must return nil")
	}
}

// rowOnlyU64 is Uint64Of without a column view.
type rowOnlyU64 struct{}

func (rowOnlyU64) Encode(buf []byte, v uint64) []byte     { return Uint64Of.Encode(buf, v) }
func (rowOnlyU64) Decode(rec []byte) (uint64, int, error) { return Uint64Of.Decode(rec) }

// TestBatchEntryPointsNeedColumnView pins the one column contract at the
// public surface: a row-only codec keeps working with Load, ForEach and
// Collect on row chunks, while LoadBatch, WriteBatch and any read of a
// batch chunk through it return ErrNotColumnar instead of falling back.
func TestBatchEntryPointsNeedColumnView(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	store := cluster.Store()
	vals := []uint64{3, 1, 4, 1, 5, 9, 2, 6}

	if err := LoadBatch(ctx, store, "nope", rowOnlyU64{}, vals); !errors.Is(err, ErrNotColumnar) {
		t.Fatalf("LoadBatch with a row-only codec: got %v, want ErrNotColumnar", err)
	}
	if err := Load(ctx, store, "rows", rowOnlyU64{}, vals); err != nil {
		t.Fatal(err)
	}
	if got, err := Collect(ctx, store, "rows", rowOnlyU64{}); err != nil || len(got) != len(vals) {
		t.Fatalf("Collect of row chunks through a row-only codec: %v, %v", got, err)
	}
	if err := LoadBatch(ctx, store, "batches", Uint64Of, vals); err != nil {
		t.Fatal(err)
	}
	if got, err := Collect(ctx, store, "batches", Uint64Of); err != nil || len(got) != len(vals) {
		t.Fatalf("Collect of batch chunks: %v, %v", got, err)
	}
	if _, err := Collect(ctx, store, "batches", rowOnlyU64{}); !errors.Is(err, ErrNotColumnar) {
		t.Fatalf("Collect of batch chunks through a row-only codec: got %v, want ErrNotColumnar", err)
	}

	// Inside a task: ForEach reads row chunks through the row-only codec,
	// and WriteBatch refuses it.
	if err := Seal(ctx, store, "rows"); err != nil {
		t.Fatal(err)
	}
	app := NewApp("rowonly").SourceBag("rows")
	app.AddBag(BagSpec{Name: "shuf", Partitions: 2})
	var seen int
	app.AddTask(TaskSpec{
		Name: "scatter", Inputs: []string{"rows"}, Outputs: []string{"shuf"}, NoClone: true,
		Run: func(tc *TaskCtx) error {
			pw := NewPartitionedWriterUint64(tc, 0, rowOnlyU64{}, func(v uint64) uint64 { return v })
			if err := ForEach(tc, 0, rowOnlyU64{}, func(uint64) error { seen++; return nil }); err != nil {
				return err
			}
			return pw.WriteBatch(vals)
		},
	})
	if err := cluster.Run(ctx, app); err == nil || !strings.Contains(err.Error(), ErrNotColumnar.Error()) {
		t.Fatalf("WriteBatch with a row-only codec: got %v, want ErrNotColumnar", err)
	}
	if seen != len(vals) {
		t.Fatalf("ForEach saw %d row values, want %d", seen, len(vals))
	}
}
