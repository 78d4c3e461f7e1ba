package sparse

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// raggedBlocks is the quick.Check input domain: a batch of square
// blocks with independently drawn ("ragged") sizes, the shape
// BlockDiag exists to batch.
type raggedBlocks struct {
	blocks []*CSR
}

// Generate implements quick.Generator, drawing 1–6 blocks of size
// 0–12 with varying densities and non-binary values.
func (raggedBlocks) Generate(r *rand.Rand, size int) reflect.Value {
	rng := xrand.New(r.Uint64())
	nb := 1 + int(rng.Uint64()%6)
	blocks := make([]*CSR, nb)
	for k := range blocks {
		n := int(rng.Uint64() % 13)
		blocks[k] = randomValuedCSR(rng, n, n, 0.1+0.5*rng.Float64())
	}
	return reflect.ValueOf(raggedBlocks{blocks})
}

// TestBlockDiagRoundTrip is the satellite property test: assembling
// ragged blocks and slicing each block's row/column window back out via
// the returned offsets must reproduce every input bitwise (RowPtr,
// ColIdx, Vals), and every off-diagonal window must be empty.
func TestBlockDiagRoundTrip(t *testing.T) {
	prop := func(in raggedBlocks) bool {
		full, offs := BlockDiag(in.blocks...)
		if err := full.Validate(); err != nil {
			t.Logf("assembled matrix invalid: %v", err)
			return false
		}
		if len(offs) != len(in.blocks)+1 {
			t.Logf("offsets length %d, want %d", len(offs), len(in.blocks)+1)
			return false
		}
		for k, want := range in.blocks {
			lo, hi := int(offs[k]), int(offs[k+1])
			if hi-lo != want.Rows {
				t.Logf("block %d: window [%d,%d) does not match %d rows", k, lo, hi, want.Rows)
				return false
			}
			got := sliceForTest(full, lo, hi, lo, hi)
			if !reflect.DeepEqual(got.RowPtr, want.RowPtr) ||
				!reflect.DeepEqual(got.ColIdx, want.ColIdx) ||
				!reflect.DeepEqual(got.Vals, want.Vals) {
				t.Logf("block %d: round trip not bitwise equal", k)
				return false
			}
			// Off-diagonal windows of the same row band must be empty:
			// block-diagonal assembly introduces no cross-block coupling.
			if sliceForTest(full, lo, hi, 0, lo).NNZ() != 0 || sliceForTest(full, lo, hi, hi, full.Cols).NNZ() != 0 {
				t.Logf("block %d: off-diagonal entries present", k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sliceForTest extracts rows [r0,r1) × columns [c0,c1) of m as a fresh
// CSR with columns rebased to c0, keeping row and within-row order.
func sliceForTest(m *CSR, r0, r1, c0, c1 int) *CSR {
	out := &CSR{Rows: r1 - r0, Cols: c1 - c0, RowPtr: make([]int32, r1-r0+1),
		ColIdx: []int32{}, Vals: []float32{}}
	for i := r0; i < r1; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if int(c) >= c0 && int(c) < c1 {
				out.ColIdx = append(out.ColIdx, c-int32(c0))
				out.Vals = append(out.Vals, vals[k])
			}
		}
		out.RowPtr[i-r0+1] = int32(len(out.ColIdx))
	}
	return out
}

func TestBlockDiagNonSquarePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for non-square block")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "block 1 is 2x3") {
			t.Fatalf("panic %v lacks the dimensioned block message", r)
		}
	}()
	BlockDiag(NewCSR(2, 2), NewCSR(2, 3))
}
