package sparse

import (
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/xrand"
)

// randomValuedCSR builds a random matrix with roughly density d and
// values in [-1, 1).
func randomValuedCSR(rng *xrand.RNG, rows, cols int, density float64) *CSR {
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Append(i, j, rng.Float32()*2-1)
			}
		}
	}
	return coo.ToCSR()
}

// randomBinaryCSR builds a random binary matrix with roughly density d.
func randomBinaryCSR(rng *xrand.RNG, rows, cols int, density float64) *CSR {
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Append(i, j, 1)
			}
		}
	}
	m := coo.ToCSR()
	for i := range m.Vals {
		m.Vals[i] = 1
	}
	return m
}

func TestCOOToCSRSortsAndSums(t *testing.T) {
	coo := NewCOO(3, 4)
	coo.Append(2, 3, 1)
	coo.Append(0, 2, 5)
	coo.Append(0, 0, 1)
	coo.Append(2, 3, 2) // duplicate: summed
	coo.Append(1, 1, -1)
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[1] != 5 {
		t.Fatalf("row 0 = %v %v", cols, vals)
	}
	cols, vals = m.Row(2)
	if len(cols) != 1 || cols[0] != 3 || vals[0] != 3 {
		t.Fatalf("row 2 = %v %v (duplicate not summed)", cols, vals)
	}
}

func TestCOOAppendOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2).Append(2, 0, 1)
}

func TestFromAdjacency(t *testing.T) {
	adj := [][]int32{{2, 0, 2}, {}, {1}}
	m := FromAdjacency(3, 3, adj)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 { // duplicate 2 collapsed
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	cols := m.RowCols(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Fatalf("row 0 cols = %v", cols)
	}
	if !m.IsBinary() {
		t.Fatal("FromAdjacency should be binary")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := xrand.New(5)
	m := randomBinaryCSR(rng, 23, 31, 0.1)
	tt := m.Transpose().Transpose()
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.ToDense().Equal(tt.ToDense()) {
		t.Fatal("double transpose differs")
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	rng := xrand.New(6)
	m := randomBinaryCSR(rng, 7, 13, 0.3)
	got := m.Transpose().ToDense()
	want := m.ToDense().Transpose()
	if !got.Equal(want) {
		t.Fatal("transpose mismatch vs dense")
	}
}

func TestIsSymmetric(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, 1)
	coo.Append(2, 2, 1)
	if !coo.ToCSR().IsSymmetric() {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	coo2 := NewCOO(3, 3)
	coo2.Append(0, 1, 1)
	if coo2.ToCSR().IsSymmetric() {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	if NewCSR(2, 3).IsSymmetric() {
		t.Fatal("non-square matrix reported symmetric")
	}
}

func TestAddSelfLoops(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Append(0, 1, 1)
	coo.Append(1, 1, 1) // existing diagonal stays single
	coo.Append(2, 0, 1)
	m := coo.ToCSR().AddSelfLoops()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	d := m.ToDense()
	for i := 0; i < 3; i++ {
		if d.At(i, i) != 1 {
			t.Fatalf("diagonal (%d,%d) = %v", i, i, d.At(i, i))
		}
	}
	if m.NNZ() != 5 { // 0: {0,1}, 1: {1}, 2: {0,2}
		t.Fatalf("nnz = %d, want 5", m.NNZ())
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	d := dense.New(9, 11)
	for i := range d.Data {
		if rng.Float64() < 0.2 {
			d.Data[i] = rng.Float32() + 0.1
		}
	}
	m := FromDense(d)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.ToDense().Equal(d) {
		t.Fatal("FromDense/ToDense round trip differs")
	}
}

func TestFootprintBytesMatchesPaperFormula(t *testing.T) {
	// Cora's published shape: 2708 nodes, 10556 directed edges → the
	// paper reports 0.09 MiB in CSR.
	m := &CSR{Rows: 2708, Cols: 2708,
		RowPtr: make([]int32, 2709),
		ColIdx: make([]int32, 10556),
		Vals:   make([]float32, 10556),
	}
	bytes := m.FootprintBytes()
	mib := float64(bytes) / (1 << 20)
	if mib < 0.085 || mib > 0.095 {
		t.Fatalf("Cora CSR footprint = %.4f MiB, want ≈ 0.09", mib)
	}
}

func TestScaleColsRows(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 1)
	coo.Append(1, 1, 1)
	m := coo.ToCSR()
	sc := m.ScaleCols([]float32{2, 3})
	d := sc.ToDense()
	if d.At(0, 0) != 2 || d.At(0, 1) != 3 || d.At(1, 1) != 3 {
		t.Fatalf("ScaleCols = %v", d)
	}
	sr := m.ScaleRows([]float32{2, 3})
	d = sr.ToDense()
	if d.At(0, 0) != 2 || d.At(0, 1) != 2 || d.At(1, 1) != 3 {
		t.Fatalf("ScaleRows = %v", d)
	}
	// original untouched
	if m.Vals[0] != 1 {
		t.Fatal("scale mutated the receiver")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	good := FromAdjacency(2, 2, [][]int32{{0, 1}, {1}})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good.Clone()
	bad.ColIdx[0] = 5 // out of range
	if bad.Validate() == nil {
		t.Fatal("out-of-range column not detected")
	}
	bad2 := good.Clone()
	bad2.ColIdx[0], bad2.ColIdx[1] = bad2.ColIdx[1], bad2.ColIdx[0] // unsorted
	if bad2.Validate() == nil {
		t.Fatal("unsorted columns not detected")
	}
	bad3 := good.Clone()
	bad3.RowPtr[1] = 99
	if bad3.Validate() == nil {
		t.Fatal("inconsistent RowPtr not detected")
	}
	// A row pointer past the storage, over strictly ascending columns:
	// the row scan must stop at the pointer, not index past ColIdx.
	bad4 := FromAdjacency(2, 3, [][]int32{{0}, {1, 2}})
	bad4.RowPtr[1] = 5
	if bad4.Validate() == nil {
		t.Fatal("RowPtr past the storage not detected")
	}
}

func TestDegrees(t *testing.T) {
	m := FromAdjacency(3, 3, [][]int32{{0, 1, 2}, {}, {1}})
	d := m.Degrees()
	if d[0] != 3 || d[1] != 0 || d[2] != 1 {
		t.Fatalf("Degrees = %v", d)
	}
}

// Property: transpose preserves nnz and (i,j)↔(j,i).
func TestTransposeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		m := randomBinaryCSR(rng, rows, cols, 0.2)
		tr := m.Transpose()
		if tr.NNZ() != m.NNZ() {
			return false
		}
		md, td := m.ToDense(), tr.ToDense()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if md.At(i, j) != td.At(j, i) {
					return false
				}
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddSelfLoops adds exactly the missing diagonal entries.
func TestAddSelfLoopsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(25)
		m := randomBinaryCSR(rng, n, n, 0.15)
		missing := 0
		for i := 0; i < n; i++ {
			if m.ToDense().At(i, i) == 0 {
				missing++
			}
		}
		out := m.AddSelfLoops()
		return out.NNZ() == m.NNZ()+missing && out.Validate() == nil && out.IsBinary()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmatrix(t *testing.T) {
	rng := xrand.New(40)
	m := randomBinaryCSR(rng, 20, 20, 0.3)
	sub := m.Submatrix(8)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.Rows != 8 || sub.Cols != 8 {
		t.Fatalf("shape %d×%d", sub.Rows, sub.Cols)
	}
	md, sd := m.ToDense(), sub.ToDense()
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if md.At(i, j) != sd.At(i, j) {
				t.Fatalf("submatrix differs at (%d,%d)", i, j)
			}
		}
	}
	// n beyond shape → clone
	big := m.Submatrix(100)
	if !big.ToDense().Equal(m.ToDense()) {
		t.Fatal("oversized submatrix should clone")
	}
	// degenerate
	if z := m.Submatrix(0); z.Rows != 0 || z.NNZ() != 0 {
		t.Fatal("Submatrix(0) not empty")
	}
	if z := m.Submatrix(-3); z.Rows != 0 {
		t.Fatal("negative n not clamped")
	}
}

func TestBlockDiag(t *testing.T) {
	a := FromAdjacency(2, 2, [][]int32{{1}, {0}})
	b := FromAdjacency(3, 3, [][]int32{{1, 2}, {}, {0}})
	m, offsets := BlockDiag(a, b)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 5 || m.NNZ() != a.NNZ()+b.NNZ() {
		t.Fatalf("shape %d nnz %d", m.Rows, m.NNZ())
	}
	if offsets[0] != 0 || offsets[1] != 2 || offsets[2] != 5 {
		t.Fatalf("offsets = %v", offsets)
	}
	d := m.ToDense()
	// block 0 in place
	if d.At(0, 1) != 1 || d.At(1, 0) != 1 {
		t.Fatal("block 0 misplaced")
	}
	// block 1 shifted by 2
	if d.At(2, 3) != 1 || d.At(2, 4) != 1 || d.At(4, 2) != 1 {
		t.Fatal("block 1 misplaced")
	}
	// no cross-block entries
	for i := 0; i < 2; i++ {
		for j := 2; j < 5; j++ {
			if d.At(i, j) != 0 || d.At(j, i) != 0 {
				t.Fatal("cross-block entry")
			}
		}
	}
}

func TestBlockDiagEmptyAndSingle(t *testing.T) {
	m, offsets := BlockDiag()
	if m.Rows != 0 || len(offsets) != 1 {
		t.Fatalf("empty BlockDiag: %d rows, offsets %v", m.Rows, offsets)
	}
	a := FromAdjacency(2, 2, [][]int32{{1}, {0}})
	m, _ = BlockDiag(a)
	if !m.ToDense().Equal(a.ToDense()) {
		t.Fatal("single-block BlockDiag differs")
	}
}

func TestBlockDiagRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlockDiag(NewCSR(2, 3))
}
