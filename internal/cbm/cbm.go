// Package cbm implements the Compressed Binary Matrix (CBM) format —
// the paper's primary contribution. A binary matrix A is represented
// by a compression tree (each row is expressed as a set of ±deltas
// against a parent row, or against the all-zero virtual root) together
// with the delta matrix A' ∈ {−1,0,1}^{n×n} stored in CSR form. The
// format supports the column/row-scaled factorizations AD and DAD
// needed by GCN inference, and multiplication kernels that are never
// asymptotically more expensive than CSR (Properties 1–3).
package cbm

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// buildClock times the compression stages for BuildStats. It is a
// package seam (rather than direct time.Now calls, which the
// determinism analyzer bans in this package) so tests can observe
// builds under a fake clock; the serving path never reads it.
var buildClock = clock.System()

// Kind identifies which factorized matrix a CBM value represents.
type Kind int

const (
	// KindA is a plain binary matrix A.
	KindA Kind = iota
	// KindAD is a column-scaled matrix A·diag(d).
	KindAD
	// KindDAD is a symmetrically scaled matrix diag(d)·A·diag(d).
	KindDAD
)

func (k Kind) String() string {
	switch k {
	case KindA:
		return "A"
	case KindAD:
		return "AD"
	case KindDAD:
		return "DAD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options controls compression.
type Options struct {
	// Alpha is the edge-pruning threshold α ≥ 0 of Sec. V-C: a
	// candidate parent must save at least α scalar operations. α = 0
	// reproduces the unpruned MST construction of Sec. III; larger
	// values trade compression for root fan-out (parallelism).
	Alpha int
	// Threads used during compression; < 1 selects the default.
	Threads int
	// MaxCandidates caps the per-row candidate list (0 = unlimited).
	MaxCandidates int
	// ForceMCA uses the arborescence solver even when Alpha == 0
	// (ablation/testing; the result weight must match the MST).
	ForceMCA bool
	// Window restricts parent candidates to the index band
	// |x−y| ≤ Window (0 = unrestricted). Unlike the exact pass — whose
	// result is invariant under symmetric row permutation — the banded
	// candidate set depends on the row ordering, so Window pairs with a
	// similarity permutation (internal/reorder) that moves good parents
	// into the band. Compression quality is at most that of the exact
	// pass; Property 1 still holds.
	Window int
}

// BuildStats reports what compression did — the source of the paper's
// Table II columns.
type BuildStats struct {
	Alpha          int
	CandidateEdges int // surviving candidate edges (α=0 filter)
	// IntersectingPairs counts ordered row pairs sharing ≥ 1 column —
	// the nnz of AAᵀ the paper's explicit construction materializes.
	IntersectingPairs int64
	TreeWeight        int64         // Σ deltas over all rows = nnz(A')
	TreeEdges         int           // rows compressed against a real parent
	VirtualKids       int           // rows hanging off the virtual root
	Depth             int           // longest dependency chain in the tree
	CandidateTime     time.Duration // AAᵀ intersection counting
	TreeTime          time.Duration // MST / MCA
	DeltaTime         time.Duration // delta extraction + CSR assembly
}

// Total returns the end-to-end build time.
func (s BuildStats) Total() time.Duration {
	return s.CandidateTime + s.TreeTime + s.DeltaTime
}

// Matrix is a binary (or scaled-binary) matrix in CBM format.
type Matrix struct {
	n        int
	kind     Kind
	delta    *sparse.CSR // A' (values ±1) or (AD)' (values ±d_j)
	parent   []int32     // parent row per row; −1 = virtual root
	branches [][]int32   // pre-order node lists of the root's subtrees
	diag     []float32   // DAD only: the diagonal d

	// CSR-plan source: the original binary matrix and the diagonal
	// scales of the represented factorization, kept so MulTo can bypass
	// the compression tree entirely (StrategyCSR) when the plan rule says
	// the tree is pure overhead. nil after Decode — the encoded artifact
	// does not include the original — in which case the CSR plan is
	// unavailable (see HasCSRPlan) and MulTo runs two-stage.
	src      *sparse.CSR
	srcLeft  []float32 // diag(left) of the represented matrix; nil = identity
	srcRight []float32 // diag(right); nil = identity
}

// Builder caches the α-independent candidate graph so a single AAᵀ
// pass can serve a whole α sweep (the paper's Fig. 2 experiment).
type Builder struct {
	a       *sparse.CSR
	cand    [][]candidate
	pairs   int64 // intersecting row pairs seen by the candidate pass
	candDur time.Duration
	threads int
}

// NewBuilder computes the candidate graph of the square binary matrix
// a. MaxCandidates and Threads are read from opt; Alpha and ForceMCA
// are ignored here and supplied per Compress call.
func NewBuilder(a *sparse.CSR, opt Options) (*Builder, error) {
	if err := checkShape(a); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	start := buildClock.Now()
	sp := obs.Begin(obs.StageCandidates)
	cand, pairs := buildCandidates(a, opt.Threads, opt.MaxCandidates, nil, opt.Window)
	sp.End()
	return &Builder{
		a:       a,
		cand:    cand,
		pairs:   pairs,
		candDur: buildClock.Now().Sub(start),
		threads: opt.Threads,
	}, nil
}

// Compress builds the CBM representation for a given α.
func (b *Builder) Compress(alpha int, forceMCA bool) (*Matrix, BuildStats, error) {
	if alpha < 0 {
		return nil, BuildStats{}, fmt.Errorf("cbm: alpha must be ≥ 0, got %d", alpha)
	}
	obs.Inc(obs.CounterCompressions)
	sp := obs.Begin(obs.StageCompress)
	defer sp.End()
	n := b.a.Rows
	stats := BuildStats{Alpha: alpha, CandidateTime: b.candDur, IntersectingPairs: b.pairs}

	treeStart := buildClock.Now()
	var parent []int32
	var total int64
	var err error
	if alpha == 0 && !forceMCA {
		parent, total = buildTreeMST(b.a, b.cand)
	} else {
		parent, total, err = buildTreeMCA(b.a, b.cand, alpha)
		if err != nil {
			return nil, BuildStats{}, err
		}
	}
	stats.TreeTime = buildClock.Now().Sub(treeStart)
	stats.TreeWeight = total
	for _, p := range parent {
		if p < 0 {
			stats.VirtualKids++
		} else {
			stats.TreeEdges++
		}
	}
	for _, l := range b.cand {
		stats.CandidateEdges += len(l)
	}
	stats.Depth = treeDepth(parent)

	deltaStart := buildClock.Now()
	delta := buildDeltaMatrix(b.a, parent, b.threads)
	stats.DeltaTime = buildClock.Now().Sub(deltaStart)

	m := &Matrix{
		n:        n,
		kind:     KindA,
		delta:    delta,
		parent:   parent,
		branches: branchDecompose(parent),
		src:      b.a,
	}
	return m, stats, nil
}

// Compress is the one-shot convenience API: candidate graph + tree +
// deltas for a single α.
func Compress(a *sparse.CSR, opt Options) (*Matrix, BuildStats, error) {
	b, err := NewBuilder(a, opt)
	if err != nil {
		return nil, BuildStats{}, err
	}
	return b.Compress(opt.Alpha, opt.ForceMCA)
}

// buildDeltaMatrix assembles A' in CSR form: row x holds +1 at columns
// of A_x missing from its parent row and −1 at parent columns missing
// from A_x (Δ⁺ and Δ⁻ merged in column order). Rows parented by the
// virtual root copy A_x verbatim (all +1).
func buildDeltaMatrix(a *sparse.CSR, parent []int32, threads int) *sparse.CSR {
	n := a.Rows
	out := sparse.NewCSR(n, a.Cols)
	// Pass 1: per-row delta counts → row pointers.
	counts := make([]int32, n)
	parallel.ForDynamic(n, threads, 256, func(x int) {
		p := parent[x]
		if p < 0 {
			counts[x] = int32(a.RowNNZ(x))
			return
		}
		counts[x] = int32(hammingSorted(a.RowCols(x), a.RowCols(int(p))))
	})
	for i := 0; i < n; i++ {
		out.RowPtr[i+1] = out.RowPtr[i] + counts[i]
	}
	nnz := int(out.RowPtr[n])
	out.ColIdx = make([]int32, nnz)
	out.Vals = make([]float32, nnz)
	// Pass 2: fill rows independently.
	parallel.ForDynamic(n, threads, 256, func(x int) {
		w := out.RowPtr[x]
		xs := a.RowCols(x)
		p := parent[x]
		if p < 0 {
			for _, c := range xs {
				out.ColIdx[w] = c
				out.Vals[w] = 1
				w++
			}
			return
		}
		ps := a.RowCols(int(p))
		i, j := 0, 0
		for i < len(xs) && j < len(ps) {
			switch {
			case xs[i] < ps[j]:
				out.ColIdx[w] = xs[i]
				out.Vals[w] = 1
				w++
				i++
			case xs[i] > ps[j]:
				out.ColIdx[w] = ps[j]
				out.Vals[w] = -1
				w++
				j++
			default:
				i++
				j++
			}
		}
		for ; i < len(xs); i++ {
			out.ColIdx[w] = xs[i]
			out.Vals[w] = 1
			w++
		}
		for ; j < len(ps); j++ {
			out.ColIdx[w] = ps[j]
			out.Vals[w] = -1
			w++
		}
	})
	return out
}

// hammingSorted returns the Hamming distance between two rows given as
// ascending sorted column-index lists.
func hammingSorted(a, b []int32) int {
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return len(a) + len(b) - 2*inter
}

// Accessors ---------------------------------------------------------------

// Rows returns the matrix dimension n (CBM matrices are square).
func (m *Matrix) Rows() int { return m.n }

// Cols returns the matrix dimension n.
func (m *Matrix) Cols() int { return m.n }

// Kind reports which factorization (A, AD, DAD) this value represents.
func (m *Matrix) Kind() Kind { return m.kind }

// NumDeltas returns nnz(A'), the total number of stored deltas.
func (m *Matrix) NumDeltas() int { return m.delta.NNZ() }

// Parent returns the compression-tree parent of row x (−1 = virtual
// root).
func (m *Matrix) Parent(x int) int { return int(m.parent[x]) }

// NumBranches returns the root fan-out — the degree of parallelism of
// the update stage.
func (m *Matrix) NumBranches() int { return len(m.branches) }

// BranchSizes returns the node count of every virtual-root subtree,
// largest first — the unit-of-work sizes of the parallel update stage.
func (m *Matrix) BranchSizes() []int {
	sizes := make([]int, len(m.branches))
	for i, b := range m.branches {
		sizes[i] = len(b)
	}
	return sizes
}

// Delta exposes the delta matrix (read-only by convention); benchmarks
// use it to report sparsity.
func (m *Matrix) Delta() *sparse.CSR { return m.delta }

// Shape returns the structural summary the costmodel package's
// work/span model consumes.
func (m *Matrix) Shape() costmodel.MatrixShape {
	real, virtual := 0, 0
	for _, p := range m.parent {
		if p >= 0 {
			real++
		} else {
			virtual++
		}
	}
	return costmodel.MatrixShape{
		Rows:        m.n,
		DeltaNNZ:    int64(m.delta.NNZ()),
		RealEdges:   real,
		VirtualKids: virtual,
		DAD:         m.kind == KindDAD,
		BranchSizes: m.BranchSizes(),
	}
}

// HasCSRPlan reports whether the matrix still carries its source CSR,
// making StrategyCSR available. Decoded artifacts do not.
func (m *Matrix) HasCSRPlan() bool { return m.src != nil }

// Diag returns the DAD diagonal (nil for A and AD kinds).
func (m *Matrix) Diag() []float32 { return m.diag }

// FootprintBytes returns the memory the representation occupies: the
// CSR footprint of the delta matrix, 8 bytes (two int32) per
// compression-tree edge with a real parent, and — for DAD — 4 bytes per
// diagonal entry that must stay resident during the update stage.
func (m *Matrix) FootprintBytes() int64 {
	b := m.delta.FootprintBytes()
	for _, p := range m.parent {
		if p >= 0 {
			b += 8
		}
	}
	if m.kind == KindDAD {
		b += int64(4 * len(m.diag))
	}
	return b
}

// Scaled variants ---------------------------------------------------------

// WithColumnScale returns a CBM representation of A·diag(d). The
// compression tree is shared; the delta values become ±d_j, embedding
// the scaling exactly as Sec. V-A's (AD)' construction, so the
// diagonal itself need not be stored.
func (m *Matrix) WithColumnScale(d []float32) *Matrix {
	if m.kind != KindA {
		panic("cbm: WithColumnScale requires a KindA matrix")
	}
	if len(d) != m.n {
		panic(fmt.Sprintf("cbm: diagonal length mismatch: len(d)=%d, want %d", len(d), m.n))
	}
	dc := make([]float32, len(d))
	copy(dc, d)
	out := &Matrix{
		n:        m.n,
		kind:     KindAD,
		delta:    m.delta.ScaleCols(d),
		parent:   m.parent,
		branches: m.branches,
		src:      m.src,
		srcRight: dc,
	}
	return out
}

// WithSymmetricScale returns a CBM representation of diag(d)·A·diag(d):
// the (AD)' delta matrix plus the diagonal, which the update stage
// needs for the row scaling of Eq. 6.
func (m *Matrix) WithSymmetricScale(d []float32) *Matrix {
	if m.kind != KindA {
		panic("cbm: WithSymmetricScale requires a KindA matrix")
	}
	if len(d) != m.n {
		panic(fmt.Sprintf("cbm: diagonal length mismatch: len(d)=%d, want %d", len(d), m.n))
	}
	dc := make([]float32, len(d))
	copy(dc, d)
	out := &Matrix{
		n:        m.n,
		kind:     KindDAD,
		delta:    m.delta.ScaleCols(d),
		parent:   m.parent,
		branches: m.branches,
		diag:     dc,
		src:      m.src,
		srcLeft:  dc,
		srcRight: dc,
	}
	return out
}

// WithScales returns a CBM representation of diag(left)·A·diag(right)
// with two distinct diagonals — the D₁AD₂ generalization the paper
// sketches at the end of Sec. V-A. The right scale is embedded in the
// delta values ((AD₂)'); the left scale drives the update stage's row
// scaling exactly like the symmetric case (internally this is a DAD
// matrix whose diagonal happens to differ from the embedded one).
func (m *Matrix) WithScales(left, right []float32) *Matrix {
	if m.kind != KindA {
		panic("cbm: WithScales requires a KindA matrix")
	}
	if len(left) != m.n || len(right) != m.n {
		panic(fmt.Sprintf("cbm: diagonal length mismatch: len(left)=%d len(right)=%d, want %d", len(left), len(right), m.n))
	}
	lc := make([]float32, len(left))
	copy(lc, left)
	rc := make([]float32, len(right))
	copy(rc, right)
	out := &Matrix{
		n:        m.n,
		kind:     KindDAD,
		delta:    m.delta.ScaleCols(right),
		parent:   m.parent,
		branches: m.branches,
		diag:     lc,
		src:      m.src,
		srcLeft:  lc,
		srcRight: rc,
	}
	return out
}

// ToCSR decompresses the represented matrix back to CSR form —
// primarily a correctness-testing and interoperability utility. For
// KindA the result is the original binary matrix; for AD/DAD it is the
// scaled matrix.
func (m *Matrix) ToCSR() *sparse.CSR {
	rows := make([][]int32, m.n)
	// Reconstruct row supports branch by branch in pre-order, so each
	// parent is materialized before its children.
	for _, branch := range m.branches {
		for _, x := range branch {
			p := m.parent[x]
			dcols := m.delta.RowCols(int(x))
			if p < 0 {
				r := make([]int32, len(dcols))
				copy(r, dcols)
				rows[x] = r
				continue
			}
			pr := rows[p]
			r := make([]int32, 0, len(pr)+len(dcols))
			i, j := 0, 0
			for i < len(pr) && j < len(dcols) {
				switch {
				case pr[i] < dcols[j]:
					r = append(r, pr[i])
					i++
				case pr[i] > dcols[j]:
					// a +delta inserts a column the parent lacks
					r = append(r, dcols[j])
					j++
				default:
					// a −delta removes the parent's column
					i++
					j++
				}
			}
			r = append(r, pr[i:]...)
			for ; j < len(dcols); j++ {
				r = append(r, dcols[j])
			}
			rows[x] = r
		}
	}
	out := sparse.FromAdjacency(m.n, m.n, rows)
	switch m.kind {
	case KindA:
		return out
	case KindAD:
		// Column scale is embedded in delta values; recover d_j from
		// any stored delta is not possible in general, so AD/DAD
		// decompression returns the scaled matrix via dense deltas.
		panic("cbm: ToCSR on scaled kinds is not supported; decompress the KindA base instead")
	default:
		panic("cbm: ToCSR on scaled kinds is not supported; decompress the KindA base instead")
	}
}

// Describe returns a one-line human-readable summary of the matrix —
// used by the CLI tools' diagnostics.
func (m *Matrix) Describe() string {
	real, virtual := 0, 0
	for _, p := range m.parent {
		if p >= 0 {
			real++
		} else {
			virtual++
		}
	}
	return fmt.Sprintf("cbm.Matrix{kind=%s n=%d deltas=%d treeEdges=%d rootChildren=%d branches=%d bytes=%d}",
		m.kind, m.n, m.delta.NNZ(), real, virtual, len(m.branches), m.FootprintBytes())
}
