// Plan selection for MulTo. Every auto-dispatched multiply routes
// through PlanFor, which applies one rule: when compression bought
// almost nothing (nnz(A)/nnz(A') below csrRatioMax) the tree update is
// pure overhead and the raw diag-scaled CSR product runs instead;
// otherwise the paper's two-stage CBM pipeline runs. DESIGN.md records
// the calibration sweep behind the threshold.

package cbm

// csrRatioMax is the compression ratio nnz(A)/nnz(A') below which MulTo
// runs the CSR plan. Every registry graph lies at 1.00 or at ≥ 1.45, so
// any value in (1.0, 1.45) gives the same choices; 1.2 sits between.
const csrRatioMax = 1.2

// PlanFor returns the execution plan MulTo picks for this matrix. The
// choice is deterministic, so callers can force the same plan through
// MulToStrategy and get bitwise-identical results to the auto
// dispatch. Neither the thread count nor the operand width enters the
// rule. Decoded artifacts carry no source matrix, so they always run
// two-stage.
//
//cbm:hotpath
func (m *Matrix) PlanFor(threads, cols int) UpdateStrategy {
	if m.src != nil && float64(m.src.NNZ())/float64(m.delta.NNZ()) < csrRatioMax {
		return StrategyCSR
	}
	return StrategyBranch
}
