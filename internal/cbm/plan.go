package cbm

import "fmt"

// UpdateStrategy names an execution plan for MulTo.
type UpdateStrategy int

const (
	// StrategyBranch is the paper's two-stage scheme: whole-matrix
	// delta SpMM, barrier, then whole root subtrees distributed to
	// threads for the update. It is the one plan MulTo runs.
	StrategyBranch UpdateStrategy = iota
	// StrategyCSR named the plan that multiplied the source CSR
	// directly when compression bought nothing, which was removed with
	// the source copy every matrix kept: once the DAD row scale rides on
	// the delta SpMM, the two-stage plan does the same work at ratio 1.
	// PlanFor never returns it. It stays so callers that compare
	// against it (and its "csr" name) keep compiling.
	StrategyCSR
)

func (s UpdateStrategy) String() string {
	switch s {
	case StrategyBranch:
		return "branch"
	case StrategyCSR:
		return "csr"
	default:
		return fmt.Sprintf("UpdateStrategy(%d)", int(s))
	}
}

// PlanFor returns the execution plan MulTo runs for this matrix at the
// given thread count and operand width: always StrategyBranch. It
// stays so callers that report the plan keep working.
//
//cbm:hotpath
func (m *Matrix) PlanFor(threads, cols int) UpdateStrategy {
	return StrategyBranch
}
