// Command verify runs the differential-verification sweep of
// internal/oracle: for every adversarial/synthetic generator, matrix
// size, pruning threshold α, kind (A, AD, DAD) and thread count it
// compares the CBM kernels against two independent reference oracles
// (naive dense and naive CSR, both with float64 accumulation), runs the
// metamorphic property checks (linearity, tree reconstruction, MulVec
// consistency, execution-plan equivalence — two-stage thread
// invariance bitwise, CSR plan within tolerance — and α invariance)
// and a short
// concurrency stress round.
//
// The process exits 0 only when every combination agrees within
// tolerance. On the first divergence it prints a report plus the exact
// command line that reproduces the failing combination in isolation,
// then exits 1.
//
//	go run ./cmd/verify -n 64 -sweep quick
//	go run ./cmd/verify -sweep full -seed 7
//	go run ./cmd/verify -gens hub -n 96 -alphas 4 -threads 8 -seed 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/xrand"
)

func main() {
	var (
		n       = flag.Int("n", 64, "base matrix dimension")
		sweep   = flag.String("sweep", "quick", "sweep preset: quick (one size) or full (n/2, n, 2n and more α)")
		seed    = flag.Uint64("seed", 1, "master seed for graphs, diagonals and operands")
		gens    = flag.String("gens", "", "comma-separated generator names (default: all; see -list)")
		alphas  = flag.String("alphas", "", "comma-separated α values (default 0,4,16)")
		threads = flag.String("threads", "", "comma-separated thread counts (default 1,4)")
		cols    = flag.Int("cols", 16, "columns of the dense operand B")
		stress  = flag.Int("stress", 2, "concurrency stress iterations per graph (0 disables)")
		list    = flag.Bool("list", false, "list generators and exit")
		verbose = flag.Bool("v", false, "log every combination, not just failures")
		metrics = flag.Bool("metrics", false, "dump the internal/obs metrics snapshot as JSON to stderr on exit")
	)
	flag.Parse()

	if *list {
		for _, g := range oracle.Generators() {
			outf("%-12s %s\n", g.Name, g.Description)
		}
		return
	}

	sizes := []int{*n}
	alphaList := []int{0, 4, 16}
	threadList := []int{1, 4}
	if *sweep == "full" {
		sizes = []int{*n / 2, *n, 2 * *n}
		alphaList = []int{0, 1, 4, 16, 64}
		threadList = []int{1, 2, 4, 8}
	} else if *sweep != "quick" {
		fatalf("unknown -sweep %q (want quick or full)", *sweep)
	}
	if *n < 1 {
		fatalf("-n must be ≥ 1, got %d", *n)
	}
	if *alphas != "" {
		alphaList = parseInts(*alphas, "-alphas")
	}
	for _, a := range alphaList {
		if a < 0 {
			fatalf("-alphas values must be ≥ 0, got %d", a)
		}
	}
	if *threads != "" {
		threadList = parseInts(*threads, "-threads")
	}

	genList := oracle.Generators()
	if *gens != "" {
		genList = genList[:0:0]
		for _, name := range strings.Split(*gens, ",") {
			g, err := oracle.GetGenerator(strings.TrimSpace(name))
			if err != nil {
				fatalf("%v", err)
			}
			genList = append(genList, g)
		}
	}

	start := time.Now()
	combos := 0
	for _, size := range sizes {
		if size < 1 {
			continue
		}
		for _, g := range genList {
			c := runGraph(g, size, *seed, alphaList, threadList, *cols, *stress, *verbose)
			combos += c
		}
	}
	outf("verify: OK — %d kernel comparisons across %d generators, sizes %v, α %v, threads %v (%.2fs)\n",
		combos, len(genList), sizes, alphaList, threadList, time.Since(start).Seconds())
	if *metrics {
		if err := obs.WriteJSON(os.Stderr); err != nil {
			fatalf("metrics: %v", err)
		}
	}
}

// runGraph verifies one (generator, size) cell of the sweep and returns
// the number of kernel-vs-oracle comparisons performed. Any divergence
// aborts the process with a repro line.
func runGraph(g oracle.Generator, n int, seed uint64, alphaList, threadList []int, cols, stress int, verbose bool) int {
	ctx := reproContext{gen: g.Name, n: n, seed: seed}
	a := g.Gen(n, seed)

	// Deterministic operands derived from the master seed.
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	d := make([]float32, n)
	for i := range d {
		d[i] = rng.Float32() + 0.5 // bounded away from 0: DAD divides by d
	}
	b := dense.New(n, cols)
	rng.FillUniform(b.Data)
	b2 := dense.New(n, cols)
	rng.FillUniform(b2.Data)
	v := make([]float32, n)
	rng.FillUniform(v)

	maxThreads := 1
	for _, t := range threadList {
		if t > maxThreads {
			maxThreads = t
		}
	}

	ctx.check("alpha invariance", alphaList, 0,
		oracle.CheckAlphaInvariance(a, alphaList, b, maxThreads, oracle.Default()))

	builder, err := cbm.NewBuilder(a, cbm.Options{})
	if err != nil {
		fatalf("%s n=%d: builder: %v", g.Name, n, err)
	}
	combos := 0
	for _, alpha := range alphaList {
		base, _, err := builder.Compress(alpha, false)
		if err != nil {
			fatalf("%s n=%d α=%d: compress: %v", g.Name, n, alpha, err)
		}
		ctx.check("tree reconstruction", []int{alpha}, 0, oracle.CheckTreeReconstruction(a, base))
		for _, kind := range []cbm.Kind{cbm.KindA, cbm.KindAD, cbm.KindDAD} {
			m := scaled(base, kind, d)
			tol := oracle.KindTolerance(kind)
			operand := oracle.Operand(a, kind, d)
			denseRef := oracle.DenseProduct(operand, b)
			csrRef := oracle.CSRProduct(operand, b)
			vecRef := oracle.CSRMatVec(operand, v)
			for _, threads := range threadList {
				got := m.MulParallel(b, threads)
				ctx.checkKind("AX vs dense oracle", kind, alpha, threads, asErr(oracle.Compare(got, denseRef, tol)))
				ctx.checkKind("AX vs CSR oracle", kind, alpha, threads, asErr(oracle.Compare(got, csrRef, tol)))
				ctx.checkKind("MulVec vs CSR oracle", kind, alpha, threads,
					asErr(oracle.CompareVec(m.MulVecParallel(v, threads), vecRef, tol)))
				combos += 3
			}
			ctx.checkKind("MulVec consistency", kind, alpha, maxThreads,
				oracle.CheckMulVecConsistency(m, v, maxThreads))
			ctx.checkKind("strategy equivalence", kind, alpha, maxThreads,
				oracle.CheckStrategyEquivalence(m, b, threadList))
			ctx.checkKind("linearity", kind, alpha, maxThreads,
				oracle.CheckLinearity(m, b, b2, 1.5, -0.5, maxThreads, oracle.Loose()))
			combos += 3
			if verbose {
				outf("  ok %-10s n=%-5d α=%-3d kind=%-3v (%d threads variants)\n",
					ctx.gen, n, alpha, kind, len(threadList))
			}
		}
		if stress > 0 {
			ctx.check("concurrency stress", []int{alpha}, 0,
				oracle.StressMatrix(scaled(base, cbm.KindDAD, d), b, v,
					oracle.StressConfig{Iters: stress, Seed: seed, MaxThreads: maxThreads * 2}))
		}
	}
	if stress > 0 {
		ctx.check("primitive stress", alphaList, 0,
			oracle.StressPrimitives(oracle.StressConfig{Iters: stress, Seed: seed}))
	}
	return combos
}

func scaled(base *cbm.Matrix, kind cbm.Kind, d []float32) *cbm.Matrix {
	switch kind {
	case cbm.KindAD:
		return base.WithColumnScale(d)
	case cbm.KindDAD:
		return base.WithSymmetricScale(d)
	default:
		return base
	}
}

// reproContext carries the coordinates needed to print a minimal repro
// command when a check fails.
type reproContext struct {
	gen  string
	n    int
	seed uint64
}

func (c reproContext) check(what string, alphas []int, threads int, err error) {
	if err == nil {
		return
	}
	c.fail(what, joinInts(alphas), threads, err)
}

func (c reproContext) checkKind(what string, kind cbm.Kind, alpha, threads int, err error) {
	if err == nil {
		return
	}
	c.fail(fmt.Sprintf("%s [kind=%v]", what, kind), strconv.Itoa(alpha), threads, err)
}

func (c reproContext) fail(what, alphas string, threads int, err error) {
	_, _ = fmt.Fprintf(os.Stderr, "verify: DIVERGENCE in %s\n", what)
	_, _ = fmt.Fprintf(os.Stderr, "  generator=%s n=%d seed=%d\n", c.gen, c.n, c.seed)
	_, _ = fmt.Fprintf(os.Stderr, "  %v\n", err)
	t := ""
	if threads > 0 {
		t = fmt.Sprintf(" -threads %d", threads)
	}
	_, _ = fmt.Fprintf(os.Stderr, "  repro: go run ./cmd/verify -gens %s -n %d -alphas %s%s -seed %d\n",
		c.gen, c.n, alphas, t, c.seed)
	os.Exit(1)
}

func asErr(d *oracle.Divergence) error {
	if d == nil {
		return nil
	}
	return d
}

func parseInts(csv, flagName string) []int {
	var out []int
	for _, tok := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			fatalf("bad %s value %q: %v", flagName, tok, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatalf("%s must name at least one value", flagName)
	}
	return out
}

func joinInts(vals []int) string {
	toks := make([]string, len(vals))
	for i, v := range vals {
		toks[i] = strconv.Itoa(v)
	}
	return strings.Join(toks, ",")
}

func fatalf(format string, args ...any) {
	_, _ = fmt.Fprintf(os.Stderr, "verify: "+format+"\n", args...)
	os.Exit(1)
}

// outf writes a formatted line to stdout and exits non-zero if the
// write fails: the final OK line is the sweep's verdict, so a broken
// pipe must not pass silently.
func outf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "verify: write:", err)
		os.Exit(1)
	}
}
