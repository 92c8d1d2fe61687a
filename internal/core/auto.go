package core

import (
	"context"
	"math"
)

// AutoResult is the outcome of AutoPartitionWith.
type AutoResult struct {
	// Assignment is the chosen partition, nil when no rate in (0, hi] is
	// feasible. Its CPULoad and NetLoad are at RateMultiple, the rate it
	// was solved at (spec.Scaled(RateMultiple)).
	Assignment *Assignment

	// RateMultiple is the input-rate scale the assignment is valid at:
	// hi when the program fits at the full probed rate, less when the
	// §4.3 binary search had to shed load, 0 when nothing is feasible.
	RateMultiple float64

	// Probes counts solver invocations (1 when full rate fits).
	Probes int

	// Solves records per-probe backend telemetry in probe order.
	Solves []BackendStats
}

// AutoPartitionWith is the paper's full decision procedure as one
// re-entrant call: solve spec at rate scale hi with sv (exact,
// lagrangian or greedy); if infeasible, binary-search the maximum
// sustainable rate (§4.3) with relative precision tol and return the
// partition there. It is a pure function of its arguments — no global or
// package state — so any number of goroutines may run it concurrently
// over shared Specs, which is how the partition service serves tenants.
//
// hi ≤ 0 defaults to 1 (the profiled full rate); tol ≤ 0 defaults to
// 0.005. A nil error with a nil Assignment means no probed rate was
// feasible. The Limits argument is unused (see Limits).
//
// The search relies on monotonicity: CPU and network load scale linearly
// with input rate, so if scale X is feasible every Y < X is too. With a
// heuristic backend "feasible" means "this backend found a cut", so the
// returned rate is a lower bound on the true maximum. The monotone
// assumption breaks above the radio's congestion-collapse point, where
// offered load no longer translates into received data; the caller should
// cap hi at the network profiler's maximum send rate (§7.3.1), as the
// paper's deployment procedure does.
func AutoPartitionWith(ctx context.Context, spec *Spec, hi, tol float64, _ Limits, sv Solver) (*AutoResult, error) {
	if hi <= 0 {
		hi = 1
	}
	if tol <= 0 {
		tol = 0.005
	}
	asg, st, err := sv.Solve(ctx, spec.Scaled(hi))
	res := &AutoResult{Probes: 1, Solves: []BackendStats{st}}
	if err == nil {
		res.Assignment, res.RateMultiple = asg, hi
		return res, nil
	}
	if !IsInfeasible(err) {
		return nil, err
	}
	if err := maxRateBelow(ctx, spec, hi, tol, sv, res); err != nil {
		return nil, err
	}
	return res, nil
}

// maxRateBelow runs the §4.3 binary search below hi, which the full-rate
// probe has shown infeasible, accumulating probes into res.
func maxRateBelow(ctx context.Context, spec *Spec, hi, tol float64, sv Solver, res *AutoResult) error {
	lo := 0.0 // highest known-feasible scale (0 = unknown/none)
	cur := hi
	for cur-lo > tol*math.Max(lo, tol) {
		if err := ctx.Err(); err != nil {
			return err
		}
		mid := (lo + cur) / 2
		if mid <= 0 {
			break
		}
		asg, st, err := sv.Solve(ctx, spec.Scaled(mid))
		res.Probes++
		res.Solves = append(res.Solves, st)
		if err == nil {
			lo = mid
			res.Assignment = asg
		} else if !IsInfeasible(err) {
			return err
		} else {
			cur = mid
		}
	}
	res.RateMultiple = lo
	return nil
}
