package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"
)

// planSweep is the plan-sweep workload: one caller in a closed loop asking
// Planner.AutoPartition for a plan, problem after problem, over a seeded,
// shuffled cross product of programs, platforms, input rates and solver
// backends. Overloaded points (rate × 4, × 16 on the weak platforms) send
// the planner into the §4.3 rate search, so one plan is several solves. No
// solve is time-limited: a deadline incumbent would not be deterministic.
type planSweep struct {
	seed int64
	tiny bool

	problems []planProblem
	// ref is the first repeat's outcomes; every later repeat, and the traced
	// run's decomposed pipeline, must reproduce them exactly.
	ref []planOutcome
}

type planProblem struct {
	app     *app
	in      []traceInput
	plat    *platformT
	backend string
	// pair identifies the problem apart from its backend, so the lagrangian
	// answer can be held against the exact optimum of the same problem.
	pair   string
	events int
}

// planOutcome is what must be identical across repeats and commits.
type planOutcome struct {
	OnNode    []int
	Rate      float64
	Objective float64
	Solves    int
}

var planBackends = []string{"exact", "lagrangian"}

func newPlanSweep(seed int64, tiny bool) workload { return &planSweep{seed: seed, tiny: tiny} }

func (w *planSweep) setup() error {
	// EEG at 1–3 channels: exact solves of the 4-channel program at 4× rate
	// take over a second each and of the 8-channel one over a minute, which
	// no run budget holds several repeats of.
	channels := []int{1, 2, 3}
	plats := []string{"TMoteSky", "NokiaN80", "MerakiMini", "Gumstix"}
	scales := []float64{1, 4, 16}
	variants := 3
	if w.tiny {
		channels, plats, scales, variants = []int{1}, []string{"TMoteSky", "Gumstix"}, []float64{1, 16}, 1
	}
	type source struct {
		app     *app
		seconds float64
	}
	sources := []source{{newSpeechApp(), 2}}
	for _, ch := range channels {
		sources = append(sources, source{newEEGApp(ch), 8})
	}
	w.problems, w.ref = nil, nil
	for v := 0; v < variants; v++ {
		for si, s := range sources {
			base := s.app.trace(w.seed*1009+int64(10*v+si), s.seconds)
			events := 0
			for _, in := range base {
				events += len(in.Events)
			}
			for _, pn := range plats {
				for _, sc := range scales {
					in := append([]traceInput(nil), base...)
					for i := range in {
						in[i].Rate *= sc
					}
					for _, b := range planBackends {
						w.problems = append(w.problems, planProblem{
							app: s.app, in: in, plat: platformByName(pn), backend: b, events: events,
							pair: fmt.Sprintf("%s/%s/x%g/t%d", s.app.name, pn, sc, v),
						})
					}
				}
			}
		}
	}
	rand.New(rand.NewSource(w.seed)).Shuffle(len(w.problems), func(i, j int) {
		w.problems[i], w.problems[j] = w.problems[j], w.problems[i]
	})
	return nil
}

func (w *planSweep) close() {}

func (w *planSweep) run(tr *tracer) (*rep, error) {
	ctx := context.Background()
	r := &rep{requests: len(w.problems), latMs: make([]float64, len(w.problems))}
	deps := make([]*deployment, len(w.problems))
	errs := make([]error, len(w.problems))
	m := startMeasure()
	for i := range w.problems {
		p := &w.problems[i]
		start := time.Now()
		if tr == nil {
			deps[i], errs[i] = planAuto(ctx, p.backend, p.app.graph, p.in, p.plat)
		} else {
			deps[i], errs[i] = planLayered(ctx, tr, fmt.Sprintf("plan-%d", i), p)
		}
		r.latMs[i] = ms(time.Since(start))
		r.arrivals += int64(p.events)
	}
	m.stop(r)

	out := make([]planOutcome, len(w.problems))
	exact := make(map[string]planOutcome)
	minRate := 1.0
	for i, p := range w.problems {
		if errs[i] != nil {
			r.fail("plan %s %s: %v", p.pair, p.backend, errs[i])
			continue
		}
		dep := deps[i]
		out[i] = planOutcome{
			OnNode: onNodeIDs(dep.Assignment.OnNode), Rate: dep.RateMultiple,
			Objective: dep.Assignment.Objective, Solves: len(dep.Solves),
		}
		if err := verifyAssignment(dep.Assignment, dep.Spec, dep.RateMultiple); err != nil {
			r.fail("plan %s %s: %v", p.pair, p.backend, err)
		}
		if p.backend == "exact" {
			exact[p.pair] = out[i]
		}
		minRate = min(minRate, dep.RateMultiple)
		countSolves(tr, p.backend, dep)
	}
	tr.count("core.rate_multiple_min", minRate)
	for i, p := range w.problems {
		if errs[i] != nil || p.backend == "exact" {
			continue
		}
		// A heuristic cannot beat the optimum: it sustains at most the
		// exact backend's rate (to the search's 0.5 % precision), and at the
		// same rate its objective is at least the optimum.
		ex, ok := exact[p.pair]
		switch {
		case !ok:
		case out[i].Rate > ex.Rate*1.01:
			r.fail("plan %s: lagrangian sustains rate %v above the exact %v", p.pair, out[i].Rate, ex.Rate)
		case out[i].Rate == ex.Rate && out[i].Objective < ex.Objective*(1-1e-9):
			r.fail("plan %s: lagrangian objective %v below the exact optimum %v", p.pair, out[i].Objective, ex.Objective)
		}
	}
	if w.ref == nil {
		w.ref = out
	}
	for i := range out {
		if !reflect.DeepEqual(out[i], w.ref[i]) {
			r.fail("plan %s %s: outcome %+v differs from the first repeat's %+v",
				w.problems[i].pair, w.problems[i].backend, out[i], w.ref[i])
		}
	}
	return r, nil
}

// planLayered is Planner.AutoPartition taken apart: the same four calls the
// Planner makes, each in its own span under the plan's span.
func planLayered(ctx context.Context, tr *tracer, op string, p *planProblem) (*deployment, error) {
	plan := tr.begin("plan", 0, op)
	defer tr.end(plan)

	id := tr.begin("profile.run", plan, op)
	rep, err := planProfile(ctx, p.app.graph, p.in)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("dataflow.classify", plan, op)
	cls, err := classify(p.app.graph)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("profile.buildspec", plan, op)
	s := buildSpec(cls, rep, p.plat)
	tr.end(id)

	id = tr.begin("core.autopartition", plan, op)
	res, err := autoPartitionWith(ctx, s, p.backend)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if res.Assignment == nil {
		return nil, fmt.Errorf("no feasible partition at any rate")
	}
	for _, st := range res.Solves {
		tr.reported("solver.solve."+p.backend, id, op, secs(st.Seconds))
	}
	return &deployment{Report: rep, Spec: s, Assignment: res.Assignment,
		RateMultiple: res.RateMultiple, Solves: res.Solves}, nil
}

// countSolves records the solver telemetry of one plan.
func countSolves(tr *tracer, backend string, dep *deployment) {
	tr.count("core.plans", 1)
	tr.count("core.solves", float64(len(dep.Solves)))
	tr.count("core.plans."+backend, 1)
	for _, st := range dep.Solves {
		tr.count("solver.iterations."+backend, float64(st.Iterations))
		tr.max("solver.gap_max", st.Gap)
	}
}

func (w *planSweep) layers(tr *tracer, traced *rep, m map[string]float64) error {
	plans := tr.counter("core.plans")
	if plans == 0 {
		return fmt.Errorf("traced sweep produced no plan")
	}
	// Per-layer times are means per plan, so they read against plan_p50_ms.
	m["profile.run_ms"] = tr.totalMs("profile.run") / plans
	m["dataflow.classify_ms"] = tr.totalMs("dataflow.classify") / plans
	m["profile.buildspec_ms"] = tr.totalMs("profile.buildspec") / plans
	m["core.autopartition_ms"] = tr.totalMs("core.autopartition") / plans
	m["core.solves_per_plan"] = tr.counter("core.solves") / plans
	m["core.rate_multiple_min"] = tr.counter("core.rate_multiple_min")
	for _, b := range planBackends {
		if n := tr.counter("core.plans." + b); n > 0 {
			m["solver.solve_ms."+b] = tr.totalMs("solver.solve."+b) / n
		}
		m["solver.iterations."+b] = tr.counter("solver.iterations." + b)
	}
	m["solver.gap_max"] = tr.counter("solver.gap_max")
	m["plans_per_s"] = float64(traced.requests) / traced.wall.Seconds()
	m["plan_p50_ms"] = percentile(traced.latMs, 50)
	m["plan_p95_ms"] = percentile(traced.latMs, 95)
	return nil
}
