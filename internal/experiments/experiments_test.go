package experiments

import (
	"sync"
	"testing"

	"wishbone/internal/platform"
)

var (
	speechOnce sync.Once
	speechEnv  *SpeechEnv
	speechErr  error
)

func getSpeech(t *testing.T) *SpeechEnv {
	t.Helper()
	speechOnce.Do(func() { speechEnv, speechErr = NewSpeechEnv() })
	if speechErr != nil {
		t.Fatal(speechErr)
	}
	return speechEnv
}

func TestFig3Trajectory(t *testing.T) {
	rows, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{8, 6, 5}
	for i, r := range rows {
		if r.Bandwidth != want[i] {
			t.Errorf("budget %v: bandwidth %v want %v", r.Budget, r.Bandwidth, want[i])
		}
	}
}

func TestFig5bShape(t *testing.T) {
	e := getSpeech(t)
	rows := Fig5b(e)
	get := func(cut, plat string) float64 {
		for _, r := range rows {
			if r.Cutpoint == cut && r.Platform == plat {
				return r.RateMultiple
			}
		}
		t.Fatalf("missing row %s/%s", cut, plat)
		return 0
	}
	// TinyOS cannot sustain the full rate at any compute cutpoint ("the
	// data rate it needs to process all data is unsustainable for TinyOS
	// devices"), while Scheme (server) sustains far beyond it.
	for _, cut := range []string{"filtbank/6", "logs/7", "cepstrals/8"} {
		if v := get(cut, "TMoteSky"); v >= 1 {
			t.Errorf("TinyOS at %s: %v ≥ 1; the mote must be under the line", cut, v)
		}
		if v := get(cut, "Scheme"); v <= 10 {
			t.Errorf("Scheme at %s: %v; the server should be far above the line", cut, v)
		}
	}
	// The N80 is roughly twice as fast as the TMote (§7.2).
	r := get("cepstrals/8", "NokiaN80") / get("cepstrals/8", "TMoteSky")
	if r < 1.2 || r > 4 {
		t.Errorf("N80/TMote rate ratio %v, want ≈2", r)
	}
	// Deeper cutpoints can only reduce the sustainable rate.
	for _, p := range []string{"TMoteSky", "NokiaN80", "iPhone", "VoxNet", "Scheme"} {
		if get("filtbank/6", p) < get("cepstrals/8", p) {
			t.Errorf("%s: deeper cut sustains more than shallower cut", p)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	e := getSpeech(t)
	rows := Fig7(e)
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.Operator] = r
	}
	// Bandwidth falls through the pipeline: raw 16 KB/s, 5.1 KB/s after
	// filtBank, ~2 KB/s after cepstrals (paper: 400→128→52 bytes/frame).
	if b := byName["source"].OutKBps; b < 14 || b > 18 {
		t.Errorf("source bandwidth %.2f KB/s, want ≈16", b)
	}
	if b := byName["filtBank"].OutKBps; b < 4 || b > 6.5 {
		t.Errorf("filtBank bandwidth %.2f KB/s, want ≈5.1", b)
	}
	if b := byName["cepstrals"].OutKBps; b < 1.5 || b > 2.6 {
		t.Errorf("cepstrals bandwidth %.2f KB/s, want ≈2.1", b)
	}
	// cepstrals dominates CPU.
	if byName["cepstrals"].MarginalMicros <= byName["FFT"].MarginalMicros {
		t.Error("cepstrals should be the most expensive operator on the mote")
	}
}

func TestFig8RelativeCostsDiffer(t *testing.T) {
	e := getSpeech(t)
	rows := Fig8(e)
	last := rows[len(rows)-1]
	// Through the pipeline the cumulative fractions should end at 1.
	for _, p := range []string{"TMoteSky", "NokiaN80", "Server"} {
		if v := last.CumFraction[p]; v < 0.999 || v > 1.001 {
			t.Errorf("%s cumulative ends at %v, want 1", p, v)
		}
	}
	// The mote spends a far larger *fraction* before cepstrals completes
	// than the PC does on the same prefix? The paper's point: the curves
	// differ substantially. Compare the fraction consumed through FFT.
	var fftIdx int
	for i, r := range rows {
		if r.Operator == "FFT" {
			fftIdx = i
		}
	}
	mote := rows[fftIdx].CumFraction["TMoteSky"]
	pc := rows[fftIdx].CumFraction["Server"]
	diff := mote - pc
	if diff < 0 {
		diff = -diff
	}
	if diff < 0.05 {
		t.Errorf("cumulative-through-FFT within %v between Mote (%v) and PC (%v); curves should differ",
			diff, mote, pc)
	}
}

func TestFig9Shape(t *testing.T) {
	e := getSpeech(t)
	rows, err := Fig9(e, 60)
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	// Early cut: network swamped (msgs ≈ 0%), input fully sampled.
	if first.MsgsPct > 5 {
		t.Errorf("cut 1 msgs %.1f%%, want ≈0 (raw data swamps the radio)", first.MsgsPct)
	}
	if first.InputPct < 95 {
		t.Errorf("cut 1 input %.1f%%, want ≈100 (no node compute)", first.InputPct)
	}
	// Late cut: CPU-bound, network fine.
	if last.InputPct > 20 {
		t.Errorf("cut 6 input %.1f%%, want small (CPU saturated)", last.InputPct)
	}
	if last.MsgsPct < 80 {
		t.Errorf("cut 6 msgs %.1f%%, want high (tiny feature stream)", last.MsgsPct)
	}
	// An intermediate cut beats both extremes by a wide margin (§1: "20×
	// better by picking the right intermediate partition").
	best, bestIdx := 0.0, 0
	for i, r := range rows {
		if r.GoodputPct > best {
			best, bestIdx = r.GoodputPct, i
		}
	}
	if bestIdx == 0 || bestIdx == len(rows)-1 {
		t.Errorf("peak goodput at extreme cut %d; expected an intermediate cut", bestIdx+1)
	}
	worst := first.GoodputPct
	if last.GoodputPct < worst {
		worst = last.GoodputPct
	}
	if worst > 0 && best/worst < 3 {
		t.Errorf("best/worst goodput ratio %.1f; expected a large advantage", best/worst)
	}
	if rows[3].Label != "filtBank" {
		t.Fatalf("cut 4 should be filtBank, got %s", rows[3].Label)
	}
	if best != rows[3].GoodputPct {
		t.Errorf("single-mote peak at %s (%.2f%%), paper peaks at filtBank (%.2f%%)",
			rows[bestIdx].Label, best, rows[3].GoodputPct)
	}
}

func TestFig10Shape(t *testing.T) {
	e := getSpeech(t)
	rows, err := Fig10(e, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Single-node peak at cut 4 (filtbank); 20-node peak at cut 6
	// (cepstral), where the problem is compute-bound and aggregate CPU
	// wins (§7.3.1).
	argmax := func(rs []Fig9Row) int {
		best := 0
		for i, r := range rs {
			if r.GoodputPct > rs[best].GoodputPct {
				best = i
			}
		}
		return rs[best].Cutpoint
	}
	if got := argmax(rows.Single); got != 4 {
		t.Errorf("single-mote peak at cut %d, want 4 (filterbank)", got)
	}
	if got := argmax(rows.Network); got != 6 {
		t.Errorf("20-mote peak at cut %d, want 6 (cepstral)", got)
	}
}

func TestTextMerakiRawCut(t *testing.T) {
	e := getSpeech(t)
	res, err := TextMeraki(e)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RawIsBest {
		t.Errorf("Meraki optimal partition keeps %d ops on node; paper: raw data (1)", res.OnNodeOps)
	}
}

func TestTextRateSearch(t *testing.T) {
	e := getSpeech(t)
	res, err := TextRateSearch(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.RateMultiple <= 0 {
		t.Fatal("no sustainable rate found")
	}
	// Paper: 3 input events/s sustained, cut right after the filter bank.
	if res.EventsPerSec < 1 || res.EventsPerSec > 8 {
		t.Errorf("max rate %.2f events/s, paper ≈3", res.EventsPerSec)
	}
	if res.CutAfter != "filtBank" && res.CutAfter != "logs" && res.CutAfter != "cepstrals" {
		t.Errorf("optimal cut after %q; paper cuts after the filter bank", res.CutAfter)
	}
}

func TestTextGumstix(t *testing.T) {
	e := getSpeech(t)
	res, err := TextGumstix(e, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredCPU <= res.PredictedCPU {
		t.Errorf("measured %.3f ≤ predicted %.3f; OS overhead should add cost",
			res.MeasuredCPU, res.PredictedCPU)
	}
	ratio := res.MeasuredCPU / res.PredictedCPU
	if ratio < 1.1 || ratio > 1.8 {
		t.Errorf("measured/predicted ratio %.2f, paper ≈1.3 (15%%/11.5%%)", ratio)
	}
}

func TestFig5aMonotone(t *testing.T) {
	env, err := NewEEGEnv(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.25, 0.5, 1, 2, 4, 8, 16}
	rows, err := Fig5a(env, rates, []*platform.Platform{platform.TMoteSky(), platform.NokiaN80()})
	if err != nil {
		t.Fatal(err)
	}
	byPlat := map[string][]int{}
	for _, r := range rows {
		byPlat[r.Platform] = append(byPlat[r.Platform], r.OpsOnNode)
	}
	for plat, counts := range byPlat {
		for i := 1; i < len(counts); i++ {
			if counts[i] > counts[i-1] {
				t.Errorf("%s: ops on node grew with rate: %v", plat, counts)
				break
			}
		}
		if counts[0] == 0 {
			t.Errorf("%s: nothing fits even at 0.25×; sweep should start with a full node partition", plat)
		}
		if counts[len(counts)-1] >= counts[0] {
			t.Errorf("%s: no degradation across the sweep: %v", plat, counts)
		}
	}
}

func TestFig6DiscoverBeforeProve(t *testing.T) {
	env, err := NewEEGEnv(4, 8) // smaller graph keeps the test quick
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultFig6Options()
	pts, err := Fig6(env, 8, 0.2, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	feasible := 0
	for _, p := range pts {
		if !p.Feasible {
			continue
		}
		feasible++
		if p.DiscoverSec > p.ProveSec+1e-9 {
			t.Errorf("rate %.2f: discover %.4fs after prove %.4fs", p.RateMultiple, p.DiscoverSec, p.ProveSec)
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible points in the sweep")
	}
}

func TestILPScaleSolvesQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("full 22-channel EEG profile in -short mode")
	}
	env, err := NewEEGEnv(22, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ILPScale(env, DefaultFig6Options())
	if err != nil {
		t.Fatal(err)
	}
	if res.Operators < 1000 {
		t.Fatalf("EEG app has %d operators; the scale experiment needs >1000", res.Operators)
	}
	if !res.FeasiblySolved {
		t.Fatal("full EEG partitioning infeasible at base rate")
	}
	// With the §7.1 gap termination (3%/30s) the solve stays seconds-scale;
	// exact proofs on this symmetric problem take minutes, as they did for
	// lp_solve in the paper's Figure 6.
	if res.SolveSeconds > 35 {
		t.Errorf("solve took %.1fs; expected the gap termination to bound it near 30s", res.SolveSeconds)
	}
	t.Logf("ILP scale: %d ops → %d clusters, %d vars, %d cons, %.2fs, %d B&B nodes",
		res.Operators, res.ClustersAfter, res.Variables, res.Constraints,
		res.SolveSeconds, res.SolverBBNodes)
}

func TestDistScalingIdentical(t *testing.T) {
	rows, err := DistScaling(getSpeech(t), 8, 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want one per host count", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%d host(s): Result diverges from the single-host run", r.Hosts)
		}
	}
	if rows[0].Speedup != 1 {
		t.Errorf("first row's speedup %v, want 1 (it is the baseline)", rows[0].Speedup)
	}
}
