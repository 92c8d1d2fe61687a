package speech

import (
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

func profiled(t *testing.T) (*App, *profile.Report) {
	t.Helper()
	app := New()
	rep, err := profile.Run(app.Graph, []profile.Input{app.SampleTrace(1, 2.0)})
	if err != nil {
		t.Fatal(err)
	}
	return app, rep
}

func TestGraphShape(t *testing.T) {
	app := New()
	if err := app.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := app.Graph.NumOperators(); n != 9 {
		t.Fatalf("operators=%d want 9", n)
	}
	if first, last := app.Pipeline[0].Name, app.Pipeline[len(app.Pipeline)-1].Name; first != "source" || last != "sink" {
		t.Fatalf("pipeline order wrong: %s … %s", first, last)
	}
	if _, err := dataflow.Classify(app.Graph, dataflow.Permissive); err != nil {
		t.Fatal(err)
	}
}

func TestElementSizesMatchPaper(t *testing.T) {
	app, rep := profiled(t)
	// Bytes per frame on each pipeline edge: 400 raw, 512 after FFT,
	// 128 after filtBank, 64 after logs, 52 after cepstrals.
	want := []int64{400, 400, 400, 400, 512, 128, 64, 52}
	edges := app.Graph.Edges()
	if len(edges) != len(want) {
		t.Fatalf("edges=%d want %d", len(edges), len(want))
	}
	for i, e := range edges {
		elems := rep.EdgeElems[e]
		if elems == 0 {
			t.Fatalf("edge %s carried no elements", e)
		}
		perFrame := rep.EdgeBytes[e] / elems
		if perFrame != want[i] {
			t.Errorf("edge %s: %d bytes/frame, want %d", e, perFrame, want[i])
		}
	}
}

func TestTMoteProfileShape(t *testing.T) {
	app, rep := profiled(t)
	tm := platform.TMoteSky()
	micros := make(map[string]float64)
	var total float64
	for _, op := range app.Pipeline {
		us := rep.OpSeconds(tm, op.ID()) * 1e6
		micros[op.Name] = us
		total += us
	}
	// Figure 7's shape: cepstrals is the most expensive operator, the FFT
	// second; the whole pipeline takes on the order of seconds per frame
	// on a 4 MHz mote (paper: ~2 s) and a quarter second through the
	// filter bank (paper: ~250 ms).
	if micros["cepstrals"] < micros["FFT"] {
		t.Errorf("cepstrals (%v µs) should dominate FFT (%v µs) on the mote",
			micros["cepstrals"], micros["FFT"])
	}
	if total < 0.3e6 || total > 10e6 {
		t.Errorf("whole pipeline %v µs/frame; expected order of seconds", total)
	}
	upToFB := micros["source"] + micros["preemph"] + micros["hamming"] +
		micros["prefilt"] + micros["FFT"] + micros["filtBank"]
	if upToFB < 0.05e6 || upToFB > 1.5e6 {
		t.Errorf("through filtBank %v µs/frame; expected a few hundred ms", upToFB)
	}
	t.Logf("TMote per-frame µs: %v (total %.0f)", micros, total)
}

func TestPlatformSpeedOrdering(t *testing.T) {
	app, rep := profiled(t)
	perFrame := func(p *platform.Platform) float64 {
		var s float64
		for _, op := range app.Pipeline {
			s += rep.OpSeconds(p, op.ID())
		}
		return s
	}
	tm := perFrame(platform.TMoteSky())
	n80 := perFrame(platform.NokiaN80())
	iph := perFrame(platform.IPhone())
	gum := perFrame(platform.Gumstix())
	mer := perFrame(platform.MerakiMini())

	// §7.2: N80 ≈ 2× faster than TMote; iPhone ≈ 3× slower than Gumstix;
	// Meraki ≈ 15× TMote CPU.
	if r := tm / n80; r < 1.2 || r > 4 {
		t.Errorf("TMote/N80 speed ratio %.2f, want ≈2", r)
	}
	if r := iph / gum; r < 2 || r > 4.5 {
		t.Errorf("iPhone/Gumstix time ratio %.2f, want ≈3", r)
	}
	if r := tm / mer; r < 8 || r > 30 {
		t.Errorf("TMote/Meraki speed ratio %.2f, want ≈15", r)
	}
	t.Logf("per-frame seconds: tmote=%.3f n80=%.3f iphone=%.4f gumstix=%.5f meraki=%.3f",
		tm, n80, iph, gum, mer)
}

func TestGumstixPredictedCPUNearPaper(t *testing.T) {
	app, rep := profiled(t)
	gum := platform.Gumstix()
	var perFrame float64
	for _, op := range app.Pipeline {
		perFrame += rep.OpSeconds(gum, op.ID())
	}
	cpu := perFrame * FrameRate // fraction of CPU at 40 frames/s
	// Paper: profiling predicted 11.5% on the Gumstix. Accept the right
	// order of magnitude.
	if cpu < 0.01 || cpu > 0.5 {
		t.Errorf("Gumstix predicted CPU %.1f%%, want ≈11.5%%", cpu*100)
	}
	t.Logf("Gumstix predicted CPU: %.1f%% (paper: 11.5%%)", cpu*100)
}

func TestDeterministicProfile(t *testing.T) {
	app1 := New()
	rep1, err := profile.Run(app1.Graph, []profile.Input{app1.SampleTrace(7, 1.0)})
	if err != nil {
		t.Fatal(err)
	}
	app2 := New()
	rep2, err := profile.Run(app2.Graph, []profile.Input{app2.SampleTrace(7, 1.0)})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range app1.Pipeline {
		c1 := rep1.OpTotal[op.ID()].Total()
		c2 := rep2.OpTotal[app2.Pipeline[i].ID()].Total()
		if c1 != c2 {
			t.Fatalf("op %s: %d vs %d ops across identical runs", op.Name, c1, c2)
		}
	}
}
