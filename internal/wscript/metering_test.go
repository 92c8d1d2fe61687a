package wscript

import (
	"errors"
	"strings"
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/wvm"
)

// runMetered compiles src on the VM engine with the given limits, runs n
// events, and returns the recovered abort error (nil if the run finished).
func runMetered(t *testing.T, src string, lim wvm.Limits, m *wvm.Meter, n int, gen func(string, int) any) (err error) {
	t.Helper()
	c, cerr := CompileOpts(src, Options{Limits: lim, Meter: m})
	if cerr != nil {
		t.Fatalf("compile: %v", cerr)
	}
	inputs, cerr := c.Inputs(n, gen)
	if cerr != nil {
		t.Fatal(cerr)
	}
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok {
				t.Fatalf("non-error panic: %v", r)
			}
			err = e
		}
	}()
	if _, rerr := profile.Run(c.Graph, inputs); rerr != nil {
		t.Fatal(rerr)
	}
	return nil
}

// TestMeteringFuelExhaustionMidStream gives each element a cost that grows
// with its value: early elements fit the budget, a later one trips. The
// abort must be the typed ErrFuelExhausted, carry the wscript line, and be
// recorded on the tenant meter; cheaper prior elements must have executed.
func TestMeteringFuelExhaustionMidStream(t *testing.T) {
	src := `
namespace Node {
  s = source("x", 4);
  heavy = iterate v in s state { seen = 0; } {
    seen = seen + 1;
    acc = 0;
    for i = 0 to v * 10 { acc = acc + i; }
    emit acc;
  };
}
main = heavy;
`
	m := &wvm.Meter{}
	err := runMetered(t, src, wvm.Limits{Fuel: 200}, m, 6,
		func(_ string, i int) any { return int64(i) })
	if err == nil {
		t.Fatal("expected fuel exhaustion")
	}
	if !errors.Is(err, wvm.ErrFuelExhausted) {
		t.Fatalf("err=%v, want ErrFuelExhausted in chain", err)
	}
	if !strings.Contains(err.Error(), "wscript:") || !strings.Contains(err.Error(), "budget 200") {
		t.Fatalf("err=%q, want wscript line and budget in message", err)
	}
	if m.FuelTrips() != 1 {
		t.Fatalf("meter trips=%d, want 1", m.FuelTrips())
	}
	if m.Calls() < 2 {
		t.Fatalf("meter calls=%d: cheap early elements should have completed", m.Calls())
	}
	if m.Fuel() == 0 {
		t.Fatal("meter recorded no fuel despite completed elements")
	}
}

// TestMeteringMemCapOnAllocation bounds VM allocations: a per-element
// Array.make larger than the cap must trip ErrMemLimit.
func TestMeteringMemCapOnAllocation(t *testing.T) {
	src := `
namespace Node {
  s = source("x", 4);
  big = iterate v in s { a = Array.make(10000, 0); emit a[0]; };
}
main = big;
`
	m := &wvm.Meter{}
	err := runMetered(t, src, wvm.Limits{MemBytes: 4096}, m, 2,
		func(_ string, i int) any { return int64(i) })
	if err == nil || !errors.Is(err, wvm.ErrMemLimit) {
		t.Fatalf("err=%v, want ErrMemLimit", err)
	}
	if !strings.Contains(err.Error(), "cap 4096") {
		t.Fatalf("err=%q, want cap in message", err)
	}
	if m.MemTrips() != 1 {
		t.Fatalf("meter mem trips=%d, want 1", m.MemTrips())
	}
}

// TestMeteringMemCapOnZipBuffering starves one zip input so the other
// port's queue grows until the retained-bytes cap trips. The cap must
// bound the buffer, not any single element.
func TestMeteringMemCapOnZipBuffering(t *testing.T) {
	src := `
namespace Node {
  fast = source("fast", 8);
  slow = source("slow", 8);
  pairs = iterate p in zip(fast, slow) { emit p[0] + p[1]; };
}
main = pairs;
`
	run := func(cap int64, m *wvm.Meter) (err error) {
		t.Helper()
		c, cerr := CompileOpts(src, Options{Limits: wvm.Limits{MemBytes: cap}, Meter: m})
		if cerr != nil {
			t.Fatal(cerr)
		}
		inputs, cerr := c.Inputs(64, func(_ string, i int) any { return int64(i) })
		if cerr != nil {
			t.Fatal(cerr)
		}
		// Starve "slow": only its first event ever arrives, so every
		// later "fast" event buffers in the zip state.
		for i := range inputs {
			if inputs[i].Source == c.Sources["slow"].Op {
				inputs[i].Events = inputs[i].Events[:1]
			}
		}
		defer func() {
			if r := recover(); r != nil {
				err = r.(error)
			}
		}()
		if _, rerr := profile.Run(c.Graph, inputs); rerr != nil {
			t.Fatal(rerr)
		}
		return nil
	}
	m := &wvm.Meter{}
	err := run(256, m)
	if err == nil || !errors.Is(err, wvm.ErrMemLimit) {
		t.Fatalf("err=%v, want ErrMemLimit from zip buffering", err)
	}
	if m.MemTrips() != 1 {
		t.Fatalf("meter mem trips=%d, want 1", m.MemTrips())
	}
	// A generous cap admits the same starved run untouched.
	if err := run(1<<20, &wvm.Meter{}); err != nil {
		t.Fatalf("generous cap should not trip: %v", err)
	}
}

// TestMeteringZeroLimitsUnlimited pins the zero value of Limits as
// "unmetered": a loop far past any plausible small budget completes.
func TestMeteringZeroLimitsUnlimited(t *testing.T) {
	src := `
namespace Node {
  s = source("x", 4);
  spin = iterate v in s {
    acc = 0;
    for i = 0 to 20000 { acc = acc + i; }
    a = Array.make(5000, 0.0);
    emit acc;
  };
}
main = spin;
`
	for _, lim := range []wvm.Limits{{}, {Fuel: 0, MemBytes: 0}} {
		m := &wvm.Meter{}
		if err := runMetered(t, src, lim, m, 3, func(string, int) any { return int64(1) }); err != nil {
			t.Fatalf("limits %+v should be unlimited, got %v", lim, err)
		}
		if m.Fuel() == 0 || m.FuelTrips() != 0 || m.MemTrips() != 0 {
			t.Fatalf("limits %+v: meter fuel=%d trips=%d/%d", lim, m.Fuel(), m.FuelTrips(), m.MemTrips())
		}
	}
}

// TestMeteringFuelAcrossStrategies runs one wscript deployment through the
// runtime's execution strategies — sequential, sharded+parallel, unbatched,
// streaming on one worker and on four — and requires the consumed-fuel
// and metered-call counters to be identical everywhere. Fuel is an
// accounting surface tenants are billed on; it must not depend on how the
// simulator schedules the work. Rate 4 / window 16 / duration 64 keeps
// streaming ingestion event-identical to the batch path (see
// TestStreamingMatchesBatchUniform).
func TestMeteringFuelAcrossStrategies(t *testing.T) {
	const src = `
namespace Node {
  s = source("x", 4);
  feat = iterate v in s state { total = 0.0; n = 0; } {
    n = n + 1;
    total = total + v * v;
    if n % 4 == 0 { emit total / intToFloat(n); }
  };
}
main = feat;
`
	const duration = 64.0
	run := func(mutate func(*runtime.Config)) *wvm.Meter {
		t.Helper()
		m := &wvm.Meter{}
		c, err := CompileOpts(src, Options{Meter: m})
		if err != nil {
			t.Fatal(err)
		}
		onNode := make(map[int]bool)
		for _, op := range c.Graph.Operators() {
			onNode[op.ID()] = op.ID() != c.Sink.ID()
		}
		// Per-node distinct traces keep the identical-trace replay
		// optimization out of play: every replica must execute (and
		// meter) its own elements.
		nodeInputs := func(nodeID int) []profile.Input {
			inputs, err := c.Inputs(16, func(_ string, i int) any {
				return float64(nodeID*31+i) * 0.5
			})
			if err != nil {
				panic(err)
			}
			return inputs
		}
		cfg := runtime.Config{
			Graph:    c.Graph,
			OnNode:   onNode,
			Platform: platform.TMoteSky(),
			Nodes:    3,
			Duration: duration,
			Seed:     9,
			Inputs:   nodeInputs,
		}
		mutate(&cfg)
		if cfg.ArrivalSource != nil {
			cfg.Inputs = nil
		}
		if _, err := runtime.Run(cfg); err != nil {
			t.Fatal(err)
		}
		return m
	}
	streaming := func(cfg *runtime.Config) {
		inputsOf := cfg.Inputs
		cfg.WindowSeconds = 16
		cfg.ArrivalSource = func(nodeID int) (runtime.Stream, error) {
			return runtime.InputStream(inputsOf(nodeID), 1, duration)
		}
	}
	strategies := []struct {
		name   string
		mutate func(*runtime.Config)
	}{
		{"sequential", func(cfg *runtime.Config) { cfg.Workers = 1 }},
		{"sharded", func(cfg *runtime.Config) { cfg.Workers = 4; cfg.Shards = 4 }},
		{"unbatched", func(cfg *runtime.Config) {
			// Programs without batch tables select the per-element loops.
			cfg.Workers, cfg.Shards = 4, 4
			side := func(nodeSide bool) *dataflow.Program {
				p, err := dataflow.Compile(cfg.Graph, dataflow.CompileOptions{
					Include: func(op *dataflow.Operator) bool { return cfg.OnNode[op.ID()] == nodeSide },
				})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			cfg.NodeProgram, cfg.ServerProgram = side(true), side(false)
		}},
		{"stream-workers=1", func(cfg *runtime.Config) { streaming(cfg); cfg.Shards = 3; cfg.Workers = 1 }},
		{"stream-workers=4", func(cfg *runtime.Config) { streaming(cfg); cfg.Shards = 3; cfg.Workers = 4 }},
	}
	var refFuel, refCalls uint64
	for i, s := range strategies {
		m := run(s.mutate)
		if i == 0 {
			refFuel, refCalls = m.Fuel(), m.Calls()
			if refFuel == 0 || refCalls == 0 {
				t.Fatalf("degenerate sequential run: fuel=%d calls=%d", refFuel, refCalls)
			}
			continue
		}
		if m.Fuel() != refFuel || m.Calls() != refCalls {
			t.Fatalf("%s: fuel=%d calls=%d, want fuel=%d calls=%d (sequential)",
				s.name, m.Fuel(), m.Calls(), refFuel, refCalls)
		}
	}
}

// TestMeteringStateFuelPersistsSnapshot checks the cumulative FuelUsed
// counter rides along in the operator state snapshot.
func TestMeteringStateFuelPersistsSnapshot(t *testing.T) {
	st := &wvm.State{Slots: []wvm.Value{int64(7)}, FuelUsed: 1234}
	blob, err := st.Save()
	if err != nil {
		t.Fatal(err)
	}
	got, err := wvm.LoadState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.FuelUsed != 1234 || len(got.Slots) != 1 || got.Slots[0] != int64(7) {
		t.Fatalf("round-trip: %+v", got)
	}
}
