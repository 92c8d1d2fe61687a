// Command quickstart shows the minimal Wishbone workflow: build a small
// dataflow program, profile it on sample data, and let the partitioner
// decide what runs on the embedded node versus the server.
//
// The program is a temperature-spike detector: a node samples a sensor at
// 100 Hz, smooths the stream, extracts per-window statistics, and the
// server logs alerts. The statistics operator reduces each 200-byte window
// to 8 bytes, so with the default objective (minimize radio bandwidth
// subject to CPU fitting) the partitioner keeps the whole reducing chain
// on the node on every platform that can afford the cycles.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"wishbone"
	"wishbone/internal/cost"
)

const (
	sampleRate   = 100.0 // Hz
	windowLen    = 50    // samples per window
	windowRate   = sampleRate / windowLen
	traceSeconds = 30
)

type smoothState struct{ ema float64 }

func buildProgram() (*wishbone.Graph, *wishbone.Operator) {
	g := wishbone.NewGraph()

	// namespace Node { ... } — these operators are replicated per node.
	src := g.Add(&wishbone.Operator{
		Name: "thermistor", NS: wishbone.NSNode, SideEffect: true,
	})
	smooth := g.Add(&wishbone.Operator{
		Name: "smooth", NS: wishbone.NSNode, Stateful: true,
		NewState: func() any { return &smoothState{} },
		Work: func(ctx *wishbone.Ctx, _ int, v wishbone.Value, emit wishbone.Emit) {
			st := ctx.State.(*smoothState)
			in := v.([]float32)
			out := make([]float32, len(in))
			for i, x := range in {
				st.ema = 0.9*st.ema + 0.1*float64(x)
				out[i] = float32(st.ema)
				ctx.Counter.Add(cost.FloatMul, 2)
				ctx.Counter.Add(cost.FloatAdd, 1)
			}
			emit(out)
		},
	})
	stats := g.Add(&wishbone.Operator{
		Name: "stats", NS: wishbone.NSNode,
		Work: func(ctx *wishbone.Ctx, _ int, v wishbone.Value, emit wishbone.Emit) {
			in := v.([]float32)
			var sum, sq float64
			for _, x := range in {
				sum += float64(x)
				sq += float64(x) * float64(x)
			}
			ctx.Counter.Add(cost.FloatAdd, 2*len(in))
			ctx.Counter.Add(cost.FloatMul, len(in))
			mean := sum / float64(len(in))
			std := math.Sqrt(sq/float64(len(in)) - mean*mean)
			ctx.Counter.Add(cost.FloatDiv, 2)
			ctx.Counter.Add(cost.Sqrt, 1)
			emit([]float32{float32(mean), float32(std)}) // 8 bytes/window
		},
	})
	alert := g.Add(&wishbone.Operator{
		Name: "alert-log", NS: wishbone.NSServer, SideEffect: true,
		Work: func(ctx *wishbone.Ctx, _ int, v wishbone.Value, emit wishbone.Emit) {
			// Server-side: log windows whose variance spikes.
		},
	})
	g.Chain(src, smooth, stats, alert)
	return g, src
}

func sampleTrace(src *wishbone.Operator) []wishbone.Input {
	rng := rand.New(rand.NewSource(1))
	nWindows := int(traceSeconds * windowRate)
	events := make([]wishbone.Value, nWindows)
	base := 22.0
	for w := range events {
		win := make([]float32, windowLen)
		for i := range win {
			base += 0.01 * rng.NormFloat64()
			win[i] = float32(base + 0.1*rng.NormFloat64())
		}
		events[w] = win
	}
	return []wishbone.Input{{Source: src, Events: events, Rate: windowRate}}
}

func main() {
	g, src := buildProgram()
	inputs := sampleTrace(src)

	// The Planner is the configured front door: solver backend, relocation
	// mode, and rate search are fixed once; the defaults reproduce the
	// paper (exact ILP, permissive relocation). Try
	// wishbone.WithSolver("lagrangian") for the §9-style relaxation.
	planner := wishbone.NewPlanner(wishbone.WithMode(wishbone.Permissive))
	ctx := context.Background()

	for _, plat := range []*wishbone.Platform{wishbone.TMoteSky(), wishbone.MerakiMini()} {
		dep, err := planner.AutoPartition(ctx, g, inputs, plat)
		if err != nil {
			log.Fatalf("%s: %v", plat.Name, err)
		}
		fmt.Printf("=== %s ===\n", plat.Name)
		fmt.Printf("  fits at full rate: %v (rate multiple %.2f)\n",
			dep.FitsAtFullRate(), dep.RateMultiple)
		fmt.Printf("  node CPU %.1f%%, cut bandwidth %.1f B/s\n",
			100*dep.Assignment.CPULoad, dep.Assignment.NetLoad)
		for _, op := range g.Operators() {
			side := "server"
			if dep.Assignment.OnNode[op.ID()] {
				side = "node"
			}
			fmt.Printf("  %-12s → %s\n", op.Name, side)
		}
	}
}
