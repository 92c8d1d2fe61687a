// Ablation benchmarks for the partitioner's design choices (EXPERIMENTS.md
// "Ablations"). The paper's figures are regenerated by cmd/wbbench and the
// systems numbers by ./bench; these three are the only benchmarks with no
// twin in either.
package wishbone

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wishbone/internal/core"
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/dsp"
	"wishbone/internal/experiments"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

// burstySpec builds a partitioning problem with a data-dependent operator:
// an event detector that runs a heavy analysis on ~10% of its input frames.
// Its peak load is ~10× its mean, so MeanLoad and PeakLoad choose different
// partitions.
func burstySpec() (*core.Spec, error) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	detect := g.Add(&dataflow.Operator{
		Name: "detect", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			frame := v.([]int16)
			var energy float64
			for _, s := range frame {
				energy += float64(s) * float64(s)
			}
			ctx.Counter.Add(cost.FloatMul, len(frame))
			ctx.Counter.Add(cost.FloatAdd, len(frame))
			if energy > 1000 {
				// Loud frame: full spectral analysis.
				n := dsp.NextPow2(len(frame))
				dsp.PowerSpectrum(ctx.Counter, frame, make([]dsp.Complex, n), make([]float32, n/2))
				emit([]float32{float32(energy)})
			}
		},
	})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Chain(src, detect, sink)

	events := make([]dataflow.Value, 100)
	for i := range events {
		frame := make([]int16, 128)
		if i%10 == 0 { // every tenth frame is loud
			for k := range frame {
				frame[k] = 50
			}
		}
		events[i] = frame
	}
	rep, err := profile.Run(g, []profile.Input{{Source: src, Events: events, Rate: 20}})
	if err != nil {
		return nil, err
	}
	cls, err := dataflow.Classify(g, dataflow.Permissive)
	if err != nil {
		return nil, err
	}
	spec := profile.BuildSpec(cls, rep, platform.TMoteSky())
	// Budget between the detector's mean and peak CPU demand, so the
	// conservative peak-load model must shed it to the server.
	costs := spec.CPU[detect.ID()]
	spec.CPUBudget = (costs.Mean + costs.Peak) / 2
	spec.NetBudget = 0
	return spec, nil
}

// BenchmarkAblationPreprocessing compares partitioning with and without
// the §4.1 search-space reduction on a 4-channel EEG app.
func BenchmarkAblationPreprocessing(b *testing.B) {
	env, err := experiments.NewEEGEnv(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	spec := env.Spec(platform.TMoteSky())
	for _, pre := range []bool{true, false} {
		b.Run(fmt.Sprintf("preprocess=%v", pre), func(b *testing.B) {
			opts := core.Options{Formulation: core.Restricted, Preprocess: pre, GapTol: 0.01}
			var clusters int
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				asg, err := core.Partition(ctx, spec, opts)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				clusters = asg.Stats.ClustersAfter
			}
			b.ReportMetric(float64(clusters), "clusters")
		})
	}
}

// BenchmarkAblationFormulation compares the restricted (|V| variables)
// against the general (|V|+2|E|) ILP encoding on the speech app.
func BenchmarkAblationFormulation(b *testing.B) {
	env, err := experiments.NewSpeechEnv()
	if err != nil {
		b.Fatal(err)
	}
	spec := env.Spec(platform.TMoteSky())
	spec.NetBudget = 0
	for _, f := range []core.Formulation{core.Restricted, core.General} {
		b.Run(f.String(), func(b *testing.B) {
			opts := core.Options{Formulation: f, Preprocess: true}
			for i := 0; i < b.N; i++ {
				if _, err := core.Partition(context.Background(), spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMeanVsPeak compares partitioning on mean versus peak
// profiled load (§4.2.1's bursty-rate discussion) using a bursty workload:
// an event detector that runs an expensive analysis only on loud frames, so
// its peak invocation cost far exceeds its mean.
func BenchmarkAblationMeanVsPeak(b *testing.B) {
	spec, err := burstySpec()
	if err != nil {
		b.Fatal(err)
	}
	for _, load := range []core.LoadKind{core.MeanLoad, core.PeakLoad} {
		b.Run(load.String(), func(b *testing.B) {
			s := *spec
			s.Load = load
			var cpu float64
			var onNode float64
			for i := 0; i < b.N; i++ {
				asg, err := core.Partition(context.Background(), &s, core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				cpu = asg.CPULoad
				onNode = float64(asg.NodeOperatorCount())
			}
			b.ReportMetric(cpu, "nodeCPU")
			b.ReportMetric(onNode, "opsOnNode")
		})
	}
}
