// Command speechdetect runs the paper's acoustic speech-detection workload
// (§6.2) end to end: it profiles the 8-operator MFCC pipeline, partitions
// it for several platforms, prints the per-platform decision, and then
// validates the TMote partition by simulating a deployment — reproducing
// the methodology of §7.3.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"wishbone"
	"wishbone/internal/apps/speech"
)

func main() {
	app := speech.New()
	inputs := []wishbone.Input{app.SampleTrace(42, 3.0)}
	ctx := context.Background()
	planner := wishbone.NewPlanner()

	platforms := []*wishbone.Platform{
		wishbone.TMoteSky(), wishbone.NokiaN80(), wishbone.IPhone(),
		wishbone.Gumstix(), wishbone.MerakiMini(),
	}

	fmt.Println("Speech detection (MFCC) partitioning per platform")
	fmt.Println("--------------------------------------------------")
	var tmoteDep *wishbone.Deployment
	for _, plat := range platforms {
		dep, err := planner.AutoPartition(ctx, app.Graph, inputs, plat)
		if err != nil {
			log.Fatalf("%s: %v", plat.Name, err)
		}
		cutAfter := "nothing (all on server)"
		for _, op := range app.Pipeline {
			if dep.Assignment.OnNode[op.ID()] {
				cutAfter = op.Name
			}
		}
		fmt.Printf("%-11s rate ×%.3f  cut after %-10s  node CPU %5.1f%%  radio %7.0f B/s\n",
			plat.Name, dep.RateMultiple, cutAfter,
			100*dep.Assignment.CPULoad, dep.Assignment.NetLoad)
		if plat.Name == "TMoteSky" {
			tmoteDep = dep
		}
	}

	// Validate the TMote decision with a simulated 20-mote deployment.
	fmt.Println()
	fmt.Println("Validating the TMote partition on a simulated 20-mote testbed:")
	res, err := planner.Simulate(ctx, tmoteDep, wishbone.TMoteSky(), 20, 60,
		func(nodeID int) []wishbone.Input {
			return []wishbone.Input{app.SampleTrace(int64(100+nodeID), 2.0)}
		}, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  input processed %.1f%%  msgs received %.1f%%  goodput %.2f%%  node CPU %.0f%%\n",
		res.PercentInputProcessed(), res.PercentMsgsReceived(), res.Goodput(), 100*res.NodeCPU)

	// Emit the §3 visualization for the TMote partition.
	dot := tmoteDep.DOT("speech detection on TMote Sky")
	if err := os.WriteFile("speech_tmote.dot", []byte(dot), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote speech_tmote.dot (render with: dot -Tpng speech_tmote.dot)")
}
