// Command overload demonstrates Wishbone's behaviour when an application
// does not fit: the speech pipeline on a TMote can satisfy neither "ship
// raw data" (radio too slow) nor "compute everything" (CPU too slow), so
// the system searches for the maximum sustainable input rate and the best
// partition at that rate (§4.3, §6.2.2), using the network profiler's
// sustainable-rate cap (§7.3.1).
package main

import (
	"context"
	"fmt"
	"log"

	"wishbone"
	"wishbone/internal/apps/speech"
	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/profile"
)

func main() {
	ctx := context.Background()
	app := speech.New()
	rep, err := profile.Run(app.Graph, []profile.Input{app.SampleTrace(3, 3.0)})
	if err != nil {
		log.Fatal(err)
	}
	cls, err := dataflow.Classify(app.Graph, dataflow.Permissive)
	if err != nil {
		log.Fatal(err)
	}
	tm := wishbone.TMoteSky()

	// Step 1: profile the network to find the highest send rate that still
	// meets a 90% reception target.
	ch := netsim.ChannelFor(tm)
	fmt.Println("network profile (offered on-air bytes/s → delivery ratio):")
	for _, e := range ch.Sweep(500, 6000, 12) {
		bar := ""
		for i := 0; i < int(e.DeliveryRatio*40); i++ {
			bar += "#"
		}
		fmt.Printf("  %6.0f  %.2f %s\n", e.OfferedBytesPerSec, e.DeliveryRatio, bar)
	}
	maxAir, err := ch.MaxSendRate(0.9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max aggregate send rate at 90%% reception: %.0f B/s on air\n\n", maxAir)

	// Step 2: partition with the profiled cap; full rate will not fit.
	spec := profile.BuildSpec(cls, rep, tm)
	spec.NetBudget = netsim.PerNodePayloadBudget(tm.Radio, maxAir, 1)
	if _, err := core.Partition(ctx, spec, core.DefaultOptions()); err == nil {
		fmt.Println("unexpected: the full-rate program fit!")
	} else if core.IsInfeasible(err) {
		fmt.Println("full-rate partitioning: infeasible (as the paper finds for TinyOS)")
	} else {
		log.Fatal(err)
	}

	// Step 3: binary search the maximum sustainable rate.
	res, err := core.AutoPartitionWith(ctx, spec, 2.0, 0.002, core.Limits{}, core.NewExact(core.DefaultOptions()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbinary search: max sustainable rate = %.3f× (%.1f events/s; paper: ≈3/s) in %d probes\n",
		res.RateMultiple, res.RateMultiple*speech.FrameRate, res.Probes)
	cutAfter := "(nothing)"
	for _, op := range app.Pipeline {
		if res.Assignment.OnNode[op.ID()] {
			cutAfter = op.Name
		}
	}
	fmt.Printf("optimal partition at that rate cuts after %q (paper: the filter bank)\n", cutAfter)
	fmt.Printf("node CPU %.1f%%, radio payload %.0f B/s\n",
		100*res.Assignment.CPULoad, res.Assignment.NetLoad)
}
