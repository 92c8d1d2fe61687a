package main

// metricDef names one metric. exact marks a count that comes from
// deterministic program output (README: †): it must repeat exactly from
// run to run and, for the default seed at full size, equal golden.json.
type metricDef struct {
	name, unit string
	exact      bool
}

// endToEnd are the metrics a user of the system sees, reported by the
// tracing-off run of every workload. BENCHMARK.json carries their
// directions and regression bounds.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "req_per_s", unit: "1/s"},
	{name: "req_p50_ms", unit: "ms"},
	{name: "arrivals_per_s", unit: "1/s"},
	{name: "alloc_bytes_per_arrival", unit: "B"},
}

// perLayer are the metrics of single layers, reported by the traced run. A
// workload reports 0 for a metric of a layer it does not exercise.
var perLayer = []metricDef{
	// Workload-specific views of the end-to-end numbers, and the failure
	// ratio (0 on a healthy run, so it cannot carry a relative bound).
	{name: "fail_ratio", unit: "ratio"},
	{name: "trace_overhead_ratio", unit: "ratio"},
	{name: "req_p95_ms", unit: "ms"},
	{name: "plans_per_s", unit: "1/s"},
	{name: "plan_p50_ms", unit: "ms"},
	{name: "plan_p95_ms", unit: "ms"},
	{name: "window_p50_ms", unit: "ms"},
	{name: "client.peak_heap_mb", unit: "MiB"},
	{name: "client.req_p99_ms", unit: "ms"},

	// plan-sweep: profile → classify → spec → rate search → solver.
	{name: "profile.run_ms", unit: "ms"},
	{name: "dataflow.classify_ms", unit: "ms"},
	{name: "profile.buildspec_ms", unit: "ms"},
	{name: "core.autopartition_ms", unit: "ms"},
	{name: "core.solves_per_plan", unit: "count", exact: true},
	{name: "core.rate_multiple_min", unit: "ratio", exact: true},
	{name: "solver.solve_ms.exact", unit: "ms"},
	{name: "solver.solve_ms.lagrangian", unit: "ms"},
	{name: "solver.iterations.exact", unit: "count", exact: true},
	{name: "solver.iterations.lagrangian", unit: "count", exact: true},
	{name: "solver.gap_max", unit: "ratio", exact: true},

	// Simulation: the runtime's own stage clocks, then each layer under it
	// replayed in isolation.
	{name: "runtime.compile_partition_ms", unit: "ms"},
	{name: "runtime.node_ms", unit: "ms"},
	{name: "runtime.deliver_ms", unit: "ms"},
	{name: "runtime.overlap_ms", unit: "ms"},
	{name: "runtime.wall_ms", unit: "ms"},
	{name: "runtime.wall_ms_workers1", unit: "ms"},
	{name: "runtime.self_ms", unit: "ms"},
	{name: "runtime.msgs_sent", unit: "count", exact: true},
	{name: "runtime.msgs_received", unit: "count", exact: true},
	{name: "runtime.server_emits", unit: "count", exact: true},
	{name: "runtime.delivered_bytes", unit: "B", exact: true},
	{name: "wire.marshal_ns_per_msg", unit: "ns"},
	{name: "wire.fragment_ns_per_msg", unit: "ns"},
	{name: "wire.reassemble_ns_per_msg", unit: "ns"},
	{name: "wire.unmarshal_ns_per_msg", unit: "ns"},
	{name: "wire.bytes_per_msg", unit: "B", exact: true},
	{name: "netsim.loss_draw_ns_per_msg", unit: "ns"},
	{name: "netsim.delivery_ratio_ns", unit: "ns"},
	{name: "dataflow.node_program_ms", unit: "ms"},
	{name: "dataflow.server_program_ms", unit: "ms"},
	{name: "dataflow.batch_hit_ratio", unit: "ratio", exact: true},

	// stream-http: ingest and the session behind the endpoint.
	{name: "runtime.ingest_decode_ns_per_arrival", unit: "ns"},
	{name: "runtime.ingest_alloc_bytes_per_arrival", unit: "B"},
	{name: "runtime.mallocs_per_arrival", unit: "count"},
	{name: "runtime.session_direct_ms", unit: "ms"},
	{name: "server.stream_overhead_ms", unit: "ms"},

	// Snapshot codec (checkpoints ride on it).
	{name: "runtime.snapshot_ms", unit: "ms"},
	{name: "runtime.snapshot_bytes", unit: "B", exact: true},
	{name: "runtime.resume_ms", unit: "ms"},
	{name: "runtime.peak_buffered", unit: "count", exact: true},

	// serve-mix: the service from the client's side and from /v1/stats.
	{name: "server.profile_p50_ms", unit: "ms"},
	{name: "server.partition_p50_ms", unit: "ms"},
	{name: "server.simulate_p50_ms", unit: "ms"},
	{name: "server.cold_p50_ms", unit: "ms"},
	{name: "server.warm_p50_ms", unit: "ms"},
	{name: "server.cache_hit_ratio", unit: "ratio"},
	{name: "server.cache_shared", unit: "count"},
	{name: "server.queued_jobs_max", unit: "count"},
	{name: "server.solver_runs.exact", unit: "count"},
	{name: "server.solver_runs.lagrangian", unit: "count"},
	{name: "server.http_overhead_ms", unit: "ms"},
	{name: "wvm.fuel_per_call", unit: "count", exact: true},
	{name: "wvm.simulate_p50_ms", unit: "ms"},

	// dist-loopback: the /v1/shard protocol seen from a RoundTripper.
	{name: "dist.rpc_count.open", unit: "count", exact: true},
	{name: "dist.rpc_count.compute", unit: "count", exact: true},
	{name: "dist.rpc_count.deliver", unit: "count", exact: true},
	{name: "dist.rpc_count.checkpoint", unit: "count", exact: true},
	{name: "dist.rpc_count.close", unit: "count", exact: true},
	{name: "dist.rpc_p50_ms.compute", unit: "ms"},
	{name: "dist.rpc_p50_ms.deliver", unit: "ms"},
	{name: "dist.rpc_p50_ms.checkpoint", unit: "ms"},
	{name: "dist.req_bytes_per_window", unit: "B"},
	{name: "dist.resp_bytes_per_window", unit: "B"},
	{name: "dist.checkpoint_bytes", unit: "B"},
	{name: "dist.straggler_ms", unit: "ms"},
	{name: "dist.coordinator_self_share", unit: "ratio"},
	{name: "dist.retries", unit: "count", exact: true},
	{name: "dist.local_ratio", unit: "ratio"},
}

// workloadDef names one workload and how to build it.
type workloadDef struct {
	name string
	new  func(seed int64, tiny bool) workload
	// minReps is the least number of timed repeats a run makes, however
	// short the measurement budget.
	minReps int
}

var workloads = []workloadDef{
	{name: "plan-sweep", new: newPlanSweep, minReps: 2},
	{name: "sim-fanin", new: newSimFanin, minReps: 5},
	{name: "sim-edge", new: newSimEdge, minReps: 5},
	{name: "stream-http", new: newStreamHTTP, minReps: 3},
	{name: "serve-mix", new: newServeMix, minReps: 2},
	{name: "dist-loopback", new: newDistLoopback, minReps: 3},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
