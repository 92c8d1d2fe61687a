package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/profile"
	"wishbone/internal/wire"
	"wishbone/internal/wscript"
	"wishbone/internal/wvm"
)

// entry is one resident graph: the executable graph re-elaborated from a
// client's GraphSpec, its canonical content key, a deterministic trace
// builder, and lazily computed per-mode classifications. Entries are
// immutable after build except for the classification memos and the
// metering telemetry; one entry serves every tenant that submits the same
// (spec, limits) pair — wscript work functions keep all mutable state in
// Instance state slots (the VM engine), so entries execute fully
// concurrently, like the built-in applications.
type entry struct {
	key   string // canonical (spec ‖ structural-hash) content hash
	graph *dataflow.Graph

	// id extends key with a per-instance nonce. Derived cache entries
	// (compiled Programs, reports) capture pointers into this entry's
	// graph, so they must die with this *instance*: if the entry is
	// LRU-evicted and rebuilt, the rebuilt instance gets a fresh nonce
	// and never resolves stale derived values compiled from the old
	// graph (which would fail runtime's identity checks, or worse,
	// silently mis-index edges). Orphaned derived entries receive no
	// further hits and age out of the LRU.
	id string

	// traces returns the deterministic profiling/simulation inputs for a
	// trace seed. The returned slice and its event arrays are shared —
	// callers must not mutate them.
	traces func(spec wire.TraceSpec) []profile.Input

	// meter is the wscript VM's consumed-fuel telemetry, bound with the
	// per-tenant limits into the graph's work functions at compile time;
	// nil for the built-in applications. Distinct limits build distinct
	// entries (the cache key includes them), so one tenant's budget never
	// constrains another's runs of the same program.
	meter *wvm.Meter

	clsOnce [2]sync.Once
	cls     [2]*dataflow.Classification
	clsErr  [2]error
}

// classify returns the entry's classification under mode, computed once.
func (e *entry) classify(mode dataflow.Mode) (*dataflow.Classification, error) {
	i := 0
	if mode == dataflow.Permissive {
		i = 1
	}
	e.clsOnce[i].Do(func() {
		e.cls[i], e.clsErr[i] = dataflow.Classify(e.graph, mode)
	})
	return e.cls[i], e.clsErr[i]
}

// traceDefaults fills a TraceSpec's zero fields with the server defaults.
func traceDefaults(t wire.TraceSpec) wire.TraceSpec {
	if t.Seed == 0 {
		t.Seed = 1
	}
	if t.Seconds <= 0 {
		t.Seconds = 2
	}
	if t.Events <= 0 {
		t.Events = 64
	}
	return t
}

// buildEntry elaborates an executable graph from spec under the given VM
// limits. This is the expensive path the graph cache guards: wscript
// compilation or full application elaboration (the 22-channel EEG app is
// ~1.2k operators).
func buildEntry(spec wire.GraphSpec, limits wvm.Limits) (*entry, error) {
	e := &entry{}
	if !limits.Unlimited() && spec.App != "wscript" {
		return nil, fmt.Errorf("server: execution limits apply only to wscript graphs (app %q has no VM work functions)", spec.App)
	}
	switch spec.App {
	case "eeg":
		ch := spec.Channels
		if ch == 0 {
			ch = eeg.Channels
		}
		if ch < 1 || ch > eeg.Channels {
			return nil, fmt.Errorf("server: eeg channels must be in [1, %d], got %d", eeg.Channels, ch)
		}
		app := eeg.NewWithChannels(ch)
		e.graph = app.Graph
		e.traces = func(t wire.TraceSpec) []profile.Input {
			return app.SampleTrace(t.Seed, t.Seconds)
		}
	case "speech":
		if spec.Channels != 0 {
			return nil, fmt.Errorf("server: the speech app has no channels parameter")
		}
		app := speech.New()
		e.graph = app.Graph
		e.traces = func(t wire.TraceSpec) []profile.Input {
			return []profile.Input{app.SampleTrace(t.Seed, t.Seconds)}
		}
	case "wscript":
		if spec.Source == "" {
			return nil, fmt.Errorf("server: wscript spec has no source")
		}
		// The compiled sink is stateless, which keeps the graph
		// shardable, streamable and snapshotable; the server reads Result
		// counters, never sink values. The meter outlives any one run —
		// /v1/stats aggregates it per graph.
		e.meter = &wvm.Meter{}
		compiled, err := wscript.CompileOpts(spec.Source, wscript.Options{
			Limits: limits,
			Meter:  e.meter,
		})
		if err != nil {
			return nil, err
		}
		e.graph = compiled.Graph
		e.traces = func(t wire.TraceSpec) []profile.Input {
			// Synthetic sine ramp per source, matching cmd/wishbone's
			// profiling input; seeded by phase offset so distinct seeds
			// produce distinct traces.
			inputs, err := compiled.Inputs(t.Events, func(name string, i int) any {
				return math.Sin(float64(i)/8+float64(t.Seed)) * 100
			})
			if err != nil {
				return nil
			}
			sort.Slice(inputs, func(a, b int) bool {
				return inputs[a].Source.ID() < inputs[b].Source.ID()
			})
			return inputs
		}
	default:
		return nil, fmt.Errorf("server: unknown app %q (want eeg, speech, or wscript)", spec.App)
	}
	if err := e.graph.Validate(); err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write(spec.Canonical())
	h.Write([]byte(e.graph.StructuralHash()))
	e.key = hex.EncodeToString(h.Sum(nil))
	e.id = fmt.Sprintf("%s#%d", e.key, entrySeq.Add(1))
	return e, nil
}

// entrySeq numbers entry instances (see entry.id).
var entrySeq atomic.Int64

// specHash is the cache-lookup key for a spec (the full content key needs
// the built graph; the spec digest addresses the entry before it exists).
func specHash(spec wire.GraphSpec) string {
	sum := sha256.Sum256(spec.Canonical())
	return hex.EncodeToString(sum[:])
}

// limitsKey extends a cache key with the VM budget. Limits are compiled
// into the graph's work functions, so distinct budgets need distinct
// entries; the common unlimited case adds nothing.
func limitsKey(l wvm.Limits) string {
	if l.Unlimited() {
		return ""
	}
	return fmt.Sprintf(":lim:%d:%d", l.Fuel, l.MemBytes)
}

// partitionHash canonically hashes a partition: the sorted on-node
// operator ID list.
func partitionHash(onNode map[int]bool) string {
	ids := make([]int, 0, len(onNode))
	for id, on := range onNode {
		if on {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	h := sha256.New()
	var buf [8]byte
	for _, id := range ids {
		for b := 0; b < 8; b++ {
			buf[b] = byte(uint64(id) >> (56 - 8*b))
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
