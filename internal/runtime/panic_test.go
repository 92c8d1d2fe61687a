package runtime

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

// calledFrom reports whether a function whose name ends in fn is on the
// caller's stack.
func calledFrom(fn string) bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestNodePanicSurfaces drives a graph whose node-side work function
// panics on one origin through every spelling of the node stage. Each must
// return the panic as an ErrBadArrival-wrapped error (keeping an error
// panic value in the chain), hand every node instance back to the node
// Program's free list, and leave the process standing — the distinct-trace
// batch row runs the node on a worker-pool goroutine, where an unrecovered
// panic kills the binary.
func TestNodePanicSurfaces(t *testing.T) {
	const nodes, rate, duration, poisoned = 4, 4.0, 4.0, 1
	errBoom := errors.New("boom")

	// src → trip (node side, stateful) → sink (server). A negative sample
	// trips; only the poisoned origin's trace holds one, in the second
	// window. NewState runs once per node Instance taken from the node
	// Program, and once more under NewInstance for each Instance the
	// Program builds, which is how takes and builds are counted.
	var boom any
	var taken, built atomic.Int64
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	trip := g.Add(&dataflow.Operator{
		Name: "trip", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any {
			taken.Add(1)
			if calledFrom(".NewInstance") {
				built.Add(1)
			}
			return new(int)
		},
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			if v.([]float64)[0] < 0 {
				panic(boom)
			}
			emit(v)
		},
	})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Chain(src, trip, sink)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	trace := func(poison bool) []dataflow.Value {
		events := make([]dataflow.Value, 8)
		for i := range events {
			events[i] = []float64{float64(i)}
		}
		if poison {
			events[5] = []float64{-1}
		}
		return events
	}
	shared := []profile.Input{{Source: src, Events: trace(true), Rate: rate}}
	distinct := func(n int) []profile.Input {
		return []profile.Input{{Source: src, Events: trace(n == poisoned), Rate: rate}}
	}
	base := Config{
		Graph: g, OnNode: map[int]bool{src.ID(): true, trip.ID(): true},
		Platform: platform.Gumstix(), Nodes: nodes, Duration: duration,
		WindowSeconds: 1, Seed: 5, Workers: 2,
	}

	type session interface {
		Offer(nodeID int, a Arrival) error
		Close() (*Result, error)
		Abort()
	}
	stream := func(open func(Config) (session, error)) func(Config) error {
		return func(cfg Config) error {
			s, err := open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; float64(k)/rate < duration; k++ {
				for n := 0; n < nodes; n++ {
					events := distinct(n)[0].Events
					a := Arrival{Time: float64(k) / rate, Source: src, Value: events[k%len(events)]}
					if err := s.Offer(n, a); err != nil {
						s.Abort()
						return err
					}
				}
			}
			_, err = s.Close()
			return err
		}
	}
	batch := func(cfg Config) error {
		_, err := Run(cfg)
		return err
	}
	local := func(cfg Config) (session, error) { return NewSession(cfg) }

	rows := []struct {
		name     string
		acquires int64 // node-program instances the spelling takes from the pool
		prep     func(*Config)
		run      func(Config) error
	}{
		{"run/identical", 1, func(c *Config) {
			c.Inputs = func(int) []profile.Input { return shared }
		}, batch},
		{"run/distinct/workers=2", nodes, func(c *Config) { c.Inputs = distinct }, batch},
		{"session/pipelined", nodes, func(c *Config) {}, stream(local)},
		{"dist/2hosts", nodes, func(c *Config) {}, stream(func(cfg Config) (session, error) {
			var hosts []HostBinding
			for _, origins := range PartitionOrigins(nodes, 2) {
				h, err := NewShardHost(cfg, origins)
				if err != nil {
					return nil, err
				}
				hosts = append(hosts, HostBinding{Driver: h, Origins: origins})
			}
			return NewDistSession(cfg, hosts)
		})},
	}
	for _, row := range rows {
		for _, b := range []any{"boom", errBoom} {
			t.Run(fmt.Sprintf("%s/%T", row.name, b), func(t *testing.T) {
				boom = b
				taken.Store(0)
				built.Store(0)
				cfg := base
				row.prep(&cfg)
				node, _, err := CompilePartition(g, cfg.OnNode)
				if err != nil {
					t.Fatal(err)
				}
				cfg.NodeProgram = node
				err = row.run(cfg)
				if !errors.Is(err, ErrBadArrival) {
					t.Fatalf("want an ErrBadArrival-wrapped error, got %v", err)
				}
				if e, ok := b.(error); ok && !errors.Is(err, e) {
					t.Fatalf("the panicked error left the chain: %v", err)
				}
				if got := taken.Load(); got != row.acquires {
					t.Fatalf("%d node instances taken, want %d", got, row.acquires)
				}
				// Fewer than MaxListedInstances are built, so the free
				// list keeps every one that came back.
				if got, want := node.ListedInstances(), int(built.Load()); got != want {
					t.Fatalf("%d of %d node instances came back", got, want)
				}
			})
		}
	}
}
