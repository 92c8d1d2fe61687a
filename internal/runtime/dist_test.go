package runtime_test

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/platform"
	"wishbone/internal/runtime"
)

// corruptReduceHost rewrites every reduce contribution its host reports
// the way a buggy or hostile peer could.
type corruptReduceHost struct {
	runtime.HostDriver
	corrupt func(*runtime.ReduceMsg)
}

func (h corruptReduceHost) ComputeWindow(arrivals []runtime.HostArrival) (*runtime.WindowReport, error) {
	rep, err := h.HostDriver.ComputeWindow(arrivals)
	if err == nil {
		for i := range rep.Reduce {
			h.corrupt(&rep.Reduce[i])
		}
	}
	return rep, err
}

// TestDistMalformedReduceReply pins what the coordinator does with a
// reduce reply it cannot trust, in its own process with no recover above
// it: a payload that does not decode (the element-count overflow that used
// to panic inside wire.Unmarshal) and a contribution for a node outside
// the deployment or owned by another host (an out-of-range node used to
// panic in the aggregator's round counters; another host's node advanced
// the wrong one). The caller gets an error for each.
func TestDistMalformedReduceReply(t *testing.T) {
	c := reduceCase(t, 21, 2, 8)
	cfg, feed := c.cfg, c.feed
	// tagFloat64s, then uvarint(1<<61): 10 bytes claiming 2^64 bytes of payload.
	bad := binary.AppendUvarint([]byte{0x14}, 1<<61)
	node := func(n int) func(*runtime.ReduceMsg) {
		return func(rm *runtime.ReduceMsg) { rm.Node = n }
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*runtime.ReduceMsg)
		want    string
	}{
		{"undecodable payload", func(rm *runtime.ReduceMsg) { rm.Data = bad }, "reduce contribution does not decode"},
		{"negative node", node(-1), "which it does not own"},
		{"node past the deployment", node(cfg.Nodes), "which it does not own"},
		{"another host's node", node(1), "which it does not own"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hosts := localHosts(t, cfg, runtime.PartitionOrigins(cfg.Nodes, cfg.Nodes))
			hosts[0].Driver = corruptReduceHost{HostDriver: hosts[0].Driver, corrupt: tc.corrupt}
			ds, err := runtime.NewDistSession(cfg, hosts)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Abort()
			for _, f := range feed {
				if err = ds.Offer(f.node, f.a); err != nil {
					break
				}
			}
			if err == nil {
				_, err = ds.Close()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// corruptCloseHost rewrites the first busy entry of its host's close reply
// to name another node, and counts the Aborts the coordinator sends it.
type corruptCloseHost struct {
	runtime.HostDriver
	node   int
	aborts *int
}

func (h corruptCloseHost) Close() (*runtime.HostResult, error) {
	hr, err := h.HostDriver.Close()
	if err == nil {
		hr.NodeBusy[0].Node = h.node
	}
	return hr, err
}

func (h corruptCloseHost) Abort() {
	*h.aborts++
	h.HostDriver.Abort()
}

// TestDistMalformedCloseReply pins what Close does with busy seconds for a
// node the reporting host does not own — out of range, or another host's
// (which used to overwrite the owner's entry in the NodeCPU sum): an error,
// and a session that is closed, so the deferred Abort reaches no host.
func TestDistMalformedCloseReply(t *testing.T) {
	c := speechCase(t, speech.New(), 1, 2, 2, 5, 700)
	cfg, feed := c.cfg, c.feed
	cfg.WindowSeconds = 1
	for _, tc := range []struct {
		name string
		node int
	}{
		{"negative node", -1},
		{"node past the deployment", cfg.Nodes},
		{"another host's node", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			aborts := 0
			hosts := localHosts(t, cfg, runtime.PartitionOrigins(cfg.Nodes, cfg.Nodes))
			hosts[0].Driver = corruptCloseHost{HostDriver: hosts[0].Driver, node: tc.node, aborts: &aborts}
			ds, err := runtime.NewDistSession(cfg, hosts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range feed {
				if err := ds.Offer(f.node, f.a); err != nil {
					t.Fatal(err)
				}
			}
			_, err = ds.Close()
			if err == nil || !strings.Contains(err.Error(), "which it does not own") {
				t.Fatalf("got %v, want the busy-for-foreign-node error", err)
			}
			ds.Abort()
			if aborts != 0 {
				t.Errorf("Abort after a failed Close reached the host %d time(s)", aborts)
			}
		})
	}
}

// TestDistributableFallback pins the local-fallback predicate: the EEG
// app's global `detect` state cannot be split by origin, and host
// construction refuses it too.
func TestDistributableFallback(t *testing.T) {
	app := eeg.NewWithChannels(2)
	onNode, _ := eegCuts(app)
	cfg := eegCfg(app, onNode, 2, 4, 1, 2)
	if runtime.Distributable(cfg) {
		t.Fatal("EEG partition reported distributable despite global server state")
	}
	if _, err := runtime.NewShardHost(cfg, []int{0}); err == nil {
		t.Fatal("NewShardHost accepted a partition with global server state")
	}
	if !runtime.Distributable(speechRun(speech.New(), platform.Gumstix(), 1, 2, 4, 1, 0, 2).cfg) {
		t.Fatal("speech partition reported not distributable")
	}
}

// TestDistRecoveryDisarmed pins the pre-recovery contract: without
// EnableRecovery a host death is fatal, surfaces the cause unchanged,
// and matches runtime.ErrHostDown for callers that classify.
func TestDistRecoveryDisarmed(t *testing.T) {
	c := recoveryCase(t)
	if _, err := c.run(t, lossAt(c, 0, 0, "compute", 0)); !errors.Is(err, runtime.ErrHostDown) {
		t.Fatalf("unrecovered host death surfaced as %v; want ErrHostDown", err)
	}
}
