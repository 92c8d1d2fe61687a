package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one named set of inputs and the entry point it drives.
//
// setup builds everything a repeat needs from the seed — traces, graphs,
// compiled partitions, listeners, and the reference outputs every repeat
// is checked against — and is itself timed (setup_s). run executes one
// repeat: with a nil tracer it is the timed, tracing-off path; with a
// tracer it is the traced variant that wraps the calls into each layer in
// spans. layers makes the traced run's isolated per-layer measurements and
// turns spans and counters into per-layer metrics.
type workload interface {
	setup() error
	run(tr *tracer) (*rep, error)
	layers(tr *tracer, traced *rep, m map[string]float64) error
	close()
}

// rep is the outcome of one repeat.
type rep struct {
	// requests counts the calls the benchmark's client made on the entry
	// point and waited for; failed those that returned an error, a non-2xx
	// status, or an output different from the reference.
	requests, failed int
	// arrivals is the number of sensor arrivals the repeat consumed.
	arrivals int64
	// latMs holds one latency per request.
	latMs []float64
	// clocks, allocBytes and mallocs cover the timed region only
	// (verification of outputs happens after it).
	clocks
	allocBytes uint64
	mallocs    uint64
	// counts are deterministic program outputs (marked † in the README);
	// they must repeat exactly and are pinned in golden.json.
	counts map[string]float64
	// notes are failure descriptions for the human-readable report.
	notes []string
}

func (r *rep) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *rep) setCount(name string, v float64) {
	if r.counts == nil {
		r.counts = make(map[string]float64)
	}
	r.counts[name] = v
}

// clocks is what the guest's clocks say a timed region took.
type clocks struct {
	wall time.Duration
	// stolen is the CPU time the hypervisor gave to other guests while a
	// virtual CPU of this one was runnable, summed over its CPUs (0 where
	// the kernel does not report it); cpu is this process's user+system time.
	stolen, cpu time.Duration
}

// net is the region's wall time with the hypervisor's steal taken out — what
// the region would have taken on an undisturbed host, and the clock every
// end-to-end timing is read on (README.md, "The clock"). A single thread
// loses all the stolen time. Threads on n busy CPUs lose between a share
// of 1/n (they never wait for each other) and all of it (a stall of one
// stalls the rest); the geometric mean of the two limits, 1/√n, is taken.
func (c clocks) net() time.Duration {
	if c.stolen <= 0 || c.wall <= 0 {
		return c.wall
	}
	busy := float64(c.cpu+c.stolen) / float64(c.wall)
	net := c.wall - time.Duration(float64(c.stolen)/math.Sqrt(math.Max(busy, 1)))
	// More than nine tenths stolen is not a measurement; keep the rates finite.
	return max(net, c.wall/10)
}

// stopwatch brackets a timed region on all three clocks.
type stopwatch struct {
	start       time.Time
	stolen, cpu time.Duration
}

func startStopwatch() stopwatch {
	return stopwatch{stolen: stolenTime(), cpu: processCPUTime(), start: time.Now()}
}

func (s stopwatch) stop() clocks {
	return clocks{wall: time.Since(s.start), stolen: stolenTime() - s.stolen, cpu: processCPUTime() - s.cpu}
}

// measure brackets a repeat's timed region.
type measure struct {
	stopwatch
	ms runtime.MemStats
}

func startMeasure() *measure {
	m := &measure{}
	runtime.ReadMemStats(&m.ms)
	m.stopwatch = startStopwatch()
	return m
}

func (m *measure) stop(r *rep) {
	r.clocks = m.stopwatch.stop()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - m.ms.TotalAlloc
	r.mallocs = after.Mallocs - m.ms.Mallocs
}

// stolenTime reads the guest's cumulative steal time — CPU time during which
// a virtual CPU was runnable but the hypervisor ran someone else — from the
// aggregate cpu line of /proc/stat (eighth value, in 10 ms ticks). It is 0
// where the file or the field does not exist.
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// processCPUTime reads this process's user+system CPU time from
// /proc/self/stat (values 14 and 15, in 10 ms ticks); 0 where unavailable.
func processCPUTime() time.Duration {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	// The command name (value 2) may contain spaces; values are counted from
	// the parenthesis that closes it.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

// timeSetup sets the workload up repeatedly — at least three times, and
// until minTotal seconds of set-up have been observed so that a cheap
// set-up is not a handful of noisy samples — and returns the median
// duration. The last set-up is the one the repeats run against.
func timeSetup(w workload, minTotal float64) (float64, error) {
	var secs []float64
	total := 0.0
	for len(secs) < 3 || (total < minTotal && len(secs) < 200) {
		if len(secs) > 0 {
			w.close()
		}
		runtime.GC()
		sw := startStopwatch()
		if err := w.setup(); err != nil {
			return 0, err
		}
		c := sw.stop()
		secs = append(secs, c.net().Seconds())
		total += c.wall.Seconds()
	}
	return median(secs), nil
}

// repeats runs one untimed warm-up and then timed repeats until the
// measurement budget is spent (at least minReps), forcing a collection
// before each so one repeat's garbage is not charged to the next.
func repeats(w workload, seconds float64, minReps int) ([]*rep, error) {
	if _, err := w.run(nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var reps []*rep
	spent := 0.0
	for len(reps) < minReps || spent < seconds {
		runtime.GC()
		r, err := w.run(nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		spent += r.wall.Seconds()
	}
	return reps, nil
}

// roundStats is one repeat's view of the end-to-end metrics, read on the
// net clock, with what is needed to undo that: raw wall time, and steal and
// process CPU time as shares of it.
type roundStats struct {
	ReqPerS       float64 `json:"req_per_s"`
	P50Ms         float64 `json:"req_p50_ms"`
	P95Ms         float64 `json:"req_p95_ms"`
	ArrivalsPerS  float64 `json:"arrivals_per_s"`
	AllocPerArrvl float64 `json:"alloc_bytes_per_arrival"`
	WallS         float64 `json:"wall_s"`
	StolenShare   float64 `json:"stolen_share"`
	CPUShare      float64 `json:"cpu_share"`
}

func (r *rep) stats() roundStats {
	w, net := r.wall.Seconds(), r.net().Seconds()
	// Steal is known for the repeat, not per request: every latency of the
	// repeat is scaled by the repeat's net share.
	scale := net / w
	return roundStats{
		ReqPerS:       float64(r.requests) / net,
		P50Ms:         scale * percentile(r.latMs, 50),
		P95Ms:         scale * percentile(r.latMs, 95),
		ArrivalsPerS:  float64(r.arrivals) / net,
		AllocPerArrvl: float64(r.allocBytes) / float64(r.arrivals),
		WallS:         w,
		StolenShare:   r.stolen.Seconds() / w,
		CPUShare:      r.cpu.Seconds() / w,
	}
}

// maxStolenShare is the steal beyond which a repeat is too disturbed for the
// net clock to mend, and minUndisturbed the number of repeats the metrics
// are read from at the least.
const (
	maxStolenShare = 0.3
	minUndisturbed = 3
)

// undisturbed returns the repeats that lost no more than maxStolenShare of
// their wall time to steal or, when fewer than minUndisturbed did, the
// minUndisturbed that lost least.
func undisturbed(reps []*rep) []*rep {
	share := func(r *rep) float64 { return float64(r.stolen) / float64(r.wall) }
	byShare := append([]*rep(nil), reps...)
	sort.SliceStable(byShare, func(i, j int) bool { return share(byShare[i]) < share(byShare[j]) })
	n := sort.Search(len(byShare), func(i int) bool { return share(byShare[i]) > maxStolenShare })
	return byShare[:min(max(n, minUndisturbed), len(byShare))]
}

// endToEndMetrics folds the repeats into the end-to-end metrics: each is
// computed per undisturbed repeat and reduced across them by the median.
func endToEndMetrics(reps []*rep, setupS float64) map[string]float64 {
	var reqRate, arrRate, allocPer, p50 []float64
	for _, r := range undisturbed(reps) {
		st := r.stats()
		reqRate = append(reqRate, st.ReqPerS)
		arrRate = append(arrRate, st.ArrivalsPerS)
		allocPer = append(allocPer, st.AllocPerArrvl)
		p50 = append(p50, st.P50Ms)
	}
	return map[string]float64{
		"setup_s":                 setupS,
		"req_per_s":               median(reqRate),
		"req_p50_ms":              median(p50),
		"arrivals_per_s":          median(arrRate),
		"alloc_bytes_per_arrival": median(allocPer),
	}
}

// tailMs is the median across repeats of each repeat's 95th-percentile
// request latency.
func tailMs(reps []*rep) float64 {
	var p95 []float64
	for _, r := range reps {
		p95 = append(p95, r.stats().P95Ms)
	}
	return median(p95)
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile of v (which it does not
// modify); the median of an even count is the mean of the middle pair.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond reports how many of n samples lie beyond the p-th percentile; a
// percentile is trusted only when at least ten do.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// heapSampler records the peak live heap at 20 Hz while a traced run
// executes. One workload runs per process and a collection is forced
// first, so the reading does not depend on what ran before.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > h.peak {
				h.peak = ms.HeapAlloc
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
