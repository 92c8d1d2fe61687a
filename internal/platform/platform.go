// Package platform describes the embedded hardware targets Wishbone
// partitions programs onto.
//
// A Platform bundles everything the partitioner and the profiler need to
// know about a device class: how many cycles each primitive operation costs
// (internal/cost), the CPU clock, a fixed execution-environment overhead
// (JVM interpretation on JavaME phones, DVFS throttling on the iPhone), and
// the characteristics of its uplink radio. The paper profiles on real
// hardware or a cycle-accurate simulator; here the per-primitive cycle
// tables play that role (see DESIGN.md §2 for the substitution argument).
//
// The calibration targets the paper's published observations:
//
//   - TMote Sky executes the full MFCC pipeline in ~2 s per 25 ms frame and
//     reaches the filter bank in ~250 ms (Figure 7).
//   - The Nokia N80 is only ~2× faster than the TMote despite a 55× clock,
//     due to JVM overhead (§7.2).
//   - The iPhone (412 MHz) is ~3× slower than the 400 MHz Gumstix because
//     of frequency scaling (§7.2).
//   - The Meraki Mini has ~15× the TMote's CPU but ≥10× its radio
//     bandwidth, so its optimal cut ships raw data (§7.3.1).
package platform

import (
	"fmt"

	"wishbone/internal/cost"
)

// Platform describes one device class: its CPU cost model and its radio.
type Platform struct {
	// Name identifies the platform in reports ("TMoteSky", "NokiaN80", ...).
	Name string

	// ClockHz is the CPU clock rate in Hz.
	ClockHz float64

	// CyclesPerOp maps each primitive operation class to its cycle cost on
	// this platform's instruction set (before Overhead is applied).
	CyclesPerOp [cost.NumOps]float64

	// Overhead multiplies every operation's cost. It models fixed
	// execution-environment slowdowns: JVM interpretation on JavaME,
	// DVFS throttling on the iPhone, interpreter overhead on the server's
	// Scheme profiling runs. 1.0 means native code at full clock.
	Overhead float64

	// Radio describes the device's uplink to the server. The zero value
	// means "no radio" (used for the server itself).
	Radio Radio

	// Alpha and Beta weight CPU and network load in the partitioner's
	// objective min(alpha*cpu + beta*net). The paper's evaluation uses
	// alpha=0, beta=1 (minimize bandwidth subject to CPU fitting).
	Alpha, Beta float64

	// OSOverhead scales predicted CPU load to account for operating-system
	// and network-stack costs that per-operator profiling cannot see. The
	// paper measured 15% CPU on the Gumstix where profiling predicted
	// 11.5% (§7.3.1); runtime simulation applies this factor.
	OSOverhead float64
}

// Radio describes a device's uplink channel as seen by the application.
type Radio struct {
	// BytesPerSec is the sustainable application-level throughput (payload
	// bytes per second) at the target reception rate; this is the network
	// budget the partitioner enforces.
	BytesPerSec float64

	// CollapseBytesPerSec is the offered load beyond which reception
	// collapses super-linearly (congestion collapse). Above this point the
	// monotone-rate assumption of §4.3 no longer holds.
	CollapseBytesPerSec float64

	// BaselineLoss is the packet loss probability well below saturation.
	BaselineLoss float64

	// PacketPayload is the usable payload bytes per link-layer packet
	// (TinyOS AM payload is ~28 bytes).
	PacketPayload int

	// PacketOverhead is the per-packet header/framing cost in bytes,
	// charged against channel capacity but not delivered to the app.
	PacketOverhead int
}

// PacketsFor returns the number of link packets needed to carry n payload
// bytes, and the total on-air bytes including per-packet overhead.
func (r Radio) PacketsFor(n int) (packets, airBytes int) {
	if n <= 0 || r.PacketPayload <= 0 {
		return 0, 0
	}
	packets = (n + r.PacketPayload - 1) / r.PacketPayload
	airBytes = n + packets*r.PacketOverhead
	return packets, airBytes
}

// Cycles converts an operation counter into a cycle count on this platform,
// including the environment overhead factor.
func (p *Platform) Cycles(c *cost.Counter) float64 {
	if c == nil {
		return 0
	}
	var cycles float64
	counts := c.Counts()
	for op, n := range counts {
		if n == 0 {
			continue
		}
		cycles += float64(n) * p.CyclesPerOp[op]
	}
	return cycles * p.Overhead
}

// Seconds converts an operation counter into wall-clock seconds.
func (p *Platform) Seconds(c *cost.Counter) float64 {
	if p.ClockHz <= 0 {
		return 0
	}
	return p.Cycles(c) / p.ClockHz
}

// String returns the platform name.
func (p *Platform) String() string { return p.Name }

// Validate reports an error if the platform description is unusable.
func (p *Platform) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("platform: empty name")
	}
	if p.ClockHz <= 0 {
		return fmt.Errorf("platform %s: non-positive clock %v", p.Name, p.ClockHz)
	}
	if p.Overhead <= 0 {
		return fmt.Errorf("platform %s: non-positive overhead %v", p.Name, p.Overhead)
	}
	for op, cy := range p.CyclesPerOp {
		if cy < 0 {
			return fmt.Errorf("platform %s: negative cycle cost for %s", p.Name, cost.Op(op))
		}
	}
	if p.Radio.BytesPerSec < 0 || p.Radio.CollapseBytesPerSec < 0 {
		return fmt.Errorf("platform %s: negative radio capacity", p.Name)
	}
	if p.Radio.BaselineLoss < 0 || p.Radio.BaselineLoss >= 1 {
		return fmt.Errorf("platform %s: baseline loss %v out of [0,1)", p.Name, p.Radio.BaselineLoss)
	}
	return nil
}

// cyclesMCU is the cycle table for a 16-bit MSP430-class microcontroller
// with a hardware multiplier but software floating point.
func cyclesMCU() [cost.NumOps]float64 {
	var t [cost.NumOps]float64
	t[cost.IntOp] = 1
	t[cost.IntMul] = 9
	t[cost.IntDiv] = 160
	t[cost.FloatAdd] = 40
	t[cost.FloatMul] = 55
	t[cost.FloatDiv] = 250
	t[cost.Sqrt] = 900
	t[cost.Log] = 4500
	t[cost.Trig] = 6000
	t[cost.Load] = 2
	t[cost.Store] = 2
	t[cost.Branch] = 2
	t[cost.Call] = 12
	return t
}

// cyclesARMSoftFloat is the table for a 32-bit ARM9-class core without an
// FPU (PXA255/ARM926): fast integers, soft-float library for FP.
func cyclesARMSoftFloat() [cost.NumOps]float64 {
	var t [cost.NumOps]float64
	t[cost.IntOp] = 1
	t[cost.IntMul] = 3
	t[cost.IntDiv] = 20
	t[cost.FloatAdd] = 20
	t[cost.FloatMul] = 24
	t[cost.FloatDiv] = 120
	t[cost.Sqrt] = 300
	t[cost.Log] = 1000
	t[cost.Trig] = 1300
	t[cost.Load] = 1.5
	t[cost.Store] = 1.5
	t[cost.Branch] = 2
	t[cost.Call] = 8
	return t
}

// cyclesMIPSSoftFloat is the table for a low-end MIPS core (Meraki Mini's
// Atheros SoC) with soft-float and slow memory.
func cyclesMIPSSoftFloat() [cost.NumOps]float64 {
	var t [cost.NumOps]float64
	t[cost.IntOp] = 1
	t[cost.IntMul] = 5
	t[cost.IntDiv] = 35
	t[cost.FloatAdd] = 16
	t[cost.FloatMul] = 20
	t[cost.FloatDiv] = 90
	t[cost.Sqrt] = 250
	t[cost.Log] = 800
	t[cost.Trig] = 1000
	t[cost.Load] = 2.5
	t[cost.Store] = 2.5
	t[cost.Branch] = 2
	t[cost.Call] = 10
	return t
}

// cyclesDesktop is the table for a superscalar desktop/server core with
// hardware FP: most ops retire in under a cycle on average.
func cyclesDesktop() [cost.NumOps]float64 {
	var t [cost.NumOps]float64
	t[cost.IntOp] = 0.4
	t[cost.IntMul] = 1
	t[cost.IntDiv] = 12
	t[cost.FloatAdd] = 0.7
	t[cost.FloatMul] = 0.8
	t[cost.FloatDiv] = 8
	t[cost.Sqrt] = 12
	t[cost.Log] = 30
	t[cost.Trig] = 40
	t[cost.Load] = 0.5
	t[cost.Store] = 0.5
	t[cost.Branch] = 0.6
	t[cost.Call] = 3
	return t
}

// TMoteSky returns the TMote Sky / TinyOS 2.0 platform: a 4 MHz MSP430
// with software floating point and a CC2420 low-power radio.
func TMoteSky() *Platform {
	return &Platform{
		Name:        "TMoteSky",
		ClockHz:     4e6,
		CyclesPerOp: cyclesMCU(),
		Overhead:    1.0,
		Radio: Radio{
			// Multihop TinyOS collection sustains only a few hundred
			// payload bytes per second at a 90% reception target; the
			// paper's rate search lands at 3 events/s × 128 B (§7.3.1).
			BytesPerSec:         450,
			CollapseBytesPerSec: 780,
			BaselineLoss:        0.08,
			PacketPayload:       28,
			PacketOverhead:      11,
		},
		Alpha:      0,
		Beta:       1,
		OSOverhead: 1.20,
	}
}

// NokiaN80 returns the Nokia N80 / JavaME platform: a 220 MHz ARM9 whose
// JVM makes it only ~2× faster than the TMote on float-heavy code (§7.2).
func NokiaN80() *Platform {
	return &Platform{
		Name:        "NokiaN80",
		ClockHz:     220e6,
		CyclesPerOp: cyclesARMSoftFloat(),
		Overhead:    110, // JVM interpretation penalty (observed: only ~2× a TMote, §7.2)
		Radio: Radio{
			BytesPerSec:         48_000, // phone WiFi via TCP relay
			CollapseBytesPerSec: 90_000,
			BaselineLoss:        0.02,
			PacketPayload:       1400,
			PacketOverhead:      60,
		},
		Alpha:      0,
		Beta:       1,
		OSOverhead: 1.25,
	}
}

// IPhone returns the (jailbroken) iPhone platform: 412 MHz ARM with GCC,
// throttled ~3× by frequency scaling relative to the Gumstix (§7.2).
func IPhone() *Platform {
	return &Platform{
		Name:        "iPhone",
		ClockHz:     412e6,
		CyclesPerOp: cyclesARMSoftFloat(),
		Overhead:    3.0, // DVFS power management keeps the clock down
		Radio: Radio{
			BytesPerSec:         100_000,
			CollapseBytesPerSec: 200_000,
			BaselineLoss:        0.01,
			PacketPayload:       1400,
			PacketOverhead:      60,
		},
		Alpha:      0,
		Beta:       1,
		OSOverhead: 1.15,
	}
}

// Gumstix returns the 400 MHz ARM-Linux Gumstix platform, the paper's
// reference embedded-Linux device (predicted 11.5% CPU vs 15% measured).
func Gumstix() *Platform {
	return &Platform{
		Name:        "Gumstix",
		ClockHz:     400e6,
		CyclesPerOp: cyclesARMSoftFloat(),
		Overhead:    1.0,
		Radio: Radio{
			BytesPerSec:         100_000,
			CollapseBytesPerSec: 200_000,
			BaselineLoss:        0.01,
			PacketPayload:       1400,
			PacketOverhead:      60,
		},
		Alpha:      0,
		Beta:       1,
		OSOverhead: 15.0 / 11.5, // the paper's measured/predicted ratio
	}
}

// MerakiMini returns the Meraki Mini platform: a low-end MIPS WiFi access
// point with ~15× the TMote's CPU but ≥10× its radio bandwidth (§7.3.1).
func MerakiMini() *Platform {
	return &Platform{
		Name:        "MerakiMini",
		ClockHz:     180e6,
		CyclesPerOp: cyclesMIPSSoftFloat(),
		Overhead:    13, // uncached low-end SoC + soft-float traps (≈15× TMote CPU, §7.3.1)
		Radio: Radio{
			BytesPerSec:         25_000,
			CollapseBytesPerSec: 60_000,
			BaselineLoss:        0.03,
			PacketPayload:       1400,
			PacketOverhead:      60,
		},
		Alpha:      0,
		Beta:       1,
		OSOverhead: 1.2,
	}
}

// VoxNet returns the VoxNet acoustic-sensing platform (embedded Linux,
// faster than the iPhone in Figure 5b).
func VoxNet() *Platform {
	return &Platform{
		Name:        "VoxNet",
		ClockHz:     600e6,
		CyclesPerOp: cyclesARMSoftFloat(),
		Overhead:    1.0,
		Radio: Radio{
			BytesPerSec:         120_000,
			CollapseBytesPerSec: 250_000,
			BaselineLoss:        0.01,
			PacketPayload:       1400,
			PacketOverhead:      60,
		},
		Alpha:      0,
		Beta:       1,
		OSOverhead: 1.1,
	}
}

// Server returns the backend server platform (3.2 GHz Xeon). The paper
// treats server compute as effectively infinite; it appears here so that
// the "Scheme" series of Figure 5b (profiling executed inside the Scheme
// compiler on the server) can be priced, with Overhead modelling the
// Scheme interpreter.
func Server() *Platform {
	return &Platform{
		Name:        "Server",
		ClockHz:     3.2e9,
		CyclesPerOp: cyclesDesktop(),
		Overhead:    1.0,
		Alpha:       0,
		Beta:        1,
		OSOverhead:  1.0,
	}
}

// Scheme returns the server platform with the Scheme interpreter overhead
// used by the compiler's platform-independent profiling runs (§3).
func Scheme() *Platform {
	p := Server()
	p.Name = "Scheme"
	p.Overhead = 12
	return p
}

// All returns every embedded platform the paper evaluates, in a stable
// order. The server is not included (it is the other side of every cut).
func All() []*Platform {
	return []*Platform{
		TMoteSky(), NokiaN80(), IPhone(), Gumstix(), MerakiMini(), VoxNet(),
	}
}

// ByName returns the platform with the given name (case-sensitive), or nil.
func ByName(name string) *Platform {
	for _, p := range append(All(), Server(), Scheme()) {
		if p.Name == name {
			return p
		}
	}
	return nil
}
