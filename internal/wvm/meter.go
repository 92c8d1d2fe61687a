package wvm

import (
	"errors"
	"sync/atomic"
)

// ErrFuelExhausted is the typed metering error for a work invocation that
// burned past its fuel budget. The server maps it to a 4xx response so a
// runaway tenant program is shed, not crashed into.
var ErrFuelExhausted = errors.New("wvm: fuel budget exhausted")

// ErrMemLimit is the typed metering error for a program that allocated past
// its memory cap.
var ErrMemLimit = errors.New("wvm: memory limit exceeded")

// Limits is a tenant's resource budget for VM execution.
//
// Fuel bounds one work invocation (one stream element through one
// operator): every executed opcode costs one unit, and allocating builtins
// cost extra in proportion to the allocation. Charging per element keeps
// accounting deterministic under any execution strategy — sequential,
// sharded, streamed, or batched runs charge each element identically, so
// totals agree everywhere.
//
// MemBytes caps the estimated bytes a single invocation can touch: its
// transient allocations plus the operator state it retains (SizeOf pricing,
// deterministic across hosts).
//
// The zero value means unlimited.
type Limits struct {
	Fuel     uint64 `json:"fuel,omitempty"`
	MemBytes int64  `json:"memBytes,omitempty"`
}

// Unlimited reports whether no budget is set.
func (l Limits) Unlimited() bool { return l.Fuel == 0 && l.MemBytes == 0 }

// Meter accumulates metering telemetry across all instances of a compiled
// program (every node replica, shard, and concurrent session). All methods
// are safe for concurrent use; totals are order-independent sums, so they
// are deterministic for a given workload regardless of execution schedule.
type Meter struct {
	fuel      atomic.Uint64
	calls     atomic.Uint64
	fuelTrips atomic.Uint64
	memTrips  atomic.Uint64
}

// AddFuel records fuel burned by one invocation.
func (m *Meter) AddFuel(n uint64) {
	if m == nil || n == 0 {
		return
	}
	m.fuel.Add(n)
}

// AddCall records one metered work invocation.
func (m *Meter) AddCall() {
	if m != nil {
		m.calls.Add(1)
	}
}

// TripFuel records a fuel-exhaustion abort.
func (m *Meter) TripFuel() {
	if m != nil {
		m.fuelTrips.Add(1)
	}
}

// TripMem records a memory-cap abort.
func (m *Meter) TripMem() {
	if m != nil {
		m.memTrips.Add(1)
	}
}

// Fuel returns total fuel burned.
func (m *Meter) Fuel() uint64 {
	if m == nil {
		return 0
	}
	return m.fuel.Load()
}

// Calls returns total metered invocations.
func (m *Meter) Calls() uint64 {
	if m == nil {
		return 0
	}
	return m.calls.Load()
}

// FuelTrips returns the number of fuel-exhaustion aborts.
func (m *Meter) FuelTrips() uint64 {
	if m == nil {
		return 0
	}
	return m.fuelTrips.Load()
}

// MemTrips returns the number of memory-cap aborts.
func (m *Meter) MemTrips() uint64 {
	if m == nil {
		return 0
	}
	return m.memTrips.Load()
}
