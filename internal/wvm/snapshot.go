package wvm

import (
	"fmt"

	"wishbone/internal/wire"
)

// Value serialization tags. VM values serialize with a one-byte tag so
// operator state can ride inside session snapshots and cross shard-host
// boundaries like any other engine state.
const (
	tagUnit byte = iota
	tagInt
	tagFloat
	tagBool
	tagString
	tagArray
	tagFifo
)

// maxDecodeDepth bounds nesting when decoding untrusted state payloads.
const maxDecodeDepth = 64

// WalkValue is the snapshot layout of one value: a one-byte tag, then
// the scalar (floats bit-exact, so a restored state continues the
// computation byte-identically) or the container's counted elements.
// Encoding a type without a tag fails the walk; decoding fails on a tag it
// does not know or on nesting deeper than maxDecodeDepth.
func WalkValue(c *wire.Codec, v *Value) { walkValue(c, v, 0) }

func walkValue(c *wire.Codec, v *Value, depth int) {
	if c.Decoding() && depth > maxDecodeDepth {
		c.Fail(fmt.Errorf("wvm: value nesting exceeds %d", maxDecodeDepth))
		return
	}
	var tag byte
	switch (*v).(type) {
	case Unit, nil:
		tag = tagUnit
	case int64:
		tag = tagInt
	case float64:
		tag = tagFloat
	case bool:
		tag = tagBool
	case string:
		tag = tagString
	case *Array:
		tag = tagArray
	case *Fifo:
		tag = tagFifo
	default:
		c.Fail(fmt.Errorf("wvm: cannot serialize %T", *v))
		return
	}
	c.Byte(&tag)
	if c.Err() != nil {
		return
	}
	switch tag {
	case tagUnit:
		if c.Decoding() {
			*v = Unit{}
		}
	case tagInt:
		scalar(c, v, (*wire.Codec).Int64)
	case tagFloat:
		scalar(c, v, (*wire.Codec).F64)
	case tagBool:
		scalar(c, v, (*wire.Codec).Bool)
	case tagString:
		scalar(c, v, (*wire.Codec).String)
	case tagArray:
		a, _ := (*v).(*Array)
		if a == nil {
			a = &Array{}
			*v = a
		}
		walkValues(c, &a.Elems, depth+1)
	case tagFifo:
		f, _ := (*v).(*Fifo)
		if f == nil {
			f = &Fifo{}
			*v = f
		}
		walkValues(c, &f.Elems, depth+1)
	default:
		c.Fail(fmt.Errorf("wvm: unknown value tag %d", tag))
	}
}

// scalar walks the T that *v holds; decoding stores the T it read, and
// encoding leaves *v as it is.
func scalar[T any](c *wire.Codec, v *Value, walk func(c *wire.Codec, x *T)) {
	x, _ := (*v).(T)
	walk(c, &x)
	if c.Decoding() {
		*v = x
	}
}

// walkValues walks a counted run of values at one nesting depth; every
// value is at least its tag byte.
func walkValues(c *wire.Codec, vs *[]Value, depth int) {
	wire.Slice(c, vs, 1, func(c *wire.Codec, v *Value) { walkValue(c, v, depth) })
}

// State is one operator instance's VM state: the state-variable slots plus
// the fuel the instance has burned so far. It lives in dataflow.Ctx.State
// as a plain serializable value, which is what lets wscript operators
// stream, snapshot, resume, and shard like built-in ones.
type State struct {
	// Slots are the operator's state variables, in declaration order.
	Slots []Value
	// FuelUsed is the cumulative fuel this instance has burned. It is
	// part of the snapshot so metering survives resume.
	FuelUsed uint64
	// memBytes caches the retained-size estimate of Slots as of the last
	// completed invocation (only maintained when a memory cap is set).
	memBytes int64
}

func (s *State) walk(c *wire.Codec) {
	c.Uint64(&s.FuelUsed)
	walkValues(c, &s.Slots, 0)
}

// Save serializes the state with SaveState semantics: the restored
// instance's future output is byte-identical to continuing with this one.
func (s *State) Save() ([]byte, error) { return wire.Encode(s.walk) }

// LoadState restores a state serialized by Save.
func LoadState(data []byte) (*State, error) {
	st := &State{}
	if err := wire.Decode(data, st.walk); err != nil {
		return nil, fmt.Errorf("wvm: state: %w", err)
	}
	st.memBytes = -1 // recompute lazily on first metered invocation
	return st, nil
}
