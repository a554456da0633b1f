package codecache

import (
	"unsafe"

	"codesignvm/internal/fisa"
)

// UopMeta is the precomputed issue shape of the entity that *starts* at
// the micro-op with the same index, under the owning machine's pipeline
// parameters. The timing engine's block replay walks this table instead
// of re-deriving sources and latencies from the micro-ops on every
// dynamic execution.
//
// The record has one shape whatever the entity: the issue step always
// waits for Srcs[0], Srcs[1] and FlagSrc and always marks the three Dsts
// ready, with no test of what the entity is. Slots an entity does not
// use name a pseudo-register of the engine's ready-time table (RegZero
// to wait for, RegSink to mark), and the condition flags are one more
// slot of that table (RegFlags). Only the rare entity with more than two
// register sources (a divide, some fused pairs) takes a branch.
//
// For a fused macro-op head the entry describes the whole pair (Step
// 2); for a pair tail the entry describes the tail as a standalone
// entity, which is what a replay starting mid-pair executes.
type UopMeta struct {
	Lat     uint16      // base result latency in whole cycles; a load's true hierarchy latency overrides it when MetaHasLoad
	Srcs    [6]fisa.Reg // register sources, intra-pair collapsed dependences removed; RegZero past NSrc
	FlagSrc fisa.Reg    // RegFlags when the entity reads the condition flags, else RegZero
	Dsts    [3]fisa.Reg // head destination, tail destination, RegFlags when the flags are written; RegSink when absent
	NSrc    uint8       // live entries in Srcs
	Step    uint8       // micro-ops the entity consumes (2 for a fused pair)
	Bits    uint8       // Meta* event bits
}

// The arena carves UopMeta by the slab and the benchmark bounds
// alloc_kb_per_op: the record must not grow. Lat can be a 16-bit
// whole-cycle count because every latency in timing.Params is an int,
// and timing.NewEngine refuses one that does not fit.
var _ [16]byte = [unsafe.Sizeof(UopMeta{})]byte{}

// Pseudo-registers: slots of the timing engine's ready-time table past
// the architected-plus-temporary register file, which a fisa.Reg can
// index (the table spans the whole uint8 space) but no micro-op names.
const (
	RegZero  fisa.Reg = 255 // never marked ready, so always ready at cycle 0: pads Srcs and FlagSrc
	RegSink  fisa.Reg = 254 // marked and never waited for: pads Dsts
	RegFlags fisa.Reg = 253 // the condition flags

	minPseudoReg = RegFlags
)

// Micro-op register fields must stay clear of the pseudo-registers (a
// negative array length does not compile).
var _ [minPseudoReg - fisa.NumRegs]struct{}

// UopMeta event bits.
const (
	MetaHasLoad  uint8 = 1 << iota // the entity contains a load; its latency comes from the hierarchy
	MetaIsBranch                   // the entity contains a UBR; it may carry a misprediction bubble
)
