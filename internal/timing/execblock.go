package timing

import (
	"fmt"

	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
	"codesignvm/internal/x86"
)

// ExecBlock is the executor of translated code: one walk over t.Uops
// does both the functional work and the per-entity dataflow charge.
// Every BBT block, SBT superblock and x86-mode shadow block runs through
// it, and fisa.Exec runs only interpreted blocks. fisa.Exec with the
// engine as its probe, followed by ChargeBlock, is the split reference
// the lockstep tests hold this function to.
//
// It is bit-identical to running fisa.Exec followed by ChargeRange over
// each linear run of micro-ops that actually executed, because
//
//   - cache and predictor accesses happen in the same program order
//     (functional order) in both, and the issue arithmetic never
//     touches either, so the hierarchies observe identical sequences;
//   - the issue step below is the arithmetic of ChargeBlock (which is
//     itself pinned to ChargeRange by TestChargeBlockMatchesChargeRange),
//     fed the same source-ready times, latencies and bubbles — a load's
//     latency computed inline equals the value the split reference
//     queues and pops, since the queues are empty at leg boundaries in
//     both;
//   - the charge is per executed entity: a micro-op that an internal
//     UJMP or a taken UBR revisits is charged again, as a replay of the
//     executed sequence would charge it.
//
// The callers' contract matches fisa.Exec: execution starts at start,
// stops at UEXIT or UCALLOUT (whose entity is issued before returning),
// and *out is filled with the leg's statistics. On an error the engine
// state reflects the entities issued so far (errors abort the whole
// run). A load, branch or stop heading a fused pair, which
// fisa.CanFuse never forms, is an error here.
//
// The functional switch computes what fisa.Exec computes, with the
// micro-ops that dominate execution resolved to their 32-bit form; the
// two are pinned together by the figure-level golden tests and the
// lockstep tests in execblock_test.go (real BBT and SBT translations,
// every opcode at every width, and hand-built internal jumps).
func (e *Engine) ExecBlock(st *fisa.NativeState, mem *x86.Memory, t *codecache.Translation, start int, out *fisa.ExecStats) (fisa.StopKind, int, error) {
	uops := t.Uops
	meta := t.Meta
	if len(meta) < len(uops) {
		return 0, 0, fmt.Errorf("timing: ExecBlock on unanalyzed translation at %#x", t.EntryPC)
	}
	meta = meta[:len(uops)]

	var stats fisa.ExecStats
	stats.TakenBranchIdx = -1

	regReady := &e.regReady

	// Little is carried from one micro-op to the next — the index and
	// whether it is a pair's tail — and the dataflow state stays in the
	// engine, touched once per entity: the switch below contains calls,
	// and everything live across it is spilled at every micro-op.
	tail := false

	for i := start; ; {
		if i < 0 || i >= len(uops) {
			*out = stats
			return 0, 0, fmt.Errorf("timing: control flow escaped translation (index %d of %d)", i, len(uops))
		}
		u := &uops[i]
		stats.Uops++
		stats.Boundaries += int(u.Boundary)

		// What this micro-op hands to its entity's issue step. A load,
		// a branch or a stop is never a pair's head (checked below), so
		// the entity issues in the iteration that sets these.
		loadLat := -1.0 // a load's true hierarchy latency
		brPen := 0.0    // misprediction bubble of a UBR (0 = predicted)
		target := -1    // taken UBR, UJMP: the micro-op to continue at
		stop := -1      // UEXIT, UCALLOUT: the fisa.StopKind

		switch u.Op {
		case fisa.UNOP:

		case fisa.UMOVI:
			st.R[u.Dst] = uint32(u.Imm)
		case fisa.UMOVIU:
			st.R[u.Dst] = uint32(u.Imm) << 16
		case fisa.UORILO:
			st.R[u.Dst] |= uint32(u.Imm) & 0xFFFF

		case fisa.UMOV:
			fisa.WriteMerged(st, u.Dst, st.R[u.Src1], u.W)

		// The five two-operand ALU micro-ops and their immediate forms
		// are most of what executes: each has its own case, and in it
		// the 32-bit form comes first, with its flags from the 32-bit
		// rule and no merge. The sub-width forms go through aluGeneric.
		case fisa.UADD:
			a, b := st.R[u.Src1], st.R[u.Src2]
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsAdd32(a, b)
				}
				st.R[u.Dst] = a + b
			} else {
				aluGeneric(st, u, fisa.UADD, a, b)
			}
		case fisa.UADDI:
			a, b := st.R[u.Src1], uint32(u.Imm)
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsAdd32(a, b)
				}
				st.R[u.Dst] = a + b
			} else {
				aluGeneric(st, u, fisa.UADD, a, b)
			}
		case fisa.USUB:
			a, b := st.R[u.Src1], st.R[u.Src2]
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsSub32(a, b)
				}
				st.R[u.Dst] = a - b
			} else {
				aluGeneric(st, u, fisa.USUB, a, b)
			}
		case fisa.USUBI:
			a, b := st.R[u.Src1], uint32(u.Imm)
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsSub32(a, b)
				}
				st.R[u.Dst] = a - b
			} else {
				aluGeneric(st, u, fisa.USUB, a, b)
			}
		case fisa.UAND:
			a, b := st.R[u.Src1], st.R[u.Src2]
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsLogic32(a & b)
				}
				st.R[u.Dst] = a & b
			} else {
				aluGeneric(st, u, fisa.UAND, a, b)
			}
		case fisa.UANDI:
			a, b := st.R[u.Src1], uint32(u.Imm)
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsLogic32(a & b)
				}
				st.R[u.Dst] = a & b
			} else {
				aluGeneric(st, u, fisa.UAND, a, b)
			}
		case fisa.UOR:
			a, b := st.R[u.Src1], st.R[u.Src2]
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsLogic32(a | b)
				}
				st.R[u.Dst] = a | b
			} else {
				aluGeneric(st, u, fisa.UOR, a, b)
			}
		case fisa.UORI:
			a, b := st.R[u.Src1], uint32(u.Imm)
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsLogic32(a | b)
				}
				st.R[u.Dst] = a | b
			} else {
				aluGeneric(st, u, fisa.UOR, a, b)
			}
		case fisa.UXOR:
			a, b := st.R[u.Src1], st.R[u.Src2]
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsLogic32(a ^ b)
				}
				st.R[u.Dst] = a ^ b
			} else {
				aluGeneric(st, u, fisa.UXOR, a, b)
			}
		case fisa.UXORI:
			a, b := st.R[u.Src1], uint32(u.Imm)
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsLogic32(a ^ b)
				}
				st.R[u.Dst] = a ^ b
			} else {
				aluGeneric(st, u, fisa.UXOR, a, b)
			}

		case fisa.UADC, fisa.USBB, fisa.UMUL:
			aluGeneric(st, u, u.Op, st.R[u.Src1], st.R[u.Src2])

		case fisa.USHL, fisa.USHLI, fisa.USHR, fisa.USHRI, fisa.USAR, fisa.USARI,
			fisa.UROL, fisa.UROLI, fisa.UROR, fisa.URORI:
			a := st.R[u.Src1]
			var count uint8
			switch u.Op {
			case fisa.USHLI, fisa.USHRI, fisa.USARI, fisa.UROLI, fisa.URORI:
				count = uint8(u.Imm)
			default:
				count = uint8(st.R[u.Src2])
			}
			var res uint32
			var fl x86.Flags
			switch u.Op {
			case fisa.USHL, fisa.USHLI:
				res, fl = x86.FlagsShl(st.Flags, a, count, u.W)
			case fisa.USHR, fisa.USHRI:
				res, fl = x86.FlagsShr(st.Flags, a, count, u.W)
			case fisa.UROL, fisa.UROLI:
				res, fl = x86.FlagsRol(st.Flags, a, count, u.W)
			case fisa.UROR, fisa.URORI:
				res, fl = x86.FlagsRor(st.Flags, a, count, u.W)
			default:
				res, fl = x86.FlagsSar(st.Flags, a, count, u.W)
			}
			if u.SetF {
				st.Flags = fl
			}
			fisa.WriteMerged(st, u.Dst, res, u.W)

		case fisa.UNEG:
			a := st.R[u.Src1]
			if u.SetF {
				st.Flags = x86.FlagsNeg(a, u.W)
			}
			fisa.WriteMerged(st, u.Dst, -a, u.W)

		case fisa.UNOT:
			fisa.WriteMerged(st, u.Dst, ^st.R[u.Src1], u.W)

		case fisa.UINC:
			a := st.R[u.Src1]
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsInc32(st.Flags, a)
				}
				st.R[u.Dst] = a + 1
			} else {
				if u.SetF {
					st.Flags = x86.FlagsInc(st.Flags, a, u.W)
				}
				fisa.WriteMerged(st, u.Dst, a+1, u.W)
			}

		case fisa.UDEC:
			a := st.R[u.Src1]
			if u.W == 4 {
				if u.SetF {
					st.Flags = x86.FlagsDec32(st.Flags, a)
				}
				st.R[u.Dst] = a - 1
			} else {
				if u.SetF {
					st.Flags = x86.FlagsDec(st.Flags, a, u.W)
				}
				fisa.WriteMerged(st, u.Dst, a-1, u.W)
			}

		case fisa.UMULHU:
			full := uint64(st.R[u.Src1]) * uint64(st.R[u.Src2])
			hi := uint32(full >> 32)
			if u.SetF {
				st.Flags = st.Flags &^ (x86.FlagCF | x86.FlagOF)
				if hi != 0 {
					st.Flags |= x86.FlagCF | x86.FlagOF
				}
			}
			st.R[u.Dst] = hi

		case fisa.UMULHS:
			full := int64(int32(st.R[u.Src1])) * int64(int32(st.R[u.Src2]))
			if u.SetF {
				st.Flags = st.Flags &^ (x86.FlagCF | x86.FlagOF)
				if full != int64(int32(full)) {
					st.Flags |= x86.FlagCF | x86.FlagOF
				}
			}
			st.R[u.Dst] = uint32(full >> 32)

		case fisa.UDIVQ, fisa.UDIVR:
			divisor := uint64(st.R[u.Src1])
			if divisor == 0 {
				*out = stats
				return 0, 0, fmt.Errorf("fisa: divide fault at µop %d", i)
			}
			dividend := uint64(st.R[fisa.REDX])<<32 | uint64(st.R[fisa.REAX])
			q := dividend / divisor
			if q > 0xFFFFFFFF {
				*out = stats
				return 0, 0, fmt.Errorf("fisa: divide overflow at µop %d", i)
			}
			if u.Op == fisa.UDIVQ {
				st.R[u.Dst] = uint32(q)
			} else {
				st.R[u.Dst] = uint32(dividend % divisor)
			}

		case fisa.UIDIVQ, fisa.UIDIVR:
			divisor := int64(int32(st.R[u.Src1]))
			if divisor == 0 {
				*out = stats
				return 0, 0, fmt.Errorf("fisa: divide fault at µop %d", i)
			}
			dividend := int64(uint64(st.R[fisa.REDX])<<32 | uint64(st.R[fisa.REAX]))
			q := dividend / divisor
			if q > 0x7FFFFFFF || q < -0x80000000 {
				*out = stats
				return 0, 0, fmt.Errorf("fisa: divide overflow at µop %d", i)
			}
			if u.Op == fisa.UIDIVQ {
				st.R[u.Dst] = uint32(int32(q))
			} else {
				st.R[u.Dst] = uint32(int32(dividend % divisor))
			}

		case fisa.UEXT8H:
			st.R[u.Dst] = (st.R[u.Src1] >> 8) & 0xFF
		case fisa.UINS8H:
			st.R[u.Dst] = st.R[u.Dst]&^uint32(0xFF00) | ((st.R[u.Src1] & 0xFF) << 8)
		case fisa.USEXT8:
			st.R[u.Dst] = uint32(int32(int8(st.R[u.Src1])))
		case fisa.USEXT16:
			st.R[u.Dst] = uint32(int32(int16(st.R[u.Src1])))
		case fisa.UZEXT8:
			st.R[u.Dst] = st.R[u.Src1] & 0xFF
		case fisa.UZEXT16:
			st.R[u.Dst] = st.R[u.Src1] & 0xFFFF

		case fisa.ULD, fisa.ULD8Z, fisa.ULD8S, fisa.ULD16Z, fisa.ULD16S:
			addr := st.R[u.Src1] + uint32(u.Imm)
			stats.Loads++
			// fisa.Exec's probe queues this exact value (Engine.OnLoad)
			// and ChargeBlock pops it when the entity is charged.
			loadLat = float64(e.P.LoadLatency + e.Caches.DataPenalty(addr, false))
			switch u.Op {
			case fisa.ULD:
				st.R[u.Dst] = mem.Read32(addr)
			case fisa.ULD8Z:
				st.R[u.Dst] = uint32(mem.Read8(addr))
			case fisa.ULD8S:
				st.R[u.Dst] = uint32(int32(int8(mem.Read8(addr))))
			case fisa.ULD16Z:
				st.R[u.Dst] = uint32(mem.Read16(addr))
			case fisa.ULD16S:
				st.R[u.Dst] = uint32(int32(int16(mem.Read16(addr))))
			}

		case fisa.UST, fisa.UST8, fisa.UST16:
			addr := st.R[u.Src1] + uint32(u.Imm)
			stats.Stores++
			e.Caches.DataPenalty(addr, true) // write-allocate, buffered
			switch u.Op {
			case fisa.UST:
				mem.Write32(addr, st.R[u.Src2])
			case fisa.UST8:
				mem.Write8(addr, uint8(st.R[u.Src2]))
			case fisa.UST16:
				mem.Write16(addr, uint16(st.R[u.Src2]))
			}

		case fisa.UCMP:
			if a, b := st.R[u.Src1], st.R[u.Src2]; u.W == 4 {
				st.Flags = x86.FlagsSub32(a, b)
			} else {
				st.Flags = x86.FlagsSub(a, b, u.W)
			}
		case fisa.UCMPI:
			if a, b := st.R[u.Src1], uint32(u.Imm); u.W == 4 {
				st.Flags = x86.FlagsSub32(a, b)
			} else {
				st.Flags = x86.FlagsSub(a, b, u.W)
			}
		case fisa.UTEST:
			if a, b := st.R[u.Src1], st.R[u.Src2]; u.W == 4 {
				st.Flags = x86.FlagsLogic32(a & b)
			} else {
				st.Flags = x86.FlagsLogic(a&b, u.W)
			}
		case fisa.UTESTI:
			if a, b := st.R[u.Src1], uint32(u.Imm); u.W == 4 {
				st.Flags = x86.FlagsLogic32(a & b)
			} else {
				st.Flags = x86.FlagsLogic(a&b, u.W)
			}

		case fisa.UCMOV:
			if u.Cond.Holds(st.Flags) {
				fisa.WriteMerged(st, u.Dst, st.R[u.Src1], u.W)
			}

		case fisa.USETC:
			var vv uint32
			if u.Cond.Holds(st.Flags) {
				vv = 1
			}
			fisa.WriteMerged(st, u.Dst, vv, 1)

		case fisa.UBR:
			taken := u.Cond.Holds(st.Flags)
			// The predictor trains at functional-execution order; the
			// bubble is applied when the entity is charged below.
			if e.Pred.Cond(u.X86PC, taken) {
				brPen = float64(e.P.MispredictPenalty)
			}
			if taken {
				stats.TakenBranchIdx = i
				target = int(u.Imm)
			}

		case fisa.UJMP:
			target = int(u.Imm)

		case fisa.UEXIT:
			stop = int(fisa.StopExit)

		case fisa.UCALLOUT:
			stop = int(fisa.StopCallout)

		default:
			*out = stats
			return 0, 0, fmt.Errorf("timing: cannot fuse-execute %v", u.Op)
		}

		// The entity issues after its last micro-op: two register
		// sources, the flag slot and three destinations, unconditionally
		// (see ChargeBlock for why the padded slots leave every cycle
		// unchanged).
		m := &meta[i]
		if tail {
			m = &meta[i-1]
			tail = false
		} else if m.Step == 2 {
			if u.IsLoad() || u.IsBranch() {
				// Its hand-off would be lost here. No translator fuses
				// one (fisa.CanFuse).
				*out = stats
				return 0, 0, fmt.Errorf("timing: %v heads a fused pair at µop %d", u.Op, i)
			}
			tail = true
			i++
			continue
		}
		stats.Entities++

		src := regReady[m.Srcs[0]]
		if r := regReady[m.Srcs[1]]; r > src {
			src = r
		}
		if r := regReady[m.FlagSrc]; r > src {
			src = r
		}
		if m.NSrc > 2 {
			for _, s := range m.Srcs[2:m.NSrc] {
				if r := regReady[s]; r > src {
					src = r
				}
			}
		}
		lat := float64(m.Lat)
		if loadLat >= 0 {
			lat = loadLat
		}

		// issueEntity, open-coded.
		ring, ringIdx := e.ring, e.ringIdx
		slot := e.clock
		if w := ring[ringIdx]; w > slot {
			slot = w
		}
		issue := slot
		if src > issue {
			issue = src
		}
		complete := issue + lat
		retire := complete
		if e.lastRetire > retire {
			retire = e.lastRetire
		}
		e.lastRetire = retire
		ring[ringIdx] = retire
		ringIdx++
		if ringIdx == len(ring) {
			ringIdx = 0
		}
		e.ringIdx = ringIdx
		clock := slot + e.invWidth

		regReady[m.Dsts[0]] = complete
		regReady[m.Dsts[1]] = complete
		regReady[m.Dsts[2]] = complete

		if brPen > 0 {
			resume := complete + brPen
			if resume > clock {
				e.brStall += resume - clock
				clock = resume
			}
		}
		e.clock = clock

		if stop >= 0 {
			*out = stats
			return fisa.StopKind(stop), i, nil
		}
		i++
		if target >= 0 {
			i = target
		}
	}
}

// aluGeneric executes a two-operand ALU micro-op at any width through
// the width-generic helpers: the 8- and 16-bit forms of the micro-ops
// ExecBlock resolves at 32 bits itself, and every form of ADC, SBB and
// MUL.
func aluGeneric(st *fisa.NativeState, u *fisa.MicroOp, op fisa.Op, a, b uint32) {
	if u.SetF {
		res, fl := fisa.AluCompute(op, a, b, st.Flags, u.W)
		st.Flags = fl
		fisa.WriteMerged(st, u.Dst, res, u.W)
	} else {
		fisa.WriteMerged(st, u.Dst, fisa.AluValue(op, a, b, st.Flags), u.W)
	}
}
