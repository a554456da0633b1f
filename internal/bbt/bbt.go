package bbt

import (
	"fmt"

	"codesignvm/internal/codecache"
	"codesignvm/internal/crack"
	"codesignvm/internal/fisa"
	"codesignvm/internal/x86"
)

// Config controls block formation.
type Config struct {
	// MaxInsts caps the number of architected instructions per block;
	// blocks that reach the cap end with a fall-through exit.
	MaxInsts int
}

// DefaultConfig matches the baseline VM.
var DefaultConfig = Config{MaxInsts: 128}

// Scratch is a reusable translation buffer. Its Translate builds each
// block into retained backing arrays, so steady-state translation is
// allocation-free; the returned translation (including its slices) is
// valid only until the next call and must be copied out — the VMM
// commits it into a code-cache or shadow arena — before then.
type Scratch struct {
	t codecache.Translation
}

// Translate builds the basic-block translation starting at pc into the
// scratch's reusable storage. The block extends to the first
// control-transfer instruction (inclusive) or to cfg.MaxInsts.
// Complex-class instructions are embedded as VMM callouts and do not
// terminate the block.
func (s *Scratch) Translate(mem *x86.Memory, pc uint32, cfg Config) (*codecache.Translation, error) {
	uops, exits := s.t.Uops[:0], s.t.Exits[:0]
	s.t = codecache.Translation{Kind: codecache.KindBBT, EntryPC: pc, Uops: uops, Exits: exits}
	if err := translateInto(&s.t, mem, pc, cfg); err != nil {
		return nil, err
	}
	return &s.t, nil
}

func translateInto(t *codecache.Translation, mem *x86.Memory, pc uint32, cfg Config) error {
	if cfg.MaxInsts <= 0 {
		cfg.MaxInsts = DefaultConfig.MaxInsts
	}
	cur := pc
	for n := 0; n < cfg.MaxInsts; n++ {
		in, err := x86.DecodeMem(mem, cur)
		if err != nil {
			return fmt.Errorf("bbt: decode at %#x: %w", cur, err)
		}
		before := len(t.Uops)
		var desc crack.Desc
		t.Uops, desc, err = crack.Crack(t.Uops, &in, cur)
		if err != nil {
			return fmt.Errorf("bbt: %#x: %w", cur, err)
		}
		t.NumX86++
		t.Size += desc.Bytes

		if !desc.Kind.IsCTI() {
			// Mark the instruction boundary on its last micro-op.
			if len(t.Uops) > before {
				t.Uops[len(t.Uops)-1].Boundary = 1
			}
			cur = desc.NextPC
			continue
		}

		appendTerminator(t, &desc, cur)
		finish(t, desc.NextPC)
		return nil
	}

	// Block length cap reached: end with a synthetic fall-through exit
	// (not an architected instruction boundary).
	t.Exits = append(t.Exits, codecache.Exit{Kind: codecache.ExitFall, Target: cur})
	appendUops(t, fisa.MicroOp{Op: fisa.UEXIT, W: 4, Imm: int32(len(t.Exits) - 1), X86PC: cur})
	finish(t, cur)
	return nil
}

// appendUops appends the block assembler's own micro-ops (the crackers'
// are sized where they are emitted), keeping t.Size in step.
func appendUops(t *codecache.Translation, uops ...fisa.MicroOp) {
	for i := range uops {
		t.Size += fisa.EncodedLen(&uops[i])
	}
	t.Uops = append(t.Uops, uops...)
}

// addExit appends an exit descriptor and returns its index.
func addExit(t *codecache.Translation, e codecache.Exit) int32 {
	t.Exits = append(t.Exits, e)
	return int32(len(t.Exits) - 1)
}

// appendTerminator emits the exit micro-ops and exit descriptors for the
// block-ending CTI described by desc.
func appendTerminator(t *codecache.Translation, desc *crack.Desc, pc uint32) {
	switch desc.Kind {
	case crack.KindCondBranch:
		fall := addExit(t, codecache.Exit{Kind: codecache.ExitFall, Target: desc.NextPC, BranchPC: pc})
		taken := addExit(t, codecache.Exit{Kind: codecache.ExitTaken, Target: desc.Target, BranchPC: pc})
		// UBR jumps to the taken trampoline; fall-through reaches the
		// fall trampoline immediately after it.
		brIdx := len(t.Uops)
		appendUops(t,
			fisa.MicroOp{Op: fisa.UBR, W: 4, Cond: desc.Cond, Imm: int32(brIdx + 2), X86PC: pc, Boundary: 1},
			fisa.MicroOp{Op: fisa.UEXIT, W: 4, Imm: fall, X86PC: pc},
			fisa.MicroOp{Op: fisa.UEXIT, W: 4, Imm: taken, X86PC: pc},
		)
	case crack.KindJump, crack.KindCall:
		idx := addExit(t, codecache.Exit{
			Kind: codecache.ExitTaken, Target: desc.Target, BranchPC: pc,
			Call: desc.Kind == crack.KindCall, ReturnPC: desc.NextPC,
		})
		appendUops(t, fisa.MicroOp{Op: fisa.UEXIT, W: 4, Imm: idx, X86PC: pc, Boundary: 1})
	case crack.KindJumpInd, crack.KindCallInd, crack.KindRet:
		idx := addExit(t, codecache.Exit{
			Kind: codecache.ExitIndirect, TargetReg: desc.TargetReg, BranchPC: pc,
			Call: desc.Kind == crack.KindCallInd, ReturnPC: desc.NextPC,
			Ret: desc.Kind == crack.KindRet,
		})
		appendUops(t, fisa.MicroOp{Op: fisa.UEXIT, W: 4, Imm: idx, Src1: desc.TargetReg, X86PC: pc, Boundary: 1})
	case crack.KindHalt:
		idx := addExit(t, codecache.Exit{Kind: codecache.ExitHalt})
		appendUops(t, fisa.MicroOp{Op: fisa.UEXIT, W: 4, Imm: idx, X86PC: pc, Boundary: 1})
	default:
		panic("bbt: not a CTI kind: " + desc.Kind.String())
	}
}

// finish records the micro-op count and the architected bytes covered
// by a block ending just before end (the encoded size has been
// accumulated as the micro-ops were emitted).
func finish(t *codecache.Translation, end uint32) {
	t.NumUops = len(t.Uops)
	t.X86Bytes = int(end - t.EntryPC)
}
