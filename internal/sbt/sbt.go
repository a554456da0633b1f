package sbt

import (
	"fmt"

	"codesignvm/internal/codecache"
	"codesignvm/internal/crack"
	"codesignvm/internal/fisa"
	"codesignvm/internal/profile"
	"codesignvm/internal/x86"
)

// Config controls superblock formation and optimization.
type Config struct {
	MaxInsts   int     // architected instruction cap per superblock
	MinBias    float64 // minimum edge bias to keep following a cond branch
	FuseWindow int     // reorder window (micro-ops) for pairing
	// EnableFusion is the paper's optimizer: reorder dependent pairs and
	// set the fusible bit (on in the baseline VM).
	EnableFusion bool
	// EnableCopyProp and EnableDCE are classical-cleanup extensions
	// beyond the paper's reorder+fuse algorithm; they are off in the
	// baseline configuration and quantified by the ablation experiment.
	EnableCopyProp bool
	EnableDCE      bool
}

// DefaultConfig matches the baseline VM (fusion only, per the paper).
var DefaultConfig = Config{
	MaxInsts:     200,
	MinBias:      0.60,
	FuseWindow:   8,
	EnableFusion: true,
}

// symbolic exit marker: during optimization UBR.Imm holds an exit index;
// the final layout pass rewrites it to a micro-op index.

type former struct {
	cfg   Config
	mem   *x86.Memory
	edges *profile.EdgeProfile

	body     []fisa.MicroOp
	exits    []codecache.Exit
	seen     map[uint32]bool
	numX86   int
	x86Bytes int

	t   codecache.Translation
	pos []int32
}

func (f *former) addExit(e codecache.Exit) int32 {
	f.exits = append(f.exits, e)
	return int32(len(f.exits) - 1)
}

// Former is a reusable superblock builder. Its Form builds each
// superblock into retained backing storage, so repeated formation is
// (nearly) allocation-free; the returned translation and its slices
// are valid only until the next call and must be copied out — the VMM
// commits it into the SBT cache's arena — before then.
type Former struct {
	f former
}

// Form builds and optimizes the superblock starting at entry into the
// Former's reusable storage.
func (fo *Former) Form(mem *x86.Memory, entry uint32, edges *profile.EdgeProfile, cfg Config) (*codecache.Translation, error) {
	if cfg.MaxInsts <= 0 {
		cfg = DefaultConfig
	}
	f := &fo.f
	f.cfg, f.mem, f.edges = cfg, mem, edges
	f.body = f.body[:0]
	f.exits = f.exits[:0]
	if f.seen == nil {
		f.seen = map[uint32]bool{}
	} else {
		clear(f.seen)
	}
	f.numX86, f.x86Bytes = 0, 0

	terminal, err := f.follow(entry)
	if err != nil {
		return nil, err
	}

	f.t = codecache.Translation{
		Kind:     codecache.KindSBT,
		EntryPC:  entry,
		NumX86:   f.numX86,
		X86Bytes: f.x86Bytes,
		Exits:    f.exits,
	}
	t := &f.t

	body := f.body
	if cfg.EnableCopyProp {
		body = copyPropagate(body)
	}
	if cfg.EnableDCE {
		body = eliminateDead(body, t.Exits)
	}
	if cfg.EnableFusion {
		body = fuse(body, cfg.FuseWindow)
	}

	// Final layout: body, then the terminal exit trampoline (reached by
	// falling off the body), then side-exit trampolines. UBR immediates
	// are patched from symbolic exit indices to micro-op indices.
	// Every index of pos is assigned below (terminal plus each side
	// exit), so the reused buffer needs no zeroing.
	if cap(f.pos) >= len(t.Exits) {
		f.pos = f.pos[:len(t.Exits)]
	} else {
		f.pos = make([]int32, len(t.Exits))
	}
	pos := f.pos
	next := int32(len(body))
	pos[terminal] = next
	next++
	for i := range t.Exits {
		if int32(i) != terminal {
			pos[i] = next
			next++
		}
	}
	uops := append(body, trampoline(t, terminal))
	for i := range t.Exits {
		if int32(i) != terminal {
			uops = append(uops, trampoline(t, int32(i)))
		}
	}
	// One walk patches the branches and sizes the superblock (the
	// passes above change which micro-ops fit the 16-bit form, so the
	// crackers' running size does not survive them).
	size := 0
	for i := range uops {
		if uops[i].Op == fisa.UBR {
			uops[i].Imm = pos[uops[i].Imm]
		}
		size += fisa.EncodedLen(&uops[i])
	}
	t.Uops = uops
	t.NumUops = len(uops)
	t.Size = size
	return t, nil
}

// trampoline is the exit micro-op for exit descriptor exitIdx of t.
func trampoline(t *codecache.Translation, exitIdx int32) fisa.MicroOp {
	return fisa.MicroOp{Op: fisa.UEXIT, W: 4, Imm: exitIdx, Src1: t.Exits[exitIdx].TargetReg}
}

// follow walks the hot path from entry, cracking instructions into
// f.body, and returns the index of the terminal exit.
func (f *former) follow(entry uint32) (int32, error) {
	cur := entry
	for {
		f.seen[cur] = true
		blockEnd, desc, err := f.crackBlock(cur)
		if err != nil {
			return 0, err
		}

		switch desc.Kind {
		case crack.KindCondBranch:
			taken := float64(f.edges.Count(blockEnd, desc.Target))
			fall := float64(f.edges.Count(blockEnd, desc.NextPC))
			followTaken := taken > fall
			bias := 0.5
			if taken+fall > 0 {
				bias = maxf(taken, fall) / (taken + fall)
			}
			var inline, side uint32
			var sideCond x86.Cond
			if followTaken {
				inline, side = desc.Target, desc.NextPC
				sideCond = desc.Cond.Negate() // leave when the branch falls through
			} else {
				inline, side = desc.NextPC, desc.Target
				sideCond = desc.Cond // leave when the branch is taken
			}
			stopHere := bias < f.cfg.MinBias || f.numX86 >= f.cfg.MaxInsts || f.seen[inline]
			if stopHere {
				// End the superblock at this branch with both exits.
				fallIdx := f.addExit(codecache.Exit{Kind: codecache.ExitFall, Target: desc.NextPC, BranchPC: blockEnd})
				takenIdx := f.addExit(codecache.Exit{Kind: codecache.ExitSide, Target: desc.Target, BranchPC: blockEnd})
				f.body = append(f.body, fisa.MicroOp{
					Op: fisa.UBR, W: 4, Cond: desc.Cond, Imm: takenIdx, X86PC: blockEnd, Boundary: 1,
				})
				return fallIdx, nil
			}
			sideIdx := f.addExit(codecache.Exit{Kind: codecache.ExitSide, Target: side, BranchPC: blockEnd})
			f.body = append(f.body, fisa.MicroOp{
				Op: fisa.UBR, W: 4, Cond: sideCond, Imm: sideIdx, X86PC: blockEnd, Boundary: 1,
			})
			cur = inline

		case crack.KindJump:
			// Straighten the jump: it retires but emits no work. Its
			// retirement is attached to the next emitted micro-op via an
			// extra boundary count carried on a pending counter.
			if f.seen[desc.Target] || f.numX86 >= f.cfg.MaxInsts {
				idx := f.addExit(codecache.Exit{Kind: codecache.ExitTaken, Target: desc.Target, BranchPC: blockEnd})
				f.body = append(f.body, fisa.MicroOp{Op: fisa.UNOP, W: 4, X86PC: blockEnd, Boundary: 1})
				return idx, nil
			}
			// The jump is elided; account its retirement on a NOP that
			// DCE will keep (boundary-carrying NOPs are never removed).
			f.body = append(f.body, fisa.MicroOp{Op: fisa.UNOP, W: 4, X86PC: blockEnd, Boundary: 1})
			cur = desc.Target

		case crack.KindCall:
			idx := f.addExit(codecache.Exit{
				Kind: codecache.ExitTaken, Target: desc.Target, BranchPC: blockEnd,
				Call: true, ReturnPC: desc.NextPC,
			})
			f.markLastBoundary()
			return idx, nil

		case crack.KindJumpInd, crack.KindCallInd, crack.KindRet:
			idx := f.addExit(codecache.Exit{
				Kind: codecache.ExitIndirect, TargetReg: desc.TargetReg, BranchPC: blockEnd,
				Call: desc.Kind == crack.KindCallInd, ReturnPC: desc.NextPC,
				Ret: desc.Kind == crack.KindRet,
			})
			f.markLastBoundary()
			return idx, nil

		case crack.KindHalt:
			idx := f.addExit(codecache.Exit{Kind: codecache.ExitHalt})
			f.body = append(f.body, fisa.MicroOp{Op: fisa.UNOP, W: 4, X86PC: blockEnd, Boundary: 1})
			return idx, nil

		case crack.KindNormal, crack.KindComplex:
			// Fall-through block end (length cap inside crackBlock).
			idx := f.addExit(codecache.Exit{Kind: codecache.ExitFall, Target: desc.NextPC})
			return idx, nil
		}
	}
}

// markLastBoundary attributes the CTI's retirement to the last micro-op
// it emitted (calls and returns emit data-flow micro-ops).
func (f *former) markLastBoundary() {
	if len(f.body) > 0 {
		f.body[len(f.body)-1].Boundary++
	}
}

// crackBlock cracks instructions from pc to the next CTI (or the length
// cap), returning the PC of the final instruction and its descriptor.
func (f *former) crackBlock(pc uint32) (uint32, crack.Desc, error) {
	cur := pc
	for {
		in, err := x86.DecodeMem(f.mem, cur)
		if err != nil {
			return cur, crack.Desc{}, fmt.Errorf("sbt: decode at %#x: %w", cur, err)
		}
		before := len(f.body)
		var desc crack.Desc
		f.body, desc, err = crack.Crack(f.body, &in, cur)
		if err != nil {
			return cur, crack.Desc{}, fmt.Errorf("sbt: %#x: %w", cur, err)
		}
		f.numX86++
		f.x86Bytes += int(in.Len)
		if desc.Kind.IsCTI() {
			return cur, desc, nil
		}
		if len(f.body) > before {
			f.body[len(f.body)-1].Boundary++
		}
		if f.numX86 >= f.cfg.MaxInsts {
			desc.Kind = crack.KindNormal
			return cur, desc, nil
		}
		cur = desc.NextPC
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
