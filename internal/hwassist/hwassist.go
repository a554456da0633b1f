// Package hwassist models the two hardware translation assists proposed
// by the paper:
//
//   - XLTx86 (Table 1): a backend functional unit in the FP/media
//     cluster. One invocation decodes the x86 instruction at the head of
//     the 128-bit Fsrc register and deposits its micro-ops in Fdst,
//     setting the CSR status register (x86_ilen, µops_bytes, Flag_cmplx,
//     Flag_cti). The VMM drives it with the HAloop kernel (Fig. 6),
//     cutting BBT cost from ~83 to ~20 cycles per x86 instruction.
//     Complex instructions (Flag_cmplx) are off-loaded to software.
//
//   - The dual-mode frontend decoder (Fig. 4/5): a two-level decoder
//     whose first level cracks x86 instructions into vertical micro-ops
//     and whose second level generates pipeline control signals. With
//     the bypass path, translated native code skips the first level; in
//     x86-mode the machine executes architected code directly, so cold
//     code needs no BBT at all.
//
// Both assists share the crack package with software BBT — the co-design
// property that guarantees all three translation paths agree.
package hwassist

import (
	"fmt"

	"codesignvm/internal/crack"
	"codesignvm/internal/fisa"
	"codesignvm/internal/x86"
)

// FsrcBytes is the size of the Fsrc/Fdst registers (128 bits).
const FsrcBytes = 16

// CSR is the control & status register written by XLTx86 (Fig. 6b).
type CSR struct {
	X86ILen   uint8 // length of the decoded x86 instruction (4 bits)
	UopBytes  uint8 // bytes of generated micro-ops (4 bits, 0 means 16)
	FlagCmplx bool  // instruction too complex for the hardware decoder
	FlagCti   bool  // instruction is a control transfer
}

func (c CSR) String() string {
	return fmt.Sprintf("CSR{ilen=%d µbytes=%d cmplx=%v cti=%v}", c.X86ILen, c.UopBytes, c.FlagCmplx, c.FlagCti)
}

// XLTUnit is the architectural model of the backend functional unit.
type XLTUnit struct {
	Latency int // execution latency in cycles (4 in the paper)

	// Statistics for the energy/activity analysis (Fig. 11).
	Invocations      uint64 // XLTx86 instructions executed
	ComplexFallbacks uint64 // instructions refused to software
	BusyCycles       uint64 // cycles the unit was occupied
}

// NewXLTUnit returns the unit with the paper's 4-cycle latency.
func NewXLTUnit() *XLTUnit { return &XLTUnit{Latency: 4} }

// Translate performs one XLTx86 invocation on the instruction at pc. It
// returns the generated micro-ops (nil when the instruction is refused),
// the resulting CSR, and the crack descriptor for the block assembler.
//
// The hardware refuses — setting Flag_cmplx — when the instruction is in
// the complex class, longer than the Fsrc register, or cracks to more
// micro-op bytes than Fdst holds; the VMM then falls back to the software
// cracker for that instruction (at software cost).
func (u *XLTUnit) Translate(mem *x86.Memory, pc uint32) ([]fisa.MicroOp, CSR, crack.Desc, error) {
	u.Invocations++
	u.BusyCycles += uint64(u.Latency)

	in, err := x86.DecodeMem(mem, pc)
	if err != nil {
		return nil, CSR{FlagCmplx: true}, crack.Desc{}, err
	}
	csr := CSR{X86ILen: in.Len, FlagCti: in.Op.IsCTI()}

	if in.Op.IsComplex() || in.Len > FsrcBytes {
		csr.FlagCmplx = true
		u.ComplexFallbacks++
		// The software path still produces the translation content.
		uops, desc, err := crack.Crack(nil, &in, pc)
		return uops, csr, desc, err
	}

	uops, desc, err := crack.Crack(nil, &in, pc)
	if err != nil {
		return nil, csr, desc, err
	}
	bytes := desc.Bytes
	if bytes > FsrcBytes {
		// Result does not fit in Fdst: flagged complex, software handles
		// it (the content is identical; only the cost differs).
		csr.FlagCmplx = true
		u.ComplexFallbacks++
	}
	csr.UopBytes = uint8(bytes & 0xF) // 4-bit field; 0 encodes 16
	return uops, csr, desc, nil
}

// DualModeDecoder is the bookkeeping model of the two-level frontend
// decoder. The functional content of x86-mode execution is produced by
// the shared cracker; this type tracks first-level decoder activity for
// the energy analysis and answers mode questions for the VMM.
type DualModeDecoder struct {
	// X86Cracks counts instructions that passed through the first-level
	// (x86 → vertical micro-ops) decoder, i.e. x86-mode execution.
	X86Cracks uint64
	// NativeDecodes counts micro-ops that used only the second level.
	NativeDecodes uint64
}

// OnX86Mode records the first-level decoder cracking n instructions.
func (d *DualModeDecoder) OnX86Mode(n int) { d.X86Cracks += uint64(n) }

// OnNativeMode records n micro-ops bypassing the first level.
func (d *DualModeDecoder) OnNativeMode(n int) { d.NativeDecodes += uint64(n) }
