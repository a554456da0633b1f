// Package x86 implements the architected ISA of the co-designed virtual
// machine: a faithful subset of IA-32 with variable-length instruction
// encoding (prefixes, ModRM, SIB, displacements, immediates), full
// arithmetic-flag semantics, architectural register state and a sparse
// paged memory.
//
// The subset covers the integer instructions that dominate Windows-style
// application code (data movement, ALU, compare/test, shifts, stack
// operations, control transfer, conditional sets, sign/zero extension)
// plus a "complex" class (divide, wide multiply, string operations) that
// exercises the software-fallback path of the hardware translation
// assists, mirroring the Flag_cmplx mechanism of the paper's XLTx86 unit.
package x86

import "fmt"

// Reg names a 32-bit general-purpose register. The numeric values are the
// IA-32 register encodings used in ModRM bytes.
type Reg uint8

// General-purpose register encodings.
const (
	EAX Reg = 0
	ECX Reg = 1
	EDX Reg = 2
	EBX Reg = 3
	ESP Reg = 4
	EBP Reg = 5
	ESI Reg = 6
	EDI Reg = 7
)

// NumRegs is the number of architected general-purpose registers.
const NumRegs = 8

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}
var regNames16 = [NumRegs]string{"ax", "cx", "dx", "bx", "sp", "bp", "si", "di"}
var regNames8 = [NumRegs]string{"al", "cl", "dl", "bl", "ah", "ch", "dh", "bh"}

func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d?", uint8(r))
}

// Name returns the register name at the given operand width (1, 2 or 4
// bytes). Width-1 names follow the IA-32 byte-register convention where
// encodings 4-7 select the high bytes AH, CH, DH, BH.
func (r Reg) Name(width uint8) string {
	if int(r) >= NumRegs {
		return fmt.Sprintf("r%d?", uint8(r))
	}
	switch width {
	case 1:
		return regNames8[r]
	case 2:
		return regNames16[r]
	default:
		return regNames[r]
	}
}

// Cond is an IA-32 condition code (the low nibble of the Jcc/SETcc
// opcodes).
type Cond uint8

// Condition codes.
const (
	CondO  Cond = 0x0 // overflow
	CondNO Cond = 0x1
	CondB  Cond = 0x2 // below (CF)
	CondAE Cond = 0x3
	CondE  Cond = 0x4 // equal (ZF)
	CondNE Cond = 0x5
	CondBE Cond = 0x6 // below or equal (CF|ZF)
	CondA  Cond = 0x7
	CondS  Cond = 0x8 // sign
	CondNS Cond = 0x9
	CondP  Cond = 0xA // parity
	CondNP Cond = 0xB
	CondL  Cond = 0xC // less (SF!=OF)
	CondGE Cond = 0xD
	CondLE Cond = 0xE // less or equal (ZF | SF!=OF)
	CondG  Cond = 0xF
)

var condNames = [16]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

func (c Cond) String() string { return condNames[c&0xF] }

// Negate returns the complementary condition.
func (c Cond) Negate() Cond { return c ^ 1 }

// Holds reports whether the condition is satisfied by the given flags.
func (c Cond) Holds(f Flags) bool {
	var v bool
	switch c &^ 1 {
	case CondO:
		v = f.Test(FlagOF)
	case CondB:
		v = f.Test(FlagCF)
	case CondE:
		v = f.Test(FlagZF)
	case CondBE:
		v = f.Test(FlagCF) || f.Test(FlagZF)
	case CondS:
		v = f.Test(FlagSF)
	case CondP:
		v = f.Test(FlagPF)
	case CondL:
		v = f.Test(FlagSF) != f.Test(FlagOF)
	case CondLE:
		v = f.Test(FlagZF) || (f.Test(FlagSF) != f.Test(FlagOF))
	}
	if c&1 != 0 {
		return !v
	}
	return v
}

// Op is an instruction mnemonic in the architected subset.
type Op uint8

// Instruction mnemonics.
const (
	BAD Op = iota
	MOV
	MOVZX
	MOVSX
	LEA
	ADD
	ADC
	SUB
	SBB
	AND
	OR
	XOR
	CMP
	TEST
	INC
	DEC
	NEG
	NOT
	IMUL // two- and three-operand forms
	SHL
	SHR
	SAR
	PUSH
	POP
	JCC
	JMP
	CALL
	RET
	SETCC
	CDQ
	NOP
	HLT
	XCHG   // exchange register/memory with register
	CMOVCC // conditional move (P6)
	ROL
	ROR
	// Complex class: decoded, interpretable, but refused by the hardware
	// cracking assists (Flag_cmplx) and handled by VMM software callouts
	// in translated code.
	MUL1  // one-operand MUL: EDX:EAX = EAX * r/m
	IMUL1 // one-operand IMUL
	DIV   // unsigned divide EDX:EAX / r/m
	IDIV  // signed divide
	MOVS  // REP MOVS string copy
	STOS  // REP STOS string fill
	numOps
)

var opNames = [numOps]string{
	BAD: "(bad)", MOV: "mov", MOVZX: "movzx", MOVSX: "movsx", LEA: "lea",
	ADD: "add", ADC: "adc", SUB: "sub", SBB: "sbb", AND: "and", OR: "or",
	XOR: "xor", CMP: "cmp", TEST: "test", INC: "inc", DEC: "dec",
	NEG: "neg", NOT: "not", IMUL: "imul", SHL: "shl", SHR: "shr",
	SAR: "sar", PUSH: "push", POP: "pop", JCC: "j", JMP: "jmp",
	CALL: "call", RET: "ret", SETCC: "set", CDQ: "cdq", NOP: "nop",
	HLT: "hlt", XCHG: "xchg", CMOVCC: "cmov", ROL: "rol", ROR: "ror", MUL1: "mul", IMUL1: "imul", DIV: "div", IDIV: "idiv",
	MOVS: "movs", STOS: "stos",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d?", uint8(o))
}

// IsComplex reports whether the mnemonic belongs to the complex class
// that hardware cracking assists refuse (setting Flag_cmplx) and that
// translated code emulates via a VMM/interpreter callout.
func (o Op) IsComplex() bool {
	switch o {
	case MUL1, IMUL1, DIV, IDIV, MOVS, STOS:
		return true
	}
	return false
}

// IsCTI reports whether the mnemonic is a control-transfer instruction
// (sets Flag_cti in the XLTx86 CSR and terminates basic blocks).
func (o Op) IsCTI() bool {
	switch o {
	case JCC, JMP, CALL, RET, HLT:
		return true
	}
	return false
}

// OperandKind classifies an instruction operand.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindMem
	KindImm
)

// NoIndex marks an absent index register in a memory operand.
const NoIndex int8 = -1

// NoBase marks an absent base register (absolute addressing).
const NoBase int8 = -1

// Operand is a decoded instruction operand.
type Operand struct {
	Kind  OperandKind
	Reg   Reg   // KindReg
	Base  int8  // KindMem: base register or NoBase
	Index int8  // KindMem: index register or NoIndex
	Scale uint8 // KindMem: 1, 2, 4 or 8
	Disp  int32 // KindMem displacement
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// M returns a base+displacement memory operand.
func M(base Reg, disp int32) Operand {
	return Operand{Kind: KindMem, Base: int8(base), Index: NoIndex, Scale: 1, Disp: disp}
}

// MSIB returns a base+index*scale+displacement memory operand.
func MSIB(base Reg, index Reg, scale uint8, disp int32) Operand {
	return Operand{Kind: KindMem, Base: int8(base), Index: int8(index), Scale: scale, Disp: disp}
}

// MAbs returns an absolute-address memory operand.
func MAbs(addr uint32) Operand {
	return Operand{Kind: KindMem, Base: NoBase, Index: NoIndex, Scale: 1, Disp: int32(addr)}
}

func (o Operand) String() string {
	switch o.Kind {
	case KindReg:
		return o.Reg.String()
	case KindMem:
		s := "["
		sep := ""
		if o.Base != NoBase {
			s += Reg(o.Base).String()
			sep = "+"
		}
		if o.Index != NoIndex {
			s += fmt.Sprintf("%s%s*%d", sep, Reg(o.Index), o.Scale)
			sep = "+"
		}
		if o.Disp != 0 || (o.Base == NoBase && o.Index == NoIndex) {
			if o.Disp >= 0 {
				s += fmt.Sprintf("%s0x%x", sep, o.Disp)
			} else {
				s += fmt.Sprintf("-0x%x", uint32(-o.Disp))
			}
		}
		return s + "]"
	}
	return "?"
}

// Inst is a decoded instruction.
type Inst struct {
	Op     Op
	Len    uint8 // total encoded length in bytes (1..15)
	Width  uint8 // operand width in bytes: 1, 2 or 4
	Cond   Cond  // JCC / SETCC
	Dst    Operand
	Src    Operand
	Imm    int32 // immediate operand (sign-extended)
	HasImm bool
	Rep    bool // REP prefix present (string ops)
}

func (in Inst) String() string {
	mn := in.Op.String()
	if in.Op == JCC || in.Op == SETCC || in.Op == CMOVCC {
		mn += in.Cond.String()
	}
	if in.Rep {
		mn = "rep " + mn
	}
	s := mn
	n := 0
	add := func(op string) {
		if n == 0 {
			s += " " + op
		} else {
			s += ", " + op
		}
		n++
	}
	if in.Dst.Kind != KindNone {
		add(in.Dst.String())
	}
	if in.Src.Kind != KindNone {
		add(in.Src.String())
	}
	if in.HasImm {
		if in.Imm >= 0 {
			add(fmt.Sprintf("0x%x", in.Imm))
		} else {
			add(fmt.Sprintf("-0x%x", uint32(-in.Imm)))
		}
	}
	return s
}
