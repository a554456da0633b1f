// Package fisa defines the implementation ("fusible") instruction set of
// the co-designed virtual machine: RISC-like 16-bit/32-bit micro-ops with
// a fusible head bit that lets the dynamic optimizer pair dependent
// micro-ops into macro-ops processed as single entities by the pipeline
// (Hu & Smith, HPCA 2006). The package provides the micro-op model, its
// binary encoding, the macro-op fusion legality rules, and a functional
// executor used to run translations against architected memory.
package fisa

import (
	"fmt"
	"unsafe"

	"codesignvm/internal/x86"
)

// Reg names one of the 32 native general-purpose registers.
type Reg uint8

// Native register conventions. R0-R7 shadow the architected x86
// registers; the remaining registers are available to the translator and
// the VMM (concealed from architected software).
const (
	// Architected state mapping.
	REAX Reg = 0
	RECX Reg = 1
	REDX Reg = 2
	REBX Reg = 3
	RESP Reg = 4
	REBP Reg = 5
	RESI Reg = 6
	REDI Reg = 7
	// Translator temporaries.
	RT0 Reg = 8
	RT1 Reg = 9
	RT2 Reg = 10
	RT3 Reg = 11
	RT4 Reg = 12
	RT5 Reg = 13
	// VMM scratch registers.
	RV0 Reg = 16
	RV1 Reg = 17
	RV2 Reg = 18
	// HAloop registers (Fig. 6 of the paper).
	RX86PC  Reg = 24 // architected PC during hardware-assisted BBT
	RCODEPT Reg = 25 // code-cache write pointer
	RCSR    Reg = 26 // CSR shadow for the XLTx86 status register

	// NumRegs is the native register count.
	NumRegs = 32
)

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Op is a micro-op opcode.
type Op uint8

// Micro-op opcodes.
const (
	UNOP Op = iota

	// Immediate materialization.
	UMOVI  // dst = sext(imm16)
	UMOVIU // dst = imm16 << 16
	UORILO // dst = dst | uimm16

	// Register ALU.
	UMOV // dst = src1
	UADD // dst = src1 + src2
	USUB // dst = src1 - src2
	UADC // dst = src1 + src2 + CF
	USBB // dst = src1 - src2 - CF
	UAND // dst = src1 & src2
	UOR  // dst = src1 | src2
	UXOR // dst = src1 ^ src2
	USHL // dst = src1 << src2 (x86 shift semantics incl. flags)
	USHR // dst = src1 >> src2 logical
	USAR // dst = src1 >> src2 arithmetic
	UROL // dst = rotl(src1, src2) with x86 rotate flag semantics
	UROR // dst = rotr(src1, src2)
	UMUL // dst = low32(src1 * src2) signed
	UNEG // dst = -src1
	UNOT // dst = ^src1
	UINC // dst = src1 + 1 with x86 INC flag semantics (CF preserved)
	UDEC // dst = src1 - 1 with x86 DEC flag semantics (CF preserved)

	// Microcoded long-operation assists (the implementation ISA's
	// equivalents of the x86 wide multiply / divide micro-routines).
	UMULHU // dst = high32(src1 * src2) unsigned; SetF: CF=OF = dst != 0
	UMULHS // dst = high32(src1 * src2) signed; SetF: CF=OF = product overflows
	UDIVQ  // dst = (EDX:EAX) / src1 unsigned quotient (faults on 0/overflow)
	UDIVR  // dst = (EDX:EAX) % src1 unsigned remainder
	UIDIVQ // signed quotient
	UIDIVR // signed remainder

	// Immediate ALU (imm is a small signed constant).
	UADDI
	USUBI
	UANDI
	UORI
	UXORI
	USHLI
	USHRI
	USARI
	UROLI // rotate left by immediate (x86 rotate flag semantics)
	URORI // rotate right by immediate

	// Sub-register manipulation (partial-register x86 semantics).
	UEXT8H // dst = (src1 >> 8) & 0xFF (reads AH-class byte)
	UINS8H // dst[15:8] = src1[7:0]    (writes AH-class byte)
	USEXT8
	USEXT16
	UZEXT8
	UZEXT16

	// Memory. Address is src1 + imm.
	ULD    // 32-bit load
	ULD8Z  // 8-bit zero-extending load
	ULD8S  // 8-bit sign-extending load
	ULD16Z // 16-bit zero-extending load
	ULD16S // 16-bit sign-extending load
	UST    // 32-bit store of src2
	UST8   // 8-bit store
	UST16  // 16-bit store

	// Flag producers without register results.
	UCMP   // flags from src1 - src2
	UCMPI  // flags from src1 - imm
	UTEST  // flags from src1 & src2
	UTESTI // flags from src1 & imm

	USETC // dst = cond(flags) ? 1 : 0 at width W (byte merge)
	UCMOV // dst = cond(flags) ? src1 : dst (merge at W)

	// Control flow within a translation. Imm is a micro-op index.
	UBR  // branch to imm when cond holds
	UJMP // unconditional branch to imm

	// Translation boundary. Imm is an exit descriptor index.
	UEXIT

	// VMM callout: execute the complex architected instruction the
	// micro-op stands for via the interpreter, then continue. Imm is an
	// exit descriptor index used when the callout changes control flow.
	UCALLOUT

	// XLTx86: the backend hardware-assist instruction (Table 1). It is
	// modelled architecturally by the hwassist package; the executor
	// treats it as a VMM-internal primitive.
	UXLT

	numUops
)

var uopNames = [numUops]string{
	UNOP: "nop", UMOVI: "movi", UMOVIU: "moviu", UORILO: "orilo",
	UMOV: "mov", UADD: "add", USUB: "sub", UADC: "adc", USBB: "sbb",
	UAND: "and", UOR: "or", UXOR: "xor", USHL: "shl", USHR: "shr",
	USAR: "sar", UMUL: "mul", UNEG: "neg", UNOT: "not",
	UADDI: "addi", USUBI: "subi", UANDI: "andi", UORI: "ori",
	UXORI: "xori", USHLI: "shli", USHRI: "shri", USARI: "sari",
	UROLI: "roli", URORI: "rori", UROL: "rol", UROR: "ror", UCMOV: "cmov",
	UINC: "inc", UDEC: "dec",
	UMULHU: "mulhu", UMULHS: "mulhs",
	UDIVQ: "divq", UDIVR: "divr", UIDIVQ: "idivq", UIDIVR: "idivr",
	UEXT8H: "ext8h", UINS8H: "ins8h", USEXT8: "sext8", USEXT16: "sext16",
	UZEXT8: "zext8", UZEXT16: "zext16",
	ULD: "ld", ULD8Z: "ld8z", ULD8S: "ld8s", ULD16Z: "ld16z", ULD16S: "ld16s",
	UST: "st", UST8: "st8", UST16: "st16",
	UCMP: "cmp", UCMPI: "cmpi", UTEST: "test", UTESTI: "testi",
	USETC: "setc", UBR: "br", UJMP: "jmp", UEXIT: "exit",
	UCALLOUT: "callout", UXLT: "xltx86",
}

func (o Op) String() string {
	if int(o) < len(uopNames) && uopNames[o] != "" {
		return uopNames[o]
	}
	return fmt.Sprintf("uop%d?", uint8(o))
}

// MicroOp is a decoded micro-op. The Fused bit marks the head of a
// macro-op pair: the pipeline issues this micro-op and its successor as a
// single entity.
//
// The nine byte-wide fields come first and the two 32-bit fields last,
// so the record has no padding: 20 bytes, carved by the code-cache arena
// once per translated micro-op.
type MicroOp struct {
	Op    Op
	Fused bool  // fusible bit (head of macro-op pair)
	SetF  bool  // updates the architected condition flags
	W     uint8 // operand width for flag/merge semantics: 1, 2 or 4
	Dst   Reg
	Src1  Reg
	Src2  Reg
	Cond  x86.Cond // UBR / USETC
	// Translation metadata (not part of the binary encoding): Boundary
	// and X86PC.
	Boundary uint8 // architected instructions retiring at this micro-op
	Imm      int32
	X86PC    uint32 // architected PC of the source instruction
}

// The code cache stores one MicroOp per translated micro-op: the record
// must not grow.
var _ [20]byte = [unsafe.Sizeof(MicroOp{})]byte{}

func (u MicroOp) String() string {
	s := u.Op.String()
	if u.Op == UBR || u.Op == USETC || u.Op == UCMOV {
		s += "." + u.Cond.String()
	}
	if u.SetF {
		s += ".f"
	}
	if u.W != 4 && u.W != 0 {
		s += fmt.Sprintf(".w%d", u.W)
	}
	if u.Fused {
		s = "+" + s
	}
	switch u.Op {
	case UNOP, UXLT:
		return s
	case UEXIT, UCALLOUT, UJMP:
		return fmt.Sprintf("%s %d", s, u.Imm)
	case UBR:
		return fmt.Sprintf("%s %d", s, u.Imm)
	case UMOVI, UMOVIU, UORILO:
		return fmt.Sprintf("%s %v, %#x", s, u.Dst, u.Imm)
	case UST, UST8, UST16:
		return fmt.Sprintf("%s [%v%+d], %v", s, u.Src1, u.Imm, u.Src2)
	case ULD, ULD8Z, ULD8S, ULD16Z, ULD16S:
		return fmt.Sprintf("%s %v, [%v%+d]", s, u.Dst, u.Src1, u.Imm)
	case UCMP, UTEST:
		return fmt.Sprintf("%s %v, %v", s, u.Src1, u.Src2)
	case UCMPI, UTESTI:
		return fmt.Sprintf("%s %v, %d", s, u.Src1, u.Imm)
	}
	if opTable[u.Op].bits&opImmALU != 0 {
		return fmt.Sprintf("%s %v, %v, %d", s, u.Dst, u.Src1, u.Imm)
	}
	switch u.Op {
	case UMOV, UNEG, UNOT, UINC, UDEC, USEXT8, USEXT16, UZEXT8, UZEXT16,
		UEXT8H, UINS8H, UDIVQ, UDIVR, UIDIVQ, UIDIVR:
		return fmt.Sprintf("%s %v, %v", s, u.Dst, u.Src1)
	}
	return fmt.Sprintf("%s %v, %v, %v", s, u.Dst, u.Src1, u.Src2)
}

// srcShape names the register fields a micro-op reads, in the order
// Sources reports them.
type srcShape uint8

const (
	srcNone   srcShape = iota
	srcS1              // Src1
	srcS1S2            // Src1, Src2
	srcDst             // Dst: UORILO ors into its destination
	srcS1Dst           // Src1, Dst: UCMOV keeps Dst when the condition fails
	srcDstS1           // Dst, Src1: UINS8H merges a byte into Dst
	srcS1AXDX          // Src1, EAX, EDX: the divide assists' implicit dividend
	srcS1Opt           // Src1 when non-zero: UEXIT's indirect-target register
)

// LatClass selects the pipeline latency parameter a micro-op's result
// takes (loads are not a class: their latency comes from the hierarchy).
type LatClass uint8

// Latency classes.
const (
	LatALU LatClass = iota
	LatMul
	LatDiv
)

// Per-opcode property bits. The two ...IfSetF flag bits sit two above
// their unconditional twins so FlagUse can fold them in with one shift.
const (
	opReadsFlags uint16 = 1 << iota
	opWritesFlags
	opReadsFlagsIfSetF
	opWritesFlagsIfSetF
	opLoad
	opStore
	opBranch
	opHasDst
	opHead        // single-cycle ALU: may head a macro-op pair
	opImmALU      // dst = src1 OP imm (printing only)
	opCompactSetF // the 16-bit form implies SetF
	opTwoAddr     // the 16-bit form needs Dst == Src1

	// Flag behaviour of the opcode families.
	flagsPlain  = opWritesFlagsIfSetF                      // writes when SetF
	flagsCarry  = opReadsFlags | opWritesFlagsIfSetF       // ADC/SBB consume CF
	flagsMerge  = opReadsFlagsIfSetF | opWritesFlagsIfSetF // partial update: INC/DEC keep CF, shifts and rotates may keep all
	flagsTest   = opWritesFlags                            // compare/test always write
	flagsCond   = opReadsFlags                             // branch/set/cmov on a condition
	flagsOpaque = opReadsFlags | opWritesFlags             // callout: whole architected state
)

// opInfo is one opcode's row of the descriptor table: everything the
// encoder, the fusion rules and the timing model need to know about a
// micro-op beyond its operand values.
type opInfo struct {
	bits     uint16
	src      srcShape
	lat      LatClass
	layout   layout
	compact  uint8 // 1 + index of the 16-bit compact form; 0: none
	memWidth uint8 // access width of loads and stores
}

// Row shorthands: destination-writing single-cycle ALU micro-ops.
const (
	alu  = opHasDst | opHead | flagsPlain
	aluI = alu | opImmALU // dst = src1 OP imm
)

// opTable is the single place micro-op properties live. It is sized for
// the whole uint8 opcode space so indexing it needs no bounds check;
// rows past UXLT are zero (no sources, no destination, no flags).
var opTable = [256]opInfo{
	UNOP: {bits: flagsPlain, compact: 1 + 0},

	UMOVI:  {bits: alu, layout: layIMM16},
	UMOVIU: {bits: alu, layout: layIMM16},
	UORILO: {bits: alu, src: srcDst, layout: layIMM16},

	UMOV: {bits: alu, src: srcS1, compact: 1 + 1},
	UADD: {bits: alu | opCompactSetF | opTwoAddr, src: srcS1S2, compact: 1 + 2},
	USUB: {bits: alu | opCompactSetF | opTwoAddr, src: srcS1S2, compact: 1 + 3},
	UADC: {bits: opHasDst | opHead | flagsCarry | opCompactSetF | opTwoAddr, src: srcS1S2, compact: 1 + 13},
	USBB: {bits: opHasDst | opHead | flagsCarry | opCompactSetF | opTwoAddr, src: srcS1S2, compact: 1 + 14},
	UAND: {bits: alu | opCompactSetF | opTwoAddr, src: srcS1S2, compact: 1 + 4},
	UOR:  {bits: alu | opCompactSetF | opTwoAddr, src: srcS1S2, compact: 1 + 5},
	UXOR: {bits: alu | opCompactSetF | opTwoAddr, src: srcS1S2, compact: 1 + 6},
	USHL: {bits: opHasDst | flagsMerge, src: srcS1S2},
	USHR: {bits: opHasDst | flagsMerge, src: srcS1S2},
	USAR: {bits: opHasDst | flagsMerge, src: srcS1S2},
	UROL: {bits: opHasDst | flagsMerge, src: srcS1S2},
	UROR: {bits: opHasDst | flagsMerge, src: srcS1S2},
	UMUL: {bits: opHasDst | flagsPlain | opCompactSetF | opTwoAddr, src: srcS1S2, lat: LatMul, compact: 1 + 15},
	UNEG: {bits: alu | opCompactSetF, src: srcS1, compact: 1 + 11},
	UNOT: {bits: alu, src: srcS1, compact: 1 + 12},
	UINC: {bits: opHasDst | opHead | flagsMerge, src: srcS1},
	UDEC: {bits: opHasDst | opHead | flagsMerge, src: srcS1},

	UMULHU: {bits: opHasDst | flagsPlain, src: srcS1S2, lat: LatMul},
	UMULHS: {bits: opHasDst | flagsPlain, src: srcS1S2, lat: LatMul},
	UDIVQ:  {bits: opHasDst | flagsPlain, src: srcS1AXDX, lat: LatDiv},
	UDIVR:  {bits: opHasDst | flagsPlain, src: srcS1AXDX, lat: LatDiv},
	UIDIVQ: {bits: opHasDst | flagsPlain, src: srcS1AXDX, lat: LatDiv},
	UIDIVR: {bits: opHasDst | flagsPlain, src: srcS1AXDX, lat: LatDiv},

	UADDI: {bits: aluI, src: srcS1, layout: layRRI},
	USUBI: {bits: aluI, src: srcS1, layout: layRRI},
	UANDI: {bits: aluI, src: srcS1, layout: layRRI},
	UORI:  {bits: aluI, src: srcS1, layout: layRRI},
	UXORI: {bits: aluI, src: srcS1, layout: layRRI},
	USHLI: {bits: aluI, src: srcS1, layout: layRRI},
	USHRI: {bits: aluI, src: srcS1, layout: layRRI},
	USARI: {bits: aluI, src: srcS1, layout: layRRI},
	UROLI: {bits: opHasDst | opHead | opImmALU | flagsMerge, src: srcS1, layout: layRRI},
	URORI: {bits: opHasDst | opHead | opImmALU | flagsMerge, src: srcS1, layout: layRRI},

	UEXT8H:  {bits: alu, src: srcS1},
	UINS8H:  {bits: alu, src: srcDstS1},
	USEXT8:  {bits: alu, src: srcS1},
	USEXT16: {bits: alu, src: srcS1},
	UZEXT8:  {bits: alu, src: srcS1},
	UZEXT16: {bits: alu, src: srcS1},

	ULD:    {bits: opHasDst | opLoad | flagsPlain, src: srcS1, layout: layRRI, memWidth: 4, compact: 1 + 9},
	ULD8Z:  {bits: opHasDst | opLoad | flagsPlain, src: srcS1, layout: layRRI, memWidth: 1},
	ULD8S:  {bits: opHasDst | opLoad | flagsPlain, src: srcS1, layout: layRRI, memWidth: 1},
	ULD16Z: {bits: opHasDst | opLoad | flagsPlain, src: srcS1, layout: layRRI, memWidth: 2},
	ULD16S: {bits: opHasDst | opLoad | flagsPlain, src: srcS1, layout: layRRI, memWidth: 2},
	UST:    {bits: opStore | flagsPlain, src: srcS1S2, layout: layRRI, memWidth: 4, compact: 1 + 10},
	UST8:   {bits: opStore | flagsPlain, src: srcS1S2, layout: layRRI, memWidth: 1},
	UST16:  {bits: opStore | flagsPlain, src: srcS1S2, layout: layRRI, memWidth: 2},

	UCMP:   {bits: opHead | flagsTest, src: srcS1S2, compact: 1 + 7},
	UCMPI:  {bits: opHead | flagsTest, src: srcS1, layout: layRRI},
	UTEST:  {bits: opHead | flagsTest, src: srcS1S2, compact: 1 + 8},
	UTESTI: {bits: opHead | flagsTest, src: srcS1, layout: layRRI},

	USETC: {bits: opHasDst | flagsCond},
	UCMOV: {bits: opHasDst | opHead | flagsCond, src: srcS1Dst},

	UBR:      {bits: opBranch | flagsCond, layout: layBR},
	UJMP:     {bits: opBranch | flagsPlain, layout: layBR},
	UEXIT:    {bits: opBranch | flagsPlain, src: srcS1Opt, layout: layRRI},
	UCALLOUT: {bits: opBranch | flagsOpaque, layout: layRRI},

	// UXLT names no register, but the issue model has always treated it
	// as writing Dst (r0); the bit keeps replayed timing identical.
	UXLT: {bits: opHasDst | flagsPlain},
}

// IsLoad reports whether the micro-op reads memory.
func (u *MicroOp) IsLoad() bool { return opTable[u.Op].bits&opLoad != 0 }

// IsStore reports whether the micro-op writes memory.
func (u *MicroOp) IsStore() bool { return opTable[u.Op].bits&opStore != 0 }

// IsBranch reports whether the micro-op transfers control.
func (u *MicroOp) IsBranch() bool { return opTable[u.Op].bits&opBranch != 0 }

// MemWidth returns the access width of a memory micro-op in bytes.
func (u *MicroOp) MemWidth() uint8 {
	if w := opTable[u.Op].memWidth; w != 0 {
		return w
	}
	return 4
}

// HasDst reports whether the micro-op writes a destination register.
func (u *MicroOp) HasDst() bool { return opTable[u.Op].bits&opHasDst != 0 }

// FlagUse reports whether the micro-op consumes and whether it updates
// the condition flags, as the issue model sees them.
func (u *MicroOp) FlagUse() (reads, writes bool) {
	b := opTable[u.Op].bits
	if u.SetF {
		b |= b >> 2
	}
	return b&opReadsFlags != 0, b&opWritesFlags != 0
}

// Latency returns the opcode's result-latency class.
func (o Op) Latency() LatClass { return opTable[o].lat }

// Sources appends the registers the micro-op reads to dst and returns it.
func (u *MicroOp) Sources(dst []Reg) []Reg {
	switch opTable[u.Op].src {
	case srcS1:
		return append(dst, u.Src1)
	case srcS1S2:
		return append(dst, u.Src1, u.Src2)
	case srcDst:
		return append(dst, u.Dst)
	case srcS1Dst:
		return append(dst, u.Src1, u.Dst)
	case srcDstS1:
		return append(dst, u.Dst, u.Src1)
	case srcS1AXDX:
		return append(dst, u.Src1, REAX, REDX)
	case srcS1Opt:
		if u.Src1 != 0 {
			return append(dst, u.Src1)
		}
	}
	return dst
}

// CanFuse reports whether head and tail may be fused into a macro-op.
// The rule follows the fusible-ISA constraints: the head must be a
// single-cycle ALU micro-op, the tail must consume a value the head
// produces (a register result, or the condition flags for a
// flag-producer + conditional-branch pair), and neither may already be
// part of another pair.
func CanFuse(head, tail *MicroOp) bool {
	if head.Fused || tail.Fused {
		return false
	}
	if opTable[head.Op].bits&opHead == 0 {
		return false // not a single-cycle ALU micro-op
	}
	if tail.Op == UEXIT || tail.Op == UCALLOUT || tail.Op == UJMP || tail.Op == UXLT || tail.Op == UNOP {
		return false
	}
	// Flag dependence: condition-test + branch/set pairs.
	if head.SetF || head.Op == UCMP || head.Op == UCMPI || head.Op == UTEST || head.Op == UTESTI {
		if tail.Op == UBR || tail.Op == USETC {
			return true
		}
	}
	if !head.HasDst() {
		return false
	}
	// Register dependence: tail reads the head's destination.
	var buf [3]Reg
	for _, s := range tail.Sources(buf[:0]) {
		if s == head.Dst {
			return true
		}
	}
	return false
}
