package x86

// PageSize is the granularity of the sparse memory map.
const PageSize = 4096

type page [PageSize]byte

// tlbSize is the size of the host-side page-translation cache. The hot
// loop alternates between a handful of pages (code, data, stack), so a
// small direct-mapped cache turns nearly every map lookup into an
// array probe.
const tlbSize = 64

type tlbEntry struct {
	idx uint32
	p   *page
}

// Memory is a sparse, paged, little-endian 32-bit address space. Reads of
// unmapped memory return zero bytes; writes allocate pages on demand.
type Memory struct {
	pages map[uint32]*page

	// Direct-mapped translation cache over pages (host-side only; no
	// simulated-machine semantics).
	tlb [tlbSize]tlbEntry
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	m := &Memory{pages: make(map[uint32]*page)}
	for i := range m.tlb {
		m.tlb[i].idx = ^uint32(0) // impossible page index (addr space has 2^20 pages)
	}
	return m
}

func (m *Memory) lookup(addr uint32) *page {
	idx := addr / PageSize
	e := &m.tlb[idx%tlbSize]
	if e.idx == idx {
		return e.p
	}
	p := m.pages[idx]
	if p != nil {
		e.idx, e.p = idx, p
	}
	return p
}

func (m *Memory) ensure(addr uint32) *page {
	idx := addr / PageSize
	e := &m.tlb[idx%tlbSize]
	if e.idx == idx {
		return e.p
	}
	p := m.pages[idx]
	if p == nil {
		p = new(page)
		m.pages[idx] = p
	}
	e.idx, e.p = idx, p
	return p
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) uint8 {
	p := m.lookup(addr)
	if p == nil {
		return 0
	}
	return p[addr%PageSize]
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v uint8) {
	m.ensure(addr)[addr%PageSize] = v
}

// Read16 reads a little-endian 16-bit value (may straddle pages).
func (m *Memory) Read16(addr uint32) uint16 {
	off := addr % PageSize
	if off+2 <= PageSize {
		p := m.lookup(addr)
		if p == nil {
			return 0
		}
		return uint16(p[off]) | uint16(p[off+1])<<8
	}
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 writes a little-endian 16-bit value.
func (m *Memory) Write16(addr uint32, v uint16) {
	off := addr % PageSize
	if off+2 <= PageSize {
		p := m.ensure(addr)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		return
	}
	m.Write8(addr, uint8(v))
	m.Write8(addr+1, uint8(v>>8))
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint32) uint32 {
	off := addr % PageSize
	if off+4 <= PageSize {
		p := m.lookup(addr)
		if p == nil {
			return 0
		}
		return uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	return uint32(m.Read16(addr)) | uint32(m.Read16(addr+2))<<16
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(addr uint32, v uint32) {
	off := addr % PageSize
	if off+4 <= PageSize {
		p := m.ensure(addr)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	m.Write16(addr, uint16(v))
	m.Write16(addr+2, uint16(v>>16))
}

// ReadWidth reads a value of the given width (1, 2 or 4 bytes).
func (m *Memory) ReadWidth(addr uint32, width uint8) uint32 {
	switch width {
	case 1:
		return uint32(m.Read8(addr))
	case 2:
		return uint32(m.Read16(addr))
	default:
		return m.Read32(addr)
	}
}

// WriteWidth writes a value of the given width (1, 2 or 4 bytes).
func (m *Memory) WriteWidth(addr uint32, v uint32, width uint8) {
	switch width {
	case 1:
		m.Write8(addr, uint8(v))
	case 2:
		m.Write16(addr, uint16(v))
	default:
		m.Write32(addr, v)
	}
}

// ReadBytes copies len(dst) bytes starting at addr into dst and returns
// dst, one page-sized run at a time; unmapped pages read as zeros and
// the range wraps at 2^32.
func (m *Memory) ReadBytes(addr uint32, dst []byte) []byte {
	for rest := dst; len(rest) > 0; {
		off := addr % PageSize
		n := min(len(rest), int(PageSize-off))
		if p := m.lookup(addr); p != nil {
			copy(rest[:n], p[off:])
		} else {
			clear(rest[:n])
		}
		rest = rest[n:]
		addr += uint32(n)
	}
	return dst
}

// WriteBytes stores b at addr, one page-sized run at a time, allocating
// pages on demand; the range wraps at 2^32.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for len(b) > 0 {
		off := addr % PageSize
		n := copy(m.ensure(addr)[off:], b)
		b = b[n:]
		addr += uint32(n)
	}
}

// MappedPages returns the number of allocated pages (for footprint
// accounting in tests and tools).
func (m *Memory) MappedPages() int { return len(m.pages) }

// State is the architected register state of the machine.
type State struct {
	R     [NumRegs]uint32
	EIP   uint32
	Flags Flags
}

// Reg8 reads a byte register (encodings 4-7 select high bytes AH..BH).
func (s *State) Reg8(code Reg) uint32 {
	if code < 4 {
		return s.R[code] & 0xFF
	}
	return (s.R[code-4] >> 8) & 0xFF
}

// SetReg8 writes a byte register, merging into the containing GPR.
func (s *State) SetReg8(code Reg, v uint32) {
	if code < 4 {
		s.R[code] = s.R[code]&^uint32(0xFF) | (v & 0xFF)
	} else {
		r := code - 4
		s.R[r] = s.R[r]&^uint32(0xFF00) | ((v & 0xFF) << 8)
	}
}

// ReadReg reads a register at the given width. For width 1 the IA-32
// byte-register encoding applies.
func (s *State) ReadReg(code Reg, width uint8) uint32 {
	switch width {
	case 1:
		return s.Reg8(code)
	case 2:
		return s.R[code] & 0xFFFF
	default:
		return s.R[code]
	}
}

// WriteReg writes a register at the given width, merging sub-width
// results into the low bits as IA-32 does.
func (s *State) WriteReg(code Reg, v uint32, width uint8) {
	switch width {
	case 1:
		s.SetReg8(code, v)
	case 2:
		s.R[code] = s.R[code]&^uint32(0xFFFF) | (v & 0xFFFF)
	default:
		s.R[code] = v
	}
}

// EffAddr computes the effective address of a memory operand.
func (s *State) EffAddr(op Operand) uint32 {
	addr := uint32(op.Disp)
	if op.Base != NoBase {
		addr += s.R[op.Base]
	}
	if op.Index != NoIndex {
		addr += s.R[op.Index] * uint32(op.Scale)
	}
	return addr
}

// Equal reports whether two states have identical architected contents.
func (s *State) Equal(o *State) bool {
	return s.R == o.R && s.EIP == o.EIP && s.Flags&FlagsAll == o.Flags&FlagsAll
}
