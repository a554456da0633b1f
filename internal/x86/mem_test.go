package x86

import (
	"testing"
	"testing/quick"
)

func TestMemoryBasic(t *testing.T) {
	m := NewMemory()
	if v := m.Read32(0x1000); v != 0 {
		t.Errorf("unmapped read = %#x, want 0", v)
	}
	m.Write32(0x1000, 0xDEADBEEF)
	if v := m.Read32(0x1000); v != 0xDEADBEEF {
		t.Errorf("read back = %#x", v)
	}
	if v := m.Read8(0x1000); v != 0xEF {
		t.Errorf("little-endian low byte = %#x", v)
	}
	if v := m.Read16(0x1002); v != 0xDEAD {
		t.Errorf("high half = %#x", v)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint32(PageSize - 2)
	m.Write32(addr, 0x11223344)
	if v := m.Read32(addr); v != 0x11223344 {
		t.Errorf("straddling read = %#x", v)
	}
	if v := m.Read16(addr + 2); v != 0x1122 {
		t.Errorf("second page half = %#x", v)
	}
	if m.MappedPages() != 2 {
		t.Errorf("mapped pages = %d, want 2", m.MappedPages())
	}
}

// Property: a 32-bit write followed by reads of any width at any offset
// inside the word is consistent with little-endian layout.
func TestMemoryEndianProperty(t *testing.T) {
	f := func(addr uint32, v uint32) bool {
		m := NewMemory()
		m.Write32(addr, v)
		return m.Read8(addr) == uint8(v) &&
			m.Read8(addr+1) == uint8(v>>8) &&
			m.Read8(addr+2) == uint8(v>>16) &&
			m.Read8(addr+3) == uint8(v>>24) &&
			m.Read16(addr) == uint16(v) &&
			m.Read32(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	m := NewMemory()
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.WriteBytes(PageSize-4, data)
	got := m.ReadBytes(PageSize-4, make([]byte, 8))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

// TestMemoryBytesMatchBytewise holds the page-run copies to the
// byte-at-a-time definition: runs that span several pages, start and end
// mid-page, skip over unmapped pages (zero-filled, and not mapped by
// the read) and wrap at 2^32.
func TestMemoryBytesMatchBytewise(t *testing.T) {
	for _, c := range []struct {
		addr uint32
		n    int
	}{
		{0x5000, 0}, {0x5FFF, 1}, {0x5FFF, 2}, {0x5800, 3 * PageSize}, {0x5001, 2*PageSize - 2},
		{0xFFFFFFF0, 40}, {0xFFFFF123, 2 * PageSize},
	} {
		data := make([]byte, c.n)
		for i := range data {
			data[i] = byte(i*7 + 1)
		}
		bulk, bytewise := NewMemory(), NewMemory()
		bulk.WriteBytes(c.addr, data)
		for i, v := range data {
			bytewise.Write8(c.addr+uint32(i), v)
		}
		if bulk.MappedPages() != bytewise.MappedPages() {
			t.Errorf("write %#x+%d mapped %d pages, bytewise %d", c.addr, c.n, bulk.MappedPages(), bytewise.MappedPages())
		}
		// Read a window one page wider on each side: its ends are unmapped.
		from := c.addr - PageSize
		got := bulk.ReadBytes(from, make([]byte, c.n+2*PageSize))
		for i := range got {
			if want := bytewise.Read8(from + uint32(i)); got[i] != want {
				t.Fatalf("read %#x+%d: byte %d = %d, want %d", c.addr, c.n, i, got[i], want)
			}
		}
		if bulk.MappedPages() != bytewise.MappedPages() {
			t.Errorf("reading unmapped pages mapped them: %d pages, want %d", bulk.MappedPages(), bytewise.MappedPages())
		}
	}
	// An unmapped read must overwrite what dst held.
	dst := []byte{9, 9, 9}
	if NewMemory().ReadBytes(0x1234, dst); dst[0]|dst[1]|dst[2] != 0 {
		t.Errorf("unmapped read left %v in dst", dst)
	}
}

func TestStateSubRegisters(t *testing.T) {
	var s State
	s.R[EAX] = 0xAABBCCDD
	if s.Reg8(0) != 0xDD { // AL
		t.Errorf("AL = %#x", s.Reg8(0))
	}
	if s.Reg8(4) != 0xCC { // AH
		t.Errorf("AH = %#x", s.Reg8(4))
	}
	s.SetReg8(4, 0x11) // AH = 0x11
	if s.R[EAX] != 0xAABB11DD {
		t.Errorf("EAX after AH write = %#x", s.R[EAX])
	}
	s.WriteReg(EAX, 0x1234, 2)
	if s.R[EAX] != 0xAABB1234 {
		t.Errorf("EAX after AX write = %#x", s.R[EAX])
	}
	if s.ReadReg(EAX, 2) != 0x1234 {
		t.Errorf("AX read = %#x", s.ReadReg(EAX, 2))
	}
}

func TestEffAddr(t *testing.T) {
	var s State
	s.R[EBX] = 0x1000
	s.R[ESI] = 0x10
	cases := []struct {
		op   Operand
		want uint32
	}{
		{M(EBX, 8), 0x1008},
		{MSIB(EBX, ESI, 4, -4), 0x103C},
		{MAbs(0x2000), 0x2000},
		{MSIB(EBX, ESI, 8, 0), 0x1080},
	}
	for _, c := range cases {
		if got := s.EffAddr(c.op); got != c.want {
			t.Errorf("EffAddr(%v) = %#x, want %#x", c.op, got, c.want)
		}
	}
}
