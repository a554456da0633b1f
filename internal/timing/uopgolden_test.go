package timing

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
)

var (
	updateUopGolden = flag.Bool("update-uop-golden", false,
		"rewrite testdata/uop_semantics.golden from the code under test")
	dumpUopGolden = flag.String("dump-uop-golden", "",
		"write the undigested semantics table to this file (diff it across commits)")
)

const uopGoldenFile = "testdata/uop_semantics.golden"

// goldenParams gives every latency class a distinct value, so a
// micro-op filed under the wrong class changes the table.
var goldenParams = Params{Width: 3, MispredictPenalty: 12, Window: 128,
	LoadLatency: 5, MulLatency: 7, DivLatency: 11, PairLatency: 2, MLP: 4}

// The adapters below are the only lines that name the functions under
// test; the golden file was recorded from the per-opcode switch
// statements that preceded the fisa descriptor table (PR 15).
func goldenFlagUse(u *fisa.MicroOp) (reads, writes bool) { return u.FlagUse() }

func goldenEntityMeta(u, pair *fisa.MicroOp) string {
	var m codecache.UopMeta
	fillMeta(&m, u, pair, &goldenParams)
	return metaSemantics(&m)
}

// metaSemantics projects an entity record onto what the issue step
// does with it — the registers it waits for and the registers it marks
// ready (the condition flags print as "fl"), its latency, its step and
// its load/branch events — so the golden pins the meaning of a record
// and not the layout of UopMeta. It is the only function here that
// reads UopMeta's fields.
func metaSemantics(m *codecache.UopMeta) string {
	regs := func(rs []fisa.Reg, flags bool) string {
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		var b strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&b, "%d ", r)
		}
		if flags {
			b.WriteString("fl")
		}
		return strings.TrimSpace(b.String())
	}
	srcs := append([]fisa.Reg(nil), m.Srcs[:m.NSrc]...)
	var dsts []fisa.Reg
	for _, d := range m.Dsts[:2] {
		if d != codecache.RegSink {
			dsts = append(dsts, d)
		}
	}
	return fmt.Sprintf("{src=[%s] dst=[%s] lat=%v step=%d ld=%v br=%v}",
		regs(srcs, m.FlagSrc == codecache.RegFlags),
		regs(dsts, m.Dsts[2] == codecache.RegFlags),
		m.Lat, m.Step, m.Bits&codecache.MetaHasLoad != 0, m.Bits&codecache.MetaIsBranch != 0)
}

func goldenAnalyze(t *codecache.Translation) { AnalyzeWith(t, goldenParams) }

// variants enumerates the field combinations of op the crackers, the
// block assemblers and the SBT optimizer emit (and a few they do not):
// both SetF values, every width, zero/small/out-of-imm11 immediates and
// register patterns with and without Dst==Src1 and a zero Src1.
func variants(op fisa.Op) []fisa.MicroOp {
	var out []fisa.MicroOp
	regs := [][3]fisa.Reg{{1, 1, 2}, {1, 2, 3}, {0, 0, 0}, {3, 0, 1}, {9, 12, 9}}
	for _, setf := range []bool{false, true} {
		for _, w := range []uint8{0, 1, 2, 4} {
			for _, imm := range []int32{0, 7, -3, 4000} {
				for _, r := range regs {
					out = append(out, fisa.MicroOp{Op: op, SetF: setf, W: w, Imm: imm,
						Dst: r[0], Src1: r[1], Src2: r[2]})
				}
			}
		}
	}
	return out
}

// raw prints every encoded field (MicroOp's String elides unused ones).
func raw(u *fisa.MicroOp) string {
	return fmt.Sprintf("%d f=%v w=%d i=%d d=%d s1=%d s2=%d fu=%v", u.Op, u.SetF, u.W, u.Imm, u.Dst, u.Src1, u.Src2, u.Fused)
}

func describeSingle(b *bytes.Buffer, u *fisa.MicroOp) {
	var buf [3]fisa.Reg
	r, w := goldenFlagUse(u)
	enc, err := fisa.Encode(nil, u)
	encLen := len(enc)
	if err != nil {
		encLen = -1 // immediate out of range: Encode refuses, EncodedLen still answers
	}
	fmt.Fprintf(b, "%s|src=%v fl=%v/%v len=%d enc=%d ld=%v st=%v br=%v dst=%v mw=%d meta=%s\n",
		raw(u), u.Sources(buf[:0]), r, w, fisa.EncodedLen(u), encLen,
		u.IsLoad(), u.IsStore(), u.IsBranch(), u.HasDst(), u.MemWidth(), goldenEntityMeta(u, nil))
}

// pairVariants are (head, tail) shapes around the intra-pair dependence
// filter: the tail reads the head's destination through Src1, through
// Src2 and Dst, or not at all.
func pairVariants(head, tail fisa.Op) [][2]fisa.MicroOp {
	var out [][2]fisa.MicroOp
	for _, hf := range []bool{false, true} {
		for _, tf := range []bool{false, true} {
			h := fisa.MicroOp{Op: head, SetF: hf, W: 4, Dst: 1, Src1: 2, Src2: 3}
			for _, r := range [][3]fisa.Reg{{4, 1, 5}, {1, 6, 1}, {4, 6, 7}} {
				out = append(out, [2]fisa.MicroOp{h,
					{Op: tail, SetF: tf, W: 4, Dst: r[0], Src1: r[1], Src2: r[2]}})
			}
		}
	}
	return out
}

func digest(b *bytes.Buffer) string {
	sum := sha256.Sum256(b.Bytes())
	return fmt.Sprintf("%x", sum[:8])
}

// uopSemanticsTable renders one line per opcode for its standalone
// behaviour, one per opcode for its behaviour as a macro-op head against
// every tail, and one for AnalyzeWith over seeded random translations.
// dump, when non-nil, receives the undigested text.
func uopSemanticsTable(dump *bytes.Buffer) string {
	var out strings.Builder
	var b bytes.Buffer
	flushTo := func(kind, name string) {
		if dump != nil {
			fmt.Fprintf(dump, "## %s %s\n%s", kind, name, b.String())
		}
		fmt.Fprintf(&out, "%s %s %s\n", kind, name, digest(&b))
		b.Reset()
	}
	for op := fisa.UNOP; op <= fisa.UXLT; op++ {
		for _, u := range variants(op) {
			describeSingle(&b, &u)
		}
		flushTo("single", op.String())
	}
	for head := fisa.UNOP; head <= fisa.UXLT; head++ {
		for tail := fisa.UNOP; tail <= fisa.UXLT; tail++ {
			for _, p := range pairVariants(head, tail) {
				fmt.Fprintf(&b, "%s + %s|fuse=%v meta=%s\n", raw(&p[0]), raw(&p[1]),
					fisa.CanFuse(&p[0], &p[1]), goldenEntityMeta(&p[0], &p[1]))
			}
		}
		flushTo("head", head.String())
	}
	rng := rand.New(rand.NewSource(15))
	for n := 0; n < 400; n++ {
		uops := make([]fisa.MicroOp, 1+rng.Intn(40))
		for i := range uops {
			vs := variants(fisa.Op(rng.Intn(int(fisa.UXLT) + 1)))
			uops[i] = vs[rng.Intn(len(vs))]
			uops[i].Dst, uops[i].Src1, uops[i].Src2 = fisa.Reg(rng.Intn(14)), fisa.Reg(rng.Intn(14)), fisa.Reg(rng.Intn(14))
			uops[i].Fused = rng.Intn(3) == 0
			fmt.Fprintf(&b, "%s; ", raw(&uops[i]))
		}
		t := &codecache.Translation{Uops: uops}
		goldenAnalyze(t)
		fmt.Fprintf(&b, "n=%d ent=%d pairs=%d depth=%d cpe=%v meta=",
			len(uops), t.Entities, t.FusedPairs, t.Depth, t.CPE)
		for i := range t.Meta {
			b.WriteString(metaSemantics(&t.Meta[i]))
		}
		b.WriteByte('\n')
	}
	flushTo("analyze", "random")
	return out.String()
}

// TestUopSemanticsGolden holds the descriptor table to the answers the
// per-opcode switches gave before it existed: Sources, flag use,
// EncodedLen (and Encode's actual length), the load/store/branch/dst
// predicates, entityMeta standalone and paired, CanFuse, and
// AnalyzeWith. On a mismatch, run with -dump-uop-golden FILE on both
// commits and diff the undigested text of the rows that differ.
func TestUopSemanticsGolden(t *testing.T) {
	var dump bytes.Buffer
	got := uopSemanticsTable(&dump)
	if *dumpUopGolden != "" {
		if err := os.WriteFile(*dumpUopGolden, dump.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if *updateUopGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(uopGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(uopGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(file), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(want) || line != want[i] {
			t.Errorf("row %d: got %q, want %q", i, line, append(want, "")[min(i, len(want))])
		}
	}
}
