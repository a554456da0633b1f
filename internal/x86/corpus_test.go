package x86

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"hash"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite testdata/decode_corpus.sha256 from the decoder under test")

const corpusFile = "testdata/decode_corpus.sha256"

// corpusHasher serializes (Inst, err) results into a running SHA-256.
type corpusHasher struct {
	h   hash.Hash
	buf []byte
	n   int
}

func (c *corpusHasher) flush() {
	c.h.Write(c.buf)
	c.buf = c.buf[:0]
}

func (c *corpusHasher) operand(o Operand) {
	c.buf = append(c.buf, byte(o.Kind), byte(o.Reg), byte(o.Base), byte(o.Index), o.Scale,
		byte(o.Disp), byte(o.Disp>>8), byte(o.Disp>>16), byte(o.Disp>>24))
}

// add records one decode result. A success contributes every field of
// the instruction; a failure contributes its sentinel class and its
// message (the partially filled Inst a failed decode returns is not
// part of the contract: no caller reads it).
func (c *corpusHasher) add(in Inst, err error) {
	c.n++
	if err != nil {
		class := byte(0xFF)
		switch {
		case errors.Is(err, ErrTruncated):
			class = 0xF1
		case errors.Is(err, ErrBadOpcode):
			class = 0xF2
		case errors.Is(err, ErrTooLong):
			class = 0xF3
		}
		c.buf = append(c.buf, class)
		c.buf = append(c.buf, err.Error()...)
		c.buf = append(c.buf, 0)
	} else {
		b2u := func(b bool) byte {
			if b {
				return 1
			}
			return 0
		}
		c.buf = append(c.buf, 0, byte(in.Op), in.Len, in.Width, byte(in.Cond), b2u(in.HasImm), b2u(in.Rep),
			byte(in.Imm), byte(in.Imm>>8), byte(in.Imm>>16), byte(in.Imm>>24))
		c.operand(in.Dst)
		c.operand(in.Src)
	}
	if len(c.buf) > 1<<16 {
		c.flush()
	}
}

// decodeCorpusDigest decodes the equivalence corpus and returns the
// digest of the result stream: every prefix combination × every primary
// opcode × every ModRM byte × three SIB/displacement/immediate tails
// (zeros, 0xFF…, one seeded random draw), the same for every two-byte
// 0F xx opcode, and every truncation length 0–15 of each buffer.
func decodeCorpusDigest() (digest string, results int) {
	c := &corpusHasher{h: sha256.New(), buf: make([]byte, 0, 1<<17)}
	prefixes := [][]byte{nil, {0x66}, {0xF3}, {0x66, 0xF3}}
	rng := rand.New(rand.NewSource(0x0FC0DE))
	var tails [3][13]byte
	for i := range tails[1] {
		tails[1][i] = 0xFF
	}
	buf := make([]byte, 0, 32)
	emit := func(head []byte) {
		for i := range tails[2] {
			tails[2][i] = byte(rng.Uint32())
		}
		for t := range tails {
			buf = append(append(buf[:0], head...), tails[t][:]...)
			for n := 0; n <= MaxInstLen; n++ {
				c.add(Decode(buf[:n]))
			}
		}
	}
	head := make([]byte, 0, 8)
	for _, p := range prefixes {
		for op := 0; op < 256; op++ {
			for modrm := 0; modrm < 256; modrm++ {
				head = append(append(head[:0], p...), byte(op), byte(modrm))
				emit(head)
				head = append(append(head[:0], p...), 0x0F, byte(op), byte(modrm))
				emit(head)
			}
		}
	}
	// Prefix runs long enough to push an otherwise valid instruction
	// past the 15-byte limit (ErrTooLong), which the grid above cannot
	// reach with at most two prefix bytes.
	for run := 9; run <= 16; run++ {
		for _, body := range [][]byte{{0x90}, {0x81, 0x84, 0x88, 1, 2, 3, 4, 5, 6, 7, 8}, {0x0F, 0x84, 1, 2, 3, 4}} {
			buf = buf[:0]
			for i := 0; i < run; i++ {
				buf = append(buf, []byte{0x66, 0xF3}[i&1])
			}
			buf = append(buf, body...)
			for n := 0; n <= len(buf); n++ {
				c.add(Decode(buf[:n]))
			}
		}
	}
	c.flush()
	return hex.EncodeToString(c.h.Sum(nil)), c.n
}

// TestDecodeCorpusDigest pins the decoder's answer on the whole
// equivalence corpus to the digest recorded from the decoder that
// preceded the table-driven rewrite (PR 15). A mismatch means some
// (bytes → Inst, err) mapping changed; bisect with the old decoder from
// git history, the corpus generator is deterministic.
func TestDecodeCorpusDigest(t *testing.T) {
	got, n := decodeCorpusDigest()
	if *updateCorpus {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s over %d results", corpusFile, got, n)
		return
	}
	raw, err := os.ReadFile(corpusFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Fatalf("decode corpus digest over %d results = %s, want %s", n, got, want)
	}
}
