// Package workload synthesizes the benchmark programs of the evaluation.
// The paper uses full-system traces of the ten Winstone2004 Business
// applications — proprietary binaries we cannot ship — so this package
// generates real x86 programs whose *execution statistics* are calibrated
// to the paper's characterization (Fig. 3 and §3.2):
//
//   - a large static footprint touched once or a few times (installer-
//     style initialization code, MBBT-dominant),
//   - a ladder of "warm" functions executed with geometrically spaced
//     frequencies (the bulk of Fig. 3's static-instruction histogram),
//   - a small set of hot kernels (a few percent of static instructions)
//     that exceed the 8000-execution hot threshold and dominate dynamic
//     instructions,
//   - per-application character: data working-set size (cache
//     behaviour), branch predictability, dependence density
//     ("fusability", which controls how much the macro-op optimizer can
//     gain — Project is configured with low fusability to reproduce its
//     3% steady-state gain), and complex-instruction density.
//
// Programs are deterministic per (name, scale): every machine
// configuration executes bit-identical code and data.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"codesignvm/internal/x86"
)

// Memory layout of generated programs.
const (
	CodeBase = 0x00400000
	DataBase = 0x10000000
	StackTop = 0x7FF00000
)

// Params characterizes one synthetic application.
type Params struct {
	Name string
	Seed int64

	// StaticInstrs is the target static footprint at scale 1 (the paper
	// averages ≈150K static x86 instructions per application).
	StaticInstrs int
	// HotFrac is the fraction of static instructions in hot kernels.
	HotFrac float64
	// DataWS is the data working set in bytes at scale 1.
	DataWS int
	// BranchBias in [0,1]: 1 = fully predictable kernel branches,
	// 0 = data-dependent 50/50 branches.
	BranchBias float64
	// Fusability in [0,1] controls dependence density in hot code: high
	// values produce chained ALU sequences the macro-op fuser thrives
	// on; low values produce independent operations.
	Fusability float64
	// MemRatio in [0,1] weights memory instructions in kernels.
	MemRatio float64
	// ComplexPerMille is the per-1000 rate of complex-class
	// instructions (div, wide mul, rep string) in warm/init code.
	ComplexPerMille int
	// InnerTrips is the typical iteration count of kernel inner loops.
	InnerTrips int
	// InitFrac is the static-footprint share of once-executed
	// initialization code (default 0.55 when zero).
	InitFrac float64
}

// Apps is the Winstone2004 Business suite stand-in, calibrated per
// application (names as in Fig. 9).
var Apps = []Params{
	{Name: "Access", Seed: 101, StaticInstrs: 168000, HotFrac: 0.035, DataWS: 3 << 20, BranchBias: 0.75, Fusability: 0.70, MemRatio: 0.42, ComplexPerMille: 8, InnerTrips: 40},
	{Name: "Excel", Seed: 102, StaticInstrs: 152000, HotFrac: 0.045, DataWS: 2 << 20, BranchBias: 0.80, Fusability: 0.85, MemRatio: 0.33, ComplexPerMille: 10, InnerTrips: 48},
	{Name: "FrontPage", Seed: 103, StaticInstrs: 146000, HotFrac: 0.040, DataWS: 2 << 20, BranchBias: 0.78, Fusability: 0.75, MemRatio: 0.36, ComplexPerMille: 6, InnerTrips: 36},
	{Name: "IE", Seed: 104, StaticInstrs: 182000, HotFrac: 0.030, DataWS: 4 << 20, BranchBias: 0.70, Fusability: 0.70, MemRatio: 0.40, ComplexPerMille: 6, InnerTrips: 32},
	{Name: "Norton", Seed: 105, StaticInstrs: 128000, HotFrac: 0.050, DataWS: 1 << 20, BranchBias: 0.85, Fusability: 0.80, MemRatio: 0.38, ComplexPerMille: 12, InnerTrips: 56},
	{Name: "Outlook", Seed: 106, StaticInstrs: 172000, HotFrac: 0.030, DataWS: 4 << 20, BranchBias: 0.72, Fusability: 0.70, MemRatio: 0.44, ComplexPerMille: 8, InnerTrips: 32},
	{Name: "PowerPoint", Seed: 107, StaticInstrs: 150000, HotFrac: 0.040, DataWS: 3 << 20, BranchBias: 0.76, Fusability: 0.75, MemRatio: 0.37, ComplexPerMille: 7, InnerTrips: 40},
	{Name: "Project", Seed: 108, StaticInstrs: 140000, HotFrac: 0.035, DataWS: 4 << 20, BranchBias: 0.66, Fusability: 0.30, MemRatio: 0.52, ComplexPerMille: 9, InnerTrips: 28},
	{Name: "Winzip", Seed: 109, StaticInstrs: 96000, HotFrac: 0.070, DataWS: 1 << 20, BranchBias: 0.82, Fusability: 0.85, MemRatio: 0.35, ComplexPerMille: 5, InnerTrips: 64},
	{Name: "Word", Seed: 110, StaticInstrs: 160000, HotFrac: 0.040, DataWS: 2 << 20, BranchBias: 0.78, Fusability: 0.80, MemRatio: 0.38, ComplexPerMille: 8, InnerTrips: 44},
}

// BootLike is an extension workload modelling the paper's §1.1 OS
// boot-up concern: an enormous once-executed code footprint with almost
// no hotspots, the worst case for translation-based startup.
var BootLike = Params{
	Name: "BootLike", Seed: 999, StaticInstrs: 300000, HotFrac: 0.008,
	DataWS: 4 << 20, BranchBias: 0.70, Fusability: 0.50, MemRatio: 0.45,
	ComplexPerMille: 10, InnerTrips: 16, InitFrac: 0.85,
}

// ByName returns the parameters of a named application.
func ByName(name string) (Params, error) {
	for _, p := range Apps {
		if p.Name == name {
			return p, nil
		}
	}
	if name == BootLike.Name {
		return BootLike, nil
	}
	return Params{}, fmt.Errorf("workload: unknown application %q", name)
}

// Names lists the application names in suite order.
func Names() []string {
	out := make([]string, len(Apps))
	for i, p := range Apps {
		out[i] = p.Name
	}
	return out
}

// Program is a generated, loadable benchmark.
type Program struct {
	Params Params
	Scale  int
	Code   []byte
	Entry  uint32

	// Generation statistics (for calibration tests).
	StaticInstrs int
	HotInstrs    int
	InitInstrs   int
	WarmInstrs   int
	NumKernels   int
	DataWS       int
}

// Memory returns a fresh address space with the program loaded and its
// data region deterministically initialized.
func (p *Program) Memory() *x86.Memory {
	mem := x86.NewMemory()
	mem.WriteBytes(CodeBase, p.Code)
	rng := rand.New(rand.NewSource(p.Params.Seed * 7919))
	// One little-endian word per four bytes of working set (a trailing
	// partial word is written whole), staged a page at a time.
	var buf [x86.PageSize]byte
	words := (p.DataWS + 3) / 4
	for done := 0; done < words; {
		n := min(words-done, len(buf)/4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], rng.Uint32())
		}
		mem.WriteBytes(DataBase+uint32(4*done), buf[:4*n])
		done += n
	}
	return mem
}

// InitState returns the architected entry state.
func (p *Program) InitState() *x86.State {
	st := &x86.State{EIP: p.Entry}
	st.R[x86.ESP] = StackTop
	return st
}

// Generate builds the program for params at the given scale divisor
// (scale 1 = paper-sized footprint; scale 25 is the default experiment
// scale, see DESIGN.md §6).
func Generate(params Params, scale int) (*Program, error) {
	if scale < 1 {
		scale = 1
	}
	g := newGen(params, scale)
	if err := g.build(); err != nil {
		return nil, err
	}
	code, err := g.a.Finalize()
	if err != nil {
		return nil, err
	}
	return &Program{
		Params:       params,
		Scale:        scale,
		Code:         code,
		Entry:        g.entry,
		StaticInstrs: g.emitted,
		HotInstrs:    g.hotEmitted,
		InitInstrs:   g.initEmitted,
		WarmInstrs:   g.warmEmitted,
		NumKernels:   g.numKernels,
		DataWS:       g.dataWS,
	}, nil
}

// appKey identifies one memoized program build.
type appKey struct {
	name  string
	scale int
}

// appEntry is a once-guarded cache slot so concurrent callers of the
// same (name, scale) generate the program exactly once and the rest
// block until it is ready.
type appEntry struct {
	once sync.Once
	prog *Program
	err  error
}

var appCache sync.Map // appKey -> *appEntry

// App returns the named application at the given scale, memoized:
// programs are deterministic per (name, scale) and immutable once
// built (Memory() hands every caller a fresh address space), so the
// ~14 experiment harnesses share one generation instead of each
// rebuilding identical code. Safe for concurrent use.
func App(name string, scale int) (*Program, error) {
	if scale < 1 {
		scale = 1 // match Generate's clamp so keys do not split
	}
	e, _ := appCache.LoadOrStore(appKey{name, scale}, new(appEntry))
	entry := e.(*appEntry)
	entry.once.Do(func() {
		entry.prog, entry.err = GenerateApp(name, scale)
	})
	return entry.prog, entry.err
}

// GenerateApp builds a named application at the given scale without
// consulting or filling the memoization cache (used by cold-path
// benchmarks and anyone who wants a private Program).
func GenerateApp(name string, scale int) (*Program, error) {
	p, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return Generate(p, scale)
}
