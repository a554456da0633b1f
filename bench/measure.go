package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"codesignvm"
)

// opOut is what an op hands to the checker: the identity of its inputs,
// a digest of its output, and the budgeted x86 instructions the output
// covers (sim_mips).
type opOut struct {
	key    string
	value  string
	instrs uint64
}

type opFunc func(c *opCtx) (opOut, error)

// instance is one set-up of a workload: the ops of one round, in
// order. The closed-loop client repeats the round until the run ends, so
// all rounds have the same composition.
type instance struct {
	ops         []opFunc
	beforeRound func() // untimed
	close       func()
	progs       []*codesignvm.Program // the generated programs, for the layer probes
}

// checker holds the expected digest of every op key: the first value
// seen in this process, or the golden value for seed 1.
type checker struct {
	seen   map[string]string
	golden map[string]string // nil unless seed 1
	notes  []string
}

func newChecker(golden map[string]string) *checker {
	return &checker{seen: map[string]string{}, golden: golden}
}

func (c *checker) verify(out opOut) bool {
	if want, ok := c.golden[out.key]; ok && want != out.value {
		c.note("%s: got %s, golden %s", out.key, out.value, want)
		return false
	}
	if want, ok := c.seen[out.key]; ok {
		if want != out.value {
			c.note("%s: got %s, first occurrence %s", out.key, out.value, want)
			return false
		}
		return true
	}
	c.seen[out.key] = out.value
	return true
}

// note keeps the first few failure messages for the report.
func (c *checker) note(format string, args ...any) {
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// bestOp is the fastest execution seen of one position of the round:
// the same op on the same inputs, round after round.
type bestOp struct {
	ms     float64
	cpuMS  float64 // rusage user+sys of the whole process across the op; its own minimum
	instrs uint64
}

// fastest is what a run keeps of its timings: per position of the round
// the fastest execution and the one that used least CPU. It is carried
// from the priming round of the first set-up to the end of the timed run
// (same seed, same ops at the same positions), so the observations span
// the whole invocation and a slow phase of the host has to outlast all
// of it to be the only thing a run sees.
type fastest struct {
	ops []bestOp
}

// sized readies f for a round of the given length, keeping what it has
// when the length is the same.
func (f *fastest) sized(positions int) {
	if len(f.ops) == positions {
		return
	}
	f.ops = make([]bestOp, positions)
	for i := range f.ops {
		f.ops[i].ms, f.ops[i].cpuMS = math.Inf(1), math.Inf(1)
	}
}

type loopResult struct {
	attempted, failed int
	rounds            int
	allocBytes        uint64
	peakRSSMiB        float64 // when op number rssAtOp completed, else at the end
}

// rssAtOp is the op after which peak RSS is read. Reading it after a
// fixed amount of work, not at the end of a fixed time, keeps a faster
// build from being charged for the extra ops it fits into the run: the
// job manager, for one, keeps every job it ever ran.
const rssAtOp = 100

func rusage() (cpuSeconds, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runLoop drives the instance closed-loop: the client issues its next op
// when the previous one completed. With rounds > 0 it does exactly that
// many rounds; otherwise it stops at the first round boundary past dur
// once minOps ops are done. Timings go to best.
func runLoop(in *instance, dur time.Duration, rounds, minOps int, tr *tracer, chk *checker, best *fastest) loopResult {
	var res loopResult
	best.sized(len(in.ops))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	giveUp := start.Add(4*dur + time.Minute)
	for {
		if in.beforeRound != nil {
			in.beforeRound()
		}
		for i, op := range in.ops {
			c := opCtx{root: -1}
			if tr != nil {
				c.tr, c.op = tr, tr.newOp()
				c.root = tr.begin("op", "", -1, c.op)
			}
			cpu0, _ := rusage()
			begin := time.Now()
			out, err := op(&c)
			d := time.Since(begin)
			cpu1, _ := rusage()
			tr.end(c.root, out.instrs)
			if err != nil {
				chk.note("%s: %v", out.key, err)
			}
			if err != nil || !chk.verify(out) {
				res.failed++
			}
			b := &best.ops[i]
			if ms := float64(d) / 1e6; ms < b.ms {
				b.ms, b.instrs = ms, out.instrs
			}
			b.cpuMS = min(b.cpuMS, (cpu1-cpu0)*1e3)
			if res.attempted++; res.attempted == rssAtOp {
				_, res.peakRSSMiB = rusage()
			}
		}
		res.rounds++
		now := time.Now()
		if rounds > 0 && res.rounds == rounds ||
			rounds == 0 && (now.After(giveUp) || now.Sub(start) >= dur && res.attempted >= minOps) {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if res.peakRSSMiB == 0 {
		_, res.peakRSSMiB = rusage()
	}
	return res
}

// Statistics.
//
// The sandbox this benchmark was calibrated on alternates, every few
// seconds, between a fast phase and one that is 1.3-1.7× slower (a
// contended host; no steal time is reported). The noise is one-sided:
// nothing makes an op faster than the code allows. Medians over a run
// therefore spread by 15-20 % from run to run, minima by about 4 %
// (README.md "Calibration"), and every timing of the timed run is built
// from the fastest execution of each identical unit of work: each
// position of the round, for wall and for CPU time. (A whole run inside a slow phase still reads slow: that is what
// the bounds and the sets of ten runs are for.)

// undisturbed returns the op-time profile of one round, sorted, the
// closed-loop throughput that profile gives — the round completing in
// the sum of its fastest op times — and the CPU time per op of a round
// in which every op used its least.
func (f *fastest) undisturbed() (opMS []float64, opsPerS, instrsPerS, cpuMSPerOp float64) {
	var ms, cpuMS float64
	var instrs uint64
	for _, b := range f.ops {
		opMS = append(opMS, b.ms)
		ms += b.ms
		cpuMS += b.cpuMS
		instrs += b.instrs
	}
	sort.Float64s(opMS)
	n := float64(len(opMS))
	return opMS, ratio(n, ms/1e3), ratio(float64(instrs), ms/1e3), ratio(cpuMS, n)
}

// rank is the nearest-rank percentile: the smallest value with at least
// the share q of the values at or below it. A round is small (3 to 20
// ops) and holds two populations in two workloads, so interpolating
// between ranks would report op times no op has.
func rank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median interpolates between the two middle values of an even count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// ratio is num ÷ den, 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }
