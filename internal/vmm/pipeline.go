package vmm

import (
	"context"
	"runtime"
	"runtime/pprof"

	"codesignvm/internal/fisa"
)

// consumerLabels tags the timing-consumer goroutine in CPU profiles so
// `vmsim -cpuprofile` attributes pipelined timing work legibly.
var consumerLabels = pprof.Labels("vmm", "timing-consumer")

// startPipeline arms the execute/timing pipeline for one Run call: the
// rings and the event buffer are (lazily, once per VM) allocated — a VM
// that only ever runs sequentially never pays for them — and the
// consumer goroutine begins draining. The producer must stop the
// pipeline before reading any consumer-owned state (timing clock,
// Result cycle fields, samples).
func (v *VM) startPipeline() {
	if v.ring == nil {
		v.ring = newTraceRing(v.ringLen)
	}
	if v.events == nil {
		v.events = newEventRing(0)
	}
	if v.evBuf == nil {
		// Non-nil is what puts fisa.Exec in deferred-observation mode.
		v.evBuf = make([]fisa.Event, 0, 512)
	}
	v.obsArmRing()
	v.pipeDone = make(chan struct{})
	go func() {
		defer close(v.pipeDone)
		pprof.Do(context.Background(), consumerLabels, func(context.Context) {
			v.ring.consume(v.apply)
		})
	}()
	v.pipelining = true
}

// stopPipeline publishes the stop record and joins the consumer. After
// it returns, every emitted record has been applied and the producer
// may read timing state (happens-before via the done channel).
func (v *VM) stopPipeline() {
	v.pipelining = false
	v.emitStop()
	<-v.pipeDone
	v.pipeDone = nil
}

func (v *VM) emitStop() {
	v.ring.push(&traceRec{op: opStop})
}

// drainPipeline blocks until the consumer has applied every published
// record. This is the synchronization contract at the points where the
// serial loop interleaved timing state with VM policy — superblock
// formation, code-cache flushes, shadow-table eviction: the decision
// that follows observes exactly the machine state the sequential mode
// would. (No policy decision currently reads timing state — see
// trace.go — so these drains are a defensive contract rather than a
// correctness requirement; they are kept because they are cheap at
// these rare events and make the equivalence argument local.)
func (v *VM) drainPipeline(reason int) {
	if !v.pipelining {
		return
	}
	if v.obs != nil {
		v.obsDrain(reason)
	}
	for spins := 0; !v.ring.drained(); spins++ {
		if spins >= 64 {
			runtime.Gosched()
		}
	}
}
