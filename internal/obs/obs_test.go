package obs

import (
	"fmt"
	"testing"
)

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a", "things")
	c2 := r.Counter("a", "things")
	if c1 != c2 {
		t.Fatal("re-registering a counter returned a different handle")
	}
	h1 := r.Histogram("h", "x", []uint64{1, 2})
	h2 := r.Histogram("h", "x", []uint64{8, 16}) // layout of the first wins
	if h1 != h2 {
		t.Fatal("re-registering a histogram returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("a", "things")
}

// TestRegistrySnapshotDuringRegistration: a live reader (the /jobs and
// /runs handlers) may snapshot a registry while the run that owns it is
// still registering metrics. Every entry a snapshot sees must carry its
// metric; run under -race, this also checks the two are ordered.
func TestRegistrySnapshotDuringRegistration(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.Counter(fmt.Sprintf("c%d", i), "n").Inc()
			r.Gauge(fmt.Sprintf("g%d", i), "n").Set(1)
			r.Histogram(fmt.Sprintf("h%d", i), "n", BucketsPow2(1, 4)).Observe(3)
		}
	}()
	for {
		select {
		case <-done:
			if n := len(r.Snapshot()); n != 600 {
				t.Fatalf("snapshot holds %d metrics, want 600", n)
			}
			return
		default:
			r.Snapshot()
		}
	}
}

func TestSnapshotValuesAndOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last", "n").Add(7)
	r.Gauge("a.first", "ratio").Set(0.5)
	h := r.Histogram("m.hist", "bytes", BucketsPow2(2, 3)) // 2, 4, 8, +inf
	for _, v := range []uint64{1, 2, 3, 9, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s) != 3 || s[0].Name != "z.last" || s[1].Name != "a.first" || s[2].Name != "m.hist" {
		t.Fatalf("snapshot order/len wrong: %+v", s)
	}
	if m, _ := s.Get("z.last"); m.Value != 7 {
		t.Fatalf("counter value = %v, want 7", m.Value)
	}
	m, ok := s.Get("m.hist")
	if !ok || m.Count != 5 || m.Value != 115 {
		t.Fatalf("histogram count/sum = %d/%v, want 5/115", m.Count, m.Value)
	}
	want := []Bucket{{2, 2}, {4, 1}, {8, 0}, {InfBound, 2}}
	for i, b := range m.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestMerge(t *testing.T) {
	mk := func(cv, gv float64) Snapshot {
		r := NewRegistry()
		r.Counter("c", "n").Add(uint64(cv))
		r.Gauge("g", "x").Set(gv)
		r.Histogram("h", "n", []uint64{4}).Observe(uint64(cv))
		return r.Snapshot()
	}
	m := Merge(mk(3, 1.5), mk(5, 0.5))
	if c, _ := m.Get("c"); c.Value != 8 {
		t.Fatalf("merged counter = %v, want 8", c.Value)
	}
	if g, _ := m.Get("g"); g.Value != 1.5 {
		t.Fatalf("merged gauge = %v, want max 1.5", g.Value)
	}
	h, _ := m.Get("h")
	if h.Count != 2 || h.Buckets[0].Count != 1 || h.Buckets[1].Count != 1 {
		t.Fatalf("merged histogram wrong: %+v", h)
	}
}

func TestCollectSinkAndAggregate(t *testing.T) {
	sink := NewCollectSink()
	o := NewObserver(sink)
	r1 := o.NewRun("a")
	r2 := o.NewRun("b")
	r1.Reg.Counter("c", "n").Add(2)
	r2.Reg.Counter("c", "n").Add(3)
	r1.Emit(EvRunStart, 0, 100, 0, 0)
	r2.Emit(EvRunEnd, 0, 100, 200, 0)
	if got := o.RunCount(); got != 2 {
		t.Fatalf("RunCount = %d, want 2", got)
	}
	if agg := o.Aggregate(); len(agg) != 1 || agg[0].Value != 5 {
		t.Fatalf("aggregate = %+v, want one counter of 5", agg)
	}
	evs := sink.Events()
	if len(evs) != 2 || evs[0].Kind != EvRunStart || evs[0].Tag != "a" || evs[1].Tag != "b" {
		t.Fatalf("collected events wrong: %+v", evs)
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Fatalf("sequence not increasing: %d then %d", evs[0].Seq, evs[1].Seq)
	}
}

func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.RunCount() != 0 || o.Aggregate() != nil || o.EventsEmitted() != 0 {
		t.Fatal("nil observer accessors not inert")
	}
	o.Emit(EvStoreHit, "x", 0, 0, 0, 0) // must not panic
	rec := o.NewRun("x")
	if rec != nil {
		t.Fatal("nil observer minted a recorder")
	}
	rec.Emit(EvRunStart, 0, 0, 0, 0) // must not panic
	if rec.Tag() != "" {
		t.Fatal("nil recorder tag not empty")
	}
}

// TestHotPathAllocFree pins the zero-allocation contract of every
// operation that can run on the simulator's hot paths.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "n")
	h := r.Histogram("h", "n", BucketsPow2(1, 8))
	var nilRec *Recorder
	sink := NewTraceSink(&discard{})
	o := NewObserver(sink)
	rec := o.NewRun("t")
	runSpan := func() {
		rec.Emit(EvRunStart, 0, 0, 0, 0)
		rec.Emit(EvRunEnd, 0, 0, 0, 0)
	}
	runSpan() // assign the tag's lane, warm the scratch buffer
	for name, fn := range map[string]func(){
		"counter-inc":       func() { c.Inc() },
		"histogram-observe": func() { h.Observe(37) },
		"nil-recorder-emit": func() { nilRec.Emit(EvRunStart, 0, 0, 0, 0) },
		"trace-run-span":    runSpan,
	} {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// discard is a no-op writer (io.Discard would be fine, but a local type
// keeps the write path visible to the allocation accounting).
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c", "n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTraceEmit(b *testing.B) {
	rec := NewRecorder("bench", NewTraceSink(&discard{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Emit(EvRunStart, 0, 0, 0, 0)
		rec.Emit(EvRunEnd, 0, 0, 0, 0)
	}
}
