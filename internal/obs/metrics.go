package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Kind distinguishes metric types in snapshots.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "kind?"
}

// Counter is a monotonically increasing count. Operations are atomic so
// the /runs endpoint may read a counter while the owning run
// increments it; increments are wait-free and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the count. It exists for *mirrored* counters: values
// the simulator already maintains in its own result/statistics structs
// (JTLB hits, cache inserts, …) are published into the registry at
// run-end rather than double-counted on the hot path.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-value metric (bytes in use, resident entries, …).
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket-layout distribution. The bucket layout is
// chosen at registration and never changes, so Observe is a short
// linear scan plus one atomic add — no allocation, no resizing.
type Histogram struct {
	bounds []uint64 // inclusive upper bounds; an implicit +inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// BucketsPow2 returns the standard fixed layout used by the simulator's
// size histograms: n power-of-two upper bounds starting at lo
// (lo, 2lo, 4lo, …).
func BucketsPow2(lo uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = lo
		lo *= 2
	}
	return out
}

// InfBound marks the implicit +inf bucket in snapshots.
const InfBound = math.MaxUint64

// Bucket is one snapshot bucket: observations with value <= Le
// (cumulative counts are not used; buckets are disjoint).
type Bucket struct {
	Le    uint64
	Count uint64
}

// Metric is one snapshot entry.
type Metric struct {
	Name    string
	Unit    string
	Labels  string // rendered OpenMetrics label pairs (`k="v",...`); "" for none
	Kind    Kind
	Value   float64  // counter: count; gauge: value; histogram: sum
	Count   uint64   // histogram: number of observations
	Buckets []Bucket // histogram only
}

// Snapshot is a point-in-time copy of a registry, in registration
// order. It is a plain value: safe to store, compare, serialize.
type Snapshot []Metric

// Label renders one OpenMetrics label pair with the required escaping
// of backslash, double-quote and newline in the value. Join multiple
// pairs with commas before passing them to CounterL.
func Label(k, v string) string {
	buf := make([]byte, 0, len(k)+len(v)+3)
	buf = append(buf, k...)
	buf = append(buf, '=', '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return string(append(buf, '"'))
}

// entry is one registered metric.
type entry struct {
	name, unit string
	labels     string
	kind       Kind
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// Registry holds named metrics. Registration (Counter/Gauge/Histogram)
// is mutex-guarded and idempotent — re-registering a name returns the
// existing metric — so callers register once at setup and keep the
// returned handle; handle operations never touch the registry lock.
type Registry struct {
	mu     sync.Mutex
	ents   []*entry
	byName map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// lookup returns the entry registered under name and labels, creating
// it — metric included, under the lock, so a concurrent Snapshot never
// sees an entry without its metric — on first registration. bounds is
// used only when a histogram is created.
func (r *Registry) lookup(name, unit, labels string, kind Kind, bounds []uint64) *entry {
	key := name
	if labels != "" {
		key = name + "\xff" + labels
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.byName[key]; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, e.kind))
		}
		return e
	}
	e := &entry{name: name, unit: unit, labels: labels, kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindHistogram:
		e.h = &Histogram{
			bounds: append([]uint64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	r.byName[key] = e
	r.ents = append(r.ents, e)
	return e
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, unit string) *Counter {
	return r.CounterL(name, unit, "")
}

// CounterL registers (or returns) a labeled counter: one member of a
// counter family, identified by name plus the rendered label pairs
// (build them with Label). Members of a family are distinct metrics;
// OpenMetrics output renders them as `name_total{labels} value`.
func (r *Registry) CounterL(name, unit, labels string) *Counter {
	return r.lookup(name, unit, labels, KindCounter, nil).c
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, unit string) *Gauge {
	return r.lookup(name, unit, "", KindGauge, nil).g
}

// Histogram registers (or returns) a histogram with the given fixed
// bucket upper bounds (strictly increasing; an implicit +inf bucket is
// appended). The layout of an existing histogram is kept.
func (r *Registry) Histogram(name, unit string, bounds []uint64) *Histogram {
	return r.lookup(name, unit, "", KindHistogram, bounds).h
}

// Snapshot copies every metric's current value, in registration order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ents := append([]*entry(nil), r.ents...)
	r.mu.Unlock()
	out := make(Snapshot, 0, len(ents))
	for _, e := range ents {
		m := Metric{Name: e.name, Unit: e.unit, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			m.Value = float64(e.c.Value())
		case KindGauge:
			m.Value = e.g.Value()
		case KindHistogram:
			m.Count = e.h.Count()
			m.Value = float64(e.h.Sum())
			m.Buckets = make([]Bucket, len(e.h.counts))
			for i := range e.h.counts {
				le := uint64(InfBound)
				if i < len(e.h.bounds) {
					le = e.h.bounds[i]
				}
				m.Buckets[i] = Bucket{Le: le, Count: e.h.counts[i].Load()}
			}
		}
		out = append(out, m)
	}
	return out
}

// Get returns the named metric and whether it exists.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Merge combines snapshots by metric name and labels: counters and histogram
// buckets sum, gauges keep their maximum (a "high-water" view — summing
// occupancy gauges across runs would be meaningless). Histograms with
// mismatched bucket layouts keep the first layout and fold extra
// observations into count/sum only. Order is first-appearance order.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	idx := make(map[string]int)
	for _, s := range snaps {
		for _, m := range s {
			key := m.Name + "\xff" + m.Labels
			i, ok := idx[key]
			if !ok {
				idx[key] = len(out)
				c := m
				c.Buckets = append([]Bucket(nil), m.Buckets...)
				out = append(out, c)
				continue
			}
			dst := &out[i]
			switch m.Kind {
			case KindCounter:
				dst.Value += m.Value
			case KindGauge:
				if m.Value > dst.Value {
					dst.Value = m.Value
				}
			case KindHistogram:
				dst.Count += m.Count
				dst.Value += m.Value
				if len(dst.Buckets) == len(m.Buckets) {
					for j := range dst.Buckets {
						dst.Buckets[j].Count += m.Buckets[j].Count
					}
				}
			}
		}
	}
	return out
}

// Format renders the snapshot as an aligned text table (the -metrics
// table mode of cmd/vmsim). Histograms print count/mean plus their
// non-empty buckets.
func (s Snapshot) Format(w io.Writer) {
	display := func(m *Metric) string {
		if m.Labels == "" {
			return m.Name
		}
		return m.Name + "{" + m.Labels + "}"
	}
	wide := 10
	for i := range s {
		if n := len(display(&s[i])); n > wide {
			wide = n
		}
	}
	for i := range s {
		m := s[i]
		switch m.Kind {
		case KindCounter:
			fmt.Fprintf(w, "%-*s  %14.0f %s\n", wide, display(&m), m.Value, m.Unit)
		case KindGauge:
			fmt.Fprintf(w, "%-*s  %14.6g %s\n", wide, m.Name, m.Value, m.Unit)
		case KindHistogram:
			mean := 0.0
			if m.Count > 0 {
				mean = m.Value / float64(m.Count)
			}
			fmt.Fprintf(w, "%-*s  %14d obs, mean %.2f %s\n", wide, m.Name, m.Count, mean, m.Unit)
			for _, b := range m.Buckets {
				if b.Count == 0 {
					continue
				}
				if b.Le == InfBound {
					fmt.Fprintf(w, "%-*s      le=+inf %10d\n", wide, "", b.Count)
				} else {
					fmt.Fprintf(w, "%-*s      le=%-6d %10d\n", wide, "", b.Le, b.Count)
				}
			}
		}
	}
}
