package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"codesignvm/internal/machine"
	"codesignvm/internal/store"
	"codesignvm/internal/store/faultfs"
	"codesignvm/internal/vmm"
)

// TestRunKeyCoversEveryConfigField: every leaf of vmm.Config — the
// nested timing.Params, bbt.Config and sbt.Config included — reaches
// both the run key and the snapshot key. Perturbing any one leaf must
// give a run key and a snapshot key no other perturbation (and not the
// unperturbed config) has. A leaf of a kind this test cannot perturb
// fails it: such a field would go unchecked, and may go unkeyed.
func TestRunKeyCoversEveryConfigField(t *testing.T) {
	base := machine.Config(machine.VMSoft)
	runKeys := map[string]string{}
	snapKeys := map[string]string{}
	record := func(name string, cfg vmm.Config) {
		t.Helper()
		rk := runKey{cfg: cfg, app: "Word", scale: 200, instrs: 1000}.fileKey()
		sk := snapFileKey(cfg, "Word", 200, 1000)
		if prev, dup := runKeys[rk]; dup {
			t.Errorf("%s: run key %s equals %s's", name, rk, prev)
		}
		if prev, dup := snapKeys[sk]; dup {
			t.Errorf("%s: snapshot key %s equals %s's", name, sk, prev)
		}
		if _, dup := snapKeys[rk]; dup {
			t.Errorf("%s: run key %s is also a snapshot key", name, rk)
		}
		runKeys[rk], snapKeys[sk] = name, name
	}
	record("base", base)

	var walk func(v reflect.Value, path string)
	leaves := 0
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			if f.Kind() == reflect.Struct {
				walk(f, name+".")
				continue
			}
			old := reflect.ValueOf(f.Interface()) // a copy to restore
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
			case reflect.String:
				f.SetString(f.String() + "x")
			default:
				t.Fatalf("vmm.Config.%s: cannot perturb a %s field, so its keying is unchecked", name, f.Kind())
			}
			leaves++
			record(name, base)
			f.Set(old)
		}
	}
	walk(reflect.ValueOf(&base).Elem(), "")
	if want := len(leafNames(reflect.TypeOf(vmm.Config{}), "")); leaves != want {
		t.Fatalf("perturbed %d leaves, vmm.Config has %d", leaves, want)
	}
	if leaves < 30 {
		t.Fatalf("only %d leaves: the walk missed the nested configurations", leaves)
	}
	// The rest of a run's identity splits both keys as well.
	for _, k := range []runKey{
		{cfg: base, app: "Winzip", scale: 200, instrs: 1000},
		{cfg: base, app: "Word", scale: 201, instrs: 1000},
		{cfg: base, app: "Word", scale: 200, instrs: 1001},
	} {
		if _, dup := runKeys[k.fileKey()]; dup {
			t.Errorf("%+v: run key not split by the workload identity", k)
		}
		if _, dup := snapKeys[snapFileKey(k.cfg, k.app, k.scale, k.instrs)]; dup {
			t.Errorf("%+v: snapshot key not split by the workload identity", k)
		}
	}
}

// TestMemoHitAllocatesNothing: a process-wide table hit — the run
// cache's, keyed by a whole vmm.Config — allocates nothing, and neither
// does passing the GC gate of a store directory already swept.
func TestMemoHitAllocatesNothing(t *testing.T) {
	var m memo[runKey, *vmm.Result]
	ctx := context.Background()
	k := runKey{cfg: machine.Config(machine.VMBE), app: "Word", scale: 200, instrs: 1000}
	want := &vmm.Result{Instrs: 7}
	fill := func() (*vmm.Result, error) { return want, nil }
	if got, err := m.get(ctx, k, fill); err != nil || got != want {
		t.Fatalf("fill: %v, %v", got, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, _ := m.get(ctx, k, fill); got != want {
			t.Fatal("hit returned another value")
		}
	})
	if allocs != 0 {
		t.Errorf("memo hit: %v allocations, want 0", allocs)
	}

	s := &store.Store{Dir: t.TempDir(), FS: faultfs.Disk{}, Tuning: store.DefaultTuning, Ctx: ctx}
	s.GCOnce()
	allocs = testing.AllocsPerRun(100, s.GCOnce)
	if allocs != 0 {
		t.Errorf("GC gate of a known directory: %v allocations, want 0", allocs)
	}
}
