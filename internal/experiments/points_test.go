package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccnic"
	"ccnic/internal/check"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/platform"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
	"ccnic/internal/trace"
)

// bump changes every settable scalar under v to another value, calling
// visit after each change and restoring it afterwards. Nested structs are
// walked field by field; path names the field.
func bump(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			bump(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
		return
	case reflect.Array:
		for i := range v.Len() {
			bump(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
		return
	}
	old := reflect.ValueOf(v.Interface())
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 2)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 2)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "-x")
	default:
		t.Fatalf("%s: no change for a %v field; teach bump one", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}

// TestPointKeyComplete changes each field of a point one at a time (every
// ccnic.Config field, every device.UPIConfig and platform.Platform field
// behind its pointers, nested parameter structs included, and every
// LoopbackOptions field): each change must give a key of its own, so no
// field can merge two different points. Spelled-out defaults and an
// unarmed plan must give the default's key, and a traced point is never
// shared.
func TestPointKeyComplete(t *testing.T) {
	o := Options{Quick: true}
	lo := ccnic.LoopbackOptions{PktSize: 64, Warmup: 20 * sim.Microsecond, Measure: 60 * sim.Microsecond}
	key := func(cfg ccnic.Config, lo ccnic.LoopbackOptions) any { return o.key(o.resolve(cfg), loopRun(lo)) }
	base := key(ccnic.Config{}, lo)
	distinct := func(what string, k any) {
		t.Helper()
		if k == base {
			t.Errorf("%s gives the default point's key", what)
		}
	}

	armed := &fault.Plan{Seed: 3}
	armed.Rate[fault.LinkCorrupt] = 0.01
	top := map[string]ccnic.Config{
		"Platform":       {Platform: "SPR"},
		"Plat":           {Plat: platform.SPR()},
		"Interface":      {Interface: ccnic.UnoptUPI},
		"Queues":         {Queues: 2},
		"SameSocket":     {SameSocket: true},
		"OverlayThreads": {OverlayThreads: 2},
		"HostPrefetch":   {HostPrefetch: true},
		"NICPrefetch":    {NICPrefetch: true},
		"UPI":            {UPI: &device.UPIConfig{}},
		"Protocol":       {Protocol: "CXL"},
		"Faults":         {Faults: armed},
	}
	ct := reflect.TypeOf(ccnic.Config{})
	for i := range ct.NumField() {
		name := ct.Field(i).Name
		cfg, ok := top[name]
		if !ok {
			t.Errorf("Config.%s has no change in this test; add one", name)
			continue
		}
		distinct("Config."+name, key(cfg, lo))
	}

	upi := device.CCNICConfig()
	bump(t, reflect.ValueOf(&upi).Elem(), "UPIConfig", func(path string) {
		u := upi
		distinct(path, key(ccnic.Config{UPI: &u}, lo))
	})
	plat := *platform.ICX()
	bump(t, reflect.ValueOf(&plat).Elem(), "Platform", func(path string) {
		p := plat
		distinct(path, key(ccnic.Config{Plat: &p}, lo))
	})
	plan := *armed
	armedKey := key(ccnic.Config{Faults: armed}, lo)
	bump(t, reflect.ValueOf(&plan).Elem(), "Plan", func(path string) {
		p := plan
		if k := key(ccnic.Config{Faults: &p}, lo); k == armedKey {
			t.Errorf("%s gives the unchanged plan's key", path)
		}
	})
	lv := reflect.ValueOf(&lo).Elem()
	for i := range lv.NumField() {
		f := lv.Field(i)
		if f.Kind() == reflect.Pointer {
			continue // Trace, below
		}
		bump(t, f, "LoopbackOptions."+lv.Type().Field(i).Name, func(path string) { distinct(path, key(ccnic.Config{}, lo)) })
	}
	if key(ccnic.Config{}, lo) != base {
		t.Fatal("bump did not restore the loopback options")
	}
	if (Options{Quick: true, Check: true}).key(o.resolve(ccnic.Config{}), loopRun(lo)) == base {
		t.Error("Check gives the unchecked point's key")
	}

	ccnicUPI := device.CCNICConfig()
	same := map[string]any{
		"spelled-out defaults": key(ccnic.Config{Platform: "ICX", Queues: 1, Protocol: "UPI", UPI: &ccnicUPI}, lo),
		"the ICX platform":     key(ccnic.Config{Plat: platform.ICX()}, lo),
		"lower-case protocol":  key(ccnic.Config{Protocol: "upi"}, lo),
		"an unarmed plan":      key(ccnic.Config{Faults: &fault.Plan{Seed: 5}}, lo),
		"loopback defaults": key(ccnic.Config{}, ccnic.LoopbackOptions{PktSize: 64, Window: 64, TxBatch: 32, RxBatch: 32,
			Warmup: lo.Warmup, Measure: lo.Measure}),
		"fig14's Opt layout": key(ccnicWith(0, func(u *device.UPIConfig) { u.Layout = ring.Grouped }), lo),
	}
	for what, k := range same {
		want := base
		if what == "fig14's Opt layout" {
			want = key(ccnicWith(0, nil), lo)
		}
		if k != want {
			t.Errorf("%s gives a key of its own", what)
		}
	}

	traced := lo
	traced.Trace = trace.New(1, 8)
	if key(ccnic.Config{}, traced) == key(ccnic.Config{}, traced) {
		t.Error("two requests of a traced point share a key")
	}
}

// engines returns how many invariant engines fn attaches: one per
// simulation it builds with Check on.
func engines(fn func()) uint64 {
	before := check.TotalEngines()
	fn()
	return check.TotalEngines() - before
}

// TestSessionSharesPoints runs quick fig19 and table2 with Check on, apart
// and then in one session. The session must build each shared key once
// (table2's 4-thread KV points are fig19's: 2 interfaces x 2
// distributions) and print what the separate runs print.
func TestSessionSharesPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick experiments twice")
	}
	opt := Options{Quick: true, Check: true}
	ids := []string{"fig19", "table2"}
	apart, shared := make([]string, len(ids)), make([]string, len(ids))
	nApart := engines(func() {
		for i, id := range ids {
			apart[i] = ByID(id).Run(opt).Format()
		}
	})
	nShared := engines(func() {
		sess := NewSession()
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				shared[i] = sess.Run(ByID(id), opt).Format()
			}()
		}
		wg.Wait()
	})
	if nShared != nApart-4 {
		t.Errorf("one session built %d simulations, separate runs %d: want 4 fewer", nShared, nApart)
	}
	for i, id := range ids {
		if shared[i] != apart[i] {
			t.Errorf("%s in a shared session differs from its own run:\n%s\nvs\n%s", id, shared[i], apart[i])
		}
	}
}

// TestRunBuildsEachTime: two Experiment.Run calls are two sessions, so the
// second builds every simulation again rather than reading the first's.
func TestRunBuildsEachTime(t *testing.T) {
	opt := Options{Quick: true, Check: true}
	e := ByID("fig17")
	first := engines(func() { e.Run(opt) })
	second := engines(func() { e.Run(opt) })
	if first == 0 || second != first {
		t.Errorf("first Run built %d simulations, second %d: want the same, nonzero", first, second)
	}
}

// TestPoolBoundsNestedParallel runs two experiments in one session, each
// holding a slot as Session.Run does, with work of their own around a
// round: jobs of their own, one job whose work nests a round of its own,
// and one key both request. At every pool size, no more work may run at
// once than there are slots, everything must complete even on one slot,
// the shared key must run once and reach both, and every slot must be
// free afterwards.
func TestPoolBoundsNestedParallel(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("slots=", size), func(t *testing.T) {
			defer func(s chan struct{}) { slots = s }(slots)
			slots = make(chan struct{}, size)

			var mu sync.Mutex
			running, peak := 0, 0
			work := func() any {
				mu.Lock()
				running++
				peak = max(peak, running)
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				running--
				mu.Unlock()
				return 1
			}
			var sharedRuns atomic.Int32
			sess := NewSession()
			exp := func(id string) int {
				acquire()
				defer release()
				opt := Options{sess: sess, exp: id}
				work()
				jobs := []job{{key: "shared", work: func() any { sharedRuns.Add(1); return work().(int) + 1 }}}
				for i := range 3 {
					jobs = append(jobs, job{key: fmt.Sprint(id, i), work: work})
				}
				jobs = append(jobs, job{key: id + "-nest", work: func() any {
					work()
					round[any](opt, []job{{key: id + "-inner0", work: work}, {key: id + "-inner1", work: work}})
					return work()
				}})
				vals := round[int](opt, jobs)
				work()
				return vals[0]
			}
			got := make([]int, 2)
			done := make(chan struct{})
			go func() {
				defer close(done)
				var wg sync.WaitGroup
				for i, id := range []string{"a", "b"} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i] = exp(id)
					}()
				}
				wg.Wait()
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("two experiments' rounds did not complete on %d slots", size)
			}
			if peak > size {
				t.Errorf("%d jobs ran at once on %d slots", peak, size)
			}
			if n := sharedRuns.Load(); n != 1 || got[0] != 2 || got[1] != 2 {
				t.Errorf("shared key ran %d times and read %v; want once, 2 for both", n, got)
			}
			if n := len(slots); n != 0 {
				t.Errorf("%d of %d slots still held", n, size)
			}
		})
	}
}
