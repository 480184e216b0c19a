package split

import (
	"reflect"
	"runtime"
	"testing"
)

// TestPrefilterEquivalence: the split has no fan-out, so a session's
// report and deliveries are the same at GOMAXPROCS 1 and 8, and
// Options.Parallelism, which nothing reads, changes neither.
func TestPrefilterEquivalence(t *testing.T) {
	w := newWorld(t, 40, 6, 6, 42)
	run := func(width, par int) *Report {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		rep, err := Rekey(w.dir, w.msg, Options{Mode: PerEncryption, Collect: true, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(1, 0)
	for _, par := range []int{0, 8} {
		rep := run(8, par)
		if !reflect.DeepEqual(base.ReceivedPerUser, rep.ReceivedPerUser) ||
			!reflect.DeepEqual(base.ForwardedPerUser, rep.ForwardedPerUser) ||
			base.ServerUnits != rep.ServerUnits {
			t.Fatalf("Parallelism %d at GOMAXPROCS 8 changed the bandwidth report", par)
		}
		if !reflect.DeepEqual(base.Deliveries, rep.Deliveries) {
			t.Fatalf("Parallelism %d at GOMAXPROCS 8 changed the delivery log", par)
		}
	}
}
