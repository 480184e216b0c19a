package split

import (
	"reflect"
	"testing"
)

// TestPrefilterEquivalence pins the parallel level-1 prefilter to the
// plain Filter path: identical reports and deliveries with and without
// Options.Parallelism.
func TestPrefilterEquivalence(t *testing.T) {
	base := newWorld(t, 40, 6, 6, 42)
	pref := newWorld(t, 40, 6, 6, 42)

	baseRep, err := Rekey(base.dir, base.msg, Options{Mode: PerEncryption, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	prefRep, err := Rekey(pref.dir, pref.msg, Options{Mode: PerEncryption, Collect: true, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseRep.ReceivedPerUser, prefRep.ReceivedPerUser) ||
		!reflect.DeepEqual(baseRep.ForwardedPerUser, prefRep.ForwardedPerUser) ||
		baseRep.ServerUnits != prefRep.ServerUnits {
		t.Fatal("prefilter changed the bandwidth report")
	}
	if !reflect.DeepEqual(baseRep.Deliveries, prefRep.Deliveries) {
		t.Fatal("prefilter changed the delivery log")
	}
}
