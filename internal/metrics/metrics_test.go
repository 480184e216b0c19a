package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution([]float64{3, 1, 2, 5, 4})
	if d.Len() != 5 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", d.Mean())
	}
	if d.Max() != 5 {
		t.Errorf("Max = %v, want 5", d.Max())
	}
	if got := d.Percentile(50); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
	if got := d.Percentile(100); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	if got := d.Percentile(1); got != 1 {
		t.Errorf("P1 = %v, want 1", got)
	}
	if got := d.AtFraction(0.4); got != 2 {
		t.Errorf("AtFraction(0.4) = %v, want 2", got)
	}
	sorted := d.Sorted()
	if !sortedAscending(sorted) {
		t.Error("Sorted not ascending")
	}
}

// TestSortedIsACopy pins the ownership contract: mutating the slice
// Sorted returns must not corrupt the distribution.
func TestSortedIsACopy(t *testing.T) {
	d := NewDistribution([]float64{3, 1, 2, 5, 4})
	leak := d.Sorted()
	for i := range leak {
		leak[i] = -1000
	}
	if got := d.Mean(); got != 3 {
		t.Errorf("Mean after caller mutation = %v, want 3", got)
	}
	if got := d.Max(); got != 5 {
		t.Errorf("Max after caller mutation = %v, want 5", got)
	}
	if fresh := d.Sorted(); !sortedAscending(fresh) || fresh[0] != 1 {
		t.Errorf("Sorted after caller mutation = %v", fresh)
	}
}

// TestAddMatchesNewDistribution: a distribution grown batch by batch
// holds exactly the samples NewDistribution sorts from all of them,
// including empty batches and ties.
func TestAddMatchesNewDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var d Distribution
	var all []float64
	for batch := 0; batch < 40; batch++ {
		add := make([]float64, rng.Intn(12))
		for i := range add {
			add[i] = float64(rng.Intn(30))
		}
		d.Add(add...)
		all = append(all, add...)
		if got, want := d.Sorted(), NewDistribution(all).Sorted(); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: Add holds %v, want %v", batch, got, want)
		}
	}
	if d.Len() != len(all) || d.Percentile(95) != NewDistribution(all).Percentile(95) {
		t.Errorf("Len %d p95 %v, want %d and %v", d.Len(), d.Percentile(95), len(all), NewDistribution(all).Percentile(95))
	}
}

func sortedAscending(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}

// TestPercentileDomain pins the documented (0, 100] domain: out-of-range
// and NaN arguments return NaN instead of clamping to an extreme sample,
// which hid fraction-vs-percent unit mistakes.
func TestPercentileDomain(t *testing.T) {
	d := NewDistribution([]float64{1, 2, 3, 4, 5})
	for _, p := range []float64{0, -1, 100.001, 200, math.NaN()} {
		if got := d.Percentile(p); !math.IsNaN(got) {
			t.Errorf("Percentile(%v) = %v, want NaN", p, got)
		}
	}
	if got := d.Percentile(100); got != 5 {
		t.Errorf("Percentile(100) = %v, want 5", got)
	}
	if got := d.Percentile(0.001); got != 1 {
		t.Errorf("Percentile(0.001) = %v, want 1 (smallest sample)", got)
	}
	// The empty-distribution zero takes precedence over domain checks.
	if got := NewDistribution(nil).Percentile(0); got != 0 {
		t.Errorf("empty Percentile(0) = %v, want 0", got)
	}
}

func TestEmptyDistribution(t *testing.T) {
	d := NewDistribution(nil)
	if d.Mean() != 0 || d.Max() != 0 || d.Percentile(50) != 0 || d.FractionAtMost(1) != 0 {
		t.Error("empty distribution should yield zeros")
	}
}

func TestFractionAtMost(t *testing.T) {
	d := NewDistribution([]float64{1, 2, 2, 3})
	tests := []struct {
		y    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := d.FractionAtMost(tt.y); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("FractionAtMost(%v) = %v, want %v", tt.y, got, tt.want)
		}
	}
}

func TestRankAggregate(t *testing.T) {
	// Three runs of the same shifted distribution: rank-wise mean is the
	// middle run.
	runs := []*Distribution{
		NewDistribution([]float64{1, 2, 3, 4}),
		NewDistribution([]float64{2, 3, 4, 5}),
		NewDistribution([]float64{3, 4, 5, 6}),
	}
	points, err := RankAggregate(runs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	wantMeans := []float64{2, 3, 4, 5}
	for i, p := range points {
		if math.Abs(p.Mean-wantMeans[i]) > 1e-12 {
			t.Errorf("point %d mean = %v, want %v", i, p.Mean, wantMeans[i])
		}
		if p.P5 > p.Mean || p.P95 < p.Mean {
			t.Errorf("point %d percentile band [%v, %v] excludes mean %v", i, p.P5, p.P95, p.Mean)
		}
		if p.Fraction <= 0 || p.Fraction > 1 {
			t.Errorf("point %d fraction %v out of (0,1]", i, p.Fraction)
		}
	}
	if points[3].Fraction != 1 {
		t.Errorf("last fraction = %v, want 1", points[3].Fraction)
	}
}

func TestRankAggregateValidation(t *testing.T) {
	if _, err := RankAggregate(nil, 4); err == nil {
		t.Error("no runs should fail")
	}
	runs := []*Distribution{NewDistribution([]float64{1}), NewDistribution([]float64{1, 2})}
	if _, err := RankAggregate(runs, 2); err == nil {
		t.Error("mismatched run sizes should fail")
	}
	if _, err := RankAggregate([]*Distribution{NewDistribution(nil)}, 2); err == nil {
		t.Error("empty runs should fail")
	}
}

// TestRankAggregateNumPointsNormalization pins the documented rule:
// numPoints < 1 or > n yields exactly one point per rank.
func TestRankAggregateNumPointsNormalization(t *testing.T) {
	runs := []*Distribution{NewDistribution([]float64{1, 2, 3, 4})}
	for _, numPoints := range []int{0, -3, 5, 1000} {
		points, err := RankAggregate(runs, numPoints)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 4 {
			t.Errorf("numPoints=%d: got %d points, want 4 (one per rank)", numPoints, len(points))
			continue
		}
		for i, p := range points {
			if want := float64(i+1) / 4; p.Fraction != want {
				t.Errorf("numPoints=%d point %d: fraction %v, want %v", numPoints, i, p.Fraction, want)
			}
			if p.Mean != float64(i+1) {
				t.Errorf("numPoints=%d point %d: mean %v, want %v", numPoints, i, p.Mean, float64(i+1))
			}
		}
	}
}

func TestRankAggregateDownsampling(t *testing.T) {
	samples := make([]float64, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range samples {
		samples[i] = rng.Float64()
	}
	points, err := RankAggregate([]*Distribution{NewDistribution(samples)}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("points = %d, want 10", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Mean < points[i-1].Mean {
			t.Error("inverse CDF must be non-decreasing")
		}
	}
}

func TestSummarize(t *testing.T) {
	d := NewDistribution([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	s := Summarize(d)
	if s.N != 10 || s.Median != 5 || s.P90 != 9 || s.Max != 10 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.Mean-5.5) > 1e-12 {
		t.Errorf("Mean = %v, want 5.5", s.Mean)
	}
}
