// Package metrics provides the statistical machinery behind the
// evaluation figures: inverse cumulative distributions (the paper plots
// "x fraction of users have a value less than or equal to y"),
// percentiles, and multi-run aggregation with rank-wise averaging — the
// method Fig. 6 describes: "we ranked the users in increasing order of
// their stresses; for each rank we computed the average across all runs,
// as well as the 5- and 95-percentile values".
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Distribution is a set of per-user (or per-link) samples from one run.
type Distribution struct {
	samples []float64
}

// NewDistribution copies the given samples into a Distribution.
func NewDistribution(samples []float64) *Distribution {
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	return &Distribution{samples: cp}
}

// Add merges samples into the distribution: a series that grows batch
// by batch stays sorted at a cost linear in its length per batch.
func (d *Distribution) Add(samples ...float64) {
	add := NewDistribution(samples).samples
	i, j := len(d.samples)-1, len(add)-1
	d.samples = append(d.samples, add...)
	for k := len(d.samples) - 1; j >= 0; k-- {
		if i >= 0 && d.samples[i] > add[j] {
			d.samples[k] = d.samples[i]
			i--
		} else {
			d.samples[k] = add[j]
			j--
		}
	}
}

// Len returns the number of samples.
func (d *Distribution) Len() int { return len(d.samples) }

// Sorted returns a copy of the samples in increasing order. Callers own
// the result; mutating it cannot corrupt the distribution.
func (d *Distribution) Sorted() []float64 {
	return append([]float64(nil), d.samples...)
}

// Mean returns the arithmetic mean (0 for an empty distribution).
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range d.samples {
		sum += s
	}
	return sum / float64(len(d.samples))
}

// Max returns the largest sample (0 for an empty distribution).
func (d *Distribution) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.samples[len(d.samples)-1]
}

// Percentile returns the p-th percentile (nearest-rank). The domain is
// (0, 100]: p outside it, or NaN, returns NaN rather than silently
// clamping to the minimum or maximum sample — the old behavior, which
// turned a caller's unit mistake (Percentile(0.95) for the 95th) into a
// plausible-looking extreme value. An empty distribution returns 0.
func (d *Distribution) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if math.IsNaN(p) || p <= 0 || p > 100 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d.samples) {
		rank = len(d.samples)
	}
	return d.samples[rank-1]
}

// AtFraction returns the value y such that the given fraction of samples
// are <= y: one point of the inverse cumulative distribution.
func (d *Distribution) AtFraction(f float64) float64 {
	return d.Percentile(f * 100)
}

// FractionAtMost returns the fraction of samples <= y.
func (d *Distribution) FractionAtMost(y float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(d.samples, math.Nextafter(y, math.Inf(1)))
	return float64(idx) / float64(len(d.samples))
}

// InverseCDFPoint is one point of an aggregated inverse CDF curve.
type InverseCDFPoint struct {
	// Fraction of the population at or below this rank.
	Fraction float64
	// Mean is the rank-wise average across runs.
	Mean float64
	// P5 and P95 bound the rank-wise spread across runs.
	P5, P95 float64
}

// RankAggregate combines same-population distributions from several runs
// rank by rank, producing the curves of Figs. 6–11: runs are each sorted,
// then rank r across runs is averaged and its 5/95-percentiles taken. It
// returns points for numPoints evenly spaced fractions in (0, 1]. All
// runs must have the same sample count.
//
// numPoints is normalized to the sample count n when it is out of range:
// values < 1 (callers may pass 0 to mean "every rank") and values > n
// (more points than distinct ranks exist) both yield exactly n points,
// one per rank. This is deliberate — it keeps curve resolution capped at
// the data's own resolution instead of duplicating ranks — and tests pin
// it.
func RankAggregate(runs []*Distribution, numPoints int) ([]InverseCDFPoint, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("metrics: no runs to aggregate")
	}
	n := runs[0].Len()
	for i, r := range runs {
		if r.Len() != n {
			return nil, fmt.Errorf("metrics: run %d has %d samples, want %d", i, r.Len(), n)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("metrics: empty runs")
	}
	if numPoints < 1 || numPoints > n {
		numPoints = n
	}
	points := make([]InverseCDFPoint, 0, numPoints)
	across := make([]float64, len(runs))
	for pi := 1; pi <= numPoints; pi++ {
		rank := pi*n/numPoints - 1
		if rank < 0 {
			rank = 0
		}
		for ri, r := range runs {
			across[ri] = r.samples[rank]
		}
		d := NewDistribution(across)
		points = append(points, InverseCDFPoint{
			Fraction: float64(rank+1) / float64(n),
			Mean:     d.Mean(),
			P5:       d.Percentile(5),
			P95:      d.Percentile(95),
		})
	}
	return points, nil
}

// Summary condenses a distribution into the headline numbers the paper
// quotes in its prose (medians, tail percentiles, fractions under
// thresholds).
type Summary struct {
	N             int
	Mean, Median  float64
	P90, P95, Max float64
}

// Summarize computes a Summary.
func Summarize(d *Distribution) Summary {
	return Summary{
		N:      d.Len(),
		Mean:   d.Mean(),
		Median: d.Percentile(50),
		P90:    d.Percentile(90),
		P95:    d.Percentile(95),
		Max:    d.Max(),
	}
}
