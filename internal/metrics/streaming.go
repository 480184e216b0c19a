package metrics

import (
	"math"
	"sort"
)

// StreamingQuantile estimates one quantile of a stream in constant
// memory using the P² algorithm (Jain & Chlamtac, 1985): five markers
// track the running minimum, maximum, the target quantile, and the two
// intermediate quantiles, and each observation adjusts marker heights by
// piecewise-parabolic interpolation. Distribution retains every sample —
// fine for a 4096-member experiment run, fatal for a million-member soak
// that observes per-member values every interval — so soak paths report
// percentiles through this estimator instead.
//
// The estimate is exact while fewer than five samples have been seen and
// approximate afterwards; accuracy against exact percentiles is pinned
// by tests. Not safe for concurrent use.
type StreamingQuantile struct {
	p     float64    // target quantile in (0, 1)
	count int64      // observations so far
	q     [5]float64 // marker heights
	n     [5]float64 // marker positions (1-based)
	want  [5]float64 // desired marker positions
	dn    [5]float64 // desired-position increments per observation
}

// NewStreamingQuantile creates an estimator for quantile q in (0, 1)
// (e.g. 0.95 for the 95th percentile). Out-of-range targets are clamped
// into (0, 1).
func NewStreamingQuantile(q float64) *StreamingQuantile {
	if math.IsNaN(q) || q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q >= 1 {
		q = 1 - 1e-12
	}
	s := &StreamingQuantile{p: q}
	s.dn = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return s
}

// Count returns the number of observations so far.
func (s *StreamingQuantile) Count() int64 { return s.count }

// Observe feeds one sample.
func (s *StreamingQuantile) Observe(x float64) {
	if s.count < 5 {
		s.q[s.count] = x
		s.count++
		if s.count == 5 {
			sort.Float64s(s.q[:])
			for i := range s.n {
				s.n[i] = float64(i + 1)
			}
			p := s.p
			s.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	s.count++

	// Find the cell the sample falls in, updating the extreme markers.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x < s.q[1]:
		k = 0
	case x < s.q[2]:
		k = 1
	case x < s.q[3]:
		k = 2
	case x <= s.q[4]:
		k = 3
	default:
		s.q[4] = x
		k = 3
	}
	for i := k + 1; i < 5; i++ {
		s.n[i]++
	}
	for i := range s.want {
		s.want[i] += s.dn[i]
	}

	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.want[i] - s.n[i]
		if (d >= 1 && s.n[i+1]-s.n[i] > 1) || (d <= -1 && s.n[i-1]-s.n[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := s.parabolic(i, sign)
			if s.q[i-1] < h && h < s.q[i+1] {
				s.q[i] = h
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.n[i] += sign
		}
	}
}

func (s *StreamingQuantile) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.n[i+1]-s.n[i-1])*
		((s.n[i]-s.n[i-1]+d)*(s.q[i+1]-s.q[i])/(s.n[i+1]-s.n[i])+
			(s.n[i+1]-s.n[i]-d)*(s.q[i]-s.q[i-1])/(s.n[i]-s.n[i-1]))
}

func (s *StreamingQuantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.n[j]-s.n[i])
}

// Value returns the current quantile estimate (0 before any sample;
// exact nearest-rank while fewer than five samples have been seen).
func (s *StreamingQuantile) Value() float64 {
	if s.count == 0 {
		return 0
	}
	if s.count < 5 {
		sorted := make([]float64, s.count)
		copy(sorted, s.q[:s.count])
		sort.Float64s(sorted)
		rank := int(math.Ceil(s.p * float64(s.count)))
		if rank < 1 {
			rank = 1
		}
		return sorted[rank-1]
	}
	return s.q[2]
}

// StreamingSummary is the constant-memory counterpart of Summarize: it
// tracks count, mean, max, and P² estimates of the median and the 90th
// and 95th percentiles, so a soak can report the same headline numbers
// as Summary without retaining its population. Not safe for concurrent
// use.
type StreamingSummary struct {
	n             int64
	sum, max      float64
	p50, p90, p95 *StreamingQuantile
}

// NewStreamingSummary creates an empty summary accumulator.
func NewStreamingSummary() *StreamingSummary {
	return &StreamingSummary{
		p50: NewStreamingQuantile(0.50),
		p90: NewStreamingQuantile(0.90),
		p95: NewStreamingQuantile(0.95),
	}
}

// Observe feeds one sample.
func (s *StreamingSummary) Observe(x float64) {
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum += x
	s.p50.Observe(x)
	s.p90.Observe(x)
	s.p95.Observe(x)
}

// Count returns the number of observations so far.
func (s *StreamingSummary) Count() int64 { return s.n }

// Summary returns the current estimates in the same shape Summarize
// produces from a full Distribution.
func (s *StreamingSummary) Summary() Summary {
	out := Summary{N: int(s.n), Max: s.max}
	if s.n > 0 {
		out.Mean = s.sum / float64(s.n)
	}
	out.Median = s.p50.Value()
	out.P90 = s.p90.Value()
	out.P95 = s.p95.Value()
	return out
}
