package metrics

import "math"

// Histogram bucket layout. Buckets are logarithmic with subCount linear
// sub-buckets per power of two (HDR-histogram style): bucket 0 absorbs all
// samples below 1, and bucket 1+e*subCount+m covers
// [2^e*(1+m/subCount), 2^e*(1+(m+1)/subCount)). With 16 sub-buckets per
// octave the relative bucket width is at most 1/16 ≈ 6.3%, which is far
// below the run-to-run noise of any simulated latency.
const (
	subBits  = 4
	subCount = 1 << subBits // sub-buckets per power of two
	maxExp   = 62           // exponents above this collapse into the last bucket
	// NumBuckets is the fixed bucket count of every Histogram.
	NumBuckets = 1 + (maxExp+1)*subCount
)

// Histogram is a streaming log-bucketed histogram of non-negative samples
// (latencies in ns throughout this repository). Recording is O(1) with no
// allocation: the bucket index is derived from the sample's floating-point
// exponent and mantissa bits, so the hot path is a few shifts and one
// counter increment. Construct with NewHistogram (the zero value has no
// bucket storage). A Histogram is not safe for concurrent use.
type Histogram struct {
	counts []uint64

	count    uint64
	sum      float64
	min, max float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, NumBuckets)}
}

// bucketIndex maps a sample to its bucket. Negative values and NaN clamp
// into bucket 0 alongside everything below 1.
func bucketIndex(v float64) int {
	if !(v >= 1) {
		return 0
	}
	b := math.Float64bits(v)
	e := int(b>>52) - 1023 // v >= 1, so e >= 0 (and Inf clamps below)
	if e > maxExp {
		return NumBuckets - 1
	}
	sub := int(b >> (52 - subBits) & (subCount - 1))
	return 1 + e*subCount + sub
}

// BucketBounds returns the half-open interval [lo, hi) bucket i covers.
func BucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 1
	}
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	i--
	e := i / subCount
	sub := i % subCount
	lo = math.Ldexp(1+float64(sub)/subCount, e)
	hi = math.Ldexp(1+float64(sub+1)/subCount, e)
	return lo, hi
}

// Record adds one sample.
func (h *Histogram) Record(v float64) {
	h.counts[bucketIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact sample mean (tracked outside the buckets), or 0
// for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded sample (exact), or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (exact), or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) of the
// recorded samples: the upper edge of the bucket holding the sample of
// rank ⌊q·(count−1)⌋, clamped into [Min, Max] so single-sample and
// narrow distributions report exact values. An empty histogram returns 0.
// The estimate is within one bucket width (≤ 6.3% relative error) of the
// true quantile, and is monotone in q.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count-1)) // 0-based, matches sorted[i] indexing
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			_, hi := BucketBounds(i)
			if hi > h.max {
				return h.max
			}
			if hi < h.min {
				return h.min
			}
			return hi
		}
	}
	return h.max // unreachable: cum ends at h.count > rank
}

// Merge adds another histogram's samples into h. Merging is exact for
// counts and bucket contents; min/max/sum merge exactly too.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// SetSum overrides the tracked sample sum. Float accumulation depends on
// the order samples arrive in, in the last ulp; a driver that tracks an
// exact (integer-derived) total can install it here so Mean and the
// exported moments do not.
func (h *Histogram) SetSum(sum float64) { h.sum = sum }

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// Bucket is one non-empty histogram bucket in export form.
type Bucket struct {
	// Lo and Hi bound the bucket's half-open interval [Lo, Hi).
	Lo float64 `json:"lo_ns"`
	Hi float64 `json:"hi_ns"`
	// Count is the number of samples that fell inside the interval.
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// HistogramExport is the JSON form of a Histogram: exact summary moments
// plus the non-empty buckets. See docs/METRICS.md for field semantics.
type HistogramExport struct {
	Count   uint64   `json:"count"`
	MeanNs  float64  `json:"mean_ns"`
	MinNs   float64  `json:"min_ns"`
	MaxNs   float64  `json:"max_ns"`
	P50Ns   float64  `json:"p50_ns"`
	P95Ns   float64  `json:"p95_ns"`
	P99Ns   float64  `json:"p99_ns"`
	Buckets []Bucket `json:"buckets"`
}

// Export renders the histogram for serialization.
func (h *Histogram) Export() HistogramExport {
	return HistogramExport{
		Count:   h.count,
		MeanNs:  h.Mean(),
		MinNs:   h.Min(),
		MaxNs:   h.Max(),
		P50Ns:   h.Quantile(0.50),
		P95Ns:   h.Quantile(0.95),
		P99Ns:   h.Quantile(0.99),
		Buckets: h.Buckets(),
	}
}
