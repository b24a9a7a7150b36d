package telemetry

import "math/bits"

// Log2Bucket maps a value to its log2 histogram bucket — the
// mmtrace.Hist convention: bucket 0 holds zeros, bucket i >= 1 holds
// values in [2^(i-1), 2^i). Callers clamp to their bucket count.
func Log2Bucket(v uint64) int { return bits.Len64(v) }

// Log2BucketUpper returns the largest value bucket i can hold (the
// inclusive upper bound percentile estimates report).
func Log2BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Percentiles estimates quantiles from a log2 bucket histogram. For
// each q in qs it finds the bucket containing the ceil(q * total)-th
// smallest value and reports that bucket's inclusive upper bound — a
// deliberate overestimate of at most 2x, which is the histogram's
// resolution. An empty histogram yields zeros.
func Percentiles(buckets []uint64, qs ...float64) []uint64 {
	out := make([]uint64, len(qs))
	var total uint64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return out
	}
	for j, q := range qs {
		rank := uint64(q * float64(total))
		if float64(rank) < q*float64(total) {
			rank++ // ceil
		}
		if rank < 1 {
			rank = 1
		}
		if rank > total {
			rank = total
		}
		var cum uint64
		for i, c := range buckets {
			cum += c
			if cum >= rank {
				out[j] = Log2BucketUpper(i)
				break
			}
		}
	}
	return out
}
