package fuzz

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// digest hashes every schedule-determined field of a campaign result
// into a stable hex string: the covered index set (as maximal runs),
// the evaluated seeds in order with their verdicts, the coverage
// curve, the counters, the failure count, and the stop reason. Two
// campaigns with equal digests made the same decisions and observed
// the same data — the bit-identity oracle of a campaign.
//
// Wall-clock fields (Elapsed, EvalWall), worker counts, and queue
// high-water marks are deliberately excluded: they vary run to run
// without affecting what the campaign computed.
func digest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	if res.Indices != nil {
		res.Indices.EachRun(func(lo, hi int64) bool {
			i64(lo)
			i64(hi)
			return true
		})
	}
	i64(int64(len(res.Seeds)))
	for _, s := range res.Seeds {
		for _, v := range s.V {
			f64(v)
		}
		if s.Useful {
			u64(1)
		} else {
			u64(0)
		}
	}
	i64(int64(len(res.Curve)))
	for _, c := range res.Curve {
		i64(int64(c))
	}
	i64(int64(res.Iterations))
	i64(int64(res.Evaluations))
	i64(int64(res.DedupSkips))
	i64(int64(res.Useful))
	i64(int64(res.NonUseful))
	i64(int64(res.UsefulClusters))
	i64(int64(res.NonUsefulClusters))
	i64(int64(len(res.Failures)))
	h.Write([]byte(res.StopReason))
	return hex.EncodeToString(h.Sum(nil))
}
