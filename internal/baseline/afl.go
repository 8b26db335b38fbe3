package baseline

import (
	"context"
	"encoding/binary"
	"math/rand"
	"time"

	"repro/internal/array"
	"repro/internal/workload"
)

// aflMapSize is the coverage bitmap size (AFL's classic 64 KB map).
const aflMapSize = 1 << 16

// aflMap is a 64 KB map of one-byte cells held as 64-bit words, as
// afl-fuzz.c reads it: cell i is byte i%8 (little-endian) of word i/8.
type aflMap [aflMapSize / 8]uint64

// aflBitmap is the shared-memory-style edge bitmap an instrumented
// target writes hit counts into.
type aflBitmap struct {
	cur  aflMap
	prev uint32
}

// Hit implements workload.Coverage with AFL's edge hashing: the map
// index mixes the previous and current block ids, so the bitmap
// captures edges rather than nodes. A cell's count wraps from 255 to
// 0, as AFL's byte map does, without carrying into its neighbour.
func (b *aflBitmap) Hit(edge uint32) {
	idx := (b.prev ^ edge) % aflMapSize
	w, sh := idx/8, 8*(idx%8)
	if b.cur[w]>>sh&0xFF == 0xFF {
		b.cur[w] &^= 0xFF << sh
	} else {
		b.cur[w] += 1 << sh
	}
	b.prev = edge >> 1
}

// hitIndex registers a data access as coverage, reproducing the
// paper's re-targeting of AFL to array-index coverage: a synthetic
// "if subscript == (i,j,...)" branch per index, realized as one edge
// per index linear position.
func (b *aflBitmap) hitIndex(lin int64) {
	b.Hit(uint32(lin)*2654435761 + 0x9e3779b9)
}

// reset clears the bitmap for the next execution.
func (b *aflBitmap) reset() {
	b.cur = aflMap{}
	b.prev = 0
}

// classifyCounts buckets raw hit counts the way AFL does, so loops
// with slightly different trip counts don't look like new coverage.
func classifyCounts(c byte) byte {
	switch {
	case c == 0:
		return 0
	case c == 1:
		return 1
	case c == 2:
		return 2
	case c == 3:
		return 4
	case c <= 7:
		return 8
	case c <= 15:
		return 16
	case c <= 31:
		return 32
	case c <= 127:
		return 64
	default:
		return 128
	}
}

// hasNewBits is AFL's per-execution has_new_bits pass: it classifies
// cur's hit counts, clears the classified bits from virgin, and
// reports whether any of them was still virgin. Like classify_counts
// and has_new_bits in afl-fuzz.c it walks the map a 64-bit word at a
// time and skips zero words, whose cells all classify to zero; only
// the cells of nonzero words are classified, and each word is compared
// with virgin at once.
func hasNewBits(cur, virgin *aflMap) bool {
	found := false
	for i, w := range cur {
		if w == 0 {
			continue
		}
		var c uint64
		for sh := 0; sh < 64; sh += 8 {
			c |= uint64(classifyCounts(byte(w>>sh))) << sh
		}
		if c&virgin[i] != 0 {
			virgin[i] &^= c
			found = true
		}
	}
	return found
}

// aflSeed is one queue entry.
type aflSeed struct {
	data      []byte
	wasUseful bool
	detDone   bool // deterministic stages already applied
}

// AFLConfig bounds an AFL campaign. The zero value runs until the
// context ends.
type AFLConfig struct {
	// MaxEvals, when positive, bounds the number of program runs.
	MaxEvals int
	Seed     int64
	// Progress, when set, is invoked every ProgressEvery evaluations
	// with the accumulated result; returning true stops the campaign.
	Progress      func(*Result) bool
	ProgressEvery int
}

// AFL runs a coverage-guided fuzzing campaign against the program,
// re-targeted to index coverage as described in §V-C: every accessed
// array index is surfaced to the coverage bitmap, and the campaign
// keeps inputs that light up new bitmap bits.
//
// Faithful to the baseline's observed weaknesses, inputs are raw byte
// buffers (one 32-bit little-endian word per parameter) mutated
// blindly: most mutants decode to out-of-range valuations and waste
// executions, and the per-exec bitmap classification/compare is real
// bookkeeping overhead.
//
// Canceling the context stops the campaign at the next budget check
// and returns the partial result.
func AFL(ctx context.Context, p workload.Program, cfg AFLConfig) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := p.Params()
	res := &Result{Indices: array.NewIndexSet(p.Space())}

	bitmap := &aflBitmap{}
	var virgin aflMap
	for i := range virgin {
		virgin[i] = ^uint64(0)
	}

	// One accumulated virtual accessor; per-run sets are extracted to
	// feed index coverage.
	acc := workload.NewVirtualAccessor(p.Space())

	runInput := func(data []byte) (newCov bool, err error) {
		v := decodeInput(data, len(params))
		bitmap.reset()
		env := &workload.Env{Acc: acc, Cov: bitmap}
		if err := p.Run(v, env); err != nil {
			return false, err
		}
		iv := acc.ResetAccessed()
		iv.EachLinear(func(lin int64) bool {
			bitmap.hitIndex(lin)
			return true
		})
		res.Indices.UnionWith(iv)
		res.Evaluations++
		return hasNewBits(&bitmap.cur, &virgin), nil
	}

	progressEvery := cfg.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 64
	}
	stopped := false
	lastProgress := 0
	budgetLeft := func() bool {
		if stopped {
			return false
		}
		if cfg.MaxEvals > 0 && res.Evaluations >= cfg.MaxEvals {
			return false
		}
		if ctx.Err() != nil {
			return false
		}
		if cfg.Progress != nil && res.Evaluations >= lastProgress+progressEvery {
			lastProgress = res.Evaluations
			res.Elapsed = time.Since(start)
			if cfg.Progress(res) {
				stopped = true
				return false
			}
		}
		return true
	}

	// Seed corpus: one valid input (the container's CMD default — the
	// low corner of Θ) plus one mid-range input.
	var queue []*aflSeed
	for _, pick := range []float64{0, 0.5} {
		v := make([]float64, len(params))
		for i, r := range params {
			v[i] = float64(r.Lo) + pick*float64(r.Hi-r.Lo)
		}
		data := encodeInput(v)
		if _, err := runInput(data); err != nil {
			return nil, err
		}
		queue = append(queue, &aflSeed{data: data})
	}

	for qi := 0; budgetLeft(); qi = (qi + 1) % len(queue) {
		seed := queue[qi]
		// Deterministic stage: walking bitflips and byte arithmetic,
		// once per seed.
		if !seed.detDone {
			seed.detDone = true
			for bit := 0; bit < len(seed.data)*8 && budgetLeft(); bit++ {
				mutant := append([]byte(nil), seed.data...)
				mutant[bit/8] ^= 1 << (bit % 8)
				if nc, err := runInput(mutant); err != nil {
					return nil, err
				} else if nc {
					queue = append(queue, &aflSeed{data: mutant})
				}
			}
			for off := 0; off < len(seed.data) && budgetLeft(); off++ {
				for _, delta := range []int{1, -1, 16, -16} {
					mutant := append([]byte(nil), seed.data...)
					mutant[off] = byte(int(mutant[off]) + delta)
					if nc, err := runInput(mutant); err != nil {
						return nil, err
					} else if nc {
						queue = append(queue, &aflSeed{data: mutant})
					}
				}
			}
		}
		if !budgetLeft() {
			break
		}
		// Havoc stage: 2, 4, 8 or 16 stacked random mutations.
		for round := 0; round < 32 && budgetLeft(); round++ {
			mutant := append([]byte(nil), seed.data...)
			stack := 1 << (1 + rng.Intn(4))
			for s := 0; s < stack; s++ {
				havocOp(mutant, rng)
			}
			if nc, err := runInput(mutant); err != nil {
				return nil, err
			} else if nc {
				queue = append(queue, &aflSeed{data: mutant})
			}
		}
	}

	res.Elapsed = time.Since(start)
	return res, nil
}

// havocOp applies one random AFL-style havoc mutation in place.
func havocOp(data []byte, rng *rand.Rand) {
	if len(data) == 0 {
		return
	}
	switch rng.Intn(6) {
	case 0: // flip a random bit
		bit := rng.Intn(len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
	case 1: // set a random byte to a random value
		data[rng.Intn(len(data))] = byte(rng.Intn(256))
	case 2: // add/sub a small delta
		off := rng.Intn(len(data))
		data[off] = byte(int(data[off]) + rng.Intn(35) - 17)
	case 3: // overwrite with an "interesting" value
		interesting := []byte{0, 1, 0x7F, 0x80, 0xFF, 16, 32, 64, 100, 127}
		data[rng.Intn(len(data))] = interesting[rng.Intn(len(interesting))]
	case 4: // overwrite a 32-bit word with an interesting word
		if len(data) >= 4 {
			words := []uint32{0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 100, 1024, 65535}
			off := rng.Intn(len(data)-3) &^ 3
			if off+4 <= len(data) {
				binary.LittleEndian.PutUint32(data[off:], words[rng.Intn(len(words))])
			}
		}
	case 5: // clone a byte elsewhere
		src, dst := rng.Intn(len(data)), rng.Intn(len(data))
		data[dst] = data[src]
	}
}

// encodeInput packs a parameter valuation into AFL's byte-buffer input
// format: one 32-bit little-endian word per parameter.
func encodeInput(v []float64) []byte {
	data := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(data[i*4:], uint32(int32(workload.RoundParam(x))))
	}
	return data
}

// decodeInput is the inverse mapping used by the target harness: raw
// int32 words, with no clamping — out-of-range words simply fail the
// program's parameter validation, wasting the execution (the behaviour
// §V-D1 attributes AFL's low recall to).
func decodeInput(data []byte, m int) []float64 {
	v := make([]float64, m)
	for i := 0; i < m; i++ {
		if (i+1)*4 <= len(data) {
			v[i] = float64(int32(binary.LittleEndian.Uint32(data[i*4:])))
		}
	}
	return v
}
