package baseline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/workload"
)

// cells returns m's one-byte cells in map order.
func cells(m *aflMap) *[aflMapSize]byte {
	var out [aflMapSize]byte
	for i, w := range m {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return &out
}

func TestAFLBitmapEdgeHashing(t *testing.T) {
	b := &aflBitmap{}
	b.Hit(100)
	b.Hit(200)
	nonZero := 0
	for _, c := range cells(&b.cur) {
		if c != 0 {
			nonZero++
		}
	}
	if nonZero != 2 {
		t.Errorf("expected 2 touched map cells, got %d", nonZero)
	}
	// Edge sensitivity: the same node hit after different predecessors
	// lands in different cells.
	b.reset()
	b.Hit(1)
	b.Hit(5) // edge (1→5)
	first := b.cur
	b.reset()
	b.Hit(3)
	b.Hit(5) // edge (3→5)
	if b.cur == first {
		t.Error("different edges hashed identically")
	}
}

// TestAFLBitmapCountWraps: a cell's count wraps from 255 to 0 like a
// byte, leaving the neighbouring cells of its word alone.
func TestAFLBitmapCountWraps(t *testing.T) {
	b := &aflBitmap{}
	b.Hit(4) // cell 4; every later Hit(4) is edge 2→4, cell 6
	for i := 0; i < 255; i++ {
		b.Hit(4)
	}
	if c := cells(&b.cur); *(*[4]byte)(c[4:8]) != [4]byte{1, 0, 255, 0} {
		t.Fatalf("cells 4..7 = %v, want [1 0 255 0]", c[4:8])
	}
	b.Hit(4)
	if c := cells(&b.cur); *(*[4]byte)(c[4:8]) != [4]byte{1, 0, 0, 0} {
		t.Fatalf("after the 256th hit cells 4..7 = %v, want [1 0 0 0]", c[4:8])
	}
}

// TestAFLTimeBudget pins a campaign's one wall-clock bound, its
// context's deadline: under a 20 ms deadline an unbounded campaign
// returns within a second with the runs it made.
func TestAFLTimeBudget(t *testing.T) {
	p := workload.MustCS(2, 64)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := AFL(ctx, p, AFLConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("campaign returned %v after a 20ms deadline", elapsed)
	}
	if res.Evaluations == 0 || res.Indices.Empty() {
		t.Errorf("partial result is empty: %d evaluations, %d indices", res.Evaluations, res.Indices.Len())
	}
}

func TestAFLProgressStops(t *testing.T) {
	p := workload.MustCS(2, 64)
	cfg := AFLConfig{Seed: 2, MaxEvals: 100000, ProgressEvery: 50}
	calls := 0
	cfg.Progress = func(r *Result) bool {
		calls++
		return r.Evaluations >= 200
	}
	res, err := AFL(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress never called")
	}
	if res.Evaluations > 1000 {
		t.Errorf("progress stop ignored: %d evaluations", res.Evaluations)
	}
}

func TestAFLDeterministicWithSeed(t *testing.T) {
	p := workload.MustCS(2, 64)
	run := func() int {
		res, err := AFL(context.Background(), p, AFLConfig{Seed: 7, MaxEvals: 500})
		if err != nil {
			t.Fatal(err)
		}
		return res.Indices.Len()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("seeded AFL runs differ: %d vs %d", a, b)
	}
}

func TestHavocOpNeverPanics(t *testing.T) {
	// havocOp on tiny buffers must stay in bounds.
	for size := 0; size <= 9; size++ {
		data := make([]byte, size)
		rng := newTestRand(int64(size))
		for i := 0; i < 2000; i++ {
			havocOp(data, rng)
		}
	}
}

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// hasNewBitsBytewise is the has_new_bits pass as it was before the
// word walk, kept as its reference: classify and compare every cell of
// the map, one byte at a time.
func hasNewBitsBytewise(cur, virgin *[aflMapSize]byte) bool {
	found := false
	for i := range cur {
		c := classifyCounts(cur[i])
		if c&virgin[i] != 0 {
			virgin[i] &^= c
			found = true
		}
	}
	return found
}

// TestHasNewBitsMatchesBytewise drives the word walk and the byte-wise
// reference through the same sequences of sparse and dense bitmaps,
// each against its own virgin map: every verdict and every virgin map
// after it must agree.
func TestHasNewBitsMatchesBytewise(t *testing.T) {
	rng := newTestRand(21)
	for _, density := range []float64{0.0001, 0.002, 0.05, 0.5, 1} {
		var virginWord aflMap
		var virginByte [aflMapSize]byte
		for i := range virginWord {
			virginWord[i] = ^uint64(0)
		}
		for i := range virginByte {
			virginByte[i] = 0xFF
		}
		var cur [aflMapSize]byte
		for round := 0; round < 40; round++ {
			for i := range cur {
				cur[i] = 0
				if rng.Float64() < density {
					// Counts across every classification bucket.
					cur[i] = byte(1 + rng.Intn(1<<uint(1+rng.Intn(8))-1))
				}
			}
			var words aflMap
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(cur[8*i:])
			}
			got := hasNewBits(&words, &virginWord)
			want := hasNewBitsBytewise(&cur, &virginByte)
			if got != want {
				t.Fatalf("density %v round %d: new bits %v, byte-wise %v", density, round, got, want)
			}
			if *cells(&virginWord) != virginByte {
				t.Fatalf("density %v round %d: virgin maps differ", density, round)
			}
		}
	}
}

// TestAFLResultsPinned pins what AFL computes on all 11 programs at a
// fixed budget: the evaluation count, the index count and a digest of
// the index runs, as the byte-wise has_new_bits pass produced them.
func TestAFLResultsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("16,500 AFL executions; skipped in -short")
	}
	want := map[string]string{
		"CS2":   "1502 1142 e2b0f898e1e8ab63",
		"PRL2D": "1502 5835 2f19add1a5f38bf6",
		"LDC2D": "1502 1366 208d92dfff2863fa",
		"RDC2D": "1502 1366 69ed9364681175a2",
		"CS1":   "1502 224 1744eb6b2f1455ef",
		"CS3":   "1502 793 d86c5cff0f9020c5",
		"CS4":   "1502 957 3585f687fbb6a874",
		"CS5":   "1502 445 e3944405697f4b68",
		"PRL3D": "1500 146815 0c85b13a75aa99bd",
		"LDC3D": "1500 3446 fa7ab3b73d0159c6",
		"RDC3D": "1500 3446 652f76df2dd04591",
	}
	programs := workload.All()
	if len(programs) != len(want) {
		t.Fatalf("%d programs, want %d", len(programs), len(want))
	}
	for _, p := range programs {
		res, err := AFL(context.Background(), p, AFLConfig{MaxEvals: 1500, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [16]byte
		res.Indices.EachRun(func(lo, hi int64) bool {
			binary.LittleEndian.PutUint64(buf[:8], uint64(lo))
			binary.LittleEndian.PutUint64(buf[8:], uint64(hi))
			h.Write(buf[:])
			return true
		})
		got := fmt.Sprintf("%d %d %x", res.Evaluations, res.Indices.Len(), h.Sum(nil)[:8])
		if got != want[p.Name()] {
			t.Errorf("%s: evaluations, indices, digest = %s, want %s", p.Name(), got, want[p.Name()])
		}
	}
}
