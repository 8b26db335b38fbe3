package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/dataserve"
	"repro/internal/debloat"
	"repro/internal/kondo"
	"repro/internal/metrics"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// cacheBytes bounds the recovery client's chunk cache.
const cacheBytes = 256 << 10

// recovery is the prl-recover workload: a PRL2D file debloated for an
// advertised Θ of extents [n/2, 3n/4], replayed over the full Θ
// [n/2, n] through a debloat.Runtime that recovers carved-away chunks,
// verified against the manifest's Merkle root, from an in-process
// dataserve.Server on loopback.
type recovery struct {
	n, pool int
	cfg     kondo.Config
	seed    int64
	rec     *recorder // nil when untraced
	tamper  bool      // flip a kept byte of the debloated file in set-up

	origin, debloated string
	prog              workload.Program // full Θ, the replayed program
	adv               workload.Program // advertised Θ, the one debloated

	// Set-up products.
	quality map[string]float64
	srv     *dataserve.Server
	hs      *http.Server
	served  sync.WaitGroup
	fetcher *dataserve.Fetcher
	tf      *tracedFetcher
	file    *sdf.File
	rt      *debloat.Runtime
	vals    [][]float64
	zipf    *rand.Zipf
}

func newRecovery(n, pool, tests int, seed int64, dir string, rec *recorder) (*recovery, error) {
	prog, err := workload.NewPRL(n, n)
	if err != nil {
		return nil, err
	}
	r := workload.ParamRange{Lo: n / 2, Hi: 3 * n / 4}
	adv, err := workload.WithParams(prog, workload.ParamSpace{r, r})
	if err != nil {
		return nil, err
	}
	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = seed
	cfg.Fuzz.MaxEvals = tests
	cfg.Fuzz.MaxIter = tests
	cfg.Fuzz.StopIter = 0
	cfg.Fuzz.Workers = workers
	cfg.Carve.Workers = workers
	return &recovery{
		n: n, pool: pool, cfg: cfg, seed: seed, rec: rec, prog: prog, adv: adv,
		origin:    filepath.Join(dir, "origin.sdf"),
		debloated: filepath.Join(dir, "debloated.sdf"),
	}, nil
}

// advertisedTruth is I_Θ of the advertised program in closed form: a
// thickness-2 face of a box with extents e ∈ [lo, hi] sweeps [0,2) and
// [lo-2, hi) along its axis and [0, hi) along the other.
func (w *recovery) advertisedTruth() *array.IndexSet {
	lo, hi := w.n/2, 3*w.n/4
	set := array.NewIndexSet(w.prog.Space())
	w.prog.Space().Each(func(ix array.Index) bool {
		if ix[0] < hi && ix[1] < hi && (ix[0] < 2 || ix[0] >= lo-2 || ix[1] < 2 || ix[1] >= lo-2) {
			set.Add(ix)
		}
		return true
	})
	return set
}

// setup writes the origin, debloats it for the advertised Θ with a
// Merkle-rooted manifest, starts the origin server, primes its lazy
// Merkle tree, and opens the runtime over the debloated file.
func (w *recovery) setup() error {
	ctx := context.Background()
	space := w.prog.Space()
	chunk := []int{16, 16}
	if err := writeOrigin(w.origin, space, array.Float64, chunk); err != nil {
		return err
	}
	res, err := kondo.Debloat(ctx, w.adv, w.cfg)
	if err != nil {
		return err
	}
	stats, err := debloat.WriteSubset(w.origin, w.debloated, dataset, res.Approx, chunk)
	if err != nil {
		return err
	}
	if w.tamper {
		if err := flipKeptByte(w.debloated, res.Approx); err != nil {
			return err
		}
	}
	m := debloat.NewManifest(w.adv.Name(), dataset, space.Dims(), "chunk", chunk, res.Hulls, stats, res.Fuzz.Evaluations)
	if err := m.EmbedMerkle(w.origin); err != nil {
		return err
	}
	spec, err := m.MerkleSpec()
	if err != nil {
		return err
	}
	pr := metrics.Evaluate(w.advertisedTruth(), res.Approx)
	w.quality = map[string]float64{
		"recall":        pr.Recall,
		"precision":     pr.Precision,
		"kept_fraction": float64(stats.DebloatedBytes) / float64(stats.OriginalBytes),
	}

	if w.srv, err = dataserve.NewServer(w.origin); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = w.srv.Handler()
	w.fetcher = dataserve.NewFetcherConfig("http://"+ln.Addr().String(), nil,
		dataserve.FetcherConfig{MaxCacheBytes: cacheBytes})
	var fetcher debloat.Fetcher = w.fetcher
	if w.rec != nil {
		w.tf = &tracedFetcher{f: w.fetcher, rec: w.rec}
		h = &tracedHandler{h: h, tf: w.tf}
		fetcher = w.tf
	}
	w.hs = &http.Server{Handler: h}
	w.served.Add(1)
	go func() {
		defer w.served.Done()
		_ = w.hs.Serve(ln)
	}()
	// The first proof=1 request builds the server's Merkle tree.
	resp, err := http.Get("http://" + ln.Addr().String() + "/chunk?dataset=" + dataset + "&chunk=0,0&proof=1")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("priming the origin's merkle tree: %s", resp.Status)
	}
	if err := w.fetcher.SetVerify(dataset, *spec); err != nil {
		return err
	}
	if w.file, err = sdf.Open(w.debloated); err != nil {
		return err
	}
	ds, err := w.file.Dataset(dataset)
	if err != nil {
		return err
	}
	w.rt = debloat.NewRuntimeContext(ctx, ds, fetcher)

	w.vals = stratifiedPool(w.prog.Params(), w.pool, w.seed)
	w.zipf = rand.NewZipf(rand.New(rand.NewSource(w.seed+1)), 1.1, 1, uint64(w.pool-1))
	return nil
}

// stratifiedPool draws n valuations from Θ for Zipf popularity ranks
// 0..n-1. Rank r sits at the r-th point of the R2 low-discrepancy
// sequence, so every prefix of the ranks covers Θ evenly, and the seed
// jitters each point within half the lattice spacing. The work of the
// popular head, which dominates op latency, then has the same profile
// at every seed, while the valuations and the Zipf stream still change
// with it.
func stratifiedPool(params workload.ParamSpace, n int, seed int64) [][]float64 {
	// R2 sequence steps for two dimensions (1/g and 1/g², g³ = g + 1).
	alpha := [2]float64{0.7548776662466927, 0.5698402909980532}
	rng := rand.New(rand.NewSource(seed))
	half := 0.5 / math.Sqrt(float64(n))
	pool := make([][]float64, n)
	for r := range pool {
		v := make([]float64, len(params))
		for k, pr := range params {
			u := math.Mod(0.5+float64(r+1)*alpha[k%2], 1) + (2*rng.Float64()-1)*half
			u = math.Min(math.Max(u, 0), 1)
			v[k] = math.Round(float64(pr.Lo) + u*float64(pr.Hi-pr.Lo))
		}
		pool[r] = v
	}
	return pool
}

func (w *recovery) prepareChecks() error { return nil }

// counters are the recovery plane's cumulative exact counts.
func (w *recovery) counters() map[string]float64 {
	st := w.fetcher.Stats()
	c := map[string]float64{
		"dataserve.round_trips":   float64(st.RoundTrips),
		"dataserve.retries":       float64(st.Retries),
		"dataserve.verify_ok":     float64(st.VerifyOK),
		"dataserve.verify_failed": float64(st.VerifyFailed),
		"debloat.misses":          float64(w.rt.Misses()),
		"dataserve.cache_hits":    float64(st.CacheHits),
		"dataserve.cache_misses":  float64(st.CacheMisses),
	}
	return c
}

// close stops the server once its handlers have returned, waits for
// it, and releases the files.
func (w *recovery) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.hs.Shutdown(ctx)
		cancel()
		_ = w.hs.Close()
		w.served.Wait()
		w.hs = nil
	}
	if w.srv != nil {
		_ = w.srv.Close()
		w.srv = nil
	}
	if w.file != nil {
		_ = w.file.Close()
		w.file = nil
	}
}

// op replays the program once at the next Zipf-drawn valuation.
func (w *recovery) op(i int, rec *recorder) (*opOut, error) {
	v := w.vals[w.zipf.Uint64()]
	out := newOpOut()
	root := rec.start("op", i, nil)
	acc := &readLog{rt: w.rt, rec: rec, op: i, root: root, tf: w.tf}
	err := w.prog.Run(v, &workload.Env{Acc: acc})
	root.end()
	out.reads = acc.reads
	return out, err
}

// check compares every value the replay read with the fill function
// and fails on any verification failure so far.
func (w *recovery) check(out *opOut) error {
	space := w.prog.Space()
	for _, r := range out.reads {
		k := 0
		var bad error
		sdf.Slab(r.start, r.count).Each(func(ix array.Index) bool {
			if k >= len(r.vals) {
				bad = fmt.Errorf("replay slab at %v returned only %d values", r.start, len(r.vals))
				return false
			}
			if want := fill(space, ix); r.vals[k] != want {
				bad = fmt.Errorf("replay read %v at %v, want %v", r.vals[k], ix, want)
				return false
			}
			k++
			return true
		})
		if bad != nil {
			return bad
		}
		if k != len(r.vals) {
			return fmt.Errorf("replay slab at %v returned %d values for %d indices", r.start, len(r.vals), k)
		}
	}
	if st := w.fetcher.Stats(); st.VerifyFailed > 0 {
		return fmt.Errorf("%d chunks failed verification", st.VerifyFailed)
	}
	out.quality = w.quality
	return nil
}

// slabRead is one ReadSlab the replay made, kept for the check.
type slabRead struct {
	start, count []int
	vals         []float64
}

// readLog is the replay's accessor: it forwards to the runtime, keeps
// what each read returned, and when traced opens a debloat.read span
// per read that the fetch wrapper folds hits into.
type readLog struct {
	rt    *debloat.Runtime
	rec   *recorder
	op    int
	root  *span
	tf    *tracedFetcher
	reads []slabRead
}

func (a *readLog) Space() array.Space { return a.rt.Space() }

func (a *readLog) ReadElement(ix array.Index) (float64, error) { return a.rt.ReadElement(ix) }

func (a *readLog) ReadSlab(start, count []int) ([]float64, error) {
	s := a.rec.start("debloat.read", a.op, a.root)
	if a.tf != nil {
		a.tf.begin(s)
	}
	vals, err := a.rt.ReadSlab(start, count)
	s.end()
	if a.tf != nil {
		a.tf.begin(nil)
	}
	a.reads = append(a.reads, slabRead{append([]int(nil), start...), append([]int(nil), count...), vals})
	return vals, err
}

// tracedFetcher times recovery fetches. It tells a cache hit from a
// miss by the fetcher's round-trip counter: hits are folded into the
// issuing debloat.read span, each miss becomes a dataserve.miss span.
// The fetch sequence number links a miss to the server spans it caused.
// With no read span open it passes calls straight through.
type tracedFetcher struct {
	f   *dataserve.Fetcher
	rec *recorder

	cur atomic.Pointer[span] // the debloat.read span issuing fetches
	seq atomic.Int64         // fetches issued while traced
}

func (t *tracedFetcher) begin(s *span) { t.cur.Store(s) }

func (t *tracedFetcher) Fetch(ds string, ix array.Index) (float64, error) {
	return t.FetchContext(context.Background(), ds, ix)
}

func (t *tracedFetcher) FetchContext(ctx context.Context, ds string, ix array.Index) (float64, error) {
	cur := t.cur.Load()
	if cur == nil {
		return t.f.FetchContext(ctx, ds, ix)
	}
	trips := t.f.Stats().RoundTrips
	seq := t.seq.Add(1)
	start := nowNS()
	v, err := t.f.FetchContext(ctx, ds, ix)
	end := nowNS()
	if t.f.Stats().RoundTrips == trips {
		cur.addCall(time.Duration(end-start), 8)
		return v, err
	}
	s := t.rec.start("dataserve.miss", cur.Op, cur)
	s.Start, s.End, s.Link = start, end, seq
	return v, err
}

// tracedHandler records a serve.request span per origin request,
// tagged with the fetch in flight; link attaches it to that miss.
type tracedHandler struct {
	h  http.Handler
	tf *tracedFetcher
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cur := t.tf.cur.Load()
	if cur == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	seq := t.tf.seq.Load()
	s := t.tf.rec.start("serve.request", cur.Op, nil)
	s.Parent, s.Link = -2, seq
	t.h.ServeHTTP(w, r)
	s.end()
}
