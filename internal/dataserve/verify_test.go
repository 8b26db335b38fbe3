package dataserve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/array"
	"repro/internal/sdf"
)

// originSpec builds the trusted Merkle spec for a test origin the same
// way debloat.EmbedMerkle does: from the file, never from the server.
func originSpec(t testing.TB, path, dataset string) sdf.MerkleSpec {
	t.Helper()
	f, err := sdf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset(dataset)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sdf.BuildDatasetMerkle(ds, sdf.ServingChunk(ds))
	if err != nil {
		t.Fatal(err)
	}
	return tree.SpecOf(ds)
}

func TestProofFrameRoundTrip(t *testing.T) {
	pf := chunkFrame{
		Dataset: "data",
		Chunk:   []int{3, 1},
		Leaf:    7,
		Leaves:  16,
		Vals:    []float64{0, 1.5, -2.25, math.Inf(1), math.NaN()},
		Proof:   make([][sdf.HashSize]byte, 4),
	}
	for i := range pf.Proof {
		for j := range pf.Proof[i] {
			pf.Proof[i][j] = byte(i*31 + j)
		}
	}
	buf, err := encodeChunkFrame(pf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeChunkFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != pf.Dataset || got.Leaf != pf.Leaf || got.Leaves != pf.Leaves {
		t.Fatalf("decoded identity %q/%d/%d, want %q/%d/%d",
			got.Dataset, got.Leaf, got.Leaves, pf.Dataset, pf.Leaf, pf.Leaves)
	}
	if !sameInts(got.Chunk, array.Index(pf.Chunk)) {
		t.Fatalf("decoded chunk %v, want %v", got.Chunk, pf.Chunk)
	}
	for i, v := range pf.Vals {
		if math.Float64bits(got.Vals[i]) != math.Float64bits(v) {
			t.Fatalf("value %d: %x, want %x", i, math.Float64bits(got.Vals[i]), math.Float64bits(v))
		}
	}
	for i := range pf.Proof {
		if got.Proof[i] != pf.Proof[i] {
			t.Fatalf("proof sibling %d differs", i)
		}
	}
}

func TestProofFrameRejectsCorruption(t *testing.T) {
	pf := chunkFrame{
		Dataset: "data",
		Chunk:   []int{0, 2},
		Leaf:    2,
		Leaves:  4,
		Vals:    []float64{1, 2, 3},
		Proof:   make([][sdf.HashSize]byte, 2),
	}
	buf, err := encodeChunkFrame(pf)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation fails: nothing decodes from a partial frame.
	for n := 0; n < len(buf); n++ {
		if _, err := decodeChunkFrame(bytes.NewReader(buf[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded", n, len(buf))
		}
	}
	// Every single-byte flip fails: header flips break magic/count,
	// payload flips break the CRC.
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xff
		if _, err := decodeChunkFrame(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte %d flipped but frame decoded", i)
		}
	}
	// Trailing bytes after a complete frame fail too.
	if _, err := decodeChunkFrame(bytes.NewReader(append(append([]byte(nil), buf...), 0))); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestVerifiedFetchEndToEnd pins the happy path and byte identity:
// verification on and off recover bit-identical values, verified misses
// count VerifyOK, and nothing fails.
func TestVerifiedFetchEndToEnd(t *testing.T) {
	space := array.MustSpace(32, 32)
	path := writeOriginFile(t, space, []int{8, 8})
	srv, err := NewServer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	verified := NewFetcherConfig(ts.URL, nil, FetcherConfig{})
	if err := verified.SetVerify("data", originSpec(t, path, "data")); err != nil {
		t.Fatal(err)
	}
	plain := NewFetcherConfig(ts.URL, nil, FetcherConfig{})

	for r := 0; r < 32; r++ {
		for c := 0; c < 32; c++ {
			ix := array.NewIndex(r, c)
			v, err := verified.FetchContext(context.Background(), "data", ix)
			if err != nil {
				t.Fatalf("verified Fetch(%v): %v", ix, err)
			}
			u, err := plain.FetchContext(context.Background(), "data", ix)
			if err != nil {
				t.Fatalf("plain Fetch(%v): %v", ix, err)
			}
			if math.Float64bits(v) != math.Float64bits(u) {
				t.Fatalf("Fetch(%v): verified %x != plain %x", ix, math.Float64bits(v), math.Float64bits(u))
			}
			if want := originValue(space, ix); v != want {
				t.Fatalf("Fetch(%v) = %v, want %v", ix, v, want)
			}
		}
	}
	st := verified.Stats()
	if st.VerifyOK != 16 || st.VerifyFailed != 0 {
		t.Fatalf("verify stats ok=%d failed=%d, want 16/0", st.VerifyOK, st.VerifyFailed)
	}
	if got := chunkRequests(srv); got != 32 { // 16 verified + 16 plain
		t.Fatalf("server chunk requests = %d", got)
	}
}

// tamperProxy forwards to the origin handler, letting a test rewrite
// the request before it is served and the response body afterwards.
func tamperProxy(t *testing.T, h http.Handler, rewriteReq func(*http.Request), rewriteResp func([]byte) []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rewriteReq != nil {
			rewriteReq(r)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rewriteResp != nil && rec.Code == http.StatusOK {
			body = rewriteResp(body)
		}
		for k, vs := range rec.Header() {
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// requireVerifyFailed asserts an error is the terminal verification
// failure: ErrVerifyFailed, and NOT the retryable-degraded
// sdf.ErrDataMissing a flaky origin produces.
func requireVerifyFailed(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("err = %v, want ErrVerifyFailed", err)
	}
	if errors.Is(err, sdf.ErrDataMissing) {
		t.Fatalf("verification failure degraded to ErrDataMissing: %v", err)
	}
}

// TestVerifiedFetchRejectsTamperedValues forges chunk bytes with a
// perfectly valid CRC — the attack a checksum cannot catch — and pins
// that the Merkle proof does, terminally, without poisoning the cache.
func TestVerifiedFetchRejectsTamperedValues(t *testing.T) {
	space := array.MustSpace(16, 16)
	path := writeOriginFile(t, space, []int{8, 8})
	srv, err := NewServer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ts := tamperProxy(t, srv.Handler(), nil, func(body []byte) []byte {
		pf, err := decodeChunkFrame(bytes.NewReader(body))
		if err != nil {
			return body // /meta etc.
		}
		pf.Vals[0] += 1 // forge one value...
		out, err := encodeChunkFrame(pf)
		if err != nil {
			t.Fatal(err)
		}
		return out // ...and re-frame with a valid CRC
	})

	f := NewFetcherConfig(ts.URL, nil, fastRetry)
	if err := f.SetVerify("data", originSpec(t, path, "data")); err != nil {
		t.Fatal(err)
	}
	_, err = f.FetchContext(context.Background(), "data", array.NewIndex(0, 0))
	requireVerifyFailed(t, err)
	st := f.Stats()
	if st.VerifyFailed != 1 || st.VerifyOK != 0 {
		t.Fatalf("verify stats ok=%d failed=%d, want 0/1", st.VerifyOK, st.VerifyFailed)
	}
	if st.Retries != 0 {
		t.Fatalf("verification failure was retried %d times", st.Retries)
	}
	if st.CacheEntries != 0 {
		t.Fatal("forged chunk entered the cache")
	}
	// The failure repeats (nothing cached, origin still lying).
	_, err = f.FetchContext(context.Background(), "data", array.NewIndex(0, 0))
	requireVerifyFailed(t, err)
}

// TestVerifiedFetchRejectsSubstitutedChunk redirects a request for
// chunk A onto chunk B, so the client receives a self-consistent frame
// — valid CRC, valid proof for B — that answers the wrong question.
// The structural identity in the proof frame rejects it.
func TestVerifiedFetchRejectsSubstitutedChunk(t *testing.T) {
	space := array.MustSpace(16, 16)
	path := writeOriginFile(t, space, []int{8, 8})
	srv, err := NewServer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ts := tamperProxy(t, srv.Handler(), func(r *http.Request) {
		if r.URL.Path == "/chunk" {
			q := r.URL.Query()
			q.Set("chunk", "1,1") // whatever was asked, serve (1,1)
			r.URL.RawQuery = q.Encode()
		}
	}, nil)

	f := NewFetcherConfig(ts.URL, nil, fastRetry)
	if err := f.SetVerify("data", originSpec(t, path, "data")); err != nil {
		t.Fatal(err)
	}
	_, err = f.FetchContext(context.Background(), "data", array.NewIndex(0, 0)) // chunk (0,0)
	requireVerifyFailed(t, err)
	if st := f.Stats(); st.VerifyFailed != 1 || st.Retries != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats = %+v, want 1 terminal rejection, 0 retries, nothing cached", st)
	}
}

// TestUnverifiedClientRejectsSwappedResponse pins the identity check
// every client runs: even without proofs, the chunk frame names the
// chunk it answers, so a swapped (individually valid) frame is
// rejected instead of silently recovered into the wrong coordinates.
func TestUnverifiedClientRejectsSwappedResponse(t *testing.T) {
	space := array.MustSpace(16, 16)
	path := writeOriginFile(t, space, []int{8, 8})
	srv, err := NewServer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ts := tamperProxy(t, srv.Handler(), func(r *http.Request) {
		if r.URL.Path == "/chunk" {
			q := r.URL.Query()
			q.Set("chunk", "1,1")
			r.URL.RawQuery = q.Encode()
		}
	}, nil)

	f := NewFetcherConfig(ts.URL, nil, fastRetry) // NO SetVerify
	_, err = f.FetchContext(context.Background(), "data", array.NewIndex(0, 0))
	requireVerifyFailed(t, err)
	if st := f.Stats(); st.VerifyFailed != 1 || st.Retries != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats = %+v, want 1 terminal rejection, 0 retries, nothing cached", st)
	}
}

// TestVerifiedFetchAgainstOldServer pins the downgrade failure mode: a
// verifying client against an origin that ignores proof=1 fails
// terminally — it must not silently accept unproven bytes. The frame
// then carries an empty proof, which folds only a one-leaf tree, and
// there only values that hash to the root itself.
func TestVerifiedFetchAgainstOldServer(t *testing.T) {
	space := array.MustSpace(16, 16)
	path := writeOriginFile(t, space, []int{8, 8})
	srv, err := NewServer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// An "old" origin: drops the proof parameter it does not know.
	ts := tamperProxy(t, srv.Handler(), func(r *http.Request) {
		q := r.URL.Query()
		q.Del("proof")
		r.URL.RawQuery = q.Encode()
	}, nil)

	f := NewFetcherConfig(ts.URL, nil, fastRetry)
	if err := f.SetVerify("data", originSpec(t, path, "data")); err != nil {
		t.Fatal(err)
	}
	_, err = f.FetchContext(context.Background(), "data", array.NewIndex(0, 0))
	requireVerifyFailed(t, err)
	if st := f.Stats(); st.Retries != 0 || st.CacheEntries != 0 {
		t.Fatalf("old-peer failure was retried %d times, cached %d chunks", st.Retries, st.CacheEntries)
	}

	// One leaf: the root is the leaf hash, so genuine values verify
	// without siblings and forged ones still fail.
	onePath := writeOriginFile(t, array.MustSpace(8, 8), []int{8, 8})
	one, err := NewServer(onePath)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	var forge atomic.Bool
	oneTS := tamperProxy(t, one.Handler(), func(r *http.Request) {
		q := r.URL.Query()
		q.Del("proof")
		r.URL.RawQuery = q.Encode()
	}, func(body []byte) []byte {
		cf, err := decodeChunkFrame(bytes.NewReader(body))
		if err != nil || !forge.Load() {
			return body
		}
		cf.Vals[0] += 1
		out, err := encodeChunkFrame(cf)
		if err != nil {
			t.Error(err)
		}
		return out
	})
	for _, forged := range []bool{false, true} {
		forge.Store(forged)
		g := NewFetcherConfig(oneTS.URL, nil, fastRetry)
		if err := g.SetVerify("data", originSpec(t, onePath, "data")); err != nil {
			t.Fatal(err)
		}
		v, err := g.FetchContext(context.Background(), "data", array.NewIndex(3, 5))
		if forged {
			requireVerifyFailed(t, err)
			continue
		}
		if err != nil || v != originValue(array.MustSpace(8, 8), array.NewIndex(3, 5)) {
			t.Fatalf("one-leaf proof-less fetch = %v, %v", v, err)
		}
	}
}

// TestVerifiedFetchRejectsWrongRoot arms the client with a root for
// different data: every chunk the origin serves must be rejected.
func TestVerifiedFetchRejectsWrongRoot(t *testing.T) {
	space := array.MustSpace(16, 16)
	path := writeOriginFile(t, space, []int{8, 8})
	srv, ts := startServer(t, space, []int{8, 8})
	_ = srv

	spec := originSpec(t, path, "data")
	spec.Root[0] ^= 0xff // a root that matches nothing
	f := NewFetcherConfig(ts.URL, nil, fastRetry)
	if err := f.SetVerify("data", spec); err != nil {
		t.Fatal(err)
	}
	_, err := f.FetchContext(context.Background(), "data", array.NewIndex(0, 0))
	requireVerifyFailed(t, err)
	if st := f.Stats(); st.VerifyFailed != 1 || st.Retries != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats = %+v, want 1 terminal rejection, 0 retries, nothing cached", st)
	}
}

// TestVerifiedFetchRejectsLyingMeta pins the geometry cross-check: an
// origin whose /meta disagrees with the manifest's pinned dims/chunk
// would shift every chunk coordinate, so it fails before any fetch.
func TestVerifiedFetchRejectsLyingMeta(t *testing.T) {
	space := array.MustSpace(16, 16)
	_, ts := startServer(t, space, []int{8, 8})

	// A spec pinned for a different geometry (32x32 over 16x16 chunks).
	other := writeOriginFile(t, array.MustSpace(32, 32), []int{16, 16})
	f := NewFetcherConfig(ts.URL, nil, fastRetry)
	if err := f.SetVerify("data", originSpec(t, other, "data")); err != nil {
		t.Fatal(err)
	}
	_, err := f.FetchContext(context.Background(), "data", array.NewIndex(0, 0))
	requireVerifyFailed(t, err)
	if st := f.Stats(); st.VerifyFailed != 1 || st.Retries != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats = %+v, want 1 terminal rejection, 0 retries, nothing cached", st)
	}
}

// TestVerifiedFetchDetectsTamperAfterTreeBuild is the verify-demo
// scenario in-process: the server memoizes its Merkle tree, THEN the
// origin file is corrupted in place. Fresh reads disagree with the
// memoized leaves, so the proof no longer connects and every client
// touching the tampered chunk rejects it.
func TestVerifiedFetchDetectsTamperAfterTreeBuild(t *testing.T) {
	space := array.MustSpace(16, 16)
	path := writeOriginFile(t, space, []int{8, 8})
	srv, err := NewServer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := originSpec(t, path, "data")

	// Warm run: builds and memoizes the server's tree.
	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{})
	if err := f.SetVerify("data", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := f.FetchContext(context.Background(), "data", array.NewIndex(0, 0)); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the data region (the sdf layout puts it at the
	// end of the file; merkle_test pins that this offset changes the
	// root), while the server keeps its open handle.
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fh.Stat()
	if err != nil {
		t.Fatal(err)
	}
	off := st.Size() - 9
	b := make([]byte, 1)
	if _, err := fh.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := fh.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	// A cold verifying client sweeps every chunk: the tampered one must
	// be rejected, the untouched ones must still verify.
	cold := NewFetcherConfig(ts.URL, nil, fastRetry)
	if err := cold.SetVerify("data", spec); err != nil {
		t.Fatal(err)
	}
	var failed int
	for r := 0; r < 16; r += 8 {
		for c := 0; c < 16; c += 8 {
			if _, err := cold.FetchContext(context.Background(), "data", array.NewIndex(r, c)); err != nil {
				requireVerifyFailed(t, err)
				failed++
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d chunks rejected after one-byte tamper, want exactly 1", failed)
	}
	if st := cold.Stats(); st.VerifyFailed != 1 || st.VerifyOK != 3 {
		t.Fatalf("verify stats ok=%d failed=%d, want 3/1", st.VerifyOK, st.VerifyFailed)
	}
}

// TestGeomSingleflight is the satellite fix for the meta path: 16
// concurrent cold fetches through one fetcher must collapse onto a
// single origin /meta round trip (the old metaMu serialized them but
// still issued one request each... after the first filled the cache;
// the real bug was head-of-line blocking across datasets — either way,
// the pinned contract is one wire hit).
func TestGeomSingleflight(t *testing.T) {
	space := array.MustSpace(16, 16)
	srv, err := NewServer(writeOriginFile(t, space, []int{8, 8}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var metaReqs atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/meta" {
			metaReqs.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{})
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = f.FetchContext(context.Background(), "data", array.NewIndex(i%16, i%16))
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := metaReqs.Load(); got != 1 {
		t.Fatalf("origin /meta requests = %d, want 1", got)
	}
}

// TestChunkCacheOverwrite is the satellite accounting fix: repeated
// puts over one key keep exact bytes, and an oversized put over an
// existing key evicts the stale entry instead of leaving it to answer
// future gets.
func TestChunkCacheOverwrite(t *testing.T) {
	c := newChunkCache(10 * entryBytes(make([]float64, 8)))

	c.put(chunkKey{dataset: "k"}, []float64{1, 2, 3, 4})
	if got := c.bytes(); got != entryBytes(make([]float64, 4)) {
		t.Fatalf("bytes after first put = %d, want %d", got, entryBytes(make([]float64, 4)))
	}
	// Overwrite with a larger value: accounting must track the delta
	// exactly and the new bytes must answer.
	c.put(chunkKey{dataset: "k"}, []float64{5, 6, 7, 8, 9, 10})
	if got := c.bytes(); got != entryBytes(make([]float64, 6)) {
		t.Fatalf("bytes after overwrite = %d, want %d", got, entryBytes(make([]float64, 6)))
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	vals, ok := c.get(chunkKey{dataset: "k"})
	if !ok || len(vals) != 6 || vals[0] != 5 {
		t.Fatalf("get after overwrite = %v, %v", vals, ok)
	}
	// Overwrite with a smaller value: bytes shrink back exactly.
	c.put(chunkKey{dataset: "k"}, []float64{42})
	if got := c.bytes(); got != entryBytes(make([]float64, 1)) {
		t.Fatalf("bytes after shrink = %d, want %d", got, entryBytes(make([]float64, 1)))
	}

	// An oversized put over the existing key must delete it: the old
	// value is superseded and must not answer a later get.
	c.put(chunkKey{dataset: "k"}, make([]float64, 1024))
	if vals, ok := c.get(chunkKey{dataset: "k"}); ok {
		t.Fatalf("stale entry survived oversized put: %v", vals)
	}
	if got := c.bytes(); got != 0 {
		t.Fatalf("bytes after oversized put = %d, want 0", got)
	}
	if c.len() != 0 {
		t.Fatalf("len after oversized put = %d, want 0", c.len())
	}

	// And an oversized put on a fresh key stays a no-op.
	c.put(chunkKey{dataset: "fresh"}, make([]float64, 1024))
	if c.len() != 0 || c.bytes() != 0 {
		t.Fatalf("oversized fresh put cached: len=%d bytes=%d", c.len(), c.bytes())
	}
}
