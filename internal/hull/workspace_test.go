package hull

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
)

// TestVisitOrderMatchesPerm pins the replayed visiting order to the
// permutation it replaces, rand.New(rand.NewSource(1)).Perm(n), with
// lengths requested out of order so one workspace's draws serve
// shorter requests after longer ones.
func TestVisitOrderMatchesPerm(t *testing.T) {
	ws := new(workspace)
	for _, n := range []int{0, 1, 2, 700, 3, 64, 2500, 17, 1, 1024, 2501, 5} {
		if got, want := ws.visitOrder(n), rand.New(rand.NewSource(1)).Perm(n); !slices.Equal(got, want) {
			t.Fatalf("visitOrder(%d) differs from Perm(%d)", n, n)
		}
	}
}

// TestConcurrentHullsMatch builds the same hulls from 4 goroutines at
// once, which share the pool of LP workspaces, and requires every
// vertex list to equal the one built alone. 4-D hulls also run the LP
// inside Contains. Under -race this pins the sharing.
func TestConcurrentHullsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var clouds [][]geom.Point
	for _, dim := range []int{3, 4} {
		for i := 0; i < 12; i++ {
			clouds = append(clouds, randomPoints(rng, 10+rng.Intn(120), dim, 12))
		}
	}
	want := make([][]geom.Point, len(clouds))
	for i, pts := range clouds {
		want[i] = mustHull(t, pts).Vertices()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(clouds))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range clouds {
				i := (k + g*len(clouds)/4) % len(clouds) // each goroutine starts elsewhere
				h, err := New(clouds[i])
				if err != nil {
					errs <- err
					return
				}
				if !sameVertexList(h.Vertices(), want[i]) {
					errs <- fmt.Errorf("goroutine %d, cloud %d: vertices %v, built alone %v", g, i, h.Vertices(), want[i])
				}
				for _, p := range clouds[i] {
					if !h.Contains(p) {
						errs <- fmt.Errorf("goroutine %d, cloud %d: hull lost input point %v", g, i, p)
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
