package hull

import (
	"fmt"

	"repro/internal/geom"
)

// Encode returns each hull as the list of its vertex coordinates: the
// JSON form of the hull set in the debloat manifest and the
// inclusion-provenance index. No hulls encode to nil.
func Encode(hulls []*Hull) [][][]float64 {
	var out [][][]float64
	for _, h := range hulls {
		var verts [][]float64
		for _, v := range h.verts {
			verts = append(verts, append([]float64(nil), v...))
		}
		out = append(out, verts)
	}
	return out
}

// Decode rebuilds the hulls Encode wrote. A vertex list that does not
// build a hull fails with an error naming its position.
func Decode(lists [][][]float64) ([]*Hull, error) {
	out := make([]*Hull, 0, len(lists))
	for i, verts := range lists {
		pts := make([]geom.Point, len(verts))
		for j, v := range verts {
			pts[j] = geom.Point(v)
		}
		h, err := New(pts)
		if err != nil {
			return nil, fmt.Errorf("hull %d: %w", i, err)
		}
		out = append(out, h)
	}
	return out, nil
}
