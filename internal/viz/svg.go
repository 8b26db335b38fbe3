// Package viz renders Kondo's spatial artifacts — index subsets, fuzz
// campaigns, and carved hulls — as standalone SVG documents, so the
// paper's visual figures (Fig. 1's accessed region, Fig. 4's schedule
// scatter, Fig. 6's hull merging) can be regenerated as images using
// only the standard library.
package viz

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/array"
	"repro/internal/fuzz"
	"repro/internal/geom"
	"repro/internal/hull"
)

// palette used across renderings (colorblind-safe-ish).
const (
	colorAccessed  = "#2166ac" // blue: accessed/true indices
	colorApprox    = "#fddbc7" // light red: approximated cover
	colorHull      = "#b2182b" // red: hull outlines
	colorUseful    = "#1a9850" // green: useful seeds
	colorNonUseful = "#d73027" // red: non-useful seeds
	colorGrid      = "#eeeeee"
)

// svgDoc accumulates an SVG document with a fixed pixel size and a
// logical coordinate box.
type svgDoc struct {
	b             strings.Builder
	width, height float64
	sx, sy        float64 // logical→pixel scale
}

// newSVG starts a document mapping the logical box [0,w)×[0,h) onto
// pixelW×pixelH pixels. Logical x maps to the horizontal axis.
func newSVG(w, h float64, pixelW, pixelH int) *svgDoc {
	d := &svgDoc{
		width:  float64(pixelW),
		height: float64(pixelH),
		sx:     float64(pixelW) / w,
		sy:     float64(pixelH) / h,
	}
	fmt.Fprintf(&d.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		pixelW, pixelH, pixelW, pixelH)
	fmt.Fprintf(&d.b, `<rect width="%d" height="%d" fill="white"/>`+"\n", pixelW, pixelH)
	return d
}

func (d *svgDoc) rect(x, y, w, h float64, fill string) {
	fmt.Fprintf(&d.b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>`+"\n",
		x*d.sx, y*d.sy, w*d.sx, h*d.sy, fill)
}

func (d *svgDoc) circle(x, y, r float64, fill string) {
	fmt.Fprintf(&d.b, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s"/>`+"\n",
		x*d.sx, y*d.sy, r, fill)
}

func (d *svgDoc) polygon(pts []geom.Point, stroke string, strokeWidth float64) {
	var coords []string
	for _, p := range pts {
		coords = append(coords, fmt.Sprintf("%.2f,%.2f", p[0]*d.sx, p[1]*d.sy))
	}
	fmt.Fprintf(&d.b, `<polygon points="%s" fill="none" stroke="%s" stroke-width="%.1f"/>`+"\n",
		strings.Join(coords, " "), stroke, strokeWidth)
}

func (d *svgDoc) title(s string) {
	fmt.Fprintf(&d.b, `<title>%s</title>`+"\n", s)
}

func (d *svgDoc) finish(w io.Writer) error {
	d.b.WriteString("</svg>\n")
	_, err := io.WriteString(w, d.b.String())
	return err
}

// pixelSize picks a rendering scale so small arrays are visible and
// large ones stay bounded.
func pixelSize(extent int) int {
	px := extent * 4
	if px < 256 {
		px = 256
	}
	if px > 1024 {
		px = 1024
	}
	return px
}

// IndexSetSVG renders a 2D index subset (e.g. a ground truth or the
// carved approximation) as a raster of filled cells — the Fig. 1 /
// Table I view. Dimension 0 is drawn on the x axis.
func IndexSetSVG(w io.Writer, set *array.IndexSet, title string) error {
	space := set.Space()
	if space.Rank() != 2 {
		return fmt.Errorf("viz: IndexSetSVG wants a 2D space, got rank %d", space.Rank())
	}
	d := newSVG(float64(space.Dim(0)), float64(space.Dim(1)),
		pixelSize(space.Dim(0)), pixelSize(space.Dim(1)))
	d.title(title)
	set.Each(func(ix array.Index) bool {
		d.rect(float64(ix[0]), float64(ix[1]), 1, 1, colorAccessed)
		return true
	})
	return d.finish(w)
}

// ScatterSVG renders a fuzz campaign's evaluated parameter values as
// the Fig. 4 scatter: useful values in green, non-useful in red, over
// the first two parameter dimensions.
func ScatterSVG(w io.Writer, seeds []fuzz.SeedRecord, loX, hiX, loY, hiY float64, title string) error {
	if hiX <= loX || hiY <= loY {
		return fmt.Errorf("viz: empty parameter box")
	}
	const px = 640
	d := newSVG(hiX-loX, hiY-loY, px, px)
	d.title(title)
	for _, s := range seeds {
		if len(s.V) < 2 {
			continue
		}
		color := colorNonUseful
		if s.Useful {
			color = colorUseful
		}
		d.circle(s.V[0]-loX, s.V[1]-loY, 2.2, color)
	}
	return d.finish(w)
}

// HullsSVG renders the Fig. 6 view: the observed index points plus the
// carved hull outlines over a 2D space.
func HullsSVG(w io.Writer, points *array.IndexSet, hulls []*hull.Hull, title string) error {
	space := points.Space()
	if space.Rank() != 2 {
		return fmt.Errorf("viz: HullsSVG wants a 2D space, got rank %d", space.Rank())
	}
	d := newSVG(float64(space.Dim(0)), float64(space.Dim(1)),
		pixelSize(space.Dim(0)), pixelSize(space.Dim(1)))
	d.title(title)
	// Approximated cover first (light), then the points, then the
	// outlines on top.
	for _, h := range hulls {
		raster, err := h.RasterizeContext(context.TODO(), space)
		if err != nil {
			return err
		}
		raster.Each(func(ix array.Index) bool {
			d.rect(float64(ix[0]), float64(ix[1]), 1, 1, colorApprox)
			return true
		})
	}
	points.Each(func(ix array.Index) bool {
		d.rect(float64(ix[0]), float64(ix[1]), 1, 1, colorAccessed)
		return true
	})
	for _, h := range hulls {
		verts := h.Vertices()
		if len(verts) >= 2 {
			d.polygon(verts, colorHull, 2)
		}
	}
	return d.finish(w)
}
