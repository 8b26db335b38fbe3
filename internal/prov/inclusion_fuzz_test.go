package prov

import (
	"testing"

	"repro/internal/array"
)

// FuzzInclusionIndex decodes arbitrary bytes as an inclusion index —
// what `kondo explain -prov` reads from outside the process — and, when
// they decode, explains the zero index. Either must return an error,
// never panic. The seed corpus under testdata/fuzz/FuzzInclusionIndex
// holds 2-D and 3-D indices as Save writes them, one with more witness
// positions than seed ordinals, one whose dims overflow int64, one
// whose witness ordinals point outside the seed log and one whose hull
// mixes dimensions.
func FuzzInclusionIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := decodeIndex(data)
		if err != nil {
			return
		}
		x.Explain(make(array.Index, len(x.Dims)))
	})
}
