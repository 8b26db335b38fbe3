package container

import (
	"bytes"
	"testing"
)

// FuzzParseSpec parses arbitrary bytes as a container specification —
// a file that comes from outside the process — and, when they parse,
// asks for the data file, as Image.Run and cmd/kondo do, and for the
// default parameter values. Each must return an error, never panic.
// The seed corpus under testdata/fuzz/FuzzParseSpec holds the paper's
// Fig. 2a spec, one with fractional and negative PARAM bounds, an
// inverted and a dashless PARAM range, an empty CMD, a non-numeric CMD
// value and an unknown instruction.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec.DataFile()
		spec.DefaultParams()
	})
}
