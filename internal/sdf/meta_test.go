package sdf

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/array"
)

// metaCase is a valid metadata block.
type metaCase struct {
	name  string
	metas []*datasetMeta
}

// metaGolden pins one block: the sha256 of encodeMeta's bytes, and in
// truncated, in ascending order of upTo, the error every prefix shorter
// than upTo (and not shorter than the previous entry's upTo) fails
// with; the last upTo is the block's length.
type metaGolden struct {
	sum       string
	truncated []truncation
}

type truncation struct {
	upTo int
	msg  string
}

// metaCases covers every layout decodeMeta reads: contiguous, chunked
// with an absent chunk, packed, and a two-dataset block with
// attributes.
func metaCases() []metaCase {
	return []metaCase{
		{
			name: "contiguous",
			metas: []*datasetMeta{{
				Name: "c", DType: array.Float64, Dims: []int{3, 5}, Layout: layoutContiguous,
				DataOff: 64, DataLen: 120,
			}},
		},
		{
			name: "chunked",
			metas: []*datasetMeta{{
				Name: "chunky", DType: array.LongDouble, Dims: []int{5, 7}, Layout: layoutChunked,
				Chunk: []int{2, 3}, DataOff: 128, DataLen: 8 * 96, Debloated: true,
				ChunkTable: []int64{128, 224, missingChunk, 320, 416, 512, 608, 704, 800},
			}},
		},
		{
			name: "packed",
			metas: []*datasetMeta{{
				Name: "p", DType: array.Int32, Dims: []int{4, 4}, Layout: layoutPacked,
				DataOff: 96, DataLen: 24, Debloated: true,
				PackRuns: []packRun{{startLin: 1, count: 2, off: 96}, {startLin: 9, count: 4, off: 104}},
			}},
		},
		{
			name: "attributes",
			metas: []*datasetMeta{
				{
					// Long enough that its attributes lie past the
					// dataset-count bound of a 2-dataset block.
					Name: "surface_air_temperature_at_two_metres", DType: array.Float32, Dims: []int{6}, Layout: layoutContiguous,
					DataOff: 200, DataLen: 24,
					Attrs: map[string]string{"kondo.carved": "yes", "note": ""},
				},
				{
					Name: "b_chunked", DType: array.Int64, Dims: []int{2, 2, 2}, Layout: layoutChunked,
					Chunk: []int{2, 2, 1}, DataOff: 224, DataLen: 64, ChunkTable: []int64{224, 256},
					Attrs: map[string]string{"k": "v"},
				},
			},
		},
	}
}

// Every valid block decodes to what was encoded, its bytes are pinned,
// and every proper prefix fails with the error text the
// binary.Read-based decoder gave.
func TestDecodeMetaTruncations(t *testing.T) {
	for _, c := range metaCases() {
		b, err := encodeMeta(c.metas)
		if err != nil {
			t.Fatal(err)
		}
		g := metaGoldens[c.name]
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != g.sum {
			t.Errorf("%s: encodeMeta sha256 %x, want %s", c.name, sum, g.sum)
		}
		got, err := decodeMeta(b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.metas) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, c.metas)
		}
		if last := g.truncated[len(g.truncated)-1].upTo; last != len(b) {
			t.Fatalf("%s: goldens end at %d, block holds %d bytes", c.name, last, len(b))
		}
		from := 0
		for _, tr := range g.truncated {
			for n := from; n < tr.upTo; n++ {
				_, err := decodeMeta(b[:n])
				if err == nil || err.Error() != tr.msg {
					t.Errorf("%s: %d-byte prefix: %v, want %q", c.name, n, err, tr.msg)
				}
			}
			from = tr.upTo
		}
	}
}

// A chunk table that does not ascend in file offset (the writer never
// makes one) is sorted on open: every stored element's first byte still
// resolves back to it.
func TestOpenSortsHandBuiltChunkTable(t *testing.T) {
	space := array.MustSpace(10, 10)
	path := writeTestFile(t, "d", space, array.Float64, []int{4, 4}, linValue(space))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	metaLen := binary.LittleEndian.Uint32(raw[8:])
	metas, err := decodeMeta(raw[headerSize : headerSize+metaLen])
	if err != nil {
		t.Fatal(err)
	}
	table := metas[0].ChunkTable
	slices.Reverse(table)
	table[4] = missingChunk
	meta, err := encodeMeta(metas)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw[headerSize:], meta)
	binary.LittleEndian.PutUint32(raw[12:], metaCRC(meta))
	f, err := OpenFrom(memSource{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	space.Each(func(ix array.Index) bool {
		off, err := ds.FileOffset(ix)
		if err != nil {
			return true // in the dropped chunk
		}
		stored++
		lin, _ := space.Linear(ix)
		var got []int64
		ds.IndexRuns(off, off+1, func(first, last int64) { got = append(got, first, last) })
		if len(got) != 2 || got[0] != lin || got[1] != lin {
			t.Fatalf("byte %d of %v resolves to %v, want [%d %d]", off, ix, got, lin, lin)
		}
		return true
	})
	if want := 100 - 4*4; stored != want {
		t.Errorf("%d stored elements, want %d", stored, want)
	}
}

// metaGoldens are the parent decoder's, computed before decodeMeta
// stopped using encoding/binary.Read.
var metaGoldens = map[string]metaGolden{
	"contiguous": {
		sum: "47ffbba491139603475cac7dbbc63268a77d5fde8a86550ab50a961a6efdc89b",
		truncated: []truncation{
			{1, "sdf: truncated metadata: EOF"},
			{4, "sdf: truncated metadata: unexpected EOF"},
			{38, "sdf: implausible dataset count 1"},
			{43, "sdf: truncated data extent for \"c\": unexpected EOF"},
			{44, "sdf: truncated attributes for \"c\": EOF"},
			{47, "sdf: truncated attributes for \"c\": unexpected EOF"},
		},
	},
	"chunked": {
		sum: "50798cd73c2485ba6639d9c9b792f87900c4ed5c029fee1ed7724d43b193988c",
		truncated: []truncation{
			{1, "sdf: truncated metadata: EOF"},
			{4, "sdf: truncated metadata: unexpected EOF"},
			{38, "sdf: implausible dataset count 1"},
			{40, "sdf: truncated chunk shape for \"chunky\": unexpected EOF"},
			{41, "sdf: truncated chunk shape for \"chunky\": EOF"},
			{48, "sdf: truncated chunk shape for \"chunky\": unexpected EOF"},
			{49, "sdf: truncated data extent for \"chunky\": EOF"},
			{56, "sdf: truncated data extent for \"chunky\": unexpected EOF"},
			{57, "sdf: truncated data extent for \"chunky\": EOF"},
			{64, "sdf: truncated data extent for \"chunky\": unexpected EOF"},
			{65, "sdf: truncated chunk table for \"chunky\": EOF"},
			{72, "sdf: truncated chunk table for \"chunky\": unexpected EOF"},
			{144, "sdf: implausible chunk table size 9 for \"chunky\""},
			{145, "sdf: truncated attributes for \"chunky\": EOF"},
			{148, "sdf: truncated attributes for \"chunky\": unexpected EOF"},
		},
	},
	"packed": {
		sum: "6a756a64b9b26cf58708a01a7d1e40af0c9c579d67fe7eb7c0dad481c9ee20bf",
		truncated: []truncation{
			{1, "sdf: truncated metadata: EOF"},
			{4, "sdf: truncated metadata: unexpected EOF"},
			{38, "sdf: implausible dataset count 1"},
			{43, "sdf: truncated data extent for \"p\": unexpected EOF"},
			{44, "sdf: truncated pack table for \"p\": EOF"},
			{51, "sdf: truncated pack table for \"p\": unexpected EOF"},
			{99, "sdf: implausible pack table size 2 for \"p\""},
			{100, "sdf: truncated attributes for \"p\": EOF"},
			{103, "sdf: truncated attributes for \"p\": unexpected EOF"},
		},
	},
	"attributes": {
		sum: "eebee8effa8ebd314a6b083ca700180a427383df91b65aa61a166d3d5346dc63",
		truncated: []truncation{
			{1, "sdf: truncated metadata: EOF"},
			{4, "sdf: truncated metadata: unexpected EOF"},
			{72, "sdf: implausible dataset count 2"},
			{75, "sdf: truncated attributes for \"surface_air_temperature_at_two_metres\": unexpected EOF"},
			{83, "sdf: implausible attribute count 2 for \"surface_air_temperature_at_two_metres\""},
			{89, "sdf: truncated attribute key for \"surface_air_temperature_at_two_metres\": unexpected EOF"},
			{90, "sdf: truncated attribute value for \"surface_air_temperature_at_two_metres\": EOF"},
			{91, "sdf: truncated attribute value for \"surface_air_temperature_at_two_metres\": unexpected EOF"},
			{92, "sdf: truncated attribute value for \"surface_air_temperature_at_two_metres\": EOF"},
			{94, "sdf: truncated attribute value for \"surface_air_temperature_at_two_metres\": unexpected EOF"},
			{95, "sdf: truncated attribute key for \"surface_air_temperature_at_two_metres\": EOF"},
			{96, "sdf: truncated attribute key for \"surface_air_temperature_at_two_metres\": unexpected EOF"},
			{97, "sdf: truncated attribute key for \"surface_air_temperature_at_two_metres\": EOF"},
			{100, "sdf: truncated attribute key for \"surface_air_temperature_at_two_metres\": unexpected EOF"},
			{101, "sdf: truncated attribute value for \"surface_air_temperature_at_two_metres\": EOF"},
			{102, "sdf: truncated attribute value for \"surface_air_temperature_at_two_metres\": unexpected EOF"},
			{103, "sdf: truncated metadata: EOF"},
			{104, "sdf: truncated metadata: unexpected EOF"},
			{105, "sdf: truncated dataset name: EOF"},
			{113, "sdf: truncated dataset name: unexpected EOF"},
			{117, "sdf: truncated metadata for \"b_chunked\": EOF"},
			{118, "sdf: truncated dims for \"b_chunked\": EOF"},
			{125, "sdf: truncated dims for \"b_chunked\": unexpected EOF"},
			{126, "sdf: truncated dims for \"b_chunked\": EOF"},
			{133, "sdf: truncated dims for \"b_chunked\": unexpected EOF"},
			{134, "sdf: truncated dims for \"b_chunked\": EOF"},
			{141, "sdf: truncated dims for \"b_chunked\": unexpected EOF"},
			{142, "sdf: truncated chunk shape for \"b_chunked\": EOF"},
			{149, "sdf: truncated chunk shape for \"b_chunked\": unexpected EOF"},
			{150, "sdf: truncated chunk shape for \"b_chunked\": EOF"},
			{157, "sdf: truncated chunk shape for \"b_chunked\": unexpected EOF"},
			{158, "sdf: truncated chunk shape for \"b_chunked\": EOF"},
			{165, "sdf: truncated chunk shape for \"b_chunked\": unexpected EOF"},
			{166, "sdf: truncated data extent for \"b_chunked\": EOF"},
			{173, "sdf: truncated data extent for \"b_chunked\": unexpected EOF"},
			{174, "sdf: truncated data extent for \"b_chunked\": EOF"},
			{181, "sdf: truncated data extent for \"b_chunked\": unexpected EOF"},
			{182, "sdf: truncated chunk table for \"b_chunked\": EOF"},
			{189, "sdf: truncated chunk table for \"b_chunked\": unexpected EOF"},
			{205, "sdf: implausible chunk table size 2 for \"b_chunked\""},
			{206, "sdf: truncated attributes for \"b_chunked\": EOF"},
			{209, "sdf: truncated attributes for \"b_chunked\": unexpected EOF"},
			{213, "sdf: implausible attribute count 1 for \"b_chunked\""},
			{214, "sdf: truncated attribute value for \"b_chunked\": unexpected EOF"},
			{215, "sdf: truncated attribute value for \"b_chunked\": EOF"},
		},
	},
}
