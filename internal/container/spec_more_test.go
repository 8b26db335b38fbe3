package container

import (
	"strings"
	"testing"
)

func TestDataFileErrors(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader("FROM a\nENTRYPOINT [\"X\"]"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.DataFile(); err == nil {
		t.Error("missing CMD should error on DataFile")
	}
}

func TestParseSpecCommentsAndBlankLines(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`
# leading comment

FROM base

# mid comment
ENTRYPOINT ["CS2"]
`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.From != "base" || spec.Entrypoint != "CS2" {
		t.Errorf("spec = %+v", spec)
	}
}

func TestParseBracketListEmpty(t *testing.T) {
	items, err := parseBracketList("[]")
	if err != nil || items != nil {
		t.Errorf("empty list = %v, %v", items, err)
	}
	if _, err := parseBracketList("not a list"); err == nil {
		t.Error("missing brackets should error")
	}
}

func TestBuildMissingSource(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(
		"FROM a\nADD ./missing.bin /app/missing.bin\nENTRYPOINT [\"X\"]"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(spec, t.TempDir(), t.TempDir()); err == nil {
		t.Error("missing ADD source should error")
	}
}

func TestBuildRejectsEscapingAdd(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(
		"FROM a\nADD ./x /../../escape\nENTRYPOINT [\"X\"]"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(spec, t.TempDir(), t.TempDir()); err == nil {
		t.Error("escaping ADD destination should error")
	}
}
