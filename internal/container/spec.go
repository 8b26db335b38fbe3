// Package container models the containerized-application setting Kondo
// debloats (paper §II): a Dockerfile-like specification declaring
// environment dependencies, data dependencies, an entry executable,
// and the supported parameter ranges Θ (the PARAM line of Fig. 2a); a
// built image with byte-accurate content sizes; and a runtime that
// executes the entry program against the image's (possibly debloated)
// data files.
package container

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// AddEntry is one ADD instruction: a source file bundled into the
// image at a destination path.
type AddEntry struct {
	Src, Dst string
}

// Spec is a parsed container specification.
type Spec struct {
	// From is the base image reference.
	From string
	// Runs are the RUN instructions (environment dependencies; they
	// are recorded, not executed).
	Runs []string
	// Adds are the data and code dependencies copied into the image.
	Adds []AddEntry
	// Params is the advertised parameter space Θ.
	Params workload.ParamSpace
	// Entrypoint names the entry executable X̄.
	Entrypoint string
	// Cmd is the default command line: parameter values followed by
	// the data file path.
	Cmd []string
}

// DataFile returns the image path of the data file the default
// command runs against (the last CMD element), or an error if the CMD
// is empty.
func (s *Spec) DataFile() (string, error) {
	if len(s.Cmd) == 0 {
		return "", fmt.Errorf("container: spec has no CMD")
	}
	return s.Cmd[len(s.Cmd)-1], nil
}

// ParseSpec reads a container specification. Supported instructions:
//
//	FROM <ref>
//	RUN <command...>
//	ADD <src> <dst>
//	PARAM [lo-hi, lo-hi, ...]
//	ENTRYPOINT ["<name>"]
//	CMD [v1, v2, ..., <datafile>]
//
// Blank lines and #-comments are ignored.
func ParseSpec(r io.Reader) (*Spec, error) {
	spec := &Spec{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		instr, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch strings.ToUpper(instr) {
		case "FROM":
			spec.From = rest
		case "RUN":
			spec.Runs = append(spec.Runs, rest)
		case "ADD":
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				return nil, fmt.Errorf("container: line %d: ADD wants <src> <dst>", lineNo)
			}
			spec.Adds = append(spec.Adds, AddEntry{Src: fields[0], Dst: fields[1]})
		case "PARAM":
			ps, err := parseParamRanges(rest)
			if err != nil {
				return nil, fmt.Errorf("container: line %d: %w", lineNo, err)
			}
			spec.Params = ps
		case "ENTRYPOINT":
			items, err := parseBracketList(rest)
			if err != nil || len(items) != 1 {
				return nil, fmt.Errorf("container: line %d: ENTRYPOINT wants [\"name\"]", lineNo)
			}
			spec.Entrypoint = strings.Trim(items[0], `"`)
		case "CMD":
			items, err := parseBracketList(rest)
			if err != nil {
				return nil, fmt.Errorf("container: line %d: %w", lineNo, err)
			}
			spec.Cmd = items
		default:
			return nil, fmt.Errorf("container: line %d: unknown instruction %q", lineNo, instr)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if spec.From == "" {
		return nil, fmt.Errorf("container: spec missing FROM")
	}
	if spec.Entrypoint == "" {
		return nil, fmt.Errorf("container: spec missing ENTRYPOINT")
	}
	return spec, nil
}

// parseParamRanges parses the PARAM payload: "[0-30, 300.00-1200.00,
// 0-50]" → a ParamSpace of rounded integer ranges.
func parseParamRanges(s string) (workload.ParamSpace, error) {
	items, err := parseBracketList(s)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("PARAM list empty")
	}
	ps := make(workload.ParamSpace, len(items))
	for i, item := range items {
		// Split on the dash separating lo and hi; tolerate a leading
		// minus sign on lo.
		sep := strings.LastIndex(item, "-")
		if sep <= 0 {
			return nil, fmt.Errorf("PARAM range %q wants lo-hi", item)
		}
		lo, err := strconv.ParseFloat(strings.TrimSpace(item[:sep]), 64)
		if err != nil {
			return nil, fmt.Errorf("PARAM range %q: %w", item, err)
		}
		hi, err := strconv.ParseFloat(strings.TrimSpace(item[sep+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("PARAM range %q: %w", item, err)
		}
		if hi < lo {
			return nil, fmt.Errorf("PARAM range %q inverted", item)
		}
		ps[i] = workload.ParamRange{
			Name: fmt.Sprintf("p%d", i+1),
			Lo:   workload.RoundParam(lo),
			Hi:   workload.RoundParam(hi),
		}
	}
	return ps, nil
}

// parseBracketList parses "[a, b, c]" into trimmed items.
func parseBracketList(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("expected [ ... ] list, got %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return nil, nil
	}
	parts := strings.Split(inner, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
	}
	return out, nil
}
