package problem

import (
	"bytes"
	"fmt"
	"mime"
	"path/filepath"
	"strings"
)

// detect sniffs the input format from the first bytes of data. The rules, in
// order of precedence:
//
//   - a header line "aag ..." or "aig ..." is AIGER (ascii / binary);
//   - a problem line "p pqe ..." is the PQE query dialect;
//   - a problem line "p cnf ..." is DQDIMACS when a "d" quantifier line
//     follows, QDIMACS when only "a"/"e" lines (or none) do;
//   - a line containing "INPUT(", "OUTPUT(", or a "name = GATE(...)"
//     assignment is BENCH;
//   - "#" comment lines are skipped (BENCH); "c" comment lines are skipped
//     (DIMACS family) unless the line itself looks like a BENCH assignment.
//
// detect never reads past the first few significant lines, so it is safe on
// large inputs.
func detect(data []byte) (Format, error) {
	rest := data
	sawCNF := false
	for lineNo := 0; len(rest) > 0 && lineNo < 1<<20; lineNo++ {
		var line []byte
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			line, rest = rest, nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if isBenchLine(line) {
			return FormatBENCH, nil
		}
		if line[0] == '#' { // BENCH comment: keep scanning for a gate line
			continue
		}
		fields := strings.Fields(string(line))
		switch fields[0] {
		case "aag", "aig":
			return FormatAIGER, nil
		case "p":
			if len(fields) >= 2 && fields[1] == "pqe" {
				return FormatPQE, nil
			}
			if len(fields) >= 2 && fields[1] == "cnf" {
				sawCNF = true
				continue
			}
			return "", fmt.Errorf("problem: unrecognized problem line %q", string(line))
		case "d":
			if sawCNF {
				return FormatDQDIMACS, nil
			}
		case "a", "e":
			if sawCNF {
				// Keep scanning: a later "d" line upgrades to DQDIMACS.
				continue
			}
		}
		if sawCNF && fields[0] != "c" && fields[0] != "a" && fields[0] != "e" && fields[0] != "d" {
			// First clause line with no "d" seen: plain QDIMACS.
			return FormatQDIMACS, nil
		}
		if !sawCNF && fields[0] != "c" {
			return "", fmt.Errorf("problem: unrecognized input (line %q)", string(line))
		}
	}
	if sawCNF {
		// A CNF with an empty matrix and no "d" lines: QDIMACS.
		return FormatQDIMACS, nil
	}
	return "", fmt.Errorf("problem: empty input")
}

// isBenchLine reports whether a trimmed line is unambiguously BENCH: an
// INPUT/OUTPUT declaration or a gate assignment "name = TYPE(...)". The
// check runs before the DIMACS comment rule because a BENCH gate named "c"
// ("c = AND(a, b)") must not be skipped as a DIMACS comment.
func isBenchLine(line []byte) bool {
	s := strings.TrimSpace(string(line))
	up := strings.ToUpper(s)
	if strings.HasPrefix(up, "INPUT(") || strings.HasPrefix(up, "OUTPUT(") {
		return true
	}
	if eq := strings.IndexByte(s, '='); eq > 0 {
		rhs := strings.TrimSpace(s[eq+1:])
		if op := strings.IndexByte(rhs, '('); op > 0 && strings.HasSuffix(rhs, ")") {
			return true
		}
	}
	return false
}

// contentTypeFormats maps MIME types accepted by the hqsd ingestion
// endpoints to formats. Generic types (text/plain, application/octet-stream)
// are absent on purpose: they mean "sniff".
var contentTypeFormats = map[string]Format{
	"application/x-dqdimacs": FormatDQDIMACS,
	"application/x-qdimacs":  FormatQDIMACS,
	"application/x-aiger":    FormatAIGER,
	"application/x-bench":    FormatBENCH,
	"application/x-pqe":      FormatPQE,
}

// FormatFromContentType maps an HTTP Content-Type header to a format hint.
// Unknown, generic, or empty types return "" (autodetect); the header never
// causes a request to fail on its own.
func FormatFromContentType(ct string) Format {
	if ct == "" {
		return ""
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return ""
	}
	return contentTypeFormats[strings.ToLower(mt)]
}

// FormatFromPath maps a file extension to a format hint; unknown extensions
// return "" (autodetect).
func FormatFromPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".dqdimacs", ".dqbf":
		return FormatDQDIMACS
	case ".qdimacs", ".qbf":
		return FormatQDIMACS
	case ".aag", ".aig":
		return FormatAIGER
	case ".bench":
		return FormatBENCH
	case ".pqe":
		return FormatPQE
	default:
		return ""
	}
}
