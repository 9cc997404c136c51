package problem

import (
	"fmt"
	"io"
	"os"

	"repro/internal/aig"
	"repro/internal/circuit"
	"repro/internal/dqbf"
)

// ParseBytes parses one problem from data. An empty hint autodetects the
// format (Detect); a non-empty hint selects the reader directly — the
// ingestion path HTTP Content-Type headers and file extensions feed.
func ParseBytes(data []byte, hint Format) (*Problem, error) {
	format := hint
	if format == "" {
		var err error
		format, err = Detect(data)
		if err != nil {
			return nil, err
		}
	}
	switch format {
	case FormatDQDIMACS, FormatQDIMACS:
		f, err := dqbf.ParseDQDIMACSBytes(data)
		if err != nil {
			return nil, err
		}
		p := FromDQBF(f)
		p.Format = format
		return p, nil
	case FormatAIGER:
		af, err := aig.ParseAIGER(data)
		if err != nil {
			return nil, err
		}
		return aigerProblem(af)
	case FormatBENCH:
		c, err := circuit.ParseBench(data)
		if err != nil {
			return nil, err
		}
		return FromCircuit(c)
	case FormatPQE:
		return parsePQE(data)
	default:
		return nil, fmt.Errorf("problem: unknown format %q", format)
	}
}

// Parse reads all of r and parses it with format autodetection.
func Parse(r io.Reader) (*Problem, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseBytes(data, "")
}

// ParseFile reads and parses path, using the file extension as the format
// hint (falling back to content sniffing for unknown extensions) and
// recording the path as the problem's source.
func ParseFile(path string) (*Problem, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := ParseBytes(data, FormatFromPath(path))
	if err != nil {
		return nil, err
	}
	p.Source = path
	return p, nil
}

// ReadBenchCircuit parses a BENCH netlist into its circuit form — the entry
// point for consumers that need the netlist itself rather than its DQBF
// encoding (pec2dqbf builds PEC problems from two of them).
func ReadBenchCircuit(r io.Reader) (*circuit.Circuit, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return circuit.ParseBench(data)
}
