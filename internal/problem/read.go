package problem

import (
	"fmt"

	"repro/internal/aig"
	"repro/internal/circuit"
	"repro/internal/dqbf"
)

// ParseBytes parses one problem from data. An empty hint autodetects the
// format (detect); a non-empty hint selects the reader directly — the
// ingestion path HTTP Content-Type headers and file extensions feed.
func ParseBytes(data []byte, hint Format) (*Problem, error) {
	format := hint
	if format == "" {
		var err error
		format, err = detect(data)
		if err != nil {
			return nil, err
		}
	}
	switch format {
	case FormatDQDIMACS, FormatQDIMACS:
		f, err := dqbf.ParseDQDIMACS(data)
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
		return fromCircuit(c)
	case FormatPQE:
		return parsePQE(data)
	default:
		return nil, fmt.Errorf("problem: unknown format %q", format)
	}
}
