package pipeline

import (
	"strings"

	"repro/internal/faults"
)

// FaultPoint returns the fault-injection point of a pass name.
var FaultPoint = faultPoint

// PassNames returns every registered pass name, sorted.
func PassNames() []string {
	var out []string
	for _, pt := range faults.Points() {
		if name, ok := strings.CutPrefix(string(pt), "pipeline."); ok {
			out = append(out, name)
		}
	}
	return out
}
