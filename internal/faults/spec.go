package faults

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ParseSpec builds a plan from a compact textual fault spec, for wiring
// fault injection through flags (hqsd -faults) without writing Go.
//
// Grammar: rules are separated by ';', each rule is
//
//	point:action[:opt[,opt...]]
//
// where point is one of Points() (e.g. sat.solve), action is one of
// panic | latency | unknown | error, and opts are
//
//	p=<float>        probabilistic trigger, probability in (0, 1]
//	every=<n>        deterministic trigger, fire on every nth hit
//	after=<n>        skip the first n hits
//	times=<n>        cap the number of fires
//	latency=<dur>    sleep duration for the latency action (default 10ms)
//
// Example: "sat.solve:panic:p=0.1;cache.lookup:error:every=3,times=2".
// An empty spec yields a nil plan (fault injection off).
func ParseSpec(spec string, seed int64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	valid := make(map[Point]bool)
	for _, pt := range Points() {
		valid[pt] = true
	}
	var rules []Rule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		parts := strings.SplitN(rs, ":", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("faults: rule %q: want point:action[:opts]", rs)
		}
		r := Rule{Point: Point(parts[0])}
		if !valid[r.Point] {
			return nil, fmt.Errorf("faults: rule %q: unknown point %q (want one of %v)", rs, parts[0], Points())
		}
		switch parts[1] {
		case "panic":
			r.Action = ActPanic
		case "latency":
			r.Action = ActLatency
			r.Latency = 10 * time.Millisecond
		case "unknown":
			r.Action = ActUnknown
		case "error":
			r.Action = ActError
			r.Err = errors.New("injected by spec")
		default:
			return nil, fmt.Errorf("faults: rule %q: unknown action %q (want panic, latency, unknown, or error)", rs, parts[1])
		}
		if len(parts) == 3 {
			for _, opt := range strings.Split(parts[2], ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
				if !ok {
					return nil, fmt.Errorf("faults: rule %q: bad option %q", rs, opt)
				}
				var err error
				switch k {
				case "p":
					r.Prob, err = strconv.ParseFloat(v, 64)
					// NaN fails both comparisons, so it is ruled out by name.
					if err == nil && (math.IsNaN(r.Prob) || r.Prob <= 0 || r.Prob > 1) {
						err = fmt.Errorf("probability %v outside (0, 1]", r.Prob)
					}
				case "every":
					r.EveryN, err = strconv.ParseUint(v, 10, 64)
				case "after":
					r.After, err = strconv.ParseUint(v, 10, 64)
				case "times":
					r.Times, err = strconv.ParseUint(v, 10, 64)
				case "latency":
					r.Latency, err = time.ParseDuration(v)
				default:
					err = fmt.Errorf("unknown option %q", k)
				}
				if err != nil {
					return nil, fmt.Errorf("faults: rule %q: option %q: %v", rs, opt, err)
				}
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return NewPlan(seed, rules...), nil
}
