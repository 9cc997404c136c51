package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/problem"
)

// Selection bounds, applied once by `perfbench select` when the instance
// pools are frozen into the manifest; runs never re-select.
const (
	// pec-hard keeps instances HQS needs at least 20 ms for, so the CLI
	// workload sits above process-start and timer noise; the upper bound
	// keeps a run long enough for several passes over the set.
	hardMinMS, hardMaxMS = 20, 250
	// serve-mix and cluster-cube keep small instances so that the service
	// layers, not the solver, dominate their requests.
	smallMaxMS = 25
	// refereeTimeout bounds each referee solve during selection.
	refereeTimeout = 60 * time.Second
)

// candidates lists the Specs each workload's pool is drawn from.
func candidates(workload string) []Spec {
	var out []Spec
	add := func(families []string, wmin, wmax int, boxes []int, count int) {
		for _, fam := range families {
			for w := wmin; w <= wmax; w++ {
				for _, b := range boxes {
					for i := 0; i < count; i++ {
						out = append(out, Spec{Family: fam, Width: w, Boxes: b, Index: i})
					}
				}
			}
		}
	}
	switch workload {
	case "pec-hard":
		add([]string{"adder", "comp", "C432", "circuit"}, 5, 7, []int{2}, 4)
	case "serve-mix":
		add([]string{"bitcell", "lookahead", "pec_xor", "comp", "C432", "circuit"}, 2, 5, []int{1, 2}, 3)
		add([]string{"mult"}, 2, 3, []int{1, 2}, 3)
	case "cluster-cube":
		add([]string{"adder", "comp", "C432", "bitcell", "lookahead"}, 3, 5, []int{2}, 3)
	}
	return out
}

// selectPools re-derives every pool from its candidates and writes the
// manifest: instances are deduplicated by canonical hash, timed, and given
// an expected verdict by the referees.
func selectPools(dir string, seed int64) error {
	m := &Manifest{
		Note: "Frozen by `perfbench select`; regenerate only together with a new baseline. " +
			"select_ms is the best of three in-process HQS solves on the selecting host.",
		DefaultSeed: seed,
	}
	for _, wl := range workloadNames {
		seen := map[string]bool{}
		kept := 0
		for _, s := range candidates(wl) {
			variants := []Spec{s}
			if wl == "cluster-cube" {
				w := s
				w.Widened = true
				variants = append(variants, w)
			}
			var entries []Entry
			for _, v := range variants {
				inst, err := Generate(v)
				if err != nil {
					break // the family has no room for this many boxes
				}
				key := problem.CanonicalFormulaHash(inst.Formula)
				if seen[key] {
					break
				}
				if wl == "cluster-cube" && !v.Widened && !disjointBoxes(inst.Formula) {
					break
				}
				verdict, source, ms, err := referee(inst, refereeTimeout)
				if err != nil {
					fmt.Fprintln(os.Stderr, "select: skip:", err)
					break
				}
				if !keep(wl, ms) {
					break
				}
				seen[key] = true
				entries = append(entries, Entry{
					ID: v.ID(), Spec: v, Workload: wl, Class: classOf(wl, inst, len(entries)+kept),
					Format: string(inst.Format), Inputs: len(inst.PEC.Impl.Inputs),
					Universals: len(inst.Formula.Univ), Existentials: len(inst.Formula.Exist),
					Expected: verdict, Source: source, SelectMS: ms, SHA256: inst.Digest(),
				})
			}
			if len(entries) == len(variants) {
				m.Instances = append(m.Instances, entries...)
				kept++
				fmt.Fprintf(os.Stderr, "select: %s %s %s %.1f ms\n", wl, entries[0].ID, entries[0].Expected, entries[0].SelectMS)
			}
		}
		fmt.Fprintf(os.Stderr, "select: %s keeps %d instances\n", wl, kept)
	}
	return pinStreams(dir, m)
}

// pinStreams records the digest of every workload's default-seed request
// stream and writes the manifest. `perfbench select -streams` runs it alone
// after a change to how streams are drawn from the frozen pools.
func pinStreams(dir string, m *Manifest) error {
	m.sortInstances()
	m.Streams = map[string]string{}
	for _, wl := range workloadNames {
		pool, err := m.LoadPool(wl)
		if err != nil {
			return err
		}
		m.Streams[wl] = streamDigest(wl, pool, m.DefaultSeed)
	}
	return writeManifest(dir, m)
}

func keep(workload string, ms float64) bool {
	if workload == "pec-hard" {
		return ms >= hardMinMS && ms <= hardMaxMS
	}
	return ms <= smallMaxMS
}

// classOf assigns an instance its role. serve-mix alternates its pool
// between instances first seen cold and instances pre-seeded into the store,
// except that BENCH netlists are always cold: they are the requests whose
// later repeats cross formats.
func classOf(workload string, inst *Instance, n int) string {
	switch workload {
	case "pec-hard":
		return "cli"
	case "serve-mix":
		if inst.Format == problem.FormatBENCH || n%2 == 0 {
			return "cold"
		}
		return "store"
	default:
		if inst.Widened {
			return "widened"
		}
		return "plain"
	}
}
