package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/dqbf"
	"repro/internal/problem"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

// replayRequests is how many leading requests of the stream the traced run
// replays: one pass over the pec-hard set, and a fixed prefix otherwise, so
// per-layer counts are the same on every run with the same seed.
func replayRequests(workload string, pool *Pool) int {
	switch workload {
	case "pec-hard":
		return len(pool.Insts)
	case "serve-mix":
		return 800
	default:
		return 60
	}
}

// replayOrder interleaves the connections' streams into one request order.
func replayOrder(conns [][]Request, n int) []*Request {
	var out []*Request
	for k := 0; len(out) < n; k++ {
		progressed := false
		for c := range conns {
			if k < len(conns[c]) && len(out) < n {
				out = append(out, &conns[c][k])
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// Layers accumulates per-layer time and work over a traced replay.
type Layers struct {
	Requests int
	MS       map[string]float64 // time per layer, summed
	Passes   map[string]PassTime
	// Solver counters summed over every solve of the replay.
	Solves                         int
	SatCalls, Merged               float64
	Queries, Incremental, Rebuilds float64
	PeakNodes                      int
}

func newLayers() *Layers {
	return &Layers{MS: map[string]float64{}, Passes: map[string]PassTime{}}
}

// timed runs f and adds its wall time to the named layer.
func (l *Layers) timed(layer string, f func()) {
	start := time.Now()
	f()
	l.MS[layer] += ms(time.Since(start))
}

// solve runs core.Solve with certification and a trace recorder, folding
// pass self times and solver counters into the layers. Time inside Solve
// that no pass event covers (certificate extraction, pipeline glue) is
// core.other_ms.
func (l *Layers) solve(p *problem.Problem) core.Result {
	rec := trace.NewRecorder(1 << 20)
	start := time.Now()
	res := core.New(hqsOptions(false, 0, rec)).Solve(p)
	wall := time.Since(start)
	events := rec.Events()
	for k, pt := range selfTimes(events) {
		acc := l.Passes[k]
		acc.MS += pt.MS
		acc.Runs += pt.Runs
		l.Passes[k] = acc
	}
	l.MS["core.other_ms"] += ms(wall - stageWall(events, "hqs"))
	st := res.Stats
	l.Solves++
	l.SatCalls += float64(st.Sweep.SatCalls + st.QBF.Sweep.SatCalls)
	l.Merged += float64(st.Sweep.Merged + st.QBF.Sweep.Merged)
	l.Queries += float64(st.Oracle.Queries)
	l.Incremental += float64(st.Oracle.Incremental)
	l.Rebuilds += float64(st.Oracle.Rebuilds)
	if st.PeakAIGNodes > l.PeakNodes {
		l.PeakNodes = st.PeakAIGNodes
	}
	return res
}

// check runs the certificate checker on a SAT result.
func (l *Layers) check(f *dqbf.Formula, c *cert.Certificate) error {
	var err error
	l.timed("cert.check_ms", func() { err = cert.Check(f, c) })
	return err
}

// encode renders a job snapshot the way hqsd answers /solve?cert=1: the
// certificate in its wire form, then the indented JSON document.
func (l *Layers) encode(verdict service.Verdict, c *cert.Certificate) error {
	rep := reply{JobInfo: service.JobInfo{State: service.StateDone, Engine: service.EngineHQS,
		Outcome: &service.Outcome{Verdict: verdict, Engine: service.EngineHQS, Reason: "solved"}}}
	if c != nil {
		var blob []byte
		var err error
		l.timed("cert.encode_ms", func() { blob, err = cert.Encode(c) })
		if err != nil {
			return err
		}
		rep.CertSkolem = string(blob)
	}
	var buf bytes.Buffer
	var err error
	l.timed("httpapi.encode_ms", func() {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	})
	return err
}

func verdictOf(res core.Result) service.Verdict {
	if res.Sat {
		return service.VerdictSat
	}
	return service.VerdictUnsat
}

// worker is one hqsd solve with certification: solve, check, encode.
func (l *Layers) worker(p *problem.Problem) (core.Result, error) {
	res := l.solve(p)
	if res.Status != core.Solved {
		return res, fmt.Errorf("traced solve: %v", res.Status)
	}
	if !res.Sat {
		return res, l.encode(service.VerdictUnsat, nil)
	}
	if res.CertErr != nil {
		return res, res.CertErr
	}
	if err := l.check(p.Formula, res.Certificate); err != nil {
		return res, err
	}
	return res, l.encode(service.VerdictSat, res.Certificate)
}

// replay runs a workload's leading requests through the packages' public
// functions, in request order, recording each layer. storeDir is a fresh
// copy of the seeded store (serve-mix only).
func replay(workload string, reqs []*Request, storeDir string) (*Layers, error) {
	l := newLayers()
	var st *store.Store
	if storeDir != "" {
		var err error
		if st, _, err = store.Open(storeDir, store.Options{Logf: func(string, ...any) {}}); err != nil {
			return nil, err
		}
		defer st.Close()
	}
	cache := map[string]service.Verdict{} // the daemon's memory cache
	for _, r := range reqs {
		l.Requests++
		var p *problem.Problem
		var err error
		l.timed("problem.parse_ms", func() { p, err = problem.ParseBytes(r.Body, r.Format) })
		if err != nil {
			return nil, err
		}
		var key string
		l.timed("problem.hash_ms", func() { key = p.CanonicalHash() })
		switch workload {
		case "pec-hard":
			res := l.solve(p)
			if res.Status != core.Solved {
				return nil, fmt.Errorf("traced solve: %v", res.Status)
			}
			if res.Sat {
				if err := l.check(p.Formula, res.Certificate); err != nil {
					return nil, err
				}
			}
		case "serve-mix":
			err = l.serve(st, p, key, cache)
		default:
			err = l.cluster(p)
		}
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// serve is one hqsd request: memory cache, then store, then solve and
// persist.
func (l *Layers) serve(st *store.Store, p *problem.Problem, key string, cache map[string]service.Verdict) error {
	if v, hit := cache[key]; hit {
		return l.encode(v, nil)
	}
	var e *store.Entry
	var err error
	l.timed("store.get_ms", func() { e, err = st.Get(key) })
	if err != nil {
		return err
	}
	if e != nil {
		if e.Verdict != store.VerdictSat {
			cache[key] = service.VerdictUnsat
			return l.encode(service.VerdictUnsat, nil)
		}
		if err := l.check(p.Formula, e.Cert); err != nil {
			return err
		}
		cache[key] = service.VerdictSat
		return l.encode(service.VerdictSat, e.Cert)
	}
	res, err := l.worker(p)
	if err != nil {
		return err
	}
	cache[key] = verdictOf(res)
	v := store.VerdictUnsat
	if res.Sat {
		v = store.VerdictSat
	}
	l.timed("store.put_ms", func() {
		err = st.Put(&store.Entry{Key: key, Verdict: v, Engine: string(service.EngineHQS),
			CreatedUnix: time.Now().Unix(), Cert: res.Certificate})
	})
	return err
}

// cluster is one hqsc request: split, then either one forwarded solve or a
// solve per cube (stopping at the first UNSAT cube, as the coordinator's
// short circuit does) and, when every cube is SAT, the certificate merge
// and its re-check.
func (l *Layers) cluster(p *problem.Problem) error {
	var plan *cube.Plan
	l.timed("cube.split_ms", func() { plan = cube.Split(p.Formula, 2, nil) })
	if plan.Empty() {
		_, err := l.worker(p)
		return err
	}
	certs := make([]*cert.Certificate, len(plan.Cubes))
	for i, cb := range plan.Cubes {
		res, err := l.worker(problem.FromDQBF(cb.Formula))
		if err != nil {
			return err
		}
		if !res.Sat {
			return nil
		}
		certs[i] = res.Certificate
	}
	var merged *cert.Certificate
	var err error
	l.timed("cube.merge_ms", func() { merged, err = cube.MergeCerts(p.Formula, plan, certs, nil) })
	if err != nil {
		return err
	}
	if err := l.check(p.Formula, merged); err != nil {
		return err
	}
	return l.encode(service.VerdictSat, merged)
}
