package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/problem"
	"repro/internal/service"
)

// reply is a /solve answer: the job snapshot plus the certificate blob.
type reply struct {
	service.JobInfo
	CertSkolem string `json:"cert_skolem,omitempty"`
}

// errFailed marks a request that failed (transport error, refusal,
// UNKNOWN or ERROR). It counts against error_rate; it is not a wrong answer.
type errFailed struct{ msg string }

func (e errFailed) Error() string { return e.msg }

func failed(format string, args ...any) error { return errFailed{fmt.Sprintf(format, args...)} }

// judgeServed judges one HTTP answer against the expected verdict. A SAT
// answer must carry a certificate that decodes and that cert.Check accepts
// against the formula sent, except a memory-cache hit: the daemon's LRU
// keeps verdicts without certificates.
func judgeServed(s *Sample) (*reply, error) {
	if s.Err != nil {
		return nil, failed("request: %v", s.Err)
	}
	if s.Code != 200 {
		return nil, failed("HTTP %d: %s", s.Code, bytes.TrimSpace(s.Body))
	}
	var rep reply
	if err := json.Unmarshal(s.Body, &rep); err != nil {
		return nil, failed("undecodable answer: %v", err)
	}
	out := rep.Outcome
	if out == nil {
		return nil, failed("answer without outcome")
	}
	switch out.Verdict {
	case service.VerdictSat, service.VerdictUnsat:
	default:
		return &rep, failed("verdict %s (%s)", out.Verdict, out.Reason)
	}
	if got := out.Verdict.String(); got != s.Req.Expected {
		return &rep, fmt.Errorf("verdict %s, expected %s", got, s.Req.Expected)
	}
	if out.Verdict != service.VerdictSat {
		return &rep, nil
	}
	if rep.CertSkolem == "" {
		if out.FromCache {
			return &rep, nil
		}
		return &rep, fmt.Errorf("SAT without a certificate")
	}
	c, err := cert.Decode([]byte(rep.CertSkolem))
	if err != nil {
		return &rep, fmt.Errorf("certificate undecodable: %w", err)
	}
	p, err := problem.ParseBytes(s.Req.Body, s.Req.Format)
	if err != nil {
		return &rep, fmt.Errorf("re-reading the request: %w", err)
	}
	if err := cert.Check(p.Formula, c); err != nil {
		return &rep, fmt.Errorf("certificate rejected: %w", err)
	}
	return &rep, nil
}

// judgeCLI judges one hqs -cert run. hqs checks its certificate with
// cert.Check before it prints SAT, and prints it as Skolem tables rather
// than the wire encoding; the benchmark re-checks the tables of the
// black-box outputs by simulating them in the implementation circuit
// against the specification on every input vector. (Tseitin auxiliaries
// and BENCH free signals depend on every input and print as summaries.)
// checked remembers outputs already simulated.
func judgeCLI(s *Sample, inst *Instance, checked map[string]bool) error {
	switch s.Code {
	case 10, 20:
	case 1:
		if s.Err != nil && strings.Contains(s.Err.Error(), "certificate") {
			return s.Err
		}
		return failed("hqs exit 1: %v", s.Err)
	default:
		return failed("hqs exit %d", s.Code)
	}
	got := map[int]string{10: "SAT", 20: "UNSAT"}[s.Code]
	if got != s.Req.Expected {
		return fmt.Errorf("verdict %s, expected %s", got, s.Req.Expected)
	}
	if got != "SAT" {
		return nil
	}
	key := digest(s.Body)
	if checked[key] {
		return nil
	}
	tables, err := parseTables(s.Body)
	if err != nil {
		return err
	}
	if len(tables.lines) != len(inst.Formula.Exist) {
		return fmt.Errorf("certificate lists %d of %d existentials", len(tables.lines), len(inst.Formula.Exist))
	}
	if inst.Format != problem.FormatBENCH {
		if err := simulateBoxes(inst, tables.funcs); err != nil {
			return err
		}
	}
	checked[key] = true
	return nil
}

// skolemTables is the parsed `hqs -cert` output.
type skolemTables struct {
	lines map[cnf.Var]bool
	// funcs holds the full truth tables printed for small dependency sets,
	// keyed by the dependency projection.
	funcs map[cnf.Var]map[string]bool
}

// parseTables reads lines of the form "s <y> deps=[..] : 01->1 ..." after
// the SAT line.
func parseTables(out []byte) (*skolemTables, error) {
	t := &skolemTables{lines: map[cnf.Var]bool{}, funcs: map[cnf.Var]map[string]bool{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "SAT" {
		return nil, fmt.Errorf("hqs output does not start with SAT")
	}
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || f[0] != "s" {
			continue
		}
		v, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("bad certificate line %q", sc.Text())
		}
		y := cnf.Var(v)
		t.lines[y] = true
		colon := 0
		for colon < len(f) && f[colon] != ":" {
			colon++
		}
		var rest []string
		if colon < len(f) {
			rest = f[colon+1:]
		}
		if len(rest) > 0 && strings.HasPrefix(rest[0], "<") {
			if rest[0] == "<missing>" {
				return nil, fmt.Errorf("certificate misses existential %d", y)
			}
			continue // support summary of a large function
		}
		fn := map[string]bool{}
		for _, cell := range rest {
			k, val, ok := strings.Cut(cell, "->")
			if !ok {
				k, val = "", cell
			}
			fn[k] = val == "1"
		}
		t.funcs[y] = fn
	}
	return t, sc.Err()
}

// simulateBoxes plugs the printed box functions into the implementation
// and compares its outputs with the specification on every input vector.
// The PEC encoding numbers box outputs as the first existentials, box by
// box, and a box function's dependencies are the copies of its input
// signals in ascending signal order.
func simulateBoxes(inst *Instance, funcs map[cnf.Var]map[string]bool) error {
	p := inst.PEC
	type slot struct {
		out int
		ins []int
		fn  map[string]bool
	}
	var slots []slot
	k := 0
	for _, b := range p.Boxes {
		ins := append([]int(nil), b.Inputs...)
		sort.Ints(ins)
		ins = dedupInts(ins)
		for _, o := range b.Outputs {
			fn, ok := funcs[inst.Formula.Exist[k]]
			if !ok {
				return fmt.Errorf("no table for box output %d", inst.Formula.Exist[k])
			}
			slots = append(slots, slot{o, ins, fn})
			k++
		}
	}
	n := len(p.Impl.Inputs)
	in := make([]bool, n)
	key := make([]byte, 0, 8)
	for bits := 0; bits < 1<<n; bits++ {
		for i := range in {
			in[i] = bits&(1<<i) != 0
		}
		free := map[int]bool{}
		for round := 0; round <= len(slots); round++ {
			vals := p.Impl.EvalAll(in, free)
			for _, s := range slots {
				key = key[:0]
				for _, z := range s.ins {
					if vals[z] {
						key = append(key, '1')
					} else {
						key = append(key, '0')
					}
				}
				free[s.out] = s.fn[string(key)]
			}
		}
		impl, spec := p.Impl.Eval(in, free), p.Spec.Eval(in, nil)
		for i := range spec {
			if impl[i] != spec[i] {
				return fmt.Errorf("certified boxes differ from the specification on input %b", bits)
			}
		}
	}
	return nil
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Verdicts is the verification summary of one run.
type Verdicts struct {
	Attempted, Failed int
	// Wrong lists answers that contradict the expected verdict or whose
	// certificate is missing or rejected.
	Wrong []string
	// Class is each sample's served class: the planned class, except that
	// serve-mix answers are classed by where the daemon found them.
	Class   []string
	Replies []*reply
	OK      []bool
}

// verify judges every sample of a run, after timing ended.
func verify(run *Run, pool *Pool) *Verdicts {
	v := &Verdicts{Attempted: len(run.Samples)}
	checked := map[string]bool{}
	for i := range run.Samples {
		s := &run.Samples[i]
		var rep *reply
		var err error
		if run.Workload == "pec-hard" {
			err = judgeCLI(s, pool.Insts[s.Req.Entry], checked)
		} else {
			rep, err = judgeServed(s)
		}
		class := s.Req.Class
		if run.Workload == "serve-mix" && rep != nil && rep.Outcome != nil {
			switch {
			case rep.Outcome.FromCache:
				class = "hot"
			case rep.Outcome.FromStore:
				class = "store"
			default:
				class = "cold"
			}
		}
		v.Class = append(v.Class, class)
		v.Replies = append(v.Replies, rep)
		v.OK = append(v.OK, err == nil)
		var fail errFailed
		switch {
		case err == nil:
		case errors.As(err, &fail):
			v.Failed++
		default:
			v.Wrong = append(v.Wrong, fmt.Sprintf("%s request %d (%s): %v", run.Workload, i, pool.Entries[s.Req.Entry].ID, err))
		}
	}
	return v
}
