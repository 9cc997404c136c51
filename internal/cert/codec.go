package cert

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/aig"
	"repro/internal/cnf"
)

// Encode serializes the certificate into a self-contained text blob: a
// header line naming the certified existential variables in ascending
// order, followed by the cone section (see Cones). The encoding is the wire
// form of a certificate — the cluster coordinator ships per-cube Skolem
// certificates between hqsd workers and the hqsc merge step with it — and
// is deterministic for a given certificate, so equal certificates encode to
// equal bytes.
func Encode(c *Certificate) ([]byte, error) {
	vars, cones, err := c.Cones()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "skolem 1 %d", len(vars))
	for _, v := range vars {
		fmt.Fprintf(&buf, " %d", v)
	}
	buf.WriteByte('\n')
	buf.Write(cones)
	return buf.Bytes(), nil
}

// Decode parses a certificate produced by Encode. The result is
// self-contained: its functions live in a fresh graph, exactly like a
// certificate extracted in-process, so Check accepts it unchanged.
func Decode(data []byte) (*Certificate, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("cert: certificate header is not a line")
	}
	header, cones := string(data[:nl]), data[nl+1:]
	fields := strings.Fields(header)
	if len(fields) < 3 || fields[0] != "skolem" {
		return nil, fmt.Errorf("cert: bad certificate header %q", header)
	}
	version, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("cert: bad certificate header %q", header)
	}
	if version != 1 {
		return nil, fmt.Errorf("cert: unknown certificate encoding version %d", version)
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("cert: bad function count %q", fields[2])
	}
	if len(fields) != 3+n {
		return nil, fmt.Errorf("cert: header names %d variables, found %d", n, len(fields)-3)
	}
	vars := make([]cnf.Var, n)
	for i := range vars {
		v, err := strconv.ParseInt(fields[3+i], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("cert: bad certificate variable %q", fields[3+i])
		}
		vars[i] = cnf.Var(v)
	}
	return FromCones(vars, cones)
}

// Cones returns the certificate's cone section, shared by the wire form
// (Encode) and the persistent store's entries: the certified variables in
// ascending order, and their function cones as one deterministic
// ASCII-AIGER (aag) unit with one output per variable, in that order.
func (c *Certificate) Cones() ([]cnf.Var, []byte, error) {
	if c == nil || c.G == nil {
		return nil, nil, fmt.Errorf("cert: cannot encode a nil certificate")
	}
	vars := make([]cnf.Var, 0, len(c.Funcs))
	for v := range c.Funcs {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	outs := make([]aig.Ref, len(vars))
	for i, v := range vars {
		outs[i] = c.Funcs[v]
	}
	var buf bytes.Buffer
	if err := c.G.WriteAAG(&buf, outs...); err != nil {
		return nil, nil, fmt.Errorf("cert: encoding function cones: %w", err)
	}
	return vars, buf.Bytes(), nil
}

// FromCones is the inverse of Cones: it builds the aag unit through the
// shared AIGER parser (aig.ReadAAG) and binds its outputs, in order, to
// vars. It rejects variables outside 1..cnf.MaxVar, duplicate variables,
// and a cone count that differs from len(vars).
func FromCones(vars []cnf.Var, cones []byte) (*Certificate, error) {
	g, outs, err := aig.ReadAAG(cones)
	if err != nil {
		return nil, fmt.Errorf("cert: decoding function cones: %w", err)
	}
	if len(outs) != len(vars) {
		return nil, fmt.Errorf("cert: %d cones for %d variables", len(outs), len(vars))
	}
	c := &Certificate{G: g, Funcs: make(map[cnf.Var]aig.Ref, len(vars))}
	for i, v := range vars {
		if v <= 0 || v > cnf.MaxVar {
			return nil, fmt.Errorf("cert: bad certificate variable %d", v)
		}
		if _, dup := c.Funcs[v]; dup {
			return nil, fmt.Errorf("cert: duplicate certificate variable %d", v)
		}
		c.Funcs[v] = outs[i]
	}
	return c, nil
}
