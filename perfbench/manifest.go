package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// manifestFile holds the frozen instance selection, written by the select
// subcommand and read by every run.
const manifestFile = "manifest.json"

// Manifest pins the benchmark's inputs: every pool instance with its
// properties, expected verdict and digest, plus a digest of the request
// stream each workload sends for DefaultSeed. A change to the generators in
// the repository that alters any input makes the run fail instead of
// silently measuring something else.
type Manifest struct {
	Note        string            `json:"note"`
	DefaultSeed int64             `json:"default_seed"`
	Instances   []Entry           `json:"instances"`
	Streams     map[string]string `json:"stream_sha256"`
}

// Entry is one pool instance.
type Entry struct {
	ID string `json:"id"`
	Spec
	// Workload is the workload whose pool holds the instance.
	Workload string `json:"workload"`
	// Class is the instance's role in its workload: "cli" (pec-hard),
	// "cold" or "store" (serve-mix), "plain" or "widened" (cluster-cube).
	Class        string `json:"class"`
	Format       string `json:"format"`
	Inputs       int    `json:"inputs"`
	Universals   int    `json:"universals"`
	Existentials int    `json:"existentials"`
	Expected     string `json:"expected"`
	// Source names the referee behind Expected: "certificate" (SAT, Skolem
	// certificate accepted by cert.Check), "pec.BruteForceRealizable", or
	// "hqs-agreement" (hqs and hqs -strategy all -no-sweep agree).
	Source   string  `json:"source"`
	SelectMS float64 `json:"select_ms"`
	SHA256   string  `json:"sha256"`
}

// Pool is the loaded, digest-checked instance pool of one workload.
type Pool struct {
	Entries []Entry
	Insts   []*Instance
}

// ByClass returns the indexes of the pool's instances of one class.
func (p *Pool) ByClass(class string) []int {
	var out []int
	for i, e := range p.Entries {
		if e.Class == class {
			out = append(out, i)
		}
	}
	return out
}

func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestFile, err)
	}
	return &m, nil
}

// sortInstances puts the pool in manifest order, which fixes each
// instance's pool index and therefore the request streams.
func (m *Manifest) sortInstances() {
	sort.SliceStable(m.Instances, func(i, j int) bool {
		if m.Instances[i].Workload != m.Instances[j].Workload {
			return m.Instances[i].Workload < m.Instances[j].Workload
		}
		return m.Instances[i].ID < m.Instances[j].ID
	})
}

func writeManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestFile), append(data, '\n'), 0o644)
}

// LoadPool regenerates a workload's pool and checks every instance against
// its manifest digest.
func (m *Manifest) LoadPool(workload string) (*Pool, error) {
	p := &Pool{}
	for _, e := range m.Instances {
		if e.Workload == workload {
			p.Entries = append(p.Entries, e)
		}
	}
	if len(p.Entries) == 0 {
		return nil, fmt.Errorf("manifest has no %s instances", workload)
	}
	var msgs []string
	for _, e := range p.Entries {
		inst, err := Generate(e.Spec)
		switch {
		case err != nil:
			msgs = append(msgs, err.Error())
		case inst.Digest() != e.SHA256:
			msgs = append(msgs, fmt.Sprintf("input drift: %s regenerates with digest %.12s, manifest pins %.12s", e.ID, inst.Digest(), e.SHA256))
		}
		p.Insts = append(p.Insts, inst)
	}
	if len(msgs) > 0 {
		return nil, fmt.Errorf("%d of %d %s instances: %s", len(msgs), len(p.Entries), workload, strings.Join(msgs, "; "))
	}
	return p, nil
}
