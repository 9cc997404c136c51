package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/dqbf"
	"repro/internal/problem"
)

// Request is one request of a workload's stream.
type Request struct {
	Conn int
	// Class is the request's planned class: "cli" (pec-hard), "cold",
	// "store" or "hot" (serve-mix), "plain" or "widened" (cluster-cube).
	Class    string
	Entry    int // pool index of the base instance
	Format   problem.Format
	Body     []byte
	Expected string
}

// Serve-mix class plan: every block of serveBlock requests on a connection
// holds this many cold and store requests, in seeded order, and hot
// requests fill the rest. With hot requests the majority and cold ones more
// than a tenth, latency_p50_ms falls among cache hits and latency_p90_ms
// among cold solves.
const (
	serveBlock = 20
	serveCold  = 6
	serveStore = 3
	// hotWindow bounds how far back on its connection a hot request reaches,
	// which keeps every target inside the daemon's 256-entry LRU.
	hotWindow = 16
	// storeVariants is the number of renumbered copies of each store-class
	// base instance in the seeded store.
	storeVariants = 48
	// storeSeed fixes the store variants: the seeded store is the same for
	// every run seed, so it is built once per checkout.
	storeSeed = 7
	// digestRequests is how many leading requests the manifest's stream
	// digest covers.
	digestRequests = 200
)

// seedRNG derives an independent random stream for one purpose.
func seedRNG(seed int64, parts ...any) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprintf(h, "/%v", p)
	}
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

func variantBody(f *dqbf.Formula, rng *rand.Rand) []byte { return dqdimacs(Renumber(f, rng)) }

// cycler deals pool indexes from seeded permutations, one after another,
// so every run covers its pool evenly whatever the seed and the seed only
// decides the order: run-to-run differences then come from the system, not
// from a different mix of instances.
type cycler struct {
	rng  *rand.Rand
	idx  []int
	perm []int
}

func (c *cycler) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(len(c.idx))
	}
	i := c.idx[c.perm[0]]
	c.perm = c.perm[1:]
	return i
}

// hardStream is pec-hard: seeded permutations of the pool, one after
// another, so a run measures whole passes over the set.
func hardStream(pool *Pool, seed int64, n int) []Request {
	out := make([]Request, 0, n)
	for pass := 0; len(out) < n; pass++ {
		for _, i := range seedRNG(seed, "hard", pass).Perm(len(pool.Insts)) {
			if len(out) == n {
				break
			}
			in := pool.Insts[i]
			out = append(out, Request{Class: "cli", Entry: i, Format: in.Format, Body: in.Text, Expected: pool.Entries[i].Expected})
		}
	}
	return out
}

// storeItem is one pre-seeded store entry: a renumbered store-class base.
type storeItem struct {
	entry, variant int
}

// storeItems lists the seeded store's contents in a fixed order.
func storeItems(pool *Pool) []storeItem {
	var out []storeItem
	for _, i := range pool.ByClass("store") {
		for v := 0; v < storeVariants; v++ {
			out = append(out, storeItem{i, v})
		}
	}
	return out
}

func (it storeItem) body(pool *Pool) []byte {
	return variantBody(pool.Insts[it.entry].Formula, seedRNG(storeSeed, "store", it.entry, it.variant))
}

// serveStream is one serve-mix connection's stream. Cold requests are
// fresh renumberings of cold-class bases (a BENCH netlist is sent as itself
// the first time the connection draws it); store requests take the seeded
// store's entries in seeded order without repeats; hot requests repeat one
// of the connection's last hotWindow cold or store requests, and a repeat
// of a BENCH request is sent as DQDIMACS, so its cache hit crosses formats.
// Each connection draws only on its own half of the BENCH bases and store
// entries, so classes do not depend on how the two connections interleave.
func serveStream(pool *Pool, seed int64, conn, n int) []Request {
	rng := seedRNG(seed, "serve", conn)
	cold := &cycler{rng: rng, idx: pool.ByClass("cold")}
	var items []storeItem
	for k, it := range storeItems(pool) {
		if k%2 == conn {
			items = append(items, it)
		}
	}
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	benchSent := map[int]bool{}
	var recent []Request
	out := make([]Request, 0, n)
	var plan []string
	for len(out) < n {
		if len(plan) == 0 {
			for k := 0; k < serveBlock; k++ {
				switch {
				case k < serveCold:
					plan = append(plan, "cold")
				case k < serveCold+serveStore:
					plan = append(plan, "store")
				default:
					plan = append(plan, "hot")
				}
			}
			rng.Shuffle(len(plan), func(a, b int) { plan[a], plan[b] = plan[b], plan[a] })
		}
		class := plan[0]
		plan = plan[1:]
		if len(recent) == 0 || (class == "store" && len(items) == 0) {
			class = "cold"
		}
		var r Request
		switch class {
		case "cold":
			i := cold.next()
			in := pool.Insts[i]
			r = Request{Class: "cold", Entry: i, Format: problem.FormatDQDIMACS}
			if in.Format == problem.FormatBENCH && i%2 == conn && !benchSent[i] {
				benchSent[i] = true
				r.Format, r.Body = problem.FormatBENCH, in.Text
			} else {
				r.Body = variantBody(in.Formula, rng)
			}
		case "store":
			it := items[0]
			items = items[1:]
			r = Request{Class: "store", Entry: it.entry, Format: problem.FormatDQDIMACS, Body: it.body(pool)}
		case "hot":
			r = recent[rng.Intn(len(recent))]
			r.Class = "hot"
			if r.Format == problem.FormatBENCH {
				r.Format, r.Body = problem.FormatDQDIMACS, dqdimacs(pool.Insts[r.Entry].Formula)
			}
		}
		r.Conn = conn
		r.Expected = pool.Entries[r.Entry].Expected
		if class != "hot" {
			recent = append(recent, r)
			if len(recent) > hotWindow {
				recent = recent[1:]
			}
		}
		out = append(out, r)
	}
	return out
}

// cubeStream is cluster-cube: plain and widened requests alternate in
// seeded pairs, each a fresh renumbering of the next base of its class, so
// no instance repeats within a run.
func cubeStream(pool *Pool, seed int64, n int) []Request {
	rng := seedRNG(seed, "cube")
	byClass := map[string]*cycler{
		"plain":   {rng: rng, idx: pool.ByClass("plain")},
		"widened": {rng: rng, idx: pool.ByClass("widened")},
	}
	out := make([]Request, 0, n)
	for len(out) < n {
		pair := []string{"plain", "widened"}
		rng.Shuffle(2, func(a, b int) { pair[a], pair[b] = pair[b], pair[a] })
		for _, class := range pair {
			if len(out) == n {
				break
			}
			i := byClass[class].next()
			out = append(out, Request{
				Class: class, Entry: i, Format: problem.FormatDQDIMACS,
				Body: variantBody(pool.Insts[i].Formula, rng), Expected: pool.Entries[i].Expected,
			})
		}
	}
	return out
}

// streams returns each client connection's request stream.
func streams(workload string, pool *Pool, seed int64, n int) [][]Request {
	switch workload {
	case "pec-hard":
		return [][]Request{hardStream(pool, seed, n)}
	case "serve-mix":
		return [][]Request{serveStream(pool, seed, 0, n), serveStream(pool, seed, 1, n)}
	default:
		return [][]Request{cubeStream(pool, seed, n)}
	}
}

// streamDigest fingerprints the leading requests a workload sends for seed.
func streamDigest(workload string, pool *Pool, seed int64) string {
	h := sha256.New()
	for _, conn := range streams(workload, pool, seed, digestRequests) {
		for _, r := range conn {
			fmt.Fprintf(h, "%d/%s/%s/%d\n", r.Conn, r.Class, r.Format, len(r.Body))
			h.Write(r.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
