package main

import (
	"qsense/internal/workload"
)

// Shape shared by every workload. Two closed-loop workers on a 2-vCPU box:
// one per core, so a worker's next unit waits for its previous one.
const (
	workers   = 2         // generator goroutines == kv connections == lib handles
	unitOps   = 64        // one request unit: a pipelined batch (kv) or 64 calls (lib)
	valueSize = 64        // bytes; past the 7-byte inline cap, so values spill
	zipfTheta = 0.99      // YCSB's hot-key skew
	warmupOps = 1_000_000 // fixed-count warm-up, part of set-up
)

// spec is one named workload.
type spec struct {
	name    string
	kv      bool   // over TCP against a qsense-kvd child; else in-process SkipMap
	scheme  string // reclamation scheme, fixed per workload
	keyBits uint   // key range is [0, 1<<keyBits)
	getPct  int    // share of GETs; the rest splits evenly into SET and DEL
	stalled int    // kv: extra connections that take a lease and stay silent
}

// specs is the suite. BENCHMARK.json and README.md say why each is here.
var specs = []spec{
	{name: "kv-read", kv: true, scheme: "qsense", keyBits: 18, getPct: 100},
	{name: "kv-write-stall", kv: true, scheme: "qsense", keyBits: 16, getPct: 50, stalled: 2},
	{name: "lib-mixed", scheme: "qsense", keyBits: 16, getPct: 50},
	{name: "lib-mixed-hp", scheme: "hp", keyBits: 16, getPct: 50},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func (sp spec) keys() int64 { return 1 << sp.keyBits }

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
)

// op is one generated operation. salt is the SET payload's nonce.
type op struct {
	kind opKind
	key  int64
	salt uint64
}

// Model words: a key is absent, in an unknown state (an op on it failed, so
// it may or may not have applied), or holds the payload written with the
// stored salt. Real salts carry saltBit so they never collide with these.
const (
	absent  uint64 = 0
	unknown uint64 = 1
	saltBit uint64 = 1 << 63
)

// prefilled reports whether set-up stores key: half of every writer's
// residue class, so each class starts half full.
func prefilled(key int64) bool { return key&2 == 0 }

// prefillSalt is the nonce of key's prefilled payload for a seed.
func prefillSalt(seed uint64, key int64) uint64 {
	z := seed*0x9e3779b97f4a7c15 ^ uint64(key)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	return z*0x94d049bb133111eb | saltBit
}

// generator produces one worker's op stream from the seed. SET and DEL land
// only on the worker's own residue class (key ≡ worker mod workers) unless
// shared is set; GETs roam the whole range. See README "Writer partitioning".
type generator struct {
	rng    *workload.RNG
	keys   int64
	getPct int
	worker int64
	shared bool // the race probe: writers collide on keys
}

func newGenerator(sp spec, seed uint64, worker int) *generator {
	return &generator{
		rng:    workload.NewRNG(seed*1_000_003 + uint64(worker) + 1),
		keys:   sp.keys(),
		getPct: sp.getPct,
		worker: int64(worker),
	}
}

func (g *generator) next() op {
	// Zipf rank 0 is the hottest; an odd multiplier mod 2^n is a bijection
	// that scatters the hot ranks over the key space.
	key := g.rng.ZipfKey(g.keys, zipfTheta) * 0x9e3779b1 & (g.keys - 1)
	r := g.rng.Next()
	if int(r%100) < g.getPct {
		return op{kind: opGet, key: key}
	}
	if !g.shared {
		key = key - key%workers + g.worker
	}
	if r>>32&1 == 0 {
		return op{kind: opSet, key: key, salt: g.rng.Next() | saltBit}
	}
	return op{kind: opDel, key: key}
}

// model is what one worker knows about the map, for checking replies. Keys
// the worker owns (every key when nothing writes) are checked exactly; other
// keys can change under it, so their values are only self-verified.
type model struct {
	state  []uint64
	worker int64
	all    bool // no writer anywhere: every key is static
}

func newModel(sp spec, seed uint64, worker int) *model {
	m := &model{state: make([]uint64, sp.keys()), worker: int64(worker), all: sp.getPct == 100}
	for k := range m.state {
		if prefilled(int64(k)) {
			m.state[k] = prefillSalt(seed, int64(k))
		}
	}
	return m
}

func (m *model) owns(key int64) bool { return m.all || key%workers == m.worker }

// payloadSalt is the nonce workload.AppendPayload embedded in val.
func payloadSalt(val []byte) uint64 {
	var s uint64
	for i := 0; i < 8; i++ {
		s |= uint64(val[i]) << (8 * i)
	}
	return s
}

// checkGet judges a GET result.
func (m *model) checkGet(key int64, val []byte, found bool) bool {
	if found && (len(val) != valueSize || !workload.VerifyPayload(val, key)) {
		return false
	}
	if !m.owns(key) {
		return true
	}
	got := absent
	if found {
		got = payloadSalt(val)
	}
	if m.state[key] == unknown {
		m.state[key] = got
		return true
	}
	return m.state[key] == got
}

// applySet records a SET that succeeded.
func (m *model) applySet(key int64, salt uint64) { m.state[key] = salt }

// checkDel judges a DEL result and records it.
func (m *model) checkDel(key int64, deleted bool) bool {
	was := m.state[key]
	m.state[key] = absent
	return was == unknown || deleted == (was != absent)
}

// forget marks key's state as unknown after an op on it failed.
func (m *model) forget(key int64) {
	if m.owns(key) {
		m.state[key] = unknown
	}
}
