// Package sim is a deterministic virtual-time TSO multiprocessor simulator.
//
// The paper's correctness argument (§4.1, §5.1) lives entirely below the
// level Go exposes: it is about x86-TSO store buffers — a hazard-pointer
// store that has not yet drained is invisible to a reclaimer on another
// core, and the cure is either an explicit fence (classic HP) or a bounded
// wait for a context switch (Cadence's rooster processes). Go has no
// relaxed stores, no fences, and no visibility delay, so the repository
// carries two substitutes: internal/tso, a small
// model checker that explores interleavings of hand-written litmus
// programs, and this package, a full machine on which the actual data
// structures and reclamation schemes execute with explicit cycle costs.
//
// The machine model:
//
//   - N processes, each with a virtual clock measured in cycles and a
//     private FIFO store buffer. Every memory operation advances the clock
//     by a configurable cost (Costs).
//   - Stores enter the process' store buffer and are NOT visible to other
//     processes until drained. Loads consult the own buffer first
//     (store-to-load forwarding), then shared memory — exactly x86-TSO.
//   - A buffer drains at a Fence, at an atomic RMW (CAS, which on x86
//     carries a full fence), at a context switch (SleepUntil, rooster
//     preemption), or oldest-first under capacity pressure. There is no
//     background drain: this is the adversarial reading of TSO under which
//     the paper's safety argument must hold — real hardware drains sooner,
//     which only helps.
//   - Rooster preemption: every RoosterInterval cycles a process is
//     switched out (paying CtxSwitch) and its buffer drains — the paper's
//     rooster processes (§5.1), expressed as what they actually do to the
//     machine.
//
// Scheduling is lowest-virtual-clock-first with a configurable quantum
// (how far a process may run past the global minimum before yielding).
// Execution is serialized in real time — one process runs at a time — so
// all interleaving is controlled by virtual time and the seed; a run is
// bit-for-bit reproducible, which the safety tests built on it rely on. With
// Quantum = 0 the interleaving granularity is a single operation (each op
// may overshoot the global minimum by at most its own cost); larger quanta
// trade granularity for simulation speed.
//
// What this tree guards is a proof, not a number: that a hazard-pointer
// store sitting in a store buffer is invisible to a scan (simsmr's
// Algorithm 2 and stall tests) and that the skip list's claim-then-link
// closes the stale-link window (simskip), both with the real control flow.
// It is not a measurement tool — the cycle costs order events, they price
// nothing, and no figure or benchmark number comes from here.
package sim

import (
	"fmt"
	"sort"
)

// Addr is a simulated memory address (a word index).
type Addr uint32

// Costs is the cycle cost model. Zero-valued fields take defaults; a
// negative value is invalid. The defaults approximate a contemporary x86
// server: loads average an L2-ish latency (list traversals miss cache),
// stores retire into the buffer quickly, locked RMWs and fences cost tens
// to hundreds of cycles, context switches thousands.
type Costs struct {
	Load      uint64 // default 25
	Store     uint64 // default 3
	CAS       uint64 // default 40
	Fence     uint64 // default 150
	CtxSwitch uint64 // default 3000
	Alloc     uint64 // default 40
	Free      uint64 // default 25
	Op        uint64 // fixed per-operation overhead hook, default 10
}

func (c Costs) withDefaults() Costs {
	def := func(v *uint64, d uint64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.Load, 25)
	def(&c.Store, 3)
	def(&c.CAS, 40)
	def(&c.Fence, 150)
	def(&c.CtxSwitch, 3000)
	def(&c.Alloc, 40)
	def(&c.Free, 25)
	def(&c.Op, 10)
	return c
}

// Config parameterizes a Machine.
type Config struct {
	// Procs is the number of simulated processes.
	Procs int
	// Cores is the number of hardware contexts; processes are pinned
	// round-robin (proc i -> core i mod Cores). Default: Procs.
	Cores int
	// Costs is the cycle cost model.
	Costs Costs
	// StoreBufCap is the store buffer capacity; the oldest entry drains
	// when a store finds the buffer full. Default 40 (Skylake-class).
	StoreBufCap int
	// RoosterInterval, when > 0, preempts every process each interval
	// (context-switch cost + buffer drain): the rooster processes of
	// §5.1. 0 disables roosters — the adversarial baseline.
	RoosterInterval uint64
	// Quantum is how many cycles past the global minimum clock a process
	// may run before yielding to the scheduler. 0 = strictest
	// interleaving; benchmarks use a few hundred for speed.
	Quantum uint64
	// Seed drives cost jitter and per-process RNG streams. Two runs with
	// equal Config and programs produce identical executions.
	Seed uint64
	// JitterPct adds deterministic per-op cost jitter of up to this
	// percentage (breaks artificial lockstep between identical
	// processes). Default 12; negative disables.
	JitterPct int
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = c.Procs
	}
	if c.StoreBufCap <= 0 {
		c.StoreBufCap = 40
	}
	if c.JitterPct == 0 {
		c.JitterPct = 12
	}
	if c.JitterPct < 0 {
		c.JitterPct = 0
	}
	c.Costs = c.Costs.withDefaults()
	return c
}

// bufferedStore is one store-buffer entry.
type bufferedStore struct {
	addr Addr
	val  uint64
}

// Stats aggregates machine-wide event counters.
type Stats struct {
	Loads, Stores, CASes, CASFails uint64
	Fences                         uint64
	Drains                         uint64 // individual stores drained
	CtxSwitches                    uint64
	RoosterPreempts                uint64
	MaxClock                       uint64
}

// Machine is a simulated TSO multiprocessor. Build with New, install
// programs with Spawn, execute with Run. Not safe for concurrent use by
// multiple OS threads; all concurrency is simulated.
type Machine struct {
	cfg   Config
	mem   []uint64
	procs []*Proc
	stats Stats

	yielded chan struct{}
	running bool
	errs    []error
}

// New builds a machine with the given configuration.
func New(cfg Config) *Machine {
	if cfg.Procs <= 0 {
		panic("sim: Config.Procs must be positive")
	}
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg, yielded: make(chan struct{})}
	for i := 0; i < cfg.Procs; i++ {
		p := &Proc{
			m:      m,
			id:     i,
			core:   i % cfg.Cores,
			resume: make(chan struct{}),
			rng:    splitmix(cfg.Seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15),
		}
		if cfg.RoosterInterval > 0 {
			// Stagger per-core rooster phase so cores do not all
			// preempt at the same instant.
			p.nextRooster = cfg.RoosterInterval + uint64(p.core)*(cfg.RoosterInterval/uint64(cfg.Cores)+1)
		}
		m.procs = append(m.procs, p)
	}
	return m
}

// Config returns the machine's effective configuration (defaults applied).
func (m *Machine) Config() Config { return m.cfg }

// Reserve allocates n fresh words of simulated memory (zero-initialized)
// and returns the base address. Call during setup, not from programs.
func (m *Machine) Reserve(n int) Addr {
	if m.running {
		panic("sim: Reserve during Run")
	}
	base := Addr(len(m.mem))
	m.mem = append(m.mem, make([]uint64, n)...)
	return base
}

// Poke writes a word directly (setup/inspection; bypasses store buffers).
func (m *Machine) Poke(a Addr, v uint64) { m.mem[a] = v }

// Peek reads a word directly (setup/inspection; ignores store buffers, so
// during a run it sees only drained state).
func (m *Machine) Peek(a Addr) uint64 { return m.mem[a] }

// Proc returns process i (for setup: seeding RNG state, inspecting clocks).
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// Stats returns the machine-wide event counters.
func (m *Machine) Stats() Stats {
	s := m.stats
	for _, p := range m.procs {
		if p.clock > s.MaxClock {
			s.MaxClock = p.clock
		}
	}
	return s
}

// Spawn installs a program on process i. Must be called before Run.
func (m *Machine) Spawn(i int, program func(p *Proc)) {
	p := m.procs[i]
	if p.program != nil {
		panic(fmt.Sprintf("sim: proc %d already has a program", i))
	}
	p.program = program
}

// Run executes all spawned programs to completion and returns the errors
// (panics, including simulated memory violations) they raised, in proc
// order. Procs without a program are ignored. Run may be called once.
func (m *Machine) Run() []error {
	if m.running {
		panic("sim: Run called twice")
	}
	m.running = true
	live := 0
	for _, p := range m.procs {
		if p.program == nil {
			p.done = true
			continue
		}
		live++
		go p.top()
	}
	for live > 0 {
		p := m.pick()
		if p == nil {
			break
		}
		p.limit = m.runLimit(p)
		p.resume <- struct{}{}
		<-m.yielded
		if p.done {
			live--
		}
	}
	m.running = false
	var errs []error
	for _, p := range m.procs {
		if p.err != nil {
			errs = append(errs, fmt.Errorf("sim: proc %d: %w", p.id, p.err))
		}
	}
	return errs
}

// pick returns the runnable process with the lowest clock (ties by id).
func (m *Machine) pick() *Proc {
	var best *Proc
	for _, p := range m.procs {
		if p.done {
			continue
		}
		if best == nil || p.clock < best.clock {
			best = p
		}
	}
	return best
}

// runLimit computes how far p may run: up to the next process' clock plus
// the quantum.
func (m *Machine) runLimit(p *Proc) uint64 {
	next := ^uint64(0)
	for _, q := range m.procs {
		if q == p || q.done {
			continue
		}
		if q.clock < next {
			next = q.clock
		}
	}
	if next == ^uint64(0) {
		next = p.clock
	}
	// A solitary process may run unbounded; otherwise cap at next+quantum.
	limit := next + m.cfg.Quantum
	if limit < p.clock {
		limit = p.clock
	}
	return limit
}

// SortedClocks returns all proc clocks in ascending order (diagnostics).
func (m *Machine) SortedClocks() []uint64 {
	out := make([]uint64, len(m.procs))
	for i, p := range m.procs {
		out[i] = p.clock
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// splitmix returns a splitmix64 generator seeded with s.
func splitmix(s uint64) func() uint64 {
	return func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
}
