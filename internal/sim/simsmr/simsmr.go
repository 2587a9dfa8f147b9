// Package simsmr implements the paper's reclamation schemes on the TSO
// machine simulator (internal/sim), mirroring internal/reclaim one-to-one:
//
//	none     — leaky baseline
//	qsbr     — quiescent-state-based reclamation (§3.1)
//	hp       — classic hazard pointers, fence per Protect (§3.2)
//	cadence  — hazard pointers without fences: rooster preemption + deferred
//	           reclamation (§5.1)
//	qsense   — the hybrid (§5.2, Algorithm 5)
//
// Where internal/reclaim substitutes a behavioural analog for the TSO
// effects Go cannot express (pending/shared slot pairs, modeled fence
// cost), here the effects are real machine phenomena: a hazard pointer is a
// word in simulated memory, Protect is a store that sits in the proc's
// store buffer until a fence (hp) or a rooster preemption (cadence/qsense)
// drains it, and a scan that reads the slot too early genuinely misses the
// protection. The unsafe ablations (NoFence, DisableDeferral) therefore
// produce detectable use-after-free violations, exactly as §4.1 argues.
//
// Execution is serialized by the machine, so host-side bookkeeping (retire
// lists, counters) needs no synchronization; only protocol state that the
// algorithms genuinely share (hazard pointer slots, epochs, flags) lives in
// simulated memory and pays simulated costs.
//
// The proof it guards: Algorithm 2's illegal interleaving is reachable
// without the fence or the deferral and unreachable with either
// (algorithm2_test.go), and a stalled process kills qsbr while qsense
// switches paths and survives (stress_test.go). It is not a measurement
// tool; nothing here produces a throughput figure.
package simsmr

import (
	"fmt"

	"qsense/internal/mem"
	"qsense/internal/sim"
	"qsense/internal/sim/simmem"
)

// Config parameterizes a simulated reclamation domain.
type Config struct {
	// Machine and Pool are the substrate; both are required. Every proc
	// of the machine gets a guard.
	Machine *sim.Machine
	Pool    *simmem.Pool

	// HPs is the number of hazard pointers per proc (K).
	HPs int
	// Q is the quiescence threshold (§3.1). Default 16.
	Q int
	// R is the scan threshold (§5.1). Default 2*N*K + 32.
	R int
	// C is QSense's fallback threshold (§5.2). Default LegalC-style:
	// max(2*Q, N*K+R, R) + 1, doubled for slack.
	C int
	// MemoryLimit marks the domain Failed once pending retires exceed it
	// (the OOM stand-in). 0 disables.
	MemoryLimit int

	// Epsilon is the paper's ε in cycles, added to the rooster interval
	// for the old-enough test. It must cover the worst-case lag between
	// a rooster boundary and the preemption taking effect (one maximal
	// step) plus cross-proc clock skew (one scheduling quantum). Default
	// CtxSwitch + Quantum + 2048.
	Epsilon uint64

	// PresenceWindow is how recently (in cycles) a proc must have
	// signalled presence to count as active for QSense's switch-back.
	// Default 16 * RoosterInterval.
	PresenceWindow uint64

	// NoFence removes hp's per-Protect fence. UNSAFE: reproduces the
	// §3.2 reordering bug; only for the ablation tests.
	NoFence bool
	// DisableDeferral removes cadence/qsense's old-enough check. UNSAFE:
	// reproduces the §4.1 bug; only for the ablation tests.
	DisableDeferral bool
}

func (c Config) withDefaults() Config {
	n := c.Machine.Config().Procs
	if c.Q <= 0 {
		c.Q = 16
	}
	if c.R <= 0 {
		c.R = 2*n*c.HPs + 32
	}
	if c.C <= 0 {
		legal := maxInt(2*c.Q, n*c.HPs+c.R, c.R) + 1
		c.C = 2 * legal
	}
	if c.Epsilon == 0 {
		mc := c.Machine.Config()
		c.Epsilon = mc.Costs.CtxSwitch + mc.Quantum + 2048
	}
	if c.PresenceWindow == 0 {
		c.PresenceWindow = 16 * c.Machine.Config().RoosterInterval
	}
	return c
}

func (c Config) validate(needRooster bool) error {
	if c.Machine == nil || c.Pool == nil {
		return fmt.Errorf("simsmr: Machine and Pool are required")
	}
	if c.HPs <= 0 {
		return fmt.Errorf("simsmr: HPs must be positive")
	}
	if needRooster && c.Machine.Config().RoosterInterval == 0 && !c.DisableDeferral {
		return fmt.Errorf("simsmr: cadence/qsense require Machine.RoosterInterval > 0 (no roosters, no visibility bound)")
	}
	return nil
}

// Guard is a proc's reclamation handle, bound to its *sim.Proc at
// construction. Mirrors reclaim.Guard.
type Guard interface {
	Begin()
	Protect(i int, r mem.Ref)
	Retire(r mem.Ref)
	ClearHPs()
}

// Domain mirrors reclaim.Domain for the simulated schemes.
type Domain interface {
	Guard(i int) Guard
	Name() string
	// Pending is the number of retired-but-unfreed nodes.
	Pending() int
	// Failed reports the MemoryLimit breach (OOM stand-in).
	Failed() bool
	Stats() Stats
	// CollectAll force-frees every node still awaiting reclamation,
	// host-side and cost-free. Call only after Machine.Run returned.
	CollectAll()
}

// Stats is a snapshot of domain counters. Counters are host-side plain
// ints: the machine serializes execution, so they are exact.
type Stats struct {
	Scheme             string
	Retired, Freed     uint64
	Pending            int
	Scans              uint64
	QuiescentStates    uint64
	EpochAdvances      uint64
	SwitchesToFallback uint64
	SwitchesToFast     uint64
	Failed             bool
}

// New constructs the named simulated scheme.
func New(name string, cfg Config) (Domain, error) {
	switch name {
	case "none":
		return NewNone(cfg)
	case "qsbr":
		return NewQSBR(cfg)
	case "hp":
		return NewHP(cfg)
	case "cadence":
		return NewCadence(cfg)
	case "qsense":
		return NewQSense(cfg)
	}
	return nil, fmt.Errorf("simsmr: unknown scheme %q", name)
}

// Schemes lists the scheme names accepted by New, in evaluation order.
func Schemes() []string { return []string{"none", "qsbr", "hp", "cadence", "qsense"} }

// counters is the host-side stat block shared by all schemes.
type counters struct {
	retired, freed  uint64
	scans, quiesces uint64
	epochs          uint64
	toFall, toFast  uint64
	failed          bool
}

func (c *counters) pending() int { return int(c.retired - c.freed) }

func (c *counters) noteRetire(limit int) {
	c.retired++
	if limit > 0 && c.pending() > limit {
		c.failed = true
	}
}

func (c *counters) fill(s *Stats) {
	s.Retired, s.Freed = c.retired, c.freed
	s.Pending = c.pending()
	s.Scans, s.QuiescentStates = c.scans, c.quiesces
	s.EpochAdvances = c.epochs
	s.SwitchesToFallback, s.SwitchesToFast = c.toFall, c.toFast
	s.Failed = c.failed
}

// retiredNode is the paper's timestamped_node: stamp is virtual cycles for
// cadence/qsense, unused for qsbr/hp.
type retiredNode struct {
	ref   mem.Ref
	stamp uint64
}

// hpArray is the shared hazard pointer array: N*K words of simulated
// memory. Slot (w,i) is one word; scans read all of them with Load costs.
type hpArray struct {
	base sim.Addr
	k    int
}

func newHPArray(m *sim.Machine, procs, k int) hpArray {
	return hpArray{base: m.Reserve(procs * k), k: k}
}

func (h hpArray) slot(w, i int) sim.Addr { return h.base + sim.Addr(w*h.k+i) }

// snapshot reads every slot through p (paying N*K load costs) and returns
// the set of protected words.
func (h hpArray) snapshot(p *sim.Proc, procs int, buf map[uint64]struct{}) map[uint64]struct{} {
	if buf == nil {
		buf = make(map[uint64]struct{}, procs*h.k)
	} else {
		clear(buf)
	}
	for w := 0; w < procs; w++ {
		for i := 0; i < h.k; i++ {
			if v := p.Load(h.slot(w, i)); v != 0 {
				buf[v] = struct{}{}
			}
		}
	}
	return buf
}

func maxInt(a int, bs ...int) int {
	for _, b := range bs {
		if b > a {
			a = b
		}
	}
	return a
}
