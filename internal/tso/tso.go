// Package tso is a small model checker for the x86-TSO memory model, used
// to verify the paper's §4.1 reasoning mechanically.
//
// Why a TSO model in a Go repository: the paper's correctness argument
// (§4.1, §5.1) lives entirely below the level Go exposes. It is about
// store buffers — a hazard-pointer store that has not yet drained is
// invisible to a reclaimer on another core, and the cure is either an
// explicit fence (classic HP) or a bounded wait for a context switch
// (Cadence's rooster processes). Go has no relaxed stores, no fences and
// no visibility delay, so the argument is stated twice: here, over
// hand-written litmus programs with every interleaving explored, and on
// the real schemes, whose hprec.pending → shared split is the store
// buffer and whose rooster pass is the drain (the tests named below).
//
// Each process owns a FIFO store buffer. A Store goes into the buffer; a
// buffered entry drains to shared memory at a nondeterministic later point
// (a separate scheduler action). Loads snoop the own buffer first (store
// forwarding). Fence and CAS drain the buffer before proceeding — and so
// does FlushOther, the model's context switch, which drains a *victim*
// process's buffer: exactly what the paper's rooster processes rely on
// ("a context switch implies a memory barrier for the process being
// switched out", §5.1).
//
// The exhaustive explorer enumerates every interleaving of process steps
// and buffer drains (with state memoization), so a property that holds in
// the explored system holds for all TSO executions of these programs.
//
// It guards the litmus proofs Go cannot express and is not a measurement
// tool. Each system, and the test that states the same proof on the code
// users run:
//
//   - NaiveHybridSystem (unsafe) and CadenceNoDeferralSystem (unsafe):
//     testdata/mutants/no-deferral.patch — with Cadence's old-enough check
//     dropped, an unflushed protection plus an immediate scan is a detected
//     use-after-free, and its two kill rows,
//     reclaim.TestCadenceDeferralProtectsUnflushedHP and
//     TestQSenseProtectionSurvivesPathSwitch, fail on the patched tree.
//   - ClassicHPSystem (safe): reclaim.TestHPProtectedNodeSurvivesScan — a
//     published protection is in every scan's snapshot, and its release
//     lets the next scan free the node.
//   - CadenceSystem (safe): reclaim.TestCadenceDeferralProtectsUnflushedHP,
//     and TestQSenseProtectionSurvivesPathSwitch for the hybrid, whose
//     "unflushed" arm is Algorithm 2's interleaving across the C-switch.
//   - SkipListStaleLinkSystem (unsafe) and SkipListClaimLinkSystem (safe):
//     skiplist.TestSkipListUAFReproHPRC, the native batch that crashed on
//     the stale-link binaries.
//
// cmd/qsense-tso prints the six verdicts.
package tso

import (
	"fmt"
	"sort"
)

// NumRegs is the per-process register file size.
const NumRegs = 4

// OpKind enumerates instructions.
type OpKind uint8

// Instruction kinds.
const (
	OpStore      OpKind = iota // mem[Addr] = Imm (buffered)
	OpStoreReg                 // mem[Addr] = regs[Src] (buffered)
	OpLoad                     // regs[Dst] = mem[Addr] (own buffer first)
	OpFence                    // drain own buffer
	OpCAS                      // drain; if mem[Addr]==Imm { mem[Addr]=Imm2; regs[Dst]=1 } else regs[Dst]=0
	OpFlushOther               // drain process Victim's buffer (context switch)
	OpJmpIfEq                  // if regs[Src]==Imm -> pc=Target
	OpJmpIfNe                  // if regs[Src]!=Imm -> pc=Target
)

// Op is one instruction.
type Op struct {
	Kind   OpKind
	Addr   int
	Imm    uint64
	Imm2   uint64
	Src    int
	Dst    int
	Target int
	Victim int
}

// Convenience constructors.
func Store(addr int, v uint64) Op { return Op{Kind: OpStore, Addr: addr, Imm: v} }
func StoreReg(addr, src int) Op   { return Op{Kind: OpStoreReg, Addr: addr, Src: src} }
func Load(dst, addr int) Op       { return Op{Kind: OpLoad, Dst: dst, Addr: addr} }
func Fence() Op                   { return Op{Kind: OpFence} }
func CAS(addr int, old, new uint64, dst int) Op {
	return Op{Kind: OpCAS, Addr: addr, Imm: old, Imm2: new, Dst: dst}
}
func FlushOther(victim int) Op             { return Op{Kind: OpFlushOther, Victim: victim} }
func JmpIfEq(src int, v uint64, pc int) Op { return Op{Kind: OpJmpIfEq, Src: src, Imm: v, Target: pc} }
func JmpIfNe(src int, v uint64, pc int) Op { return Op{Kind: OpJmpIfNe, Src: src, Imm: v, Target: pc} }

// Program is a process's instruction sequence; falling off the end halts.
type Program []Op

// System is a set of programs over a shared memory.
type System struct {
	Procs   []Program
	MemSize int
	// Init holds initial memory values (missing cells are zero).
	Init []uint64
}

type bufEntry struct {
	addr int
	val  uint64
}

type state struct {
	mem  []uint64
	pcs  []int
	regs [][NumRegs]uint64
	bufs [][]bufEntry
}

func newState(sys *System) *state {
	s := &state{
		mem:  make([]uint64, sys.MemSize),
		pcs:  make([]int, len(sys.Procs)),
		regs: make([][NumRegs]uint64, len(sys.Procs)),
		bufs: make([][]bufEntry, len(sys.Procs)),
	}
	copy(s.mem, sys.Init)
	return s
}

func (s *state) clone() *state {
	c := &state{
		mem:  append([]uint64(nil), s.mem...),
		pcs:  append([]int(nil), s.pcs...),
		regs: append([][NumRegs]uint64(nil), s.regs...),
		bufs: make([][]bufEntry, len(s.bufs)),
	}
	for i := range s.bufs {
		c.bufs[i] = append([]bufEntry(nil), s.bufs[i]...)
	}
	return c
}

func (s *state) key() string {
	return fmt.Sprintf("%v|%v|%v|%v", s.mem, s.pcs, s.regs, s.bufs)
}

// loadVal implements store forwarding: newest own-buffer entry wins.
func (s *state) loadVal(p, addr int) uint64 {
	buf := s.bufs[p]
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i].addr == addr {
			return buf[i].val
		}
	}
	return s.mem[addr]
}

func (s *state) drainAll(p int) {
	for _, e := range s.bufs[p] {
		s.mem[e.addr] = e.val
	}
	s.bufs[p] = s.bufs[p][:0]
}

// drainOne commits the oldest buffered store of p.
func (s *state) drainOne(p int) {
	e := s.bufs[p][0]
	s.mem[e.addr] = e.val
	s.bufs[p] = s.bufs[p][1:]
}

// step executes p's next instruction. Returns false if p is halted.
func (s *state) step(sys *System, p int) bool {
	prog := sys.Procs[p]
	if s.pcs[p] >= len(prog) {
		return false
	}
	op := prog[s.pcs[p]]
	next := s.pcs[p] + 1
	switch op.Kind {
	case OpStore:
		s.bufs[p] = append(s.bufs[p], bufEntry{op.Addr, op.Imm})
	case OpStoreReg:
		s.bufs[p] = append(s.bufs[p], bufEntry{op.Addr, s.regs[p][op.Src]})
	case OpLoad:
		s.regs[p][op.Dst] = s.loadVal(p, op.Addr)
	case OpFence:
		s.drainAll(p)
	case OpCAS:
		s.drainAll(p)
		if s.mem[op.Addr] == op.Imm {
			s.mem[op.Addr] = op.Imm2
			s.regs[p][op.Dst] = 1
		} else {
			s.regs[p][op.Dst] = 0
		}
	case OpFlushOther:
		s.drainAll(op.Victim)
	case OpJmpIfEq:
		if s.regs[p][op.Src] == op.Imm {
			next = op.Target
		}
	case OpJmpIfNe:
		if s.regs[p][op.Src] != op.Imm {
			next = op.Target
		}
	}
	s.pcs[p] = next
	return true
}

// halted reports whether every process finished and every buffer drained.
func (s *state) halted(sys *System) bool {
	for p := range sys.Procs {
		if s.pcs[p] < len(sys.Procs[p]) || len(s.bufs[p]) > 0 {
			return false
		}
	}
	return true
}

// Outcome is a terminal state: final memory and register files.
type Outcome struct {
	Mem  []uint64
	Regs [][NumRegs]uint64
}

// Outcomes is the set of reachable terminal states.
type Outcomes struct {
	byKey map[string]Outcome
}

// Len returns the number of distinct terminal states.
func (o *Outcomes) Len() int { return len(o.byKey) }

// Any reports whether some outcome satisfies pred.
func (o *Outcomes) Any(pred func(Outcome) bool) bool {
	for _, out := range o.byKey {
		if pred(out) {
			return true
		}
	}
	return false
}

// All reports whether every outcome satisfies pred.
func (o *Outcomes) All(pred func(Outcome) bool) bool {
	for _, out := range o.byKey {
		if !pred(out) {
			return false
		}
	}
	return true
}

// List returns outcomes in deterministic order (for display).
func (o *Outcomes) List() []Outcome {
	keys := make([]string, 0, len(o.byKey))
	for k := range o.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	outs := make([]Outcome, len(keys))
	for i, k := range keys {
		outs[i] = o.byKey[k]
	}
	return outs
}

// Explore enumerates all TSO interleavings of the system: at every state,
// any process may execute its next instruction, and any non-empty buffer
// may drain its oldest entry. Returns the reachable terminal outcomes and
// whether exploration completed within stateLimit distinct states.
func Explore(sys System, stateLimit int) (*Outcomes, bool) {
	if stateLimit <= 0 {
		stateLimit = 1 << 20
	}
	out := &Outcomes{byKey: map[string]Outcome{}}
	visited := map[string]bool{}
	stack := []*state{newState(&sys)}
	complete := true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := s.key()
		if visited[k] {
			continue
		}
		if len(visited) >= stateLimit {
			complete = false
			break
		}
		visited[k] = true
		if s.halted(&sys) {
			out.byKey[k] = Outcome{Mem: s.mem, Regs: s.regs}
			continue
		}
		for p := range sys.Procs {
			if s.pcs[p] < len(sys.Procs[p]) {
				c := s.clone()
				c.step(&sys, p)
				stack = append(stack, c)
			}
			if len(s.bufs[p]) > 0 {
				c := s.clone()
				c.drainOne(p)
				stack = append(stack, c)
			}
		}
	}
	return out, complete
}

// RunRandom executes one random interleaving (splitmix64-seeded); useful
// for systems too large to explore exhaustively.
func RunRandom(sys System, seed uint64, maxSteps int) (Outcome, bool) {
	s := newState(&sys)
	rng := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	if maxSteps <= 0 {
		maxSteps = 1 << 16
	}
	for i := 0; i < maxSteps; i++ {
		if s.halted(&sys) {
			return Outcome{Mem: s.mem, Regs: s.regs}, true
		}
		var acts []func()
		for p := range sys.Procs {
			p := p
			if s.pcs[p] < len(sys.Procs[p]) {
				acts = append(acts, func() { s.step(&sys, p) })
			}
			if len(s.bufs[p]) > 0 {
				acts = append(acts, func() { s.drainOne(p) })
			}
		}
		if len(acts) == 0 {
			break
		}
		acts[next(len(acts))]()
	}
	return Outcome{Mem: s.mem, Regs: s.regs}, s.halted(&sys)
}
