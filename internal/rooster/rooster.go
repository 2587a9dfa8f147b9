// Package rooster implements the paper's rooster processes (§5.1).
//
// In the paper, a rooster process is pinned to each core and wakes every T;
// the context switch it forces drains the switched-out worker's store
// buffer, so any hazard pointer stored before the switch becomes globally
// visible. Go offers neither core pinning nor visibility-delayed stores, so
// this package implements a behavioural analog: workers publish hazard
// pointers into private *pending* slots, and a rooster pass periodically
// copies pending slots into the *shared* slots that reclamation scans read. An
// unflushed hazard pointer is genuinely invisible to scans — the moral
// equivalent of a store stuck in a store buffer — and the flush pass is the
// moral equivalent of the context switch.
//
// Deferred reclamation is expressed in flush passes ("ticks") rather than
// wall-clock time: a retired node stamped at tick s is old enough once the
// tick counter reaches s+2. Pass s+2 begins only after pass s+1 completes,
// and pass s+1 completes after the stamp was taken, so pass s+2 runs
// entirely after the node was retired and has therefore flushed every hazard
// pointer stored before the retirement (paper, Figure 4). Unlike wall-clock
// ages, tick ages are immune to rooster oversleep: a late pass delays
// reclamation but can never unblock it early, which is exactly the paper's ε
// tolerance discussion resolved by construction.
package rooster

import (
	"sync"
	"sync/atomic"
	"time"
)

// OldEnoughTicks is the minimum number of ticks that must elapse past a
// node's stamp before the node may be reclaimed (the "+2" rule above).
const OldEnoughTicks = 2

// A Target has hazard-pointer pending slots that a rooster pass flushes to
// the shared slots visible to scans. FlushHP must be safe to call
// concurrently with the owner's publications.
type Target interface {
	FlushHP()
}

// Config controls a Manager.
type Config struct {
	// Interval is the rooster sleep interval T. Default 2ms.
	Interval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	return c
}

// Manager runs rooster passes over a registered set of targets and owns the
// tick counter used for deferred reclamation. Create with NewManager, then
// Start (or drive manually with Step in tests).
type Manager struct {
	cfg Config

	mu      sync.Mutex // guards targets, hooks and pass execution
	targets []Target
	hooks   []hook

	tick     atomic.Uint64
	started  atomic.Bool
	lastPass atomic.Int64 // unix nanos of the last completed pass
	stopCh   chan struct{}
	doneCh   chan struct{}
}

type hook struct {
	every uint64
	f     func()
}

// NewManager returns a stopped manager.
func NewManager(cfg Config) *Manager {
	return &Manager{cfg: cfg.withDefaults()}
}

// Register adds a flush target. Safe before or after Start.
func (m *Manager) Register(t Target) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.targets = append(m.targets, t)
}

// AddHook registers f to run at the end of every `every`-th pass (e.g. the
// QSense presence-flag reset). Safe before or after Start.
func (m *Manager) AddHook(every int, f func()) {
	if every <= 0 {
		every = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hooks = append(m.hooks, hook{every: uint64(every), f: f})
}

// Tick returns the number of completed passes. Retired nodes are stamped
// with this value.
func (m *Manager) Tick() uint64 { return m.tick.Load() }

// OldEnough reports whether a node stamped at `stamp` may be reclaimed now.
func (m *Manager) OldEnough(stamp uint64) bool {
	return OldEnoughAt(stamp, m.tick.Load())
}

// OldEnoughAt is OldEnough evaluated against a tick value the caller read
// earlier. A deferred scan MUST capture the tick BEFORE snapshotting the
// shared hazard pointers and judge oldness against that capture: oldness at
// tick t guarantees every protection of the node was flushed by t, so it is
// in any snapshot taken after t — whereas judging against the live clock
// lets a pass that completes mid-scan make a node "old" whose protector's
// flush the already-taken snapshot missed.
func OldEnoughAt(stamp, tick uint64) bool {
	return tick >= stamp+OldEnoughTicks
}

// Step runs one synchronous rooster pass: flush all targets, run due hooks,
// then advance the tick. Tests drive reclamation deterministically with Step;
// Start drives it on a timer.
func (m *Manager) Step() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.passLocked()
	m.lastPass.Store(time.Now().UnixNano())
}

// Poll is the cooperative rooster: if the manager is running and a full
// interval has elapsed since the last pass, the calling worker performs the
// pass itself. The paper pins a rooster to every core and relies on the OS
// scheduler to run it on time; a Go scheduler with more spinning workers
// than cores can delay timer wake-ups by an order of magnitude, stretching
// the effective T and with it the deferred-reclamation memory floor
// (Property 2's N(K+T+R) grows with T). Having workers run overdue passes
// inline restores the guarantee that a pass completes within ~T whenever
// the system is active — and an entirely idle system retires nothing, so
// no pass is needed. No-op on a stopped or manual manager, keeping
// deterministic tests deterministic.
func (m *Manager) Poll() {
	if !m.started.Load() {
		return
	}
	now := time.Now().UnixNano()
	if now-m.lastPass.Load() < int64(m.cfg.Interval) {
		return
	}
	if !m.mu.TryLock() {
		return // a pass is running right now
	}
	defer m.mu.Unlock()
	if time.Now().UnixNano()-m.lastPass.Load() < int64(m.cfg.Interval) {
		return
	}
	m.passLocked()
	m.lastPass.Store(time.Now().UnixNano())
}

func (m *Manager) passLocked() {
	for _, t := range m.targets {
		t.FlushHP()
	}
	next := m.tick.Load() + 1
	for _, h := range m.hooks {
		if next%h.every == 0 {
			h.f()
		}
	}
	m.tick.Store(next) // pass complete; only now is the tick visible
}

// Start launches the timer-driven pass loop and enables cooperative passes
// via Poll. Calling Start twice panics.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.stopCh != nil {
		m.mu.Unlock()
		panic("rooster: Start called twice")
	}
	m.stopCh = make(chan struct{})
	m.doneCh = make(chan struct{})
	m.lastPass.Store(time.Now().UnixNano())
	m.started.Store(true)
	stop, done := m.stopCh, m.doneCh
	m.mu.Unlock()

	go func() {
		defer close(done)
		tick := time.NewTicker(m.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				m.Step()
			}
		}
	}()
}

// Stop halts the pass loop and waits for it to exit. Safe to call on a
// never-started or already-stopped manager.
func (m *Manager) Stop() {
	m.mu.Lock()
	m.started.Store(false)
	stop, done := m.stopCh, m.doneCh
	m.stopCh, m.doneCh = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
