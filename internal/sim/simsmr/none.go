package simsmr

import "qsense/internal/mem"

// None is the leaky baseline: Retire leaks. On long simulated runs the pool
// exhausts — the fate of any real leaky implementation.
type None struct {
	cfg    Config
	cnt    counters
	guards []*noneGuard
	leaked []mem.Ref
}

type noneGuard struct{ d *None }

// NewNone builds the leaky baseline domain.
func NewNone(cfg Config) (*None, error) {
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	d := &None{cfg: cfg}
	for i := 0; i < cfg.Machine.Config().Procs; i++ {
		d.guards = append(d.guards, &noneGuard{d: d})
	}
	return d, nil
}

// Guard implements Domain.
func (d *None) Guard(i int) Guard { return d.guards[i] }

// Name implements Domain.
func (d *None) Name() string { return "none" }

// Pending implements Domain.
func (d *None) Pending() int { return d.cnt.pending() }

// Failed implements Domain.
func (d *None) Failed() bool { return d.cnt.failed }

// Stats implements Domain.
func (d *None) Stats() Stats {
	s := Stats{Scheme: "none"}
	d.cnt.fill(&s)
	return s
}

// CollectAll implements Domain: even the teardown keeps the leak, matching
// the native None; tests use it to assert the leak is real.
func (d *None) CollectAll() {}

func (g *noneGuard) Begin()                   {}
func (g *noneGuard) Protect(i int, r mem.Ref) {}
func (g *noneGuard) ClearHPs()                {}

func (g *noneGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("simsmr: retire of nil Ref")
	}
	g.d.leaked = append(g.d.leaked, r.Untagged())
	g.d.cnt.noteRetire(g.d.cfg.MemoryLimit)
}
