package reclaim

import "qsense/internal/mem"

// None is the leaky baseline used throughout the paper's evaluation
// ("None"): Retire leaks the node. It provides the no-reclamation upper
// bound on throughput; long runs grow memory without bound. The leak still
// counts against MemoryLimit: a leaky implementation is the first to
// exhaust memory on long runs.
type None struct {
	domainCore
	guards *arena[*noneGuard]
}

type noneGuard struct {
	guardCore
	d *None
}

// NewNone builds the leaky baseline domain.
func NewNone(cfg Config) (*None, error) {
	d := &None{}
	if err := d.init(nameNone, cfg, false); err != nil {
		return nil, err
	}
	d.guards = openGuards(&d.domainCore, nil, func(int) *noneGuard {
		return &noneGuard{d: d}
	})
	return d, nil
}

// None has no reclamation state to join, drain or free: leaked nodes stay
// leaked, and only the retire tallies flush (the kernel's half).
func (g *noneGuard) join()      {}
func (g *noneGuard) drain()     {}
func (g *noneGuard) closeFree() {}

func (g *noneGuard) Begin()                   {}
func (g *noneGuard) Protect(i int, r mem.Ref) {}
func (g *noneGuard) ClearHPs()                {}
func (g *noneGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	g.d.cnt.tallyRetire(&g.tally, g.d.cfg.MemoryLimit)
}
