package harness

import (
	"fmt"
	"strings"
	"time"

	"qsense"
	"qsense/internal/bst"
	"qsense/internal/list"
	"qsense/internal/reclaim"
	"qsense/internal/skiplist"
)

// builtSet bundles a constructed data structure with its reclamation domain
// and the constructor of its per-slot handles.
type builtSet struct {
	dom         reclaim.Domain
	mkHandle    func(g reclaim.Guard, slot int) SetHandle
	poolLive    func() uint64
	closeDomain func()
	closed      bool
}

func (b *builtSet) close() {
	if !b.closed {
		b.closeDomain()
	}
}

// handle returns the structure handle kept in a leased guard's slot client
// cell, building it on the slot's first lease (as the public containers do:
// slot ownership serializes access to one cell).
func (b *builtSet) handle(g reclaim.Guard) SetHandle {
	cell := reclaim.SlotClient(g)
	p, built := (*cell).(*SetHandle)
	if !built {
		h := b.mkHandle(g, reclaim.SlotIndex(g))
		p = &h
		*cell = p
	}
	return *p
}

// DataStructures lists the structures of the paper's evaluation (§7), in
// figure order. The hash table ("hashmap") is additionally supported by
// Run/buildSet as a bonus structure outside the figures.
func DataStructures() []string { return []string{"list", "skiplist", "bst"} }

// HPsForDS returns the hazard pointer count each structure needs (§7.3).
func HPsForDS(ds string) (int, error) {
	switch ds {
	case "list", "hashmap":
		return list.HPs, nil
	case "skiplist":
		return skiplist.HPsFor(skiplist.MaxLevel), nil
	case "bst":
		return bst.HPs, nil
	}
	return 0, fmt.Errorf("harness: unknown data structure %q", ds)
}

// HPModelled names hazard pointers on the paper's hardware: hp plus a
// modelled stall of fence.DefaultCost after every Protect — what an mfence
// cost the paper's 2016 Opterons, and what this machine's publication store
// does not charge. The figure presets run it beside plain hp.
const HPModelled = "hp@model50ns"

// ParseCurve splits a curve name — what Config.Scheme and a scheme list
// hold — into the reclamation scheme and the modelled fence stall it asks
// for: "hp@model50ns" is hp with reclaim.Config.FenceCost = 50ns, a
// registered scheme name is that scheme at cost 0, anything else is an
// error. The name is the harness's only way to ask for the model, so the
// sub-benchmark, table column, CSV header and JSON curve a modelled run
// lands in all say so.
func ParseCurve(name string) (scheme string, fenceCost time.Duration, err error) {
	scheme, model, modelled := strings.Cut(name, "@model")
	if modelled {
		fenceCost, err = time.ParseDuration(model)
		if err != nil || fenceCost <= 0 || scheme != "hp" {
			return "", 0, fmt.Errorf("harness: bad curve %q (only hp pays a fence: want hp@model<cost>, e.g. %s)", name, HPModelled)
		}
	}
	if _, err := qsense.ParseScheme(scheme); err != nil {
		return "", 0, err
	}
	return scheme, fenceCost, nil
}

// buildSet wires DS + scheme: the structure is created first, then the
// domain (which needs the structure's free function); a structure handle is
// bound to a slot's guard when a worker first leases that slot — the
// integration pattern from the paper's Appendix B. Nothing here depends on
// WHICH slot a worker holds: delay plans and per-worker series are keyed by
// worker index, so the paper's fixed processes are workers that lease once
// (Config.LeaseEvery).
func buildSet(cfg *Config) (*builtSet, error) {
	scheme, fenceCost, err := ParseCurve(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	if cfg.Reclaim.FenceCost != 0 {
		return nil, fmt.Errorf("harness: Reclaim.FenceCost is set through the curve name (Scheme %q), never beside it", HPModelled)
	}
	cfg.Reclaim.FenceCost = fenceCost // Result.Cfg reports what the run paid
	rc := cfg.Reclaim
	rc.Workers = cfg.Workers
	rc.HPs, err = HPsForDS(cfg.DS)
	if err != nil {
		return nil, err
	}

	// Each structure's pool doubles as the era clock (reclaim.Config.Era)
	// so ibr stamps true node lifetimes.
	b := &builtSet{}
	switch cfg.DS {
	case "list", "hashmap":
		buckets := 1
		if cfg.DS == "hashmap" {
			buckets = list.HashBuckets
		}
		l := list.New(list.Config{Buckets: buckets})
		rc.Free, rc.Era = l.FreeNode, l.Pool()
		b.mkHandle = func(g reclaim.Guard, _ int) SetHandle { return l.NewHandle(g) }
		b.poolLive = func() uint64 { return l.Pool().Stats().Live }
	case "skiplist":
		s := skiplist.New(skiplist.Config{})
		rc.Free, rc.Era = s.FreeNode, s.Pool()
		b.mkHandle = func(g reclaim.Guard, slot int) SetHandle { return s.NewHandle(g, cfg.Seed+uint64(slot)+1) }
		b.poolLive = func() uint64 { return s.Pool().Stats().Live }
	case "bst":
		t := bst.New(bst.Config{})
		rc.Free, rc.Era = t.FreeNode, t.Pool()
		b.mkHandle = func(g reclaim.Guard, _ int) SetHandle { return t.NewHandle(g) }
		b.poolLive = func() uint64 { return t.Pool().Stats().Live }
	default:
		return nil, fmt.Errorf("harness: unknown data structure %q", cfg.DS)
	}
	dom, err := reclaim.New(scheme, rc)
	if err != nil {
		return nil, err
	}
	b.dom = dom
	b.closeDomain = func() {
		if !b.closed {
			b.closed = true
			dom.Close()
		}
	}
	return b, nil
}
