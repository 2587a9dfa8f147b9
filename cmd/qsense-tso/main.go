// qsense-tso demonstrates, with the TSO model checker, the two arguments
// this repository makes below Go's memory model. The paper's §4.1:
// exhaustively exploring every interleaving of Algorithm 2 shows that a
// naive QSBR/HP hybrid (hazard pointers published without fences,
// reclamation without deferral) frees memory a validated reader is about to
// use — and that either the classic fence or Cadence's rooster-plus-deferral
// eliminates the violation in all interleavings. And the skip list's
// upper-level link: the stale pre-stored successor reaches a use-after-free
// even under fully fenced hazard pointers, claim-then-link never does.
// Exits 1 on any verdict other than the expected one.
package main

import (
	"flag"
	"fmt"
	"os"

	"qsense/internal/tso"
)

func main() {
	verbose := flag.Bool("v", false, "list the violating outcomes")
	flag.Parse()

	type scenario struct {
		name   string
		sys    tso.System
		uaf    func(tso.Outcome) bool // the violation predicate
		expect bool                   // violation expected?
		note   string
	}
	scenarios := []scenario{
		{"naive hybrid (no fence, no deferral)", tso.NaiveHybridSystem(), tso.UseAfterFree, true,
			"Algorithm 2's illegal interleaving: the HP store is stuck in the store buffer during the scan"},
		{"classic hazard pointers (fence per publication)", tso.ClassicHPSystem(), tso.UseAfterFree, false,
			"the fence drains the buffer before re-validation (Algorithm 1)"},
		{"cadence (rooster flush + deferred reclamation)", tso.CadenceSystem(), tso.UseAfterFree, false,
			"no reader fence; a full rooster pass after removal makes all prior HP stores visible (Figure 4)"},
		{"cadence without deferral (ablation)", tso.CadenceNoDeferralSystem(), tso.UseAfterFree, true,
			"the rooster alone is not enough: scanning before a full pass misses buffered HPs"},
		{"skip list stale link (pre-stored successor)", tso.SkipListStaleLinkSystem(), tso.SkipListSpliceUAF, true,
			"an upper level publishes the node at a dead successor; fenced hazard pointers cannot repair a re-exposed edge"},
		{"skip list claim-then-link", tso.SkipListClaimLinkSystem(), tso.SkipListSpliceUAF, false,
			"the own word is claimed to the fresh successor before the link CAS; a mark kills the level for good"},
	}

	fail := false
	for _, sc := range scenarios {
		out, complete := tso.Explore(sc.sys, 1<<22)
		if !complete {
			fmt.Printf("%-55s exploration incomplete!\n", sc.name)
			fail = true
			continue
		}
		violated := out.Any(sc.uaf)
		verdict := "SAFE in all interleavings"
		if violated {
			verdict = "USE-AFTER-FREE reachable"
		}
		status := "as expected"
		if violated != sc.expect {
			status = "UNEXPECTED"
			fail = true
		}
		fmt.Printf("%-55s %-28s (%d outcomes, %s)\n", sc.name, verdict, out.Len(), status)
		fmt.Printf("        %s\n", sc.note)
		if *verbose && violated {
			for _, o := range out.List() {
				if sc.uaf(o) {
					fmt.Printf("        violating outcome: regs %v, mem %v\n", o.Regs, o.Mem)
				}
			}
		}
	}
	if fail {
		os.Exit(1)
	}
}
