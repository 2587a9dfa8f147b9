package tso

import "testing"

// --- the skip list upper-level edge-ABA scenario ---

// TestSkipListStaleLinkUnsafe: the pre-fix protocol (stale pre-stored own
// word, mark check separate from the link CAS) reaches the use-after-free
// — in both diagnosed flavors: the traversal walking through an unmarked
// stale word, and a splice installing a frozen stale word back into the
// chain (the mechanism the instrumented stress build pinned down).
func TestSkipListStaleLinkUnsafe(t *testing.T) {
	out, complete := Explore(SkipListStaleLinkSystem(), 1<<22)
	if !complete {
		t.Fatal("exploration incomplete; raise the state limit")
	}
	if !out.Any(SkipListSpliceUAF) {
		t.Fatal("the stale-link protocol should exhibit the edge-ABA use-after-free")
	}
	walkThrough := func(o Outcome) bool {
		// The searcher found M's word unmarked and dereferenced S_old.
		return SkipListSpliceUAF(o) && o.Regs[SkipProcSearcher][1] == RefSOld
	}
	spliceInstall := func(o Outcome) bool {
		// The searcher found M's word frozen and its splice wrote the
		// freed S_old back into the predecessor edge.
		return SkipListSpliceUAF(o) && o.Regs[SkipProcSearcher][1] == RefSOldM &&
			o.Mem[CellSkipEdgeP] == RefSOld
	}
	if !out.Any(walkThrough) {
		t.Fatal("walk-through flavor of the violation not reached")
	}
	if !out.Any(spliceInstall) {
		t.Fatal("splice-install flavor of the violation not reached")
	}
	// The violation is a property of the schedule, not of the model: the
	// same system also links M cleanly in other interleavings.
	cleanLink := func(o Outcome) bool {
		return !SkipListSpliceUAF(o) && o.Mem[CellSkipEdgeP] == RefM
	}
	if !out.Any(cleanLink) {
		t.Fatal("stale-link protocol never completes an insert — schedule too hostile")
	}
}

// TestSkipListClaimLinkSafe: the claim-then-link protocol removes the
// violation in every TSO interleaving of the same schedule — including
// the transient window where M's mark lands between the claim and the
// link CAS (then the frozen successor is the fresh one, which this model
// never frees).
func TestSkipListClaimLinkSafe(t *testing.T) {
	out, complete := Explore(SkipListClaimLinkSystem(), 1<<22)
	if !complete {
		t.Fatal("exploration incomplete; raise the state limit")
	}
	if out.Any(SkipListSpliceUAF) {
		t.Fatal("claim-then-link must not reach the edge-ABA use-after-free")
	}
}

// TestSkipListClaimLinkLiveness: the safety above is not vacuous — the
// fixed protocol still links M in some interleavings, still abandons the
// level permanently when the mark wins the claim, and still exhibits the
// transient marked re-link the safety argument has to cover.
func TestSkipListClaimLinkLiveness(t *testing.T) {
	out, complete := Explore(SkipListClaimLinkSystem(), 1<<22)
	if !complete {
		t.Fatal("exploration incomplete")
	}
	linked := func(o Outcome) bool { return o.Mem[CellSkipEdgeP] == RefM }
	if !out.Any(linked) {
		t.Fatal("claim-then-link never links M — model too strict")
	}
	abandoned := func(o Outcome) bool {
		// The mark froze M's word at its previous value and M was never
		// published at this level.
		return o.Mem[CellSkipEdgeM] == RefSOldM && o.Mem[CellSkipEdgeP] != RefM &&
			o.Mem[CellSkipEdgeP] != RefSOld // searcher's splice can reinstate S_old only from a linked M
	}
	if !out.Any(abandoned) {
		t.Fatal("the mark never wins the claim — abandon path unexercised")
	}
	// Mark observed during the claim => level permanently dead: in EVERY
	// interleaving where the inserter's claim lost (its r1 == 0), M was
	// never published — the searcher never walked to it and the
	// predecessor edge does not hold it.
	neverPublished := func(o Outcome) bool {
		if o.Regs[SkipProcInserter][1] != 0 {
			return true
		}
		return o.Regs[SkipProcInserter][2] == 0 && o.Regs[SkipProcSearcher][0] != RefM &&
			o.Mem[CellSkipEdgeP] != RefM
	}
	if !out.All(neverPublished) {
		t.Fatal("inserter published M after its claim observed the mark")
	}
	transient := func(o Outcome) bool {
		// M linked while its word is frozen at the FRESH successor: the
		// claim/link window race, safe because S_new is live.
		return o.Mem[CellSkipEdgeM] == RefSNewM && o.Mem[CellSkipEdgeP] == RefM
	}
	if !out.Any(transient) {
		t.Fatal("the transient marked re-link never occurs — window not modeled")
	}
	// And in every interleaving where the searcher validated, the node it
	// dereferenced was live (the HP conclusiveness the package doc argues).
	ok := out.All(func(o Outcome) bool {
		if o.Regs[SkipProcSearcher][2] == RefM {
			return o.Regs[SkipProcSearcher][3] == 1
		}
		return true
	})
	if !ok {
		t.Fatal("validated access read freed memory under claim-then-link")
	}
}

// TestSkipListStaleLinkRandomAgrees: random walks find the stale-link
// violation too — the statistical view the native stress repro takes.
func TestSkipListStaleLinkRandomAgrees(t *testing.T) {
	found := false
	for seed := uint64(0); seed < 20000 && !found; seed++ {
		o, halted := RunRandom(SkipListStaleLinkSystem(), seed, 0)
		if halted && SkipListSpliceUAF(o) {
			found = true
		}
	}
	if !found {
		t.Fatal("random walks never hit the edge-ABA interleaving (very unlikely)")
	}
	for seed := uint64(0); seed < 5000; seed++ {
		o, halted := RunRandom(SkipListClaimLinkSystem(), seed, 0)
		if halted && SkipListSpliceUAF(o) {
			t.Fatal("random walk found a violation in the claim-then-link system")
		}
	}
}
