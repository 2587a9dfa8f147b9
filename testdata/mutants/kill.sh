#!/usr/bin/env bash
# The acceptance test of the tests: each patch here is one wrong step, and
# every test named beside it must FAIL on the patched tree. A patch that no
# longer applies fails loudly (git apply --check) instead of rotting; a named
# test that passes on a mutant is a test that checks nothing.
#
# The skip list's node index, self values and towers (internal/skiplist):
# two patches remove a check of byIndex, the validation both forms of a node
# index word share (package doc, "Node index"), and each must also fail an
# index row; index-no-key-check drops the node form's key compare, so a word
# naming another key's node answers for it; edge-no-succ-recheck skips the
# re-load of the edge after its successor's publication, so a successor freed
# in between is read; edge-no-order-check drops the successor's key compare,
# so an edge an insert closed answers "absent"; self-value-retired retires a
# displaced self value (value.go), stale-upper leaves a reused upper array's
# words unzeroed (package doc, "Node layout": the stale mark abandons the
# tower from level 6 up). Two break Prefetch's rule that it loads and
# nothing more (package doc, "Node index"): prefetch-resolves reaches a
# word's node and its successor through Resolve, which faults on a slot that
# was freed or recycled, and prefetch-protects publishes each node in the pin
# slot and leaves it there, so a node deleted after the Prefetch is never
# freed under hazard pointers.
#
# Reclamation (internal/reclaim): no-deferral drops Cadence's old-enough
# check, so a scan frees a node whose hazard pointer is still pending — the
# use-after-free of §4.1, on cadence and on qsense's fallback path.
#
# The server (internal/kvd): kvd-no-join drops the Join after a connection's
# socket read, so the handle operates while out of reclamation — its next
# quiescent state recovers it as if it had been evicted, and counts a Rejoin.
#
# Runs on a copy of the tracked files under a temporary directory; the
# working tree is not touched. Usage: bash testdata/mutants/kill.sh
set -euo pipefail
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
here="$root/testdata/mutants"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# patch | package | test that must fail ("recorded seeds": fingerSeeds in
# finger_test.go for the interleaving checker, seed=1 for the public one).
# Test/prefix runs only the subtests whose names start with prefix.
kills=(
	"no-second-generation-check.patch|./internal/skiplist|TestFingerDetection"
	"no-second-generation-check.patch|./internal/skiplist|TestFingerDetection/index"
	"no-second-generation-check.patch|./internal/skiplist|TestFingerInterleavings"
	"no-mark-check.patch|./internal/skiplist|TestFingerDetection"
	"no-mark-check.patch|./internal/skiplist|TestFingerDetection/index"
	"no-mark-check.patch|./internal/skiplist|TestFingerInterleavings"
	"no-mark-check.patch|.|TestSkipMapLinearizable"
	"edge-no-succ-recheck.patch|./internal/skiplist|TestFingerDetection/edge:_successor"
	"edge-no-succ-recheck.patch|./internal/skiplist|TestFingerInterleavings"
	"edge-no-order-check.patch|./internal/skiplist|TestFingerDetection/edge:_word"
	"edge-no-order-check.patch|.|TestSkipMapLinearizable"
	"self-value-retired.patch|./internal/skiplist|TestFingerInterleavings"
	"self-value-retired.patch|./internal/skiplist|TestSlotsPerSpilledValue"
	"self-value-retired.patch|.|TestSkipMapLinearizable"
	"stale-upper.patch|./internal/skiplist|TestRecycledTowersRelink"
	"index-no-key-check.patch|./internal/skiplist|TestFingerDetection/index"
	"index-no-key-check.patch|./internal/skiplist|TestSkipListBulkSortedAndValid"
	"index-no-key-check.patch|./internal/kvd|TestPipelinedSetsDoNotAlias"
	"index-no-key-check.patch|.|TestSkipMapLinearizable"
	"prefetch-resolves.patch|./internal/skiplist|TestFingerDetection/prefetch:_word"
	"prefetch-resolves.patch|./internal/skiplist|TestFingerDetection/prefetch:_edge"
	"prefetch-protects.patch|./internal/skiplist|TestPrefetchPinsNothing/hp"
	"no-deferral.patch|./internal/reclaim|TestCadenceDeferralProtectsUnflushedHP"
	"no-deferral.patch|./internal/reclaim|TestQSenseProtectionSurvivesPathSwitch"
	"kvd-no-join.patch|./internal/kvd|TestIdleConnPinsNothing"
)

cd "$root"
git ls-files -z | xargs -0 cp --parents -t "$tmp"
applied=""
for kill in "${kills[@]}"; do
	IFS='|' read -r patch pkg name <<<"$kill"
	if [[ "$patch" != "$applied" ]]; then
		[[ -n "$applied" ]] && git -C "$tmp" apply -R "$here/$applied"
		git -C "$tmp" apply --check "$here/$patch"
		git -C "$tmp" apply "$here/$patch"
		applied="$patch"
	fi
	run="^$name\$"
	[[ "$name" == */* ]] && run="^${name%%/*}\$/^${name#*/}"
	start=$SECONDS
	if out="$(cd "$tmp" && go test -count=1 -run "$run" "$pkg" 2>&1)"; then
		echo "SURVIVED: $patch passes $name ($pkg)"
		exit 1
	fi
	if ! grep -q -- "--- FAIL: $name" <<<"$out"; then
		echo "BROKEN: $patch under $name ($pkg) did not fail as a test:"
		echo "$out" | tail -20
		exit 1
	fi
	echo "killed: $patch by $name ($pkg) in $((SECONDS - start))s: $(grep -m1 -E 'seed|finger_test|lincheck:|deferral broken|rejoins' <<<"$out" | cut -c1-160 | sed 's/^ *//')"
done
