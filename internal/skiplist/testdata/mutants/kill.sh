#!/usr/bin/env bash
# The acceptance test of the search fingers', node index's and self values'
# tests: each patch here is one wrong step — two remove a check of validate,
# the proof a finger and a node index word share (internal/skiplist package
# doc, "Fingers"), and each must also fail an index row; index-no-key-check
# drops validate's key compare, so a node index word naming another key's
# node answers for it (package doc, "Node index"); delete-edge-over-key has Delete
# leave an edge over the node prune found, self-value-retired retires a
# displaced self value (value.go), finger-hits-leak has probe return the Ref
# with its way's hit count in the tag bits (so a self word no longer reads as
# the node's own, and a DEL by finger retires the node twice), stale-upper
# leaves a reused upper array's words unzeroed (package doc, "Node layout":
# the stale mark abandons the tower from level 6 up) — and every test named
# beside it must FAIL
# on the patched tree. A patch that no longer applies fails loudly (git apply
# --check) instead of rotting; a named test that passes on a mutant is a test
# that checks nothing.
#
# Runs on a copy of the tracked files under a temporary directory; the
# working tree is not touched. Usage: bash internal/skiplist/testdata/mutants/kill.sh
set -euo pipefail
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
here="$root/internal/skiplist/testdata/mutants"
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
	"no-mark-check.patch|.|TestSkipMapFingerAcrossQuiescence"
	"delete-edge-over-key.patch|./internal/skiplist|TestFingerDetection"
	"delete-edge-over-key.patch|./internal/skiplist|TestFingerInterleavings"
	"self-value-retired.patch|./internal/skiplist|TestFingerInterleavings"
	"self-value-retired.patch|./internal/skiplist|TestSlotsPerSpilledValue"
	"self-value-retired.patch|.|TestSkipMapLinearizable"
	"finger-hits-leak.patch|./internal/skiplist|TestFingerDetection"
	"finger-hits-leak.patch|./internal/skiplist|TestFingerInterleavings"
	"finger-hits-leak.patch|./internal/skiplist|TestPublicationsPerOp"
	"stale-upper.patch|./internal/skiplist|TestRecycledTowersRelink"
	"index-no-key-check.patch|./internal/skiplist|TestFingerDetection/index"
	"index-no-key-check.patch|./internal/skiplist|TestSkipListBulkSortedAndValid"
	"index-no-key-check.patch|./internal/kvd|TestPipelinedSetsDoNotAlias"
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
	echo "killed: $patch by $name ($pkg) in $((SECONDS - start))s: $(grep -m1 -E 'seed|finger_test|lincheck:' <<<"$out" | cut -c1-160 | sed 's/^ *//')"
done
