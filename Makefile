# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

GO ?= go

.PHONY: build test race vet mutants bench-smoke size

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Each committed mutant (the skip list's validation, values and towers;
# Cadence's deferral; the server's Join) must still apply and must fail
# every test named beside it.
mutants:
	bash testdata/mutants/kill.sh

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The three size counts ROADMAP and CHANGES.md quote, over tracked *.go
# outside benchmark/: non-test lines, non-test lines that are neither blank
# nor a // comment, and test lines. Report only.
GOFILES = git ls-files '*.go' | grep -v '^benchmark/'

size:
	@$(GOFILES) | grep -v '_test\.go$$' | xargs cat | wc -l | xargs echo 'non-test lines:'
	@$(GOFILES) | grep -v '_test\.go$$' | xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l | xargs echo 'non-test, non-blank, non-comment:'
	@$(GOFILES) | grep '_test\.go$$' | xargs cat | wc -l | xargs echo 'test lines:'
