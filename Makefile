# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

GO ?= go

.PHONY: build test race vet mutants bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Each committed mutant of the search fingers' validation must still apply
# and must fail every test named beside it.
mutants:
	bash internal/skiplist/testdata/mutants/kill.sh

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
