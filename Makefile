GO ?= go

# Pinned versions for the external linters CI installs; keep in sync with
# .github/workflows/ci.yml. Local runs skip them when the tool is absent
# (this repo builds offline), so `make lint` only hard-requires codslint.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build vet fmt-check test test-shuffle race fuzz fuzz-smoke figure3-smoke docs-lint serve-smoke lint staticcheck govulncheck ci

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Every test twice, in a random order per package: catches tests that
# depend on run order or on state a previous test left behind.
test-shuffle:
	$(GO) test -count=2 -shuffle=on ./...

# Race-detector pass over the concurrency-sensitive packages: the parallel
# execution layer, the evolution algorithms that fan out over it, the WAH
# kernels and column store they run on, the query operators and planner
# (per-distinct-value fan-out), the DML delta overlay (lazy flush caching
# racing concurrent readers), the segmented persistence layer, the SMO
# parser the WAL replays through, the public facade and its engine
# (atomic catalog publication, lock-free reads racing Exec and DML, plus
# the property test against the row model), and the HTTP serving layer
# (concurrent requests racing evolutions). CI runs this target, so the
# list lives here only.
race:
	$(GO) test -race cods cods/internal/par cods/internal/evolve \
		cods/internal/wah cods/internal/colstore cods/internal/colquery \
		cods/internal/delta cods/internal/server \
		cods/internal/storage cods/internal/smo cods/internal/plan

# Short native-fuzz pass (seed corpora + 5s live fuzzing per target) over
# the WAH kernels and the SMO parser round trip; cheap enough for CI.
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

# Longer fuzzing session for local bug hunting (2 min per target; raise
# FUZZ_TIME for overnight runs).
fuzz:
	FUZZ_TIME=2m sh scripts/fuzz_smoke.sh

# Every package must carry a package doc comment.
docs-lint:
	sh scripts/docslint.sh

# codslint: the in-repo go/analysis suite enforcing the engine's
# concurrency, immutability, and durability invariants (see
# internal/lint/doc.go). Runs both standalone and as a vet tool so the
# vet-driven path (which also covers _test.go files) stays exercised.
lint:
	$(GO) run ./cmd/codslint ./...
	$(GO) build -o $(or $(TMPDIR),/tmp)/codslint ./cmd/codslint
	$(GO) vet -vettool=$(or $(TMPDIR),/tmp)/codslint ./...

# External linters, pinned above. Installed in CI; skipped locally when
# not on PATH so offline checkouts still get a green `make ci`.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; fi

# Real-binary E2E smoke of `cods serve` (health, exec, query, shutdown).
serve-smoke:
	sh scripts/serve_smoke.sh

# The paper's Figure 3 (DECOMPOSE, MERGE and general MERGE against the
# number of distinct values, CODS against the query-level systems) at a
# tiny scale. The driver fails when two systems disagree on an output's
# row count. Performance is judged by benchmark/, not by this target.
figure3-smoke:
	$(GO) run ./cmd/codsbench -rows 20000 -distinct 100,1000 -quiet

ci: build vet fmt-check lint staticcheck govulncheck test test-shuffle docs-lint serve-smoke race fuzz-smoke figure3-smoke
