# Tool versions are pinned so lint results are reproducible; bump them
# deliberately, in their own commit.
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

BIN := bin

.PHONY: all build test lint staticcheck govulncheck race fmt bench ab benchab simdiff loc bce

all: build test lint

build:
	go build ./...

test:
	go test ./...

# lint is the single entry point CI runs verbatim: the repository's
# own analyzer suite (cmd/olaplint, see README "Static analysis")
# driven by the stock `go vet` so diagnostics are cached per package
# like any other vet check.
lint: $(BIN)/olaplint
	go vet -vettool=$(abspath $(BIN)/olaplint) ./...

$(BIN)/olaplint: FORCE
	go build -o $(BIN)/olaplint ./cmd/olaplint

# staticcheck and govulncheck download on first use (network required);
# `go run` pins the exact version without touching go.mod.
staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

race:
	go test -race -short ./internal/engine/... ./internal/sql/... ./internal/server/... ./internal/obs/... ./internal/probe/... ./internal/tpch/...

fmt:
	gofmt -l -w .

# bench runs the repository's benchmark (BENCHMARK.json, benchmark/README.md):
# every workload once against a freshly built olapserve, results on
# stdout, build outputs under the git-ignored benchmark/out/.
bench:
	bash benchmark/run.sh -workload all -seed 1

# ab is the paired protocol behind every performance note in CHANGES.md:
# `make ab PARENT=<ref> WORKLOAD=<name> [PAIRS=10]` exports PARENT into a
# temporary tree, runs the benchmark on it and on this working tree in
# alternating order, and prints per end-to-end metric both medians, the
# parent's inter-quartile range, wins/losses/ties and the sign-test
# p-value with its verdict (scripts/ab.sh).
ab:
	bash scripts/ab.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# benchab is the same paired protocol for in-process Go benchmarks:
# `make benchab PARENT=<ref> PKG=<pkg> BENCH=<regex> [PAIRS=10]` builds
# `go test -c` binaries of PARENT's export and of this working tree, runs
# the benchmarks matching BENCH on both in alternating order, and prints
# per sub-benchmark both medians of ns/row (ns/op where none is
# reported), wins/losses/ties and the sign-test verdict (scripts/benchab.sh).
benchab:
	bash scripts/benchab.sh $(PARENT) $(PKG) '$(BENCH)' $(PAIRS)

# simdiff is the check behind ROADMAP aim 2's "the experiments stay
# byte-identical": `make simdiff PARENT=<ref>` builds cmd/olapsim on an
# export of PARENT and on this working tree, runs every experiment in
# quick mode on both, drops the host-clock lines and diffs the rest,
# exiting 1 on any difference (scripts/simdiff.sh).
simdiff:
	bash scripts/simdiff.sh $(PARENT)

# loc prints the figure ROADMAP aim 2 tracks: `wc -l` of production Go
# (no tests, no analyzer fixtures, not the nested benchmark/ module),
# per package directory and in total. Informational; nothing gates on it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' \
		| xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/^\.\//, "", d); if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
		| sort -k2

# bce prints the bounds checks the compiler keeps in the fast kernels'
# package, internal/engine/relop, per function and in total
# (scripts/bce.sh). Informational; nothing gates on it.
bce:
	@bash scripts/bce.sh ./internal/engine/relop

FORCE:
