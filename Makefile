# Developer entry points. `make check` is the tier-1 gate plus vet and the
# race detector; `make bench-gates` runs the table of design floors;
# `make bench` runs the gates, regenerates every paper artifact, and runs
# neutronbench, the repository's benchmark ledger, on each of its workloads.

GO ?= go

# The workloads declared in BENCHMARK.json.
LEDGER_WORKLOADS = design-sweep beam-campaigns beam-cluster assess

.PHONY: check vet build test race bench bench-gates neutrond loadgen clean

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package regenerates every paper artifact and far exceeds
# go test's default 10m deadline under the race detector's ~10x slowdown.
race:
	$(GO) test -race -timeout 45m ./...

# bench-gates runs BenchmarkGates (gates_test.go), one row per design floor:
# warm plan hit vs cold compile, importance-sampling neutron budget,
# surrogate vs exact MC, cluster saturation, and 4-core engine scaling.
# Any row below its floor fails the run.
bench-gates:
	$(GO) test -run '^$$' -bench '^BenchmarkGates$$' -benchtime 1x -v .

# bench runs the gates, the per-artifact benchmarks of the root package,
# and one traced neutronbench run per workload: the per-layer metrics, each
# with its host block, recorded under .bench_build/runs/ (see
# cmd/neutronbench/README.md for untraced runs and `run.sh compare`).
bench: bench-gates
	$(GO) test -run '^$$' -bench . -skip '^BenchmarkGates$$' -benchmem .
	for w in $(LEDGER_WORKLOADS); do \
		bash cmd/neutronbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 1 || exit 1; \
	done

neutrond:
	$(GO) build -o neutrond ./cmd/neutrond

loadgen:
	$(GO) build -o loadgen ./cmd/loadgen

clean:
	rm -f neutrond loadgen
