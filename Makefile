GO ?= go

.PHONY: all fmt vet staticcheck build test race race-full alloc-gate bench bench-go ci

all: build

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck is not vendored; CI installs it with `go install`. Locally the
# target fails with instructions rather than silently passing.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not found: go install honnef.co/go/tools/cmd/staticcheck@latest"; exit 1; }
	staticcheck ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector slows the simulations ~10×; -short trims the golden
# harness to table1 and fig4 (still at both parallel settings) and skips the
# figure shape tests, so the pass stays bounded.
race:
	$(GO) test -race -short -timeout 20m ./...

# The full race pass: every test, the whole golden catalog and the figure
# shape tests included. CI runs it as its own job; budget the better part of
# an hour locally.
race-full:
	$(GO) test -race -timeout 60m ./...

# alloc-gate pins the zero-allocation property of every steady-state fixture
# in internal/hotpath — the engine's event loop, the DAMN alloc/free fast
# path, dma_map/dma_unmap under every scheme, IOTLB and device DMA, the skb
# and RX paths (multi-ring and tenant-gated included), the ARQ retransmit
# cycle, the capability check and the bypass polling path: zero mallocs and
# zero bytes after warm-up, counted exactly. Runs in seconds.
alloc-gate:
	$(GO) test -run 'ZeroAlloc' -count=1 .

# bench regenerates BENCH_PR10.json: one microbenchmark per internal/hotpath
# fixture (ns/op, B/op, allocs/op, each behind the alloc-gate check), the
# Figure 5 macro, the RSS scale-out grid with its
# monotone-growth gates (bypass columns included, excluded from the strict
# contention gate), the kernel-bypass figure with its acceptance gates, the
# tenants blast-radius macro with its containment
# gates, the 4-machine topology wall-clock scaling leg (serial vs
# one-worker-per-machine, byte-compared, speedup-gated on multi-CPU hosts),
# plus the quick-suite wall clock at -parallel 1 vs the parallel leg with
# the speedup and a byte-identity check between the two runs. benchreport
# refuses to capture at gomaxprocs 1; on a single-CPU host this target
# oversubscribes to two timesliced Ps so the report still records a genuine
# two-worker leg.
bench:
	@p=$$(nproc); [ $$p -ge 2 ] || p=2; \
	set -x; $(GO) run ./cmd/benchreport -out BENCH_PR10.json -procs $$p -parallel $$p

# bench-go runs the go-test benchmarks: one per internal/hotpath fixture and
# one per catalog entry (quick mode).
bench-go:
	$(GO) test -bench=. -benchmem -timeout 60m -run=^$$ .

ci: fmt vet build alloc-gate race
