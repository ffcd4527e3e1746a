GO ?= go

.PHONY: build test test-short test-campaign test-fleet test-fsc test-tree check vet fmt lint docs-check repro-smoke fuzz-smoke bench bench-smoke table1 fig5bounds

build:
	$(GO) build ./...

# Fast inner loop: skips the chaos campaign and other -short-gated tests.
test-short:
	$(GO) test -short ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmtout=$$(gofmt -l .); if [ -n "$$gofmtout" ]; then echo "gofmt needed:"; echo "$$gofmtout"; exit 1; fi

# Static analysis beyond vet. staticcheck is not vendored; CI installs it,
# and locally the target degrades to a notice instead of failing the build.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi

# Docs gate: every relative markdown link must resolve, every flag defined
# by every cmd/* binary must appear in README's CLI reference, and every
# registered metric family must appear in README's metrics table.
docs-check:
	sh scripts/check-links.sh
	sh scripts/check-flags.sh
	sh scripts/check-metrics.sh

# Campaign-engine equality, determinism, and partial-result tests under the
# race detector — the fast gate for changes to internal/sim. The pattern
# covers the one episode loop's parity tests in both decision modes:
# batched and per-episode stepping, worker factories, and RunEpisode.
test-campaign:
	$(GO) test -race -run 'Unified|Parallel|Campaign|Sequential|WorkerFactory|RunEpisode' ./internal/sim/

# Fleet and chaos suite under the race detector: ring/membership unit tests,
# server-side redirect/adoption tests, client failover, the node-kill
# campaign, and concurrent served episodes improving one shared bound set
# online (recoverd's default) — the fast gate for changes to the fleet path.
test-fleet:
	$(GO) test -race -run 'Fleet|Chaos' ./...
	$(GO) test -race ./internal/fleet/
	$(GO) test -race -run 'TestImproveOnlineConcurrentEpisodes' ./internal/client/

# Tree-decision parity under the race detector: the one Max-Avg expansion
# against its reference recursion, the capacity-capped bootstrap golden pin,
# and the shared decision table in front of the tree (exact against a
# table-less tree, bound-set generations, read-only exclusions, concurrent
# deciders with an online improver) — the fast gate for changes to the
# engine, the bounded controller or the bound set's mutators.
test-tree:
	$(GO) test -race -run '^(TestDedup|TestBootstrapCapacityGolden$$)' ./internal/controller/ ./internal/core/
	$(GO) test -race -count=3 -run '^(TestDecisionTable|TestSetGeneration)' ./internal/controller/ ./internal/bounds/ ./internal/core/

# FSC-tier equality gate under the race detector: compiled-controller
# campaigns must match the tree's mean cost exactly on EMN and on random
# models — the fast gate for changes to the FSC compiler or decider.
test-fsc:
	$(GO) test -race -run 'FSC' ./internal/controller/ ./internal/sim/

# Reproduction smoke: the shape tests behind every figure EXPERIMENTS.md
# quotes for Table 1, Figure 5 and the ablations (leaf evaluator, free
# monitors, bound capacity, seed plane), run by name at their fixed seeds
# and counts, so their logged figures are the quoted ones.
repro-smoke:
	$(GO) test -count=1 -v -run '^(TestTable1SmallCampaignShape|TestFig5SeriesShape|TestAblationLeaf|TestAblationFreeMonitors|TestAblationBoundCapacity|TestAblationSeedPlane)$$' ./internal/experiments/

# Fuzz smoke: a few seconds per fuzz target over the trust boundaries —
# checkpoint EpisodeState JSON decode, TombstoneState JSON decode (store files
# and the fleet tombstone endpoint), the compiled FSC artifact decoder, and
# the bpomdp.span/v1 decoder (span files from every node, with their nested
# decision objects, feed cmd/tracestats), and the wire codec's canonical
# decoder of HTTP API bodies against encoding/json.
# Corpus additions land under the packages' testdata/fuzz/ directories.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzEpisodeStateDecode -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzTombstoneStateDecode -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzFSCDecode -fuzztime=10s ./internal/controller
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSpans -fuzztime=10s ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=10s ./internal/server

# The full gate: formatting, vet, the docs gate, the complete test suite
# (chaos campaign included) under the race detector, the FSC
# campaign-equality gate, the reproduction smoke and the fuzz smoke.
check: fmt
	$(GO) vet ./...
	$(MAKE) docs-check
	$(GO) test -race ./...
	$(MAKE) test-fsc
	$(MAKE) repro-smoke
	$(MAKE) fuzz-smoke

# Benchmark gate: builds cmd/bench at BENCH_BASE (HEAD by default; CI passes
# HEAD^1) from a git archive and from the working tree, and measures every
# entry on both in five alternating pairs (DESIGN.md §6). It fails on an
# entry whose median paired ns/op ratio is over 1.3 with the candidate
# slower in at least 4 of 5 pairs, or whose allocations grow. Both binaries
# are built without file paths or VCS stamps, so one source gives one
# binary, and run pinned to one CPU where taskset exists, so a busy sibling
# of one vCPU slows both sides. A base older than the paired gate has no
# worker to pair with; the gate says so and passes.
BENCH_BASE ?= HEAD
BENCH_DIR ?= /tmp/bpomdp-bench-smoke
BENCH_BUILD = -trimpath -buildvcs=false
BENCH_PIN ?= $(shell command -v taskset >/dev/null 2>&1 && echo taskset -c 0)
bench-smoke:
	rm -rf $(BENCH_DIR) && mkdir -p $(BENCH_DIR)/base
	git archive $(BENCH_BASE) | tar -x -C $(BENCH_DIR)/base
	cd $(BENCH_DIR)/base && $(GO) build $(BENCH_BUILD) -o ../bench-base ./cmd/bench
	$(GO) build $(BENCH_BUILD) -o $(BENCH_DIR)/bench ./cmd/bench
	@if grep -q '"serve"' $(BENCH_DIR)/base/cmd/bench/main.go; then \
		echo "$(BENCH_PIN) $(BENCH_DIR)/bench -mintime 50ms -out $(BENCH_DIR)/smoke.json -compare $(BENCH_DIR)/bench-base"; \
		$(BENCH_PIN) $(BENCH_DIR)/bench -mintime 50ms -out $(BENCH_DIR)/smoke.json -compare $(BENCH_DIR)/bench-base; \
	else \
		echo "bench-smoke: cmd/bench at $(BENCH_BASE) has no -serve worker, so there is nothing to pair with"; \
	fi

# Measure the campaign engine's hot paths on EMN and write the results as
# machine-readable JSON (schema bpomdp.bench/v1; see DESIGN.md): a record of
# this host's figures, not a bound any gate reads.
bench:
	$(GO) run ./cmd/bench -out BENCH_campaign.json
	@echo "wrote BENCH_campaign.json"

table1:
	$(GO) run ./cmd/emn-faultinject -n 10000

fig5bounds:
	$(GO) run ./cmd/emn-bounds -iters 20
