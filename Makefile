GO ?= go

.PHONY: build test test-short test-campaign test-fleet test-fsc test-tree check vet fmt lint docs-check fuzz-smoke bench bench-smoke table1 fig5bounds

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
# campaign-equality gate, and the fuzz smoke.
check: fmt
	$(GO) vet ./...
	$(MAKE) docs-check
	$(GO) test -race ./...
	$(MAKE) test-fsc
	$(MAKE) fuzz-smoke

# Benchmark smoke: short measurements diffed against the committed baseline.
# Hard-fails, but only on regressions that reproduce in both measurement
# passes (-runs 2) — single-pass noise on shared runners is exonerated.
bench-smoke:
	$(GO) run ./cmd/bench -mintime 50ms -out /tmp/bench_smoke.json -compare BENCH_campaign.json -runs 2

# Measure the campaign engine's hot paths on EMN and write the results as
# machine-readable JSON (schema bpomdp.bench/v1; see DESIGN.md).
bench:
	$(GO) run ./cmd/bench -out BENCH_campaign.json
	@echo "wrote BENCH_campaign.json"

table1:
	$(GO) run ./cmd/emn-faultinject -n 10000

fig5bounds:
	$(GO) run ./cmd/emn-bounds -iters 20
