#!/usr/bin/env bash
# Tier-1 verification: everything must pass offline on a clean checkout.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo build --release --offline --workspace
cargo build --offline --examples
cargo test -q --offline --workspace

# The workspace run above builds and runs every test target once, the root
# package's included. Among them:
#
# - Observability: unit tests for the in-tree tracing/metrics crate
#   (hdoutlier-obs), then an end-to-end smoke run of `detect --log-json
#   --metrics-out` validated with the in-tree JSON parser
#   (crates/cli/tests/smoke.rs).
# - Live telemetry: launch `stream --serve-metrics` on an ephemeral port,
#   scrape /metrics over raw TCP (std-only client), assert the records
#   counter and histogram buckets; validate `--trace-out` parses as Chrome
#   trace-event JSON (crates/cli/tests/live.rs).
# - Determinism: every pooled path (detect brute + seeded evolutionary,
#   explain, baseline) must emit byte-identical --json reports at --threads
#   1/2/8 (crates/cli/tests/determinism.rs); the stream --batch equivalence
#   lives in the stream command's unit tests.
# - Fault tolerance: checkpoint atomicity under simulated kills
#   (crates/stream/tests/faults.rs) and the scripted-I/O harness driving the
#   stream error policies, circuit breaker, kill/resume equivalence, and
#   stream-vs-serve byte identity with bad records
#   (crates/cli/tests/fault_injection.rs).
# - The serving stack, bottom-up: HTTP wire edge cases against the std-only
#   server (fragmented reads, 413/431 caps, keep-alive, the connection
#   budget, drain races, X-Request-Id assignment — crates/net/tests/http.rs);
#   session registry, byte-identity with a direct scorer, isolation, trip
#   ladder, quarantine envelopes, and checkpoint/resume at the ServeApp
#   level (crates/serve/tests/serve.rs); then the compiled binary over real
#   TCP: concurrent sessions byte-identical to `stream`, kill -9 → restart →
#   resume continuation equivalence, graceful drain on SIGTERM and POST
#   /shutdown, and the observability smoke — serve under --trace-out + SLO
#   flags, request-id echo/propagation into the NDJSON access log and
#   Chrome trace args, /status healthy, generated ids unique under
#   concurrency (crates/cli/tests/serve_e2e.rs).
# - Overload & crash chaos harness: deterministic scripted fault clients
#   against the HTTP server — stalled heads past the wall-clock deadline,
#   torn mid-body writes, vanishing clients, burst floods past the
#   connection budget, and a mixed storm that must never pin a worker
#   (crates/net/tests/chaos.rs) — then the serve-level drills: duplicate
#   X-Request-Id retries replay byte-identical without re-scoring, SLO- and
#   concurrency-cap shedding with 503 + Retry-After and recovery, and
#   checkpoint corruption / kill-during-save recovery via the .prev
#   generation with .corrupt quarantine (crates/serve/tests/chaos.rs).
# - Continuous profiling: the span-stack sampling profiler end to end — the
#   compiled binary under `detect --profile-out --profile-hz` must write
#   non-empty folded stacks naming a hdoutlier.core.* frame, plus the
#   allocation-weighted twin fed by the counting allocator
#   (crates/cli/tests/profile_e2e.rs).

# Scenario packs: seeded end-to-end runs of the real pipelines (detect
# brute + evolutionary, drill-down/explain, baselines + CFOF/DOD referees,
# stream with checkpoint/kill/resume, serve over loopback TCP) against
# planted ground truth, byte-compared to the golden reports in
# tests/goldens/ after normalization (crates/cli/tests/scenario.rs runs the
# same gate in-process). On a mismatch the gate prints a unified diff; if
# the change is intentional, regenerate deliberately with
#     ./target/release/hdoutlier scenario update-goldens
# (it refuses while a pack's ground-truth invariants fail, so a wrong
# golden can never be enshrined) and commit the tests/goldens/ diff.
./target/release/hdoutlier scenario check

# Perf gate: the streaming hot path must stay within noise of the recorded
# baseline (BENCH_stream.json). Tolerance is generous (50%) because absolute
# wall-clock varies across machines; it exists to catch accidental
# per-record I/O or timing syscalls creeping into the default path.
cargo run -q --offline --release -p hdoutlier-bench --bin stream_throughput -- \
    --assert-against BENCH_stream.json --tolerance 0.5

# Detect perf gate: the brute-force search `detect --search brute` ships,
# timed by `repro threads` (fastest of three sweeps per worker count), must
# keep its one-worker time per scored cube within the default 100% of the
# recorded baseline (BENCH_detect.json); see `repro`'s docs for why.
cargo run -q --offline --release -p hdoutlier-bench --bin repro -- threads \
    --assert-against BENCH_detect.json

# Serving perf gate: the whole serve stack — HTTP framing, request-scoped
# context, labeled metrics, NDJSON scoring — must stay within tolerance of
# the recorded baseline (BENCH_serve.json), so the labeled-metrics hot path
# is provably not a throughput regression.
cargo run -q --offline --release -p hdoutlier-bench --bin serve_bench -- \
    --assert-against BENCH_serve.json --tolerance 0.5
