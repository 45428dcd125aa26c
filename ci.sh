#!/usr/bin/env bash
# Tier-1 verification: everything must pass offline on a clean checkout.
set -euo pipefail
cd "$(dirname "$0")"

# Hermeticity: every package in the lock file is an in-tree path crate. A
# registry or git dependency would add a `source = ` line.
if grep -n '^source = ' Cargo.lock; then
    echo "Cargo.lock names an external source; the workspace must stay hermetic" >&2
    exit 1
fi

# One JSON writer, kept by construction: hdoutlier-json is the only code
# that encodes a JSON string, and a second encoder gives itself away by the
# control-character escape format. The one exception is the obs
# differential test's verbatim copy of the renderers that writer replaced,
# which it keeps as the reference it compares against.
if grep -rnF --include='*.rs' '\u{:04x}' crates src tests examples |
    grep -v -e '^crates/json/' -e '^crates/obs/src/json_reference\.rs:'; then
    echo "a JSON escaper outside crates/json; build a hdoutlier_json::Json and render it" >&2
    exit 1
fi

cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo build --release --offline --workspace
cargo build --offline --examples
# Rustdoc: a broken or ambiguous intra-doc link fails the build, so a
# deletion cannot leave a dangling link behind. `--lib` because the umbrella
# library and the CLI binary are both named `hdoutlier`.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --lib
cargo test -q --offline --workspace

# The workspace run above builds and runs every test target once, the root
# package's included. Among them:
#
# - Properties: each crate's seeded property suite (tests/properties.rs)
#   and folded unit tests on the one in-tree runner,
#   hdoutlier_rng::for_each_case, which prints the seed that replays a
#   failing case.
# - Observability: unit tests for the in-tree tracing/metrics crate
#   (hdoutlier-obs), then an end-to-end smoke run of `detect --log-json
#   --metrics-out` validated with the in-tree JSON parser
#   (crates/cli/tests/smoke.rs).
# - Live telemetry: launch `stream --serve-metrics` on an ephemeral port,
#   scrape /metrics over raw TCP (std-only client), assert the records
#   counter and histogram buckets; validate `--trace-out` parses as Chrome
#   trace-event JSON (crates/cli/tests/live.rs).
# - Determinism: every pooled path (detect brute, explain, baseline) must
#   emit byte-identical --json reports at --threads 1/2/8, and so must the
#   seeded evolutionary detect, which ignores --threads
#   (crates/cli/tests/determinism.rs).
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

# Perf gates. One rule, in crates/bench/src/bench_json.rs (`assert_against`),
# for all three: each gated stage is timed three times from fresh state, the
# fastest run's us/record is compared with the same stage of the checked-in
# baseline datapoint, and the gate exits 1 when any stage exceeds
# `baseline * (1 + tolerance)` (2 when the baseline is unreadable or lacks
# the stage). Every stage is checked and printed before the verdict. The
# tolerance is a constant of each gate, generous because absolute
# wall-clock varies across machines: the gates catch order-of-magnitude
# slips, such as per-record I/O, timing syscalls or allocation storms.
#
# Stream (tolerance 0.5, BENCH_stream.json): `scorer.score_record` (the
# scorer `stream` and `serve` run, on parsed rows) and `pipeline.csv` (CSV
# lines through the record pipeline `stream` ships, into a discarding sink).
cargo run -q --offline --release -p hdoutlier-bench --bin stream_throughput -- \
    --assert-against BENCH_stream.json

# Detect (tolerance 1.0, BENCH_detect.json): `threads-1`, the one-worker
# time per scored cube of the brute-force search `detect --search brute`
# ships, timed by `repro threads`.
cargo run -q --offline --release -p hdoutlier-bench --bin repro -- threads \
    --assert-against BENCH_detect.json

# Serve (tolerance 0.5, BENCH_serve.json): `serve.handle`, 2,000 score
# requests of 200 records through `ServeApp::handle` in process — routing,
# request context, labeled metrics, NDJSON parse, scoring, render — with no
# socket. The loopback round trip is recorded as `serve.socket`, not gated.
cargo run -q --offline --release -p hdoutlier-bench --bin serve_bench -- \
    --assert-against BENCH_serve.json
