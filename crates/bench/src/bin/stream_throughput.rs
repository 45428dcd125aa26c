//! Streaming-throughput bench: records/second through each stage of the
//! streaming layer, std-only (no criterion needed).
//!
//! ```text
//! cargo run -p hdoutlier-bench --release --bin stream_throughput -- \
//!     [n_rows] [n_dims] [--metrics-out <path>] [--bench-json <path>]
//! ```
//!
//! Stages measured independently, then end-to-end:
//! - sketch: `StreamingDiscretizer::observe` (per-dimension GK inserts)
//! - window: `WindowCounter::push` (insert + evict postings maintenance)
//! - score:  `OnlineScorer::score_record` (grid assign + projection match
//!   + drift accounting)
//! - pipeline.csv: the records as CSV lines through
//!   `hdoutlier_stream::Pipeline` into a discarding sink — the parse →
//!   score → render loop `hdoutlier stream` runs, minus the stdout write
//!
//! With `--metrics-out` the scorer's per-record latency histogram
//! (`hdoutlier.stream.record_latency_us`) is enabled for the scoring
//! stages, its percentiles are printed, and the full registry snapshot is
//! written as NDJSON. Without the flag the timing gate stays off, so the
//! wall-clock numbers measure the same code the `stream` subcommand runs
//! by default.
//!
//! With `--bench-json` a schema-stable `BENCH_stream.json` datapoint is
//! written (stage throughputs, latency percentiles, git metadata) for the
//! repo's perf trajectory; the timing gate is enabled so the percentiles
//! are populated, which the datapoint records in its `config.timing` knob.
//!
//! With `--assert-against <BENCH_stream.json>` the run becomes a regression
//! gate: the end-to-end and pipeline.csv us/record are compared to the
//! baseline datapoint and the process exits 1 when either exceeds
//! `baseline * (1 + --tolerance)`
//! (tolerance defaults to 0.5 — generous because absolute wall-clock varies
//! across machines; the gate exists to catch order-of-magnitude slips in the
//! default hot path, e.g. accidental per-record I/O or timing syscalls).

use hdoutlier_bench::bench_json::{baseline_us_per_record, BenchReport, Percentiles};
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_obs as obs;
use hdoutlier_stream::{
    ErrorPolicy, OnlineScorer, Pipeline, RecordFormat, Settings, Sink, StreamingDiscretizer,
    WindowCounter,
};
use std::time::Instant;

/// Drops every verdict line, counting its bytes.
struct Discard(usize);

impl Sink for Discard {
    fn emit(&mut self, line: &str) -> Result<bool, String> {
        self.0 += line.len();
        Ok(true)
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take_path = |flag: &str| match args.iter().position(|a| a == flag) {
        Some(i) if i + 1 < args.len() => {
            let path = args.remove(i + 1);
            args.remove(i);
            Some(path)
        }
        Some(_) => {
            eprintln!("{flag} requires a path");
            std::process::exit(2);
        }
        None => None,
    };
    let metrics_out = take_path("--metrics-out");
    let bench_json = take_path("--bench-json");
    let assert_against = take_path("--assert-against");
    let tolerance: f64 = match take_path("--tolerance") {
        None => 0.5,
        Some(raw) => match raw.parse() {
            Ok(t) if t > 0.0 => t,
            _ => {
                eprintln!("--tolerance must be a positive fraction, got {raw:?}");
                std::process::exit(2);
            }
        },
    };
    obs::set_timing(metrics_out.is_some() || bench_json.is_some());
    let mut bench = bench_json.as_ref().map(|_| BenchReport::new("stream"));
    let n_rows: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(200_000);
    let n_dims: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    let phi = 5u32;
    let window = 10_000usize;
    if let Some(b) = bench.as_mut() {
        b.config("n_rows", n_rows as f64)
            .config("n_dims", n_dims as f64)
            .config("phi", phi as f64)
            .config("window", window as f64)
            .config("timing", 1.0);
    }

    println!("streaming throughput: {n_rows} rows x {n_dims} dims, phi={phi}, window={window}");

    // Train a model on a planted batch, then replay the batch as a stream
    // (cycling so n_rows is independent of the training size).
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 20_000,
        n_dims,
        n_outliers: 20,
        strong_groups: Some(3),
        seed: 2001,
        ..PlantedConfig::default()
    });
    let ds = &planted.dataset;
    let model = OutlierDetector::builder()
        .phi(phi)
        .k(2)
        .m(10)
        .search(SearchMethod::BruteForce)
        .build()
        .fit(ds)
        .expect("fit");

    let row = |i: usize| ds.row(i % ds.n_rows());

    // Stage 1: quantile sketches.
    let mut disc = StreamingDiscretizer::new(n_dims, phi, 0.01).expect("discretizer");
    let t = Instant::now();
    for i in 0..n_rows {
        disc.observe(row(i)).expect("observe");
    }
    report("sketch.observe", n_rows, t.elapsed(), &mut bench);
    let spec = disc.grid_spec().expect("grid");

    // Stage 2: sliding-window counting (push only; queries are the batch
    // engines' job and already benched).
    let mut counter = WindowCounter::new(window, n_dims, phi).expect("window");
    let cells: Vec<Vec<u16>> = (0..ds.n_rows())
        .map(|i| spec.assign_row(ds.row(i)).expect("assign"))
        .collect();
    let t = Instant::now();
    for i in 0..n_rows {
        counter.push(&cells[i % cells.len()]).expect("push");
    }
    report("window.push", n_rows, t.elapsed(), &mut bench);

    // Stage 3: online scoring.
    let mut scorer = OnlineScorer::new(model.clone()).expect("scorer");
    let t = Instant::now();
    let mut outliers = 0usize;
    for i in 0..n_rows {
        if scorer.score_record(row(i)).expect("score").outlier {
            outliers += 1;
        }
    }
    report("scorer.score_record", n_rows, t.elapsed(), &mut bench);
    println!("  ({outliers} outliers flagged)");

    // End-to-end: what the `hdoutlier stream` hot loop does per record,
    // plus keeping the sketches warm for an eventual re-fit.
    let mut disc = StreamingDiscretizer::new(n_dims, phi, 0.01).expect("discretizer");
    let mut counter = WindowCounter::new(window, n_dims, phi).expect("window");
    let t = Instant::now();
    for i in 0..n_rows {
        let r = row(i);
        disc.observe(r).expect("observe");
        let v = scorer.score_record(r).expect("score");
        counter.push(&v.cells).expect("push");
    }
    let end_to_end = t.elapsed();
    report("end-to-end", n_rows, end_to_end, &mut bench);

    // The shipped per-record loop: CSV lines through the stream pipeline
    // with the `stream` command's default settings.
    let text = hdoutlier_data::csv::write_string(ds);
    let lines: Vec<&str> = text.lines().skip(1).collect();
    let settings = Settings {
        format: RecordFormat::Csv {
            delimiter: ',',
            header: false,
        },
        batch: 1,
        threads: 1,
        outliers_only: false,
        policy: ErrorPolicy::Abort,
        max_consecutive: 100,
        checkpoint: None,
        checkpoint_every: 1000,
        drift_alpha: None,
        drift_every: None,
    };
    let scorer = OnlineScorer::new(model).expect("scorer");
    let (mut pipeline, _) = Pipeline::open(scorer, settings, None).expect("pipeline");
    let mut sink = Discard(0);
    let t = Instant::now();
    let records = (0..n_rows).map(|i| Ok::<_, String>(lines[i % lines.len()]));
    if let Err(stop) = pipeline.run(records, &mut sink) {
        eprintln!("pipeline stopped: {stop:?}");
        std::process::exit(1);
    }
    let pipeline_csv = t.elapsed();
    report("pipeline.csv", n_rows, pipeline_csv, &mut bench);
    println!("  ({} verdict bytes rendered)", sink.0);
    println!(
        "  (sketch summary sizes: {:?})",
        (0..n_dims.min(4))
            .map(|d| disc.sketch(d).summary_size())
            .collect::<Vec<_>>()
    );

    if let Some(path) = metrics_out {
        let latency = obs::registry()
            .histogram("hdoutlier.stream.record_latency_us")
            .snapshot();
        println!(
            "record latency (us): n={} p50={:.1} p90={:.1} p99={:.1} max={:.1}",
            latency.count, latency.p50, latency.p90, latency.p99, latency.max
        );
        if let Err(e) = std::fs::write(&path, obs::registry().snapshot_ndjson()) {
            eprintln!("failed to write metrics {path}: {e}");
            std::process::exit(1);
        }
        println!("metrics snapshot written to {path}");
    }

    if let (Some(path), Some(mut report)) = (bench_json, bench) {
        let lat = obs::registry()
            .histogram("hdoutlier.stream.record_latency_us")
            .snapshot();
        report.latency_us(Percentiles {
            count: lat.count,
            p50: lat.p50,
            p90: lat.p90,
            p99: lat.p99,
            max: lat.max,
        });
        if let Err(e) = report.write(&path) {
            eprintln!("failed to write bench datapoint {path}: {e}");
            std::process::exit(1);
        }
        println!("bench datapoint written to {path}");
    }

    if let Some(path) = assert_against {
        let mut regressed = false;
        for (stage, elapsed) in [("end-to-end", end_to_end), ("pipeline.csv", pipeline_csv)] {
            let us = elapsed.as_secs_f64() * 1e6 / n_rows as f64;
            let baseline = baseline_us_per_record(&path, stage).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            });
            let limit = baseline * (1.0 + tolerance);
            println!(
                "regression gate: {stage} {us:.3} us/record vs baseline {baseline:.3} \
                 (limit {limit:.3}, tolerance {tolerance})"
            );
            if us > limit {
                eprintln!(
                    "REGRESSION: {stage} {us:.3} us/record exceeds {limit:.3} \
                     ({baseline:.3} from {path} + {:.0}%)",
                    tolerance * 100.0
                );
                regressed = true;
            }
        }
        if regressed {
            std::process::exit(1);
        }
    }
}

fn report(stage: &str, n: usize, elapsed: std::time::Duration, bench: &mut Option<BenchReport>) {
    let secs = elapsed.as_secs_f64();
    println!(
        "{stage:>20}: {:>8.0} records/s ({:.2} s total, {:.2} us/record)",
        n as f64 / secs,
        secs,
        secs * 1e6 / n as f64
    );
    if let Some(b) = bench.as_mut() {
        b.stage(stage, n as u64, secs);
    }
}
