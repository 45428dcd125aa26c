//! Streaming-throughput bench: records/second through the record path that
//! `hdoutlier stream` and `serve` run, std-only (no criterion needed).
//!
//! ```text
//! cargo run -p hdoutlier-bench --release --bin stream_throughput -- \
//!     [n_rows] [n_dims] [--metrics-out <path>] [--bench-json <path>] \
//!     [--assert-against <BENCH_stream.json>]
//! ```
//!
//! Two stages, both on the shipped path:
//! - scorer.score_record: `OnlineScorer::score_record` on parsed rows (grid
//!   assign + projection match + drift accounting)
//! - pipeline.csv: the records as one CSV byte buffer through
//!   `hdoutlier_stream::Pipeline` into a discarding sink — the split →
//!   parse → score → render loop `hdoutlier stream` runs, minus the stdout
//!   write
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
//! repo's perf trajectory. Its latency percentiles come from one extra
//! scoring pass with the timing gate on, after the timed stages, so the
//! recorded stages measure the same code the regression gate runs;
//! `config.timing` records whether `--metrics-out` timed them.
//!
//! With `--assert-against <BENCH_stream.json>` the run becomes a regression
//! gate: both stages' us/record go through [`assert_against`] against the
//! baseline datapoint.
//!
//! Every stage is timed [`REPEATS`] times, each from fresh state, and the
//! fastest run is reported, recorded and gated.

use hdoutlier_bench::bench_json::{
    assert_against, fastest_of, reject_unknown_flags, take_flag, BenchReport, Percentiles, REPEATS,
};
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_obs as obs;
use hdoutlier_stream::{ErrorPolicy, OnlineScorer, Pipeline, RecordFormat, Settings, Sink};
use std::time::Instant;

/// Drops every verdict line, counting its bytes.
struct Discard(usize);

impl Sink for Discard {
    fn emit(&mut self, line: &str) -> Result<bool, String> {
        self.0 += line.len();
        Ok(true)
    }

    fn flush(&mut self) -> Result<bool, String> {
        Ok(true)
    }
}

/// The stream gate's tolerance: generous because absolute wall-clock
/// varies across machines; the gate exists to catch order-of-magnitude
/// slips in the default hot path, e.g. accidental per-record I/O or timing
/// syscalls.
const TOLERANCE: f64 = 0.5;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let bench_json = take_flag(&mut args, "--bench-json");
    let baseline = take_flag(&mut args, "--assert-against");
    reject_unknown_flags(&args);
    obs::set_timing(metrics_out.is_some());
    let mut bench = bench_json.as_ref().map(|_| BenchReport::new("stream"));
    let n_rows: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(200_000);
    let n_dims: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    let phi = 5u32;
    if let Some(b) = bench.as_mut() {
        b.config("n_rows", n_rows as f64)
            .config("n_dims", n_dims as f64)
            .config("phi", phi as f64)
            .config("timing", f64::from(u8::from(metrics_out.is_some())));
    }

    println!("streaming throughput: {n_rows} rows x {n_dims} dims, phi={phi}");

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

    // The scorer alone, on parsed rows.
    let mut outliers = 0usize;
    let score_record = stage("scorer.score_record", n_rows, &mut bench, || {
        let mut scorer = OnlineScorer::new(model.clone()).expect("scorer");
        outliers = 0;
        let t = Instant::now();
        for i in 0..n_rows {
            if scorer.score_record(row(i)).expect("score").outlier {
                outliers += 1;
            }
        }
        t.elapsed().as_secs_f64()
    });
    println!("  ({outliers} outliers flagged)");

    // The shipped per-record loop: CSV lines through the stream pipeline
    // with the `stream` command's default settings, read from one buffer.
    let text = hdoutlier_data::csv::write_string(ds);
    let lines: Vec<&str> = text.lines().skip(1).collect();
    let mut input = String::new();
    for i in 0..n_rows {
        input.push_str(lines[i % lines.len()]);
        input.push('\n');
    }
    let settings = Settings {
        format: RecordFormat::Csv {
            delimiter: ',',
            header: false,
        },
        outliers_only: false,
        policy: ErrorPolicy::Abort,
        max_consecutive: 100,
        checkpoint: None,
        checkpoint_every: 1000,
        drift_alpha: None,
        drift_every: None,
    };
    let mut sink = Discard(0);
    let pipeline_csv = stage("pipeline.csv", n_rows, &mut bench, || {
        let scorer = OnlineScorer::new(model.clone()).expect("scorer");
        let (mut pipeline, _) = Pipeline::open(scorer, settings.clone(), None).expect("pipeline");
        sink = Discard(0);
        let t = Instant::now();
        if let Err(stop) = pipeline.run(input.as_bytes(), &mut sink) {
            eprintln!("pipeline stopped: {stop:?}");
            std::process::exit(1);
        }
        t.elapsed().as_secs_f64()
    });
    println!("  ({} verdict bytes rendered)", sink.0);

    if bench.is_some() && !obs::timing_enabled() {
        obs::set_timing(true);
        let mut scorer = OnlineScorer::new(model).expect("scorer");
        for i in 0..n_rows {
            scorer.score_record(row(i)).expect("score");
        }
    }
    let lat = obs::registry()
        .histogram("hdoutlier.stream.record_latency_us")
        .snapshot();

    if let Some(path) = metrics_out {
        println!(
            "record latency (us): n={} p50={:.1} p90={:.1} p99={:.1} max={:.1}",
            lat.count, lat.p50, lat.p90, lat.p99, lat.max
        );
        if let Err(e) = std::fs::write(&path, obs::registry().snapshot_ndjson()) {
            eprintln!("failed to write metrics {path}: {e}");
            std::process::exit(1);
        }
        println!("metrics snapshot written to {path}");
    }

    if let (Some(path), Some(mut report)) = (bench_json, bench) {
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

    if let Some(path) = baseline {
        let readings = [
            ("scorer.score_record", score_record),
            ("pipeline.csv", pipeline_csv),
        ];
        assert_against(&path, TOLERANCE, &readings);
    }
}

/// Times one stage as the fastest of [`REPEATS`] runs of `run` (each builds
/// its own state and returns the seconds its loop took), prints it, records
/// it in the datapoint, and returns its us/record.
fn stage(name: &str, n: usize, bench: &mut Option<BenchReport>, run: impl FnMut() -> f64) -> f64 {
    let secs = fastest_of(REPEATS, run);
    let us_per_record = secs * 1e6 / n as f64;
    println!(
        "{name:>20}: {:>8.0} records/s ({secs:.2} s total, {us_per_record:.2} us/record)",
        n as f64 / secs
    );
    if let Some(b) = bench.as_mut() {
        b.stage(name, n as u64, secs);
    }
    us_per_record
}
