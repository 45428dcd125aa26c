//! The traced run: each workload replayed in-process on the same seeded
//! inputs, calling the layers' public functions in the order the binary
//! calls them, each call wrapped in a span. The per-layer metrics come from
//! the spans; the binary runs the same jobs untraced beside the replay, so
//! every replay output is checked against the binary's output and the
//! replay's share of the binary's time is known.
//!
//! Every traced run covers every layer:
//!
//! 1. **fit** — the workload's detect job (for `stream-csv`, the set-up's
//!    model fit): CSV read, discretize, index build, search, report, and
//!    the CLI's second discretize; plus the search at one thread, and a GA
//!    run (the workload's own for `detect-evolve`, a probe with the same φ
//!    and k elsewhere) with the engine's timing gate on;
//! 2. **score** — the workload's records (for detect workloads, the detect
//!    input itself, scored against the model the detect found) through
//!    `score_record`, `verdict_json`, `Json::render` and a flushed write
//!    into a pipe, in chunks of 4,096 records.
//!
//! `replay.coverage` compares the replay with the binary on the workload's
//! own path: the fit for detect workloads, the score stage for
//! `stream-csv`. The spans are written as Chrome trace JSON under
//! `.bench_work/traces/`.

use crate::check::{self, DetectSummary, Digest};
use crate::inputs;
use crate::jobs;
use crate::setup;
use crate::spans::Tracer;
use crate::spec::{Fit, Kind, Search, MODEL_FIT};
use crate::{Ctx, Outcome};
use hdoutlier_core::brute::{brute_force_search_incremental_parallel, BruteForceConfig};
use hdoutlier_core::evolutionary::{evolutionary_search, EvolutionaryConfig};
use hdoutlier_core::report::SearchStats;
use hdoutlier_core::{
    DetectorConfig, FittedModel, OutlierReport, ScoredProjection, SparsityFitness,
};
use hdoutlier_data::csv::CsvOptions;
use hdoutlier_data::{Dataset, DiscretizeStrategy, Discretized, GridSpec};
use hdoutlier_index::{BitmapCounter, CachedCounter};
use hdoutlier_json::Json;
use hdoutlier_obs as obs;
use hdoutlier_stream::ndjson::verdict_json;
use hdoutlier_stream::OnlineScorer;
use std::io::{LineWriter, Read, Write};
use std::path::Path;
use std::time::Instant;

/// Records per score-stage span.
const CHUNK: usize = 4_096;
const MIB: f64 = 1024.0 * 1024.0;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let threads = hdoutlier_pool::default_threads();
    let mut out = Outcome::default();
    let mut t = Tracer::new(true);

    // Inputs, as the untraced run builds them.
    let (fit, csv, model_file) = match ctx.workload.kind {
        Kind::Detect { data, fit } => (fit, setup::detect_csv(ctx, data)?.0, None),
        Kind::Stream { .. } => {
            let model = setup::fit_model(ctx)?;
            (MODEL_FIT, ctx.path("train.csv"), Some(model))
        }
    };

    // 1. Fit: the binary's job, then its replay.
    let mut args = fit.args();
    args.extend(["--json".to_string(), csv.display().to_string()]);
    let log = ctx.path("detect.log");
    let job = jobs::run(ctx.bin, &args, None, &log, true)?;
    job.ensure_success("detect", &log)?;
    let fit_wall = job.wall.as_secs_f64();
    let binary_report = DetectSummary::from_json(&String::from_utf8_lossy(&job.stdout))?;
    let replay = replay_fit(&mut t, &csv, &fit, threads)?;
    out.attempted += 1;
    if DetectSummary::from_report(&replay.report) != binary_report {
        out.fail("replayed detect differs from the binary's report".into());
    }
    fit_metrics(&mut t, &mut out, &replay, &fit, threads);
    let fit_spans = t.children_total("detect").as_secs_f64();
    out.metric(
        "cli.detect.residual_s",
        fit_wall - fit_spans,
        1,
        "detect job wall time minus the replayed layers (render, process start)",
    );

    // 2. Score: the workload's records against the model.
    let (model, rows, model_file) = match ctx.workload.kind {
        Kind::Detect { .. } => {
            let model = FittedModel::new(
                GridSpec::from_discretized(&replay.disc),
                replay.report.projections.clone(),
            );
            let path = ctx.path("model.json");
            let json = hdoutlier_stream::model_io::to_json(&model).map_err(|e| e.to_string())?;
            std::fs::write(&path, json.pretty() + "\n").map_err(|e| e.to_string())?;
            (model, replay.dataset, path)
        }
        Kind::Stream { records } => {
            let model_file = model_file.expect("fitted in set-up");
            (
                check::load_model(&model_file)?,
                inputs::records(records, ctx.seed),
                model_file,
            )
        }
    };
    let rows_csv = ctx.path("score.csv");
    inputs::write_csv(&rows, &rows_csv)?;
    let stream_args = vec![
        "stream".to_string(),
        "--model".into(),
        model_file.display().to_string(),
    ];
    let log = ctx.path("stream.log");
    let job = jobs::run(ctx.bin, &stream_args, Some(&rows_csv), &log, false)?;
    job.ensure_success("stream", &log)?;
    let stream_wall = job.wall.as_secs_f64();
    let n = rows.n_rows();

    let untraced_started = Instant::now();
    let untraced = score_stage(&mut Tracer::new(false), &model, &rows)?;
    let untraced_s = untraced_started.elapsed().as_secs_f64();
    let traced_started = Instant::now();
    let digest = score_stage(&mut t, &model, &rows)?;
    let traced_s = traced_started.elapsed().as_secs_f64();
    out.attempted += 2;
    if job.digest != digest || job.lines != n as u64 {
        out.fail("replayed score stage differs from the binary's stream output".into());
    }
    if untraced != digest {
        out.fail("score stage differs with spans off".into());
    }
    let per_record = |t: &Tracer, name: &str| t.total(name).as_secs_f64() / n as f64 * 1e6;
    let stage_s: f64 = [
        "stream.score",
        "stream.ndjson",
        "json.render",
        "cli.write_flush",
    ]
    .iter()
    .map(|name| t.total(name).as_secs_f64())
    .sum();
    out.metric(
        "stream.score_us",
        per_record(&t, "stream.score"),
        n,
        "score_record per record",
    );
    out.metric(
        "stream.ndjson_us",
        per_record(&t, "stream.ndjson"),
        n,
        "verdict_json per verdict",
    );
    out.metric(
        "json.render_us",
        per_record(&t, "json.render"),
        n,
        "Json::render per verdict",
    );
    out.metric(
        "cli.write_flush_us",
        per_record(&t, "cli.write_flush"),
        n,
        "one line written and flushed into a drained pipe",
    );
    out.metric(
        "cli.stream.residual_us",
        (stream_wall - stage_s) / n as f64 * 1e6,
        n,
        "stream job wall time minus the replayed layers, per record (parse_row, start)",
    );
    out.metric(
        "trace.overhead_ratio",
        traced_s / untraced_s,
        2,
        "score stage with spans / without",
    );

    let coverage = match ctx.workload.kind {
        Kind::Detect { .. } => (fit_spans / fit_wall, "fit"),
        Kind::Stream { .. } => (stage_s / stream_wall, "score stage"),
    };
    out.metric(
        "replay.coverage",
        coverage.0,
        1,
        format!("replayed {} / the binary's time for it", coverage.1),
    );

    let dir = Path::new(".bench_work").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace = dir.join(format!("{}-seed{}.json", ctx.workload.name, ctx.seed));
    let json = t.chrome_trace().map_err(|e| e.to_string())?;
    std::fs::write(&trace, json.render()).map_err(|e| format!("{}: {e}", trace.display()))?;
    println!("  trace: {} ({} spans)", trace.display(), t.spans().len());
    Ok(out)
}

/// What the fit replay leaves for the later stages and metrics.
struct FitReplay {
    dataset: Dataset,
    /// The CLI's second grid (the one the model is saved from).
    disc: Discretized,
    counter: BitmapCounter,
    report: OutlierReport,
    k: usize,
    /// The search outcome's best projections, for the one-thread check.
    best: Vec<ScoredProjection>,
    /// Brute: `(candidates, scored)`. Evolutionary: filled by the GA run.
    counts: (u64, u64),
    read_alloc_bytes: u64,
    search_allocs: u64,
    search_alloc_bytes: u64,
    /// The GA run's statistics, when the fit itself is evolutionary.
    ga: Option<GaRun>,
}

/// One evolutionary search with the engine's timing gate on.
struct GaRun {
    evaluations: u64,
    generations: usize,
    hits: u64,
    misses: u64,
    /// Seconds in selection, crossover, mutation, evaluate.
    stages: [f64; 4],
}

const GA_STAGES: [&str; 4] = ["selection", "crossover", "mutation", "evaluate"];

fn ga_config(fit: &Fit, threads: usize) -> EvolutionaryConfig {
    // The detector's settings: the builder defaults, plus the two values
    // `OutlierDetector::run_evolutionary` fixes.
    let d = DetectorConfig::default();
    EvolutionaryConfig {
        m: fit.m,
        population: d.population,
        crossover: d.crossover,
        p1: d.mutation_rate,
        p2: d.mutation_rate,
        selection: d.selection,
        convergence_threshold: 0.95,
        max_generations: d.max_generations,
        require_nonempty: d.require_nonempty,
        track_internal_candidates: true,
        seed: fit.ga_seed,
        threads,
    }
}

/// Runs the GA over `counter` with the timing gate on; returns the counter,
/// the outcome's best projections and the run's statistics.
fn run_ga(
    t: &mut Tracer,
    span: &'static str,
    counter: BitmapCounter,
    fit: &Fit,
    threads: usize,
) -> (BitmapCounter, Vec<ScoredProjection>, GaRun) {
    let cached = CachedCounter::new(counter);
    let fitness = SparsityFitness::new(&cached, fit.k);
    let sums = || {
        GA_STAGES.map(|s| {
            obs::registry()
                .histogram(&format!("hdoutlier.evolve.{s}_us"))
                .snapshot()
                .sum
        })
    };
    let before = sums();
    obs::set_timing(true);
    let outcome = t.span(span, 0, |_| {
        evolutionary_search(&fitness, &ga_config(fit, threads))
    });
    obs::set_timing(false);
    let after = sums();
    let (hits, misses) = cached.stats();
    let run = GaRun {
        evaluations: outcome.evaluations,
        generations: outcome.generations,
        hits,
        misses,
        stages: std::array::from_fn(|i| (after[i] - before[i]) / 1e6),
    };
    drop(fitness);
    (cached.into_inner(), outcome.best, run)
}

fn alloc_delta<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = obs::alloc_stats();
    let out = f();
    let after = obs::alloc_stats();
    (
        out,
        after.allocations - before.allocations,
        after.bytes_total - before.bytes_total,
    )
}

/// The detect job's layers, in the binary's order, inside a `detect` span.
fn replay_fit(t: &mut Tracer, csv: &Path, fit: &Fit, threads: usize) -> Result<FitReplay, String> {
    t.span("detect", 0, |t| {
        let (dataset, _, read_alloc_bytes) = t.span("data.csv.read", 0, |_| {
            alloc_delta(|| hdoutlier_data::csv::read_path(csv, &CsvOptions::default()))
        });
        let dataset = dataset.map_err(|e| format!("cannot read {}: {e}", csv.display()))?;
        let discretize = |t: &mut Tracer| {
            t.span("data.discretize", 0, |_| {
                Discretized::new(&dataset, fit.phi, DiscretizeStrategy::EquiDepth)
            })
            .map_err(|e| e.to_string())
        };
        let disc = discretize(t)?;
        let counter = t.span("index.build", 0, |_| BitmapCounter::new(&disc));
        let start = Instant::now();
        let (counter, best, counts, search_allocs, search_alloc_bytes, ga) = match fit.search {
            Search::Brute => {
                let config = BruteForceConfig {
                    m: fit.m,
                    require_nonempty: true,
                    max_candidates: None,
                };
                let (outcome, allocs, bytes) = t.span("core.search", 0, |_| {
                    alloc_delta(|| {
                        brute_force_search_incremental_parallel(&counter, fit.k, &config, threads)
                    })
                });
                let counts = (outcome.candidates, outcome.scored);
                (counter, outcome.best, counts, allocs, bytes, None)
            }
            Search::Evolutionary => {
                let before = obs::alloc_stats();
                let (counter, best, run) = run_ga(t, "core.search", counter, fit, threads);
                let after = obs::alloc_stats();
                let counts = (run.evaluations, run.misses);
                let allocs = after.allocations - before.allocations;
                let bytes = after.bytes_total - before.bytes_total;
                (counter, best, counts, allocs, bytes, Some(run))
            }
        };
        let stats = SearchStats {
            work: counts.0,
            generations: ga.as_ref().map_or(0, |g| g.generations),
            completed: true,
            elapsed: start.elapsed(),
        };
        let report = t.span("core.report", 0, |_| {
            OutlierReport::from_scored(best.clone(), &SparsityFitness::new(&counter, fit.k), stats)
        });
        let disc = discretize(t)?;
        Ok(FitReplay {
            dataset,
            disc,
            counter,
            report,
            k: fit.k,
            best,
            counts,
            read_alloc_bytes,
            search_allocs,
            search_alloc_bytes,
            ga,
        })
    })
}

fn same_projections(a: &[ScoredProjection], b: &[ScoredProjection]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.projection == y.projection && x.sparsity == y.sparsity)
}

/// The fit's metrics, plus the one-thread search and the GA probe.
fn fit_metrics(t: &mut Tracer, out: &mut Outcome, replay: &FitReplay, fit: &Fit, threads: usize) {
    let secs = |t: &Tracer, name: &str| t.total(name).as_secs_f64();
    out.metric(
        "data.csv.read_s",
        secs(t, "data.csv.read"),
        1,
        "csv::read_path",
    );
    out.metric(
        "data.csv.alloc_mb",
        replay.read_alloc_bytes as f64 / MIB,
        1,
        "bytes allocated by csv::read_path",
    );
    out.metric(
        "data.discretize_s",
        secs(t, "data.discretize"),
        2,
        "both Discretized::new calls of a detect job",
    );
    out.metric(
        "index.build_s",
        secs(t, "index.build"),
        1,
        "BitmapCounter::new",
    );
    out.metric(
        "index.memory_mb",
        replay.counter.index().memory_bytes() as f64 / MIB,
        1,
        "GridIndex::memory_bytes",
    );
    out.metric(
        "core.report_s",
        secs(t, "core.report"),
        1,
        "OutlierReport::from_scored",
    );

    // The same search at one thread: the serial baseline, and a check that
    // the thread count does not change the answer.
    let counter = BitmapCounter::new(&replay.disc);
    let (one_thread, counter) = match fit.search {
        Search::Brute => {
            let config = BruteForceConfig {
                m: fit.m,
                require_nonempty: true,
                max_candidates: None,
            };
            let outcome = t.span("probe.search_1t", 0, |_| {
                brute_force_search_incremental_parallel(&counter, replay.k, &config, 1)
            });
            (outcome.best, counter)
        }
        Search::Evolutionary => {
            let (counter, best, _) = run_ga(t, "probe.search_1t", counter, fit, 1);
            (best, counter)
        }
    };
    out.attempted += 1;
    if !same_projections(&one_thread, &replay.best) {
        out.fail(format!("search at 1 thread differs from {threads} threads"));
    }
    let search_s = secs(t, "core.search");
    let search_1t_s = secs(t, "probe.search_1t");
    let (candidates, scored) = replay.counts;
    out.metric(
        "core.search_s",
        search_s,
        1,
        format!("at {threads} threads"),
    );
    out.metric("core.search_1t_s", search_1t_s, 1, "at 1 thread");
    out.metric(
        "core.search.speedup",
        search_1t_s / search_s,
        2,
        format!("1-thread time / {threads}-thread time"),
    );
    let what = match fit.search {
        Search::Brute => ("complete cubes accounted for", "cubes scored"),
        Search::Evolutionary => ("fitness evaluations", "cube counts computed (cache misses)"),
    };
    out.metric("core.search.candidates", candidates as f64, 1, what.0);
    out.metric("core.search.scored", scored as f64, 1, what.1);
    out.metric(
        "core.search.ns_per_candidate",
        search_1t_s * 1e9 / candidates.max(1) as f64,
        1,
        "1-thread search time / candidates",
    );
    out.metric(
        "core.search.allocs",
        replay.search_allocs as f64,
        1,
        format!("allocations inside the search at {threads} threads"),
    );
    out.metric(
        "core.search.alloc_mb",
        replay.search_alloc_bytes as f64 / MIB,
        1,
        "bytes allocated inside the search",
    );

    // GA statistics: the fit's own GA, or a probe with the same phi and k.
    let probe;
    let (ga, source) = match &replay.ga {
        Some(run) => (run, "the detect job's GA"),
        None => {
            let fit = Fit {
                search: Search::Evolutionary,
                ga_seed: 7,
                ..*fit
            };
            probe = run_ga(t, "probe.evolve", counter, &fit, threads).2;
            (&probe, "a GA probe on the fit's grid")
        }
    };
    let lookups = ga.hits + ga.misses;
    out.metric(
        "index.cache_hit_ratio",
        ga.hits as f64 / lookups.max(1) as f64,
        lookups as usize,
        format!("CachedCounter hits / lookups in {source}"),
    );
    out.metric("index.cache_lookups", lookups as f64, 1, source);
    out.metric("core.evolve.evaluations", ga.evaluations as f64, 1, source);
    out.metric("core.evolve.generations", ga.generations as f64, 1, source);
    for (name, seconds) in [
        "evolve.selection_s",
        "evolve.crossover_s",
        "evolve.mutation_s",
        "evolve.evaluate_s",
    ]
    .into_iter()
    .zip(ga.stages)
    {
        out.metric(
            name,
            seconds,
            ga.generations,
            "hdoutlier.evolve histograms, timing gate on",
        );
    }
}

/// Scores every record, renders its verdict line and writes it, flushed,
/// into a pipe a reader thread drains — the stream command's loop, one
/// layer per span over chunks of `CHUNK` records. Returns the digest of
/// what came out of the pipe.
fn score_stage(t: &mut Tracer, model: &FittedModel, rows: &Dataset) -> Result<Digest, String> {
    let mut scorer = OnlineScorer::new(model.clone()).map_err(|e| e.to_string())?;
    let (mut reader, writer) = std::io::pipe().map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let drain = s.spawn(move || {
            let mut digest = Digest::default();
            let mut buf = vec![0u8; 64 * 1024];
            loop {
                match reader.read(&mut buf) {
                    Ok(0) | Err(_) => return digest,
                    Ok(n) => digest.update(&buf[..n]),
                }
            }
        });
        // Stdout is line-buffered; so is this writer.
        let mut sink = LineWriter::new(writer);
        let all: Vec<&[f64]> = rows.rows().collect();
        for (op, chunk) in all.chunks(CHUNK).enumerate() {
            let op = op as u64;
            let verdicts = t.span("stream.score", op, |_| {
                chunk
                    .iter()
                    .map(|row| scorer.score_record(row))
                    .collect::<Result<Vec<_>, _>>()
            });
            let verdicts = verdicts.map_err(|e| e.to_string())?;
            let json = t.span("stream.ndjson", op, |_| {
                verdicts
                    .iter()
                    .map(|v| verdict_json(v, &scorer))
                    .collect::<Result<Vec<_>, _>>()
            });
            let json = json.map_err(|e| e.to_string())?;
            let lines: Vec<String> = t.span("json.render", op, |_| {
                json.iter().map(Json::render).collect()
            });
            t.span("cli.write_flush", op, |_| {
                lines
                    .iter()
                    .try_for_each(|line| writeln!(sink, "{line}").and_then(|()| sink.flush()))
            })
            .map_err(|e| e.to_string())?;
        }
        drop(sink);
        Ok(drain.join().expect("pipe reader panicked"))
    })
}
