//! `benchmark` — end-to-end and per-layer measurements of the shipped
//! `hdoutlier` binary on seeded workloads. `BENCHMARK.md` beside this
//! package describes the workloads, the metrics and how to run it.
//!
//! ```text
//! benchmark --hdoutlier <path> [--workload <name>|all] [--seed <n>]
//!           [--seconds <s>] [--trace 0|1 | --traced] [--out <results.json>]
//! ```
//!
//! The untraced run (`--trace 0`, the default) reports the end-to-end
//! metrics; the traced run (`--trace 1`) replays each workload in-process
//! and reports the per-layer metrics. Every metric is printed with its
//! unit and sample count; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every output check passed.
//!
//! `benchmark --print-manifest` prints the `BENCHMARK.json` the tables in
//! `spec.rs` define; a run refuses to start when the file differs.

mod check;
mod e2e;
mod inputs;
mod jobs;
mod setup;
mod spans;
mod spec;
mod stats;
mod sys;
mod traced;

use hdoutlier_json::{FieldChain, Json, JsonError};
use spec::Workload;
use std::path::{Path, PathBuf};

// The binary's allocator, so the traced replay can count allocations the
// way the shipped binary sees them.
#[global_allocator]
static ALLOC: hdoutlier_obs::CountingAllocator = hdoutlier_obs::CountingAllocator;

const USAGE: &str = "usage: benchmark --hdoutlier <path> [--workload <name>|all] [--seed <n>] \
                     [--seconds <s>] [--trace 0|1 | --traced] [--out <results.json>]\n       \
                     benchmark --print-manifest";

/// What a workload run needs to know.
pub struct Ctx<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    /// How long the timed part of a run lasts.
    pub seconds: f64,
    /// The `hdoutlier` binary under test.
    pub bin: &'a Path,
    /// A scratch directory of this run, removed when it ends.
    pub work: &'a Path,
}

impl Ctx<'_> {
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// One measured value, before the unit is attached from the tables.
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

/// What a run attempted, what failed, and what it measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Measured>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.metrics.push(Measured {
            name,
            value,
            samples,
            note: note.into(),
        });
    }

    /// Counts one failed operation or output check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    bin: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: spec::WORKLOADS.iter().collect(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        out: None,
        bin: PathBuf::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            args.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                args.workloads =
                    vec![spec::workload(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| number("an integer"))?,
            "--seconds" => {
                args.seconds = match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 60.0 => s,
                    _ => return Err(number("a number of seconds in (0, 60]")),
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--hdoutlier" => args.bin = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !args.bin.is_file() {
        return Err(format!(
            "--hdoutlier must name the built binary, got {:?}",
            args.bin
        ));
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(jobs::LAUNCH) {
        std::process::exit(jobs::launch(&argv[1..]));
    }
    if argv == ["--print-manifest"] {
        println!("{}", spec::manifest().pretty());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The published manifest must describe what this build measures.
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let errors = match Json::parse(&text) {
            Ok(manifest) => spec::validate(&manifest),
            Err(e) => vec![e.to_string()],
        };
        if !errors.is_empty() {
            eprintln!("benchmark: BENCHMARK.json: {}", errors.join("; "));
            std::process::exit(2);
        }
    }
    let mut results = Vec::new();
    for &workload in &args.workloads {
        println!(
            "== {} (seed {}, {} s, {})",
            workload.name,
            args.seed,
            args.seconds,
            if args.traced { "traced" } else { "untraced" }
        );
        match run_workload(workload, &args) {
            Ok(json) => results.push((workload.name, json)),
            Err(e) => {
                eprintln!("benchmark: {}: {e}", workload.name);
                std::process::exit(1);
            }
        }
    }
    let summary = match combine(&results) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.out {
        let doc = Json::Object(
            results
                .iter()
                .map(|(name, json)| (name.to_string(), json.clone()))
                .collect(),
        );
        if let Err(e) = std::fs::write(path, doc.pretty() + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let correct = summary.get("correct") == Some(&Json::Bool(true));
    println!("{}", summary.render());
    std::process::exit(if correct { 0 } else { 1 });
}

/// Runs one workload in its own scratch directory and renders its result.
fn run_workload(workload: &'static Workload, args: &Args) -> Result<Json, String> {
    let dir = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-seed{}-{}",
        workload.name,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        bin: &args.bin,
        work: &dir.0,
    };
    let outcome = if args.traced {
        traced::run(&ctx)?
    } else {
        e2e::run(&ctx)?
    };
    report(&outcome, args.traced)
}

/// Prints a run's metrics and problems, and renders its result object.
/// Every metric of the run's table must have been measured, once.
fn report(outcome: &Outcome, traced: bool) -> Result<Json, String> {
    let table: Vec<(&str, &str)> = if traced {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Json::object();
    for (name, unit) in table {
        let found: Vec<&Measured> = outcome.metrics.iter().filter(|m| m.name == name).collect();
        let [m] = found.as_slice() else {
            return Err(format!("metric {name} measured {} times", found.len()));
        };
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite ({})", m.value));
        }
        println!(
            "  {name:<30} {:>14.6} {unit:<10} n={:<7} {}",
            m.value, m.samples, m.note
        );
        metrics = metrics
            .field(
                name,
                Json::object()
                    .field("value", m.value)
                    .field("unit", unit)
                    .map_err(err)?,
            )
            .map_err(err)?;
    }
    for p in &outcome.problems {
        println!("  FAILED: {p}");
    }
    let correct = outcome.failed == 0;
    Json::object()
        .field("correct", correct)
        .field("attempted", outcome.attempted.max(1))
        .field("failed", outcome.failed)
        .field("metrics", metrics)
        .map_err(err)
}

/// The final line: the one workload's result, or for several workloads
/// their totals with metrics keyed `<workload>.<metric>`.
fn combine(results: &[(&str, Json)]) -> Result<Json, String> {
    if let [(_, only)] = results {
        return Ok(only.clone());
    }
    let number = |j: &Json, key: &str| j.get(key).and_then(Json::as_number).unwrap_or(0.0);
    let mut metrics = Vec::new();
    for (name, json) in results {
        if let Some(Json::Object(fields)) = json.get("metrics") {
            metrics.extend(
                fields
                    .iter()
                    .map(|(k, v)| (format!("{name}.{k}"), v.clone())),
            );
        }
    }
    Json::object()
        .field(
            "correct",
            results
                .iter()
                .all(|(_, j)| j.get("correct") == Some(&Json::Bool(true))),
        )
        .field(
            "attempted",
            results
                .iter()
                .map(|(_, j)| number(j, "attempted"))
                .sum::<f64>(),
        )
        .field(
            "failed",
            results
                .iter()
                .map(|(_, j)| number(j, "failed"))
                .sum::<f64>(),
        )
        .field("metrics", Json::Object(metrics))
        .map_err(err)
}

fn err(e: JsonError) -> String {
    e.to_string()
}
