//! `hdoutlier detect` — run the subspace detector on a CSV file.

use super::{load_dataset, parse_or_usage, usage_err};
use crate::exit;
use crate::obs_setup::{self, ObsSession};
use hdoutlier_core::crossover::CrossoverKind;
use hdoutlier_core::detector::{OutlierDetector, SearchMethod};
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_json::{FieldChain, Json, JsonError};

/// Per-command help.
pub const HELP: &str = "\
hdoutlier detect — find outliers via sparse-projection search

USAGE:
    hdoutlier detect [OPTIONS] <input.csv>

OPTIONS:
    --phi <n>            grid ranges per dimension (default: auto, paper §2.4)
    --k <n>              projection dimensionality (default: auto, Eq. 2)
    --m <n>              projections to report (default 20)
    --threshold <s>      keep only projections with sparsity <= s
    --search <method>    brute | evolutionary (default evolutionary)
    --crossover <kind>   optimized | two-point (default optimized)
    --grid <strategy>    equi-depth | equi-width (default equi-depth)
    --seed <n>           RNG seed for the evolutionary search (default 0)
    --generations <n>    GA generation cap (default 500); the search stops
                         sooner once the best m are provably optimal
    --population <n>     GA population size (default 100)
    --threads <n>        worker threads for the brute-force search (default:
                         available cores; the report is identical at any
                         thread count; the evolutionary search runs on one)
    --save-model <path>  persist the fitted grid + projections as JSON
    --label-column <c>   strip column <c> (name, or index with --no-header)
    --delimiter <c>      field separator (default ',')
    --no-header          first row is data, not column names
    --json               emit a JSON report instead of text
    --quiet              print only the outlier row indices
    --log-level <l>      emit pipeline events on stderr (error|warn|info|debug|trace)
    --log-json           render events as NDJSON instead of human-readable text
    --metrics-out <p>    enable timing metrics and write an NDJSON snapshot to <p>
    --trace-out <p>      profile spans, write Chrome trace-event JSON to <p>
    --profile-out <p>    sample span stacks, write folded flamegraph stacks to <p>
    --profile-hz <n>     sampling rate for --profile-out (default 99)
    --serve-metrics <a>  serve /metrics, /healthz, /snapshot over HTTP on <a>
                         while detection runs (e.g. 127.0.0.1:9184)
";

/// Runs the subcommand against stdout.
pub fn run(argv: &[String]) -> (i32, String) {
    let stdout = std::io::stdout();
    run_to(argv, &mut stdout.lock())
}

/// Runs the subcommand, collecting the report and any error text into one
/// string (the test entry point).
pub fn run_captured(argv: &[String]) -> (i32, String) {
    let mut sink = Vec::new();
    let (code, err) = run_to(argv, &mut sink);
    let mut out = String::from_utf8(sink).expect("reports are valid UTF-8");
    out.push_str(&err);
    (code, out)
}

/// The command core: the report goes to `sink` (a consumer closing the pipe
/// early — `| head` — is a normal shutdown); the returned string carries
/// only help or error text.
pub fn run_to(argv: &[String], sink: &mut impl std::io::Write) -> (i32, String) {
    let spec = obs_setup::spec_with(
        &[
            "phi",
            "k",
            "m",
            "threshold",
            "search",
            "crossover",
            "grid",
            "seed",
            "generations",
            "population",
            "threads",
            "label-column",
            "delimiter",
            "save-model",
            "serve-metrics",
        ],
        &["json", "quiet", "no-header"],
    );
    let parsed = match parse_or_usage(&spec, argv, HELP) {
        Ok(p) => p,
        Err(out) => return out,
    };
    let mut session = match ObsSession::init(&parsed) {
        Ok(s) => s,
        Err(e) => return (exit::USAGE, format!("{e}\n\n{HELP}")),
    };

    macro_rules! flag {
        ($($call:tt)*) => {
            match parsed.$($call)* {
                Ok(v) => v,
                Err(e) => return usage_err(e, HELP),
            }
        };
    }
    let phi: Option<u32> = flag!(opt("phi", "integer"));
    let k: Option<usize> = flag!(opt("k", "integer"));
    let m: usize = flag!(or("m", "integer", 20));
    let threshold: Option<f64> = flag!(opt("threshold", "number"));
    let seed: u64 = flag!(or("seed", "integer", 0));
    let generations: usize = flag!(or("generations", "integer", 500));
    let population: usize = flag!(or("population", "integer", 100));
    let threads: usize = flag!(or("threads", "integer", hdoutlier_pool::default_threads()));
    if threads == 0 {
        return (exit::USAGE, format!("--threads must be >= 1\n\n{HELP}"));
    }

    let search = match parsed.get("search").unwrap_or("evolutionary") {
        "brute" | "brute-force" => SearchMethod::BruteForce,
        "evolutionary" | "evolve" | "ga" => SearchMethod::Evolutionary,
        other => {
            return (
                exit::USAGE,
                format!("--search must be brute|evolutionary, got {other:?}\n\n{HELP}"),
            )
        }
    };
    let crossover = match parsed.get("crossover").unwrap_or("optimized") {
        "optimized" => CrossoverKind::Optimized,
        "two-point" | "twopoint" => CrossoverKind::TwoPoint,
        other => {
            return (
                exit::USAGE,
                format!("--crossover must be optimized|two-point, got {other:?}\n\n{HELP}"),
            )
        }
    };
    let strategy = match parsed.get("grid").unwrap_or("equi-depth") {
        "equi-depth" | "equidepth" => DiscretizeStrategy::EquiDepth,
        "equi-width" | "equiwidth" => DiscretizeStrategy::EquiWidth,
        other => {
            return (
                exit::USAGE,
                format!("--grid must be equi-depth|equi-width, got {other:?}\n\n{HELP}"),
            )
        }
    };

    let dataset = match load_dataset(&parsed, HELP) {
        Ok(d) => d,
        Err(out) => return out,
    };

    let mut builder = OutlierDetector::builder()
        .m(m)
        .seed(seed)
        .search(search)
        .crossover(crossover)
        .strategy(strategy)
        .max_generations(generations)
        .population(population)
        .threads(threads);
    if let Some(phi) = phi {
        builder = builder.phi(phi);
    }
    if let Some(k) = k {
        builder = builder.k(k);
    }
    if let Some(t) = threshold {
        builder = builder.sparsity_threshold(t);
    }
    let detector = builder.build();

    // The one grid of the job: searched, then kept for the explanations
    // and the saved model. Nothing reads the raw values after it is built.
    let disc = match detector.discretize(&dataset) {
        Ok(d) => d,
        Err(e) => return (exit::RUNTIME, format!("detection failed: {e}")),
    };
    drop(dataset);
    let report = match detector.detect_discretized(&disc) {
        Ok(r) => r,
        Err(e) => return (exit::RUNTIME, format!("detection failed: {e}")),
    };

    if let Some(path) = parsed.get("save-model") {
        let model = hdoutlier_core::FittedModel::new(
            hdoutlier_data::GridSpec::from_discretized(&disc),
            report.projections.clone(),
        );
        let json = match hdoutlier_stream::model_io::to_json(&model) {
            Ok(json) => json,
            Err(e) => return (exit::RUNTIME, format!("failed to serialize model: {e}")),
        };
        if let Err(e) = std::fs::write(path, json.pretty() + "\n") {
            return (exit::RUNTIME, format!("failed to write model {path}: {e}"));
        }
    }

    let rendered = if parsed.has("quiet") {
        let rows: Vec<String> = report.outlier_rows.iter().map(usize::to_string).collect();
        rows.join("\n") + "\n"
    } else if parsed.has("json") {
        match render_json(&report, &disc, session.wants_metrics()) {
            Ok(json) => json.pretty() + "\n",
            Err(e) => return (exit::RUNTIME, format!("failed to render report: {e}")),
        }
    } else {
        render_text(&report, &disc)
    };
    if let Err(e) = super::emit_report(sink, &rendered) {
        return (exit::RUNTIME, e);
    }
    match session.finish() {
        Ok(()) => (exit::OK, String::new()),
        Err(e) => (exit::RUNTIME, e),
    }
}

fn render_text(report: &hdoutlier_core::OutlierReport, disc: &Discretized) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} sparse projection(s); {} outlier row(s); search: {} units of work in {}\n\n",
        report.projections.len(),
        report.outlier_rows.len(),
        report.stats.work,
        obs_setup::fmt_elapsed(report.stats.elapsed),
    ));
    for i in 0..report.projections.len() {
        out.push_str(&format!("{:>3}. {}\n", i + 1, report.explain(i, disc)));
        let rows = &report.rows_by_projection[i];
        out.push_str(&format!("     rows: {rows:?}\n"));
    }
    out.push_str(&format!("\noutliers: {:?}\n", report.outlier_rows));
    out
}

fn render_json(
    report: &hdoutlier_core::OutlierReport,
    disc: &Discretized,
    with_metrics: bool,
) -> Result<Json, JsonError> {
    let projections: Vec<Json> = report
        .projections
        .iter()
        .zip(&report.rows_by_projection)
        .enumerate()
        .map(|(i, (s, rows))| {
            Json::object()
                .field("projection", s.projection.to_string())
                .field("sparsity", s.sparsity)
                .field("significance", s.significance())
                .field("count", s.count)
                .field("explanation", report.explain(i, disc))
                .field("rows", rows.clone())
        })
        .collect::<Result<_, _>>()?;
    let mut json = Json::object()
        .field("projections", Json::Array(projections))
        .field("outlier_rows", report.outlier_rows.clone())
        .field(
            "stats",
            Json::object()
                .field("work", report.stats.work)
                .field("generations", report.stats.generations)
                .field("completed", report.stats.completed)
                .field("elapsed_ms", obs_setup::elapsed_ms(report.stats.elapsed))?,
        );
    if with_metrics {
        json = json.field("metrics", obs_setup::metrics_json());
    }
    json
}

#[cfg(test)]
mod tests {
    use super::super::test_support::planted_csv;
    use crate::exit;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn detect_finds_planted_outliers_in_csv() {
        let (path, planted_rows) = planted_csv("detect-basic");
        let (code, out) = super::run_captured(&argv(&[
            "--phi",
            "4",
            "--k",
            "2",
            "--m",
            "6",
            "--search",
            "brute",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("sparse projection"));
        let hit = planted_rows.iter().any(|r| out.contains(&format!("{r}")));
        assert!(hit, "no planted row mentioned in:\n{out}");
    }

    #[test]
    fn quiet_mode_prints_only_indices() {
        let (path, _) = planted_csv("detect-quiet");
        let (code, out) = super::run_captured(&argv(&[
            "--phi",
            "4",
            "--k",
            "2",
            "--m",
            "4",
            "--search",
            "brute",
            "--quiet",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK);
        for line in out.lines() {
            assert!(line.parse::<usize>().is_ok(), "non-index line {line:?}");
        }
    }

    #[test]
    fn json_mode_emits_wellformed_structure() {
        let (path, _) = planted_csv("detect-json");
        let (code, out) = super::run_captured(&argv(&[
            "--phi=4",
            "--k=2",
            "--m=3",
            "--search=brute",
            "--json",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("\"projections\""));
        assert!(out.contains("\"outlier_rows\""));
        assert!(out.contains("\"sparsity\""));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn usage_errors() {
        let (code, out) = super::run_captured(&argv(&["--bogus", "x.csv"]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("unknown option"));
        let (code, _) = super::run_captured(&argv(&["--help"]));
        assert_eq!(code, exit::OK);
        let (code, out) = super::run_captured(&argv(&["--search", "magic", "x.csv"]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--search"));
        let (code, out) = super::run_captured(&argv(&[]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("missing input"));
    }

    #[test]
    fn runtime_error_on_missing_file() {
        let (code, out) = super::run_captured(&argv(&["/nonexistent/nope.csv"]));
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("failed to read"));
    }

    #[test]
    fn threshold_filters() {
        let (path, _) = planted_csv("detect-threshold");
        let (code, out) = super::run_captured(&argv(&[
            "--phi=4",
            "--k=2",
            "--m=20",
            "--search=brute",
            "--threshold=-1000",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("0 sparse projection(s)"), "{out}");
    }
}
