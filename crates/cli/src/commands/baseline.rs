//! `hdoutlier baseline` — the distance-based comparators, for side-by-side
//! evaluation against the subspace detector.

use super::{load_dataset, parse_or_usage, usage_err};
use crate::exit;
use crate::obs_setup::{self, ObsSession};
use hdoutlier_baselines::{
    knorr_ng_outliers, lof::lof_top_n_threaded, ramaswamy_top_n_threaded, suggest_lambda, Metric,
};
use hdoutlier_data::clean::impute_mean;
use hdoutlier_json::{FieldChain, Json};

/// Per-command help.
pub const HELP: &str = "\
hdoutlier baseline — distance-based comparators

USAGE:
    hdoutlier baseline --method <m> [OPTIONS] <input.csv>

OPTIONS:
    --method <m>         knn | lof | knorr-ng | intensional (required)
    --k <n>              neighbors (knn: k-th NN, lof: MinPts,
                         knorr-ng/intensional: neighbor budget; default 1/10/5/2)
    --depth <n>          lattice depth (intensional; default 2)
    --top <n>            outliers to report (knn/lof; default 10)
    --lambda <d>         distance threshold (knorr-ng; default: 5th-percentile
                         pairwise distance)
    --metric <name>      euclidean | manhattan | chebyshev (default euclidean)
    --threads <n>        worker threads for the kNN/LOF scans (default:
                         available cores; identical ranking at any count)
    --impute             mean-impute missing values first
    --label-column <c>   strip column <c> before computing distances
    --delimiter <c>      field separator (default ',')
    --no-header          first row is data
    --json               emit JSON
    --log-level <l>      emit pipeline events on stderr (error|warn|info|debug|trace)
    --log-json           render events as NDJSON instead of human-readable text
    --metrics-out <p>    enable timing metrics and write an NDJSON snapshot to <p>
    --trace-out <p>      profile spans, write Chrome trace-event JSON to <p>
    --profile-out <p>    sample span stacks, write folded flamegraph stacks to <p>
    --profile-hz <n>     sampling rate for --profile-out (default 99)
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
            "method",
            "k",
            "top",
            "lambda",
            "depth",
            "metric",
            "threads",
            "label-column",
            "delimiter",
        ],
        &["json", "impute", "no-header"],
    );
    let parsed = match parse_or_usage(&spec, argv, HELP) {
        Ok(p) => p,
        Err(out) => return out,
    };
    let mut session = match ObsSession::init(&parsed) {
        Ok(s) => s,
        Err(e) => return (exit::USAGE, format!("{e}\n\n{HELP}")),
    };
    let Some(method) = parsed.get("method") else {
        return (exit::USAGE, format!("--method is required\n\n{HELP}"));
    };
    let method = method.to_string();
    let metric = match parsed.get("metric").unwrap_or("euclidean") {
        "euclidean" => Metric::Euclidean,
        "manhattan" => Metric::Manhattan,
        "chebyshev" => Metric::Chebyshev,
        other => {
            return (
                exit::USAGE,
                format!("--metric must be euclidean|manhattan|chebyshev, got {other:?}\n\n{HELP}"),
            )
        }
    };
    let top: usize = match parsed.or("top", "integer", 10) {
        Ok(t) => t,
        Err(e) => return usage_err(e, HELP),
    };
    let threads: usize = match parsed.or("threads", "integer", hdoutlier_pool::default_threads()) {
        Ok(t) if t >= 1 => t,
        Ok(_) => return (exit::USAGE, format!("--threads must be >= 1\n\n{HELP}")),
        Err(e) => return usage_err(e, HELP),
    };

    let mut dataset = match load_dataset(&parsed, HELP) {
        Ok(d) => d,
        Err(out) => return out,
    };
    if parsed.has("impute") {
        dataset = impute_mean(&dataset);
    }

    let rank_span =
        hdoutlier_obs::span(hdoutlier_obs::Level::Info, "hdoutlier.cli", "baseline_rank");
    let ranked: Result<Vec<(usize, f64)>, String> = match method.as_str() {
        "knn" => {
            let k: usize = match parsed.or("k", "integer", 1) {
                Ok(k) => k,
                Err(e) => return usage_err(e, HELP),
            };
            ramaswamy_top_n_threaded(&dataset, k, top, metric, threads)
                .map(|v| v.into_iter().map(|o| (o.row, o.score)).collect())
                .map_err(|e| e.to_string())
        }
        "lof" => {
            let k: usize = match parsed.or("k", "integer", 10) {
                Ok(k) => k,
                Err(e) => return usage_err(e, HELP),
            };
            lof_top_n_threaded(&dataset, k, top, metric, threads).map_err(|e| e.to_string())
        }
        "knorr-ng" | "knorrng" => {
            let k: usize = match parsed.or("k", "integer", 5) {
                Ok(k) => k,
                Err(e) => return usage_err(e, HELP),
            };
            let lambda = match parsed.opt::<f64>("lambda", "number") {
                Err(e) => return usage_err(e, HELP),
                Ok(Some(l)) => Ok(l),
                Ok(None) => suggest_lambda(&dataset, 0.05, metric).map_err(|e| e.to_string()),
            };
            lambda.and_then(|l| {
                knorr_ng_outliers(&dataset, k, l, metric)
                    .map(|rows| rows.into_iter().map(|r| (r, l)).collect())
                    .map_err(|e| e.to_string())
            })
        }
        "intensional" => {
            let k: usize = match parsed.or("k", "integer", 2) {
                Ok(k) => k,
                Err(e) => return usage_err(e, HELP),
            };
            let depth: usize = match parsed.or("depth", "integer", 2) {
                Ok(d) => d,
                Err(e) => return usage_err(e, HELP),
            };
            hdoutlier_baselines::intensional_outliers(
                &dataset,
                &hdoutlier_baselines::IntensionalConfig {
                    k,
                    max_depth: depth,
                    metric,
                    ..Default::default()
                },
            )
            .map(|result| {
                result
                    .outliers
                    .into_iter()
                    .map(|o| (o.row, o.subspace.len() as f64))
                    .collect()
            })
            .map_err(|e| e.to_string())
        }
        other => {
            return (
                exit::USAGE,
                format!("--method must be knn|lof|knorr-ng|intensional, got {other:?}\n\n{HELP}"),
            )
        }
    };

    drop(rank_span);
    let ranked = match ranked {
        Ok(r) => r,
        Err(e) => return (exit::RUNTIME, format!("baseline failed: {e}")),
    };

    let rendered = if parsed.has("json") {
        let j = ranked
            .iter()
            .map(|&(row, score)| Json::object().field("row", row).field("score", score))
            .collect::<Result<Vec<Json>, _>>()
            .and_then(|items| {
                Json::object()
                    .field("method", method)
                    .field("outliers", Json::Array(items))
            });
        match j {
            Ok(j) => j.pretty() + "\n",
            Err(e) => return (exit::RUNTIME, format!("failed to render ranking: {e}")),
        }
    } else {
        let mut out = format!("{method}: {} outlier(s)\n", ranked.len());
        for (row, score) in &ranked {
            out.push_str(&format!("  row {row:>6}  score {score:.4}\n"));
        }
        out
    };
    if let Err(e) = super::emit_report(sink, &rendered) {
        return (exit::RUNTIME, e);
    }
    match session.finish() {
        Ok(()) => (exit::OK, String::new()),
        Err(e) => (exit::RUNTIME, e),
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::planted_csv;
    use crate::exit;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn knn_baseline_runs() {
        let (path, _) = planted_csv("baseline-knn");
        let (code, out) = super::run_captured(&argv(&[
            "--method",
            "knn",
            "--top",
            "5",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        assert_eq!(out.lines().count(), 6); // header + 5 rows
    }

    #[test]
    fn lof_and_knorr_ng_run() {
        let (path, _) = planted_csv("baseline-lof");
        let (code, out) = super::run_captured(&argv(&[
            "--method=lof",
            "--k=5",
            "--top=3",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        let (code, out) = super::run_captured(&argv(&[
            "--method=knorr-ng",
            "--k=2",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
    }

    #[test]
    fn intensional_method_runs() {
        let (path, _) = planted_csv("baseline-intensional");
        let (code, out) = super::run_captured(&argv(&[
            "--method=intensional",
            "--k=2",
            "--depth=2",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.starts_with("intensional:"), "{out}");
    }

    #[test]
    fn json_output_and_metric_choice() {
        let (path, _) = planted_csv("baseline-json");
        let (code, out) = super::run_captured(&argv(&[
            "--method=knn",
            "--metric=manhattan",
            "--json",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("\"method\": \"knn\""));
        assert!(out.contains("\"row\""));
    }

    #[test]
    fn usage_errors() {
        let (code, out) = super::run_captured(&argv(&["x.csv"]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--method is required"));
        let (path, _) = planted_csv("baseline-err");
        let (code, out) = super::run_captured(&argv(&["--method=magic", path.to_str().unwrap()]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("knn|lof|knorr-ng|intensional"));
        let (code, out) = super::run_captured(&argv(&[
            "--method=knn",
            "--metric=cosine",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("euclidean"));
    }

    #[test]
    fn missing_values_without_impute_is_a_runtime_error() {
        // Write a CSV with an explicit NaN cell.
        let dir = std::env::temp_dir().join("hdoutlier-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline-missing.csv");
        std::fs::write(&path, "a,b\n1,2\nNaN,4\n5,6\n7,8\n").unwrap();
        let (code, out) = super::run_captured(&argv(&["--method=knn", path.to_str().unwrap()]));
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("missing"), "{out}");
        // With --impute it succeeds.
        let (code, _) = super::run_captured(&argv(&[
            "--method=knn",
            "--impute",
            "--top=2",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK);
    }
}
