//! `hdoutlier explain` — drill into one record: in which subspace views is
//! it abnormal?

use super::{load_dataset, parse_or_usage, usage_err};
use crate::exit;
use crate::obs_setup::{self, ObsSession};
use hdoutlier_core::drill::record_profile;
use hdoutlier_core::params::advise;
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_index::BitmapCounter;
use hdoutlier_json::{FieldChain, Json};

/// Per-command help.
pub const HELP: &str = "\
hdoutlier explain — rank every subspace view of one record by abnormality

USAGE:
    hdoutlier explain --row <n> [OPTIONS] <input.csv>

OPTIONS:
    --row <n>            record to profile (required, 0-based)
    --phi <n>            grid ranges per dimension (default: auto)
    --k <list>           view dimensionalities, comma separated (default 1,2)
    --top <n>            views to print (default 10)
    --threads <n>        worker threads for the view scoring (default:
                         available cores; identical output at any count)
    --label-column <c>   strip column <c> first
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
            "row",
            "phi",
            "k",
            "top",
            "threads",
            "label-column",
            "delimiter",
        ],
        &["json", "no-header"],
    );
    let parsed = match parse_or_usage(&spec, argv, HELP) {
        Ok(p) => p,
        Err(out) => return out,
    };
    let mut session = match ObsSession::init(&parsed) {
        Ok(s) => s,
        Err(e) => return (exit::USAGE, format!("{e}\n\n{HELP}")),
    };
    let row: usize = match parsed.required("row", "integer") {
        Ok(r) => r,
        Err(e) => return usage_err(e, HELP),
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
    let ks: Vec<usize> = match parsed.get("k") {
        None => vec![1, 2],
        Some(raw) => {
            let parsed_ks: Result<Vec<usize>, _> =
                raw.split(',').map(|p| p.trim().parse()).collect();
            match parsed_ks {
                Ok(ks) if !ks.is_empty() => ks,
                _ => {
                    return (
                        exit::USAGE,
                        format!("--k must be a comma-separated list of integers\n\n{HELP}"),
                    )
                }
            }
        }
    };

    let dataset = match load_dataset(&parsed, HELP) {
        Ok(d) => d,
        Err(out) => return out,
    };
    if row >= dataset.n_rows() {
        return (
            exit::RUNTIME,
            format!("row {row} out of bounds ({} records)", dataset.n_rows()),
        );
    }
    let phi = match parsed.opt::<u32>("phi", "integer") {
        Ok(Some(p)) => p,
        Ok(None) => advise(dataset.n_rows() as u64, -3.0).phi,
        Err(e) => return usage_err(e, HELP),
    };
    let disc = match Discretized::new(&dataset, phi, DiscretizeStrategy::EquiDepth) {
        Ok(d) => d,
        Err(e) => return (exit::RUNTIME, format!("discretization failed: {e}")),
    };
    let present = (0..disc.n_dims())
        .filter(|&d| !disc.is_missing(row, d))
        .count();
    if let Some(&bad) = ks.iter().find(|&&k| k == 0 || k > present) {
        return (
            exit::RUNTIME,
            format!("k = {bad} out of range: record {row} has {present} present attributes"),
        );
    }
    let counter = BitmapCounter::new(&disc);
    let profile = {
        let _span = hdoutlier_obs::span(
            hdoutlier_obs::Level::Info,
            "hdoutlier.cli",
            "record_profile",
        );
        record_profile(&counter, &disc, row, &ks, threads)
    };

    let rendered = if parsed.has("json") {
        let j = profile
            .iter()
            .take(top)
            .map(|v| {
                Json::object()
                    .field(
                        "dims",
                        v.cube.dims().map(|d| d as usize).collect::<Vec<_>>(),
                    )
                    .field("count", v.count)
                    .field("sparsity", v.sparsity)
                    .field("exact_significance", v.exact_significance)
            })
            .collect::<Result<Vec<Json>, _>>()
            .and_then(|items| {
                Json::object()
                    .field("row", row)
                    .field("views_total", profile.len())
                    .field("views", Json::Array(items))
            });
        match j {
            Ok(j) => j.pretty() + "\n",
            Err(e) => return (exit::RUNTIME, format!("failed to render profile: {e}")),
        }
    } else {
        let mut out = format!(
            "record {row}: {} views across k = {ks:?}, most abnormal first\n\n",
            profile.len()
        );
        for v in profile.iter().take(top) {
            let dims: Vec<String> = v
                .cube
                .dims()
                .map(|d| disc.name(d as usize).to_string())
                .collect();
            out.push_str(&format!(
                "  [{}]  count {:>4}  S = {:>7.2}  exact P = {:.3e}\n",
                dims.join(", "),
                v.count,
                v.sparsity,
                v.exact_significance
            ));
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
    fn profiles_a_planted_outlier() {
        let (path, planted_rows) = planted_csv("explain-basic");
        let row = planted_rows[0].to_string();
        let (code, out) = super::run_captured(&argv(&[
            "--row",
            &row,
            "--phi=4",
            "--k=2",
            "--top=3",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("most abnormal first"), "{out}");
        // Top view should be strongly negative for a planted contrarian.
        assert!(out.contains("S = "), "{out}");
    }

    #[test]
    fn json_output() {
        let (path, _) = planted_csv("explain-json");
        let (code, out) = super::run_captured(&argv(&[
            "--row=0",
            "--phi=4",
            "--k=1,2",
            "--json",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("\"views_total\": 21")); // C(6,1)+C(6,2)
        assert!(out.contains("\"exact_significance\""));
    }

    #[test]
    fn errors() {
        let (path, _) = planted_csv("explain-errors");
        let (code, out) = super::run_captured(&argv(&[path.to_str().unwrap()]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--row"));
        let (code, out) = super::run_captured(&argv(&["--row=99999", path.to_str().unwrap()]));
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("out of bounds"));
        let (code, out) = super::run_captured(&argv(&["--row=0", "--k=0", path.to_str().unwrap()]));
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("out of range"));
        let (code, out) =
            super::run_captured(&argv(&["--row=0", "--k=a,b", path.to_str().unwrap()]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("comma-separated"));
    }
}
