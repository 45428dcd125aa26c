//! `hdoutlier score` — score new records against a saved model, without the
//! training data.

use super::{load_dataset, parse_or_usage};
use crate::exit;
use crate::obs_setup::{self, ObsSession};
use hdoutlier_json::{FieldChain, Json};
use hdoutlier_stream::model_io;

/// Per-command help.
pub const HELP: &str = "\
hdoutlier score — score records against a model saved by `detect --save-model`

USAGE:
    hdoutlier score --model <model.json> [OPTIONS] <input.csv>

OPTIONS:
    --model <path>       model file (required)
    --label-column <c>   strip column <c> before scoring
    --delimiter <c>      field separator (default ',')
    --no-header          first row is data
    --json               emit JSON
    --all                print every record (default: only outliers)
    --log-level <l>      emit pipeline events on stderr (error|warn|info|debug|trace)
    --log-json           render events as NDJSON instead of human-readable text
    --metrics-out <p>    enable timing metrics and write an NDJSON snapshot to <p>
    --trace-out <p>      profile spans, write Chrome trace-event JSON to <p>
    --profile-out <p>    sample span stacks, write folded flamegraph stacks to <p>
    --profile-hz <n>     sampling rate for --profile-out (default 99)
";

/// Runs the subcommand.
pub fn run(argv: &[String]) -> (i32, String) {
    let spec = obs_setup::spec_with(
        &["model", "label-column", "delimiter"],
        &["json", "all", "no-header"],
    );
    let parsed = match parse_or_usage(&spec, argv, HELP) {
        Ok(p) => p,
        Err(out) => return out,
    };
    let mut session = match ObsSession::init(&parsed) {
        Ok(s) => s,
        Err(e) => return (exit::USAGE, format!("{e}\n\n{HELP}")),
    };
    let Some(model_path) = parsed.get("model") else {
        return (exit::USAGE, format!("--model is required\n\n{HELP}"));
    };
    let text = match std::fs::read_to_string(model_path) {
        Ok(t) => t,
        Err(e) => return (exit::RUNTIME, format!("failed to read {model_path}: {e}")),
    };
    let model = match model_io::from_json_text(&text) {
        Ok(m) => m,
        Err(e) => return (exit::RUNTIME, format!("failed to load model: {e}")),
    };
    let dataset = match load_dataset(&parsed, HELP) {
        Ok(d) => d,
        Err(out) => return out,
    };
    if dataset.n_dims() != model.grid().n_dims() {
        return (
            exit::RUNTIME,
            format!(
                "data has {} attributes but the model was fitted on {}",
                dataset.n_dims(),
                model.grid().n_dims()
            ),
        );
    }

    let scores = match model.score_dataset(&dataset) {
        Ok(s) => s,
        Err(e) => return (exit::RUNTIME, format!("scoring failed: {e}")),
    };
    let show_all = parsed.has("all");
    let out = if parsed.has("json") {
        let j = scores
            .iter()
            .enumerate()
            .filter(|(_, s)| show_all || s.is_some())
            .map(|(row, s)| {
                Json::object()
                    .field("row", row)
                    .field("score", s.map_or(Json::Null, Json::Number))
            })
            .collect::<Result<Vec<Json>, _>>()
            .and_then(|items| {
                let mut j = Json::object()
                    .field("records", dataset.n_rows())
                    .field("outliers", scores.iter().filter(|s| s.is_some()).count())
                    .field("scored", Json::Array(items));
                if session.wants_metrics() {
                    j = j.field("metrics", obs_setup::metrics_json()?);
                }
                j
            });
        match j {
            Ok(j) => j.pretty() + "\n",
            Err(e) => return (exit::RUNTIME, format!("failed to render scores: {e}")),
        }
    } else {
        let mut out = format!(
            "{} of {} records match an abnormal projection\n",
            scores.iter().filter(|s| s.is_some()).count(),
            dataset.n_rows()
        );
        for (row, s) in scores.iter().enumerate() {
            match s {
                Some(score) => out.push_str(&format!("  row {row:>6}  S = {score:.3}\n")),
                None if show_all => out.push_str(&format!("  row {row:>6}  -\n")),
                None => {}
            }
        }
        out
    };
    if let Err(e) = session.finish() {
        return (exit::RUNTIME, e);
    }
    (exit::OK, out)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::planted_csv;
    use crate::exit;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn save_model(name: &str) -> (std::path::PathBuf, std::path::PathBuf, Vec<usize>) {
        let (csv, planted_rows) = planted_csv(name);
        let model_path = csv.with_extension("model.json");
        let (code, out) = crate::commands::detect::run_captured(&argv(&[
            "--phi=4",
            "--k=2",
            "--m=6",
            "--search=brute",
            "--save-model",
            model_path.to_str().unwrap(),
            csv.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        (csv, model_path, planted_rows)
    }

    #[test]
    fn save_then_score_round_trip() {
        let (csv, model_path, planted_rows) = save_model("score-roundtrip");
        let (code, out) = super::run(&argv(&[
            "--model",
            model_path.to_str().unwrap(),
            csv.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("match an abnormal projection"));
        // At least one planted row is flagged by the reloaded model.
        let hit = planted_rows
            .iter()
            .any(|r| out.contains(&format!("row {r:>6}")));
        assert!(hit, "{out}");
    }

    #[test]
    fn json_output_counts_match() {
        let (csv, model_path, _) = save_model("score-json");
        let (code, out) = super::run(&argv(&[
            "--model",
            model_path.to_str().unwrap(),
            "--json",
            csv.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("\"outliers\""));
        assert!(out.contains("\"records\": 400"));
    }

    #[test]
    fn errors() {
        let (csv, model_path, _) = save_model("score-errors");
        let (code, out) = super::run(&argv(&[csv.to_str().unwrap()]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--model is required"));
        let (code, _) = super::run(&argv(&["--model", "/nope.json", csv.to_str().unwrap()]));
        assert_eq!(code, exit::RUNTIME);
        // Model file that is not a model.
        let junk = csv.with_extension("junk.json");
        std::fs::write(&junk, "{\"format\": 1}").unwrap();
        let (code, out) = super::run(&argv(&[
            "--model",
            junk.to_str().unwrap(),
            csv.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("failed to load model"));
        // Dimensionality mismatch.
        let narrow = csv.with_extension("narrow.csv");
        std::fs::write(&narrow, "a,b\n1,2\n3,4\n").unwrap();
        let (code, out) = super::run(&argv(&[
            "--model",
            model_path.to_str().unwrap(),
            narrow.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("fitted on"));
    }
}
