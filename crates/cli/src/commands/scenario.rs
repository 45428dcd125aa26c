//! `hdoutlier scenario` — the seeded end-to-end scenario packs and their
//! golden-report regression gate.

use super::parse_or_usage;
use crate::exit;
use crate::obs_setup::{self, ObsSession};
use hdoutlier_scenario::golden::CheckOutcome;
use hdoutlier_scenario::{all, golden, RunConfig, Scenario};
use std::path::Path;

/// Per-command help.
pub const HELP: &str = "\
hdoutlier scenario — seeded end-to-end scenario packs with golden reports

USAGE:
    hdoutlier scenario list [--json]
    hdoutlier scenario run [NAME...]
    hdoutlier scenario check [NAME...] [--goldens-dir <dir>]
    hdoutlier scenario update-goldens [NAME...] [--goldens-dir <dir>]

ACTIONS:
    list             show every pack: name, seed, what it covers
    run              run packs and print their full (raw) JSON reports
    check            run packs, assert their ground-truth invariants, and
                     byte-compare normalized reports against the goldens;
                     a mismatch prints a unified diff and fails
    update-goldens   deliberately regenerate golden files; refuses while a
                     pack's invariants fail, so a broken behavior can never
                     be enshrined as the expectation

OPTIONS:
    --goldens-dir <dir>  golden file directory (default tests/goldens)
    --threads <n>        pool threads for the pipelines (default 1);
                         reports must be byte-identical at any value
    --json               machine-readable `list` output
";

/// Runs the subcommand, streaming reports/progress to `sink`.
pub fn run_to(argv: &[String], sink: &mut impl std::io::Write) -> (i32, String) {
    let spec = obs_setup::spec_with(&["goldens-dir", "threads"], &["json"]);
    let parsed = match parse_or_usage(&spec, argv, HELP) {
        Ok(p) => p,
        Err(out) => return out,
    };
    let mut session = match ObsSession::init(&parsed) {
        Ok(s) => s,
        Err(e) => return (exit::USAGE, format!("{e}\n\n{HELP}")),
    };
    let threads: usize = match parsed.or("threads", "integer", 1) {
        Ok(0) | Err(_) => {
            return (exit::USAGE, format!("--threads must be >= 1\n\n{HELP}"));
        }
        Ok(t) => t,
    };
    let config = RunConfig { threads };
    let goldens_dir = parsed.get("goldens-dir").unwrap_or("tests/goldens");

    let positional = parsed.positional();
    let Some(action) = positional.first() else {
        return (exit::USAGE, format!("missing action\n\n{HELP}"));
    };
    let packs = match select_packs(&positional[1..]) {
        Ok(p) => p,
        Err(msg) => return (exit::USAGE, format!("{msg}\n\n{HELP}")),
    };

    let result = match action.as_str() {
        "list" => list(&packs, parsed.has("json"), sink),
        "run" => run_packs(&packs, &config, sink),
        "check" => check_packs(&packs, &config, Path::new(goldens_dir), sink),
        "update-goldens" => update_goldens(&packs, &config, Path::new(goldens_dir), sink),
        other => return (exit::USAGE, format!("unknown action {other:?}\n\n{HELP}")),
    };
    if result.0 == exit::OK {
        if let Err(e) = session.finish() {
            return (exit::RUNTIME, e);
        }
    }
    result
}

/// Resolves pack names; no names means every pack.
fn select_packs(names: &[String]) -> Result<Vec<Scenario>, String> {
    let registry = all();
    if names.is_empty() {
        return Ok(registry);
    }
    let mut picked = Vec::with_capacity(names.len());
    for name in names {
        match registry.iter().position(|s| s.name == name.as_str()) {
            Some(_) => picked.push(hdoutlier_scenario::find(name).expect("position found above")),
            None => {
                let known: Vec<&str> = registry.iter().map(|s| s.name).collect();
                return Err(format!(
                    "unknown scenario {name:?}; known: {}",
                    known.join(", ")
                ));
            }
        }
    }
    Ok(picked)
}

fn list(packs: &[Scenario], as_json: bool, sink: &mut impl std::io::Write) -> (i32, String) {
    use hdoutlier_json::{FieldChain, Json};
    let rendered = if as_json {
        let items: Vec<Json> = packs
            .iter()
            .map(|s| {
                Json::object()
                    .field("name", s.name)
                    .field("seed", s.seed)
                    .field("summary", s.summary)
                    .unwrap()
            })
            .collect();
        Json::Array(items).pretty() + "\n"
    } else {
        let mut out = String::new();
        for s in packs {
            out.push_str(&format!(
                "{:28} seed=0x{:x}  {}\n",
                s.name, s.seed, s.summary
            ));
        }
        out
    };
    match super::emit_report(sink, &rendered) {
        Ok(()) => (exit::OK, String::new()),
        Err(e) => (exit::RUNTIME, e),
    }
}

fn run_packs(
    packs: &[Scenario],
    config: &RunConfig,
    sink: &mut impl std::io::Write,
) -> (i32, String) {
    let mut failures = Vec::new();
    for pack in packs {
        let outcome = match pack.run(config) {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("{}: {e}", pack.name));
                continue;
            }
        };
        if let Err(e) = super::emit_report(sink, &(outcome.report.pretty() + "\n")) {
            return (exit::RUNTIME, e);
        }
        for failed in outcome.failed_invariants() {
            failures.push(format!(
                "{}: invariant {} failed: {}",
                pack.name, failed.name, failed.detail
            ));
        }
    }
    finish(failures)
}

fn check_packs(
    packs: &[Scenario],
    config: &RunConfig,
    goldens_dir: &Path,
    sink: &mut impl std::io::Write,
) -> (i32, String) {
    let mut failures = Vec::new();
    for pack in packs {
        // Invariants gate first: a golden that still matches while ground
        // truth is violated means the golden itself was wrong — fail loud.
        let outcome = match pack.run(config) {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("{}: pipeline failed: {e}", pack.name));
                continue;
            }
        };
        let broken = outcome.failed_invariants();
        if !broken.is_empty() {
            for failed in &broken {
                failures.push(format!(
                    "{}: invariant {} failed: {}",
                    pack.name, failed.name, failed.detail
                ));
            }
            continue;
        }
        match golden::check(goldens_dir, pack.name, &outcome.report) {
            Ok(CheckOutcome::Match) => {
                let line = format!(
                    "{}: ok ({} invariants)\n",
                    pack.name,
                    outcome.invariants.len()
                );
                if let Err(e) = super::emit_report(sink, &line) {
                    return (exit::RUNTIME, e);
                }
            }
            Ok(CheckOutcome::Missing { path }) => {
                failures.push(format!(
                    "{}: golden {} is missing; generate it with\n    hdoutlier scenario update-goldens {}",
                    pack.name,
                    path.display(),
                    pack.name
                ));
            }
            Ok(CheckOutcome::Mismatch { path, diff }) => {
                failures.push(format!(
                    "{}: normalized report differs from golden {}\n{diff}\
                     If this change is intentional, review the diff above and regenerate with\n    \
                     hdoutlier scenario update-goldens {}\n\
                     (refused automatically unless the pack's invariants pass)",
                    pack.name,
                    path.display(),
                    pack.name
                ));
            }
            Err(e) => failures.push(format!("{}: golden I/O failed: {e}", pack.name)),
        }
    }
    finish(failures)
}

fn update_goldens(
    packs: &[Scenario],
    config: &RunConfig,
    goldens_dir: &Path,
    sink: &mut impl std::io::Write,
) -> (i32, String) {
    let mut failures = Vec::new();
    for pack in packs {
        let outcome = match pack.run(config) {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("{}: pipeline failed: {e}", pack.name));
                continue;
            }
        };
        let broken = outcome.failed_invariants();
        if !broken.is_empty() {
            for failed in &broken {
                failures.push(format!(
                    "{}: refusing to write golden while invariant {} fails: {}",
                    pack.name, failed.name, failed.detail
                ));
            }
            continue;
        }
        match golden::update(goldens_dir, pack.name, &outcome.report) {
            Ok(changed) => {
                let line = format!(
                    "{}: {}\n",
                    pack.name,
                    if changed {
                        "golden updated"
                    } else {
                        "golden unchanged"
                    }
                );
                if let Err(e) = super::emit_report(sink, &line) {
                    return (exit::RUNTIME, e);
                }
            }
            Err(e) => failures.push(format!("{}: golden write failed: {e}", pack.name)),
        }
    }
    finish(failures)
}

fn finish(failures: Vec<String>) -> (i32, String) {
    if failures.is_empty() {
        (exit::OK, String::new())
    } else {
        (exit::RUNTIME, failures.join("\n") + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_scenario::{Invariant, Outcome, ScenarioError};

    fn broken(_: &RunConfig) -> Result<Outcome, ScenarioError> {
        use hdoutlier_json::Json;
        Ok(Outcome {
            report: Json::object().field("verdict", "wrong").unwrap(),
            invariants: vec![Invariant::check("always-fails", false, "synthetic failure")],
        })
    }

    fn broken_pack() -> Scenario {
        Scenario::new("broken", "synthetic guard-test pack", 1, broken)
    }

    #[test]
    fn update_goldens_refuses_while_invariants_fail() {
        let dir = std::env::temp_dir().join(format!(
            "hdoutlier-scenario-guard-refuse-{}",
            std::process::id()
        ));
        let mut sink = Vec::new();
        let (code, err) = update_goldens(&[broken_pack()], &RunConfig::default(), &dir, &mut sink);
        assert_eq!(code, exit::RUNTIME);
        assert!(err.contains("refusing to write golden"), "{err}");
        assert!(err.contains("always-fails"), "{err}");
        assert!(!dir.join("broken.json").exists());
    }

    #[test]
    fn check_fails_on_broken_invariants_even_when_golden_matches() {
        // Enshrine the broken report as a byte-perfect golden, then check:
        // the invariant gate must still fail the pack.
        let dir = std::env::temp_dir().join(format!(
            "hdoutlier-scenario-guard-check-{}",
            std::process::id()
        ));
        let outcome = broken(&RunConfig::default()).unwrap();
        golden::update(&dir, "broken", &outcome.report).unwrap();
        let mut sink = Vec::new();
        let (code, err) = check_packs(&[broken_pack()], &RunConfig::default(), &dir, &mut sink);
        assert_eq!(code, exit::RUNTIME);
        assert!(err.contains("invariant always-fails failed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
