//! `hdoutlier advise` — the §2.4 parameter advisor.

use super::parse_or_usage;
use crate::exit;
use crate::obs_setup::{self, ObsSession};
use hdoutlier_core::params::advise;
use hdoutlier_json::{FieldChain, Json};
use hdoutlier_stats::{significance_of, sparsity_coefficient};

/// Per-command help.
pub const HELP: &str = "\
hdoutlier advise — recommend phi and k for a dataset size (paper §2.4)

USAGE:
    hdoutlier advise --records <N> [--target <s>] [--json]
    hdoutlier advise <input.csv> [--target <s>] [--json]

OPTIONS:
    --records <N>   number of records (alternative to passing a CSV)
    --target <s>    target sparsity coefficient (default -3)
    --json          emit JSON
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
        &["records", "target", "delimiter", "label-column"],
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
    let target: f64 = match parsed.or("target", "number", -3.0) {
        Ok(t) => t,
        Err(e) => return super::usage_err(e, HELP),
    };
    let n: u64 = match parsed.opt::<u64>("records", "integer") {
        Err(e) => return super::usage_err(e, HELP),
        Ok(Some(n)) => n,
        Ok(None) => {
            // Fall back to counting a CSV.
            match super::load_dataset(&parsed, HELP) {
                Ok(ds) => ds.n_rows() as u64,
                Err(out) => return out,
            }
        }
    };
    if n == 0 {
        return (exit::USAGE, format!("--records must be positive\n\n{HELP}"));
    }

    let advice = advise(n, target);
    let one_point = sparsity_coefficient(1, n, advice.phi, advice.k);
    if parsed.has("json") {
        let j = Json::object()
            .field("records", n)
            .field("target_sparsity", target)
            .field("phi", advice.phi)
            .field("k", advice.k)
            .field("empty_cube_sparsity", advice.empty_cube_sparsity)
            .field("one_point_cube_sparsity", one_point)
            .field(
                "empty_cube_significance",
                significance_of(advice.empty_cube_sparsity),
            );
        return match j {
            Ok(j) => match session.finish() {
                Ok(()) => (exit::OK, j.pretty() + "\n"),
                Err(e) => (exit::RUNTIME, e),
            },
            Err(e) => (exit::RUNTIME, format!("failed to render advice: {e}")),
        };
    }
    let mut out = format!(
        "for N = {n} records (target sparsity {target}):\n\
         \n  phi = {}   (grid ranges per dimension)\
         \n  k   = {}   (projection dimensionality, Eq. 2)\n",
        advice.phi, advice.k
    );
    out.push_str(&format!(
        "\nan empty cube then scores S = {:.2} (significance {:.2e});\n\
         a one-point cube scores S = {:.2}\n",
        advice.empty_cube_sparsity,
        significance_of(advice.empty_cube_sparsity),
        one_point
    ));
    if advice.empty_cube_sparsity > target {
        out.push_str(
            "\nwarning: even an empty cube cannot reach the target — the dataset\n\
             is too small for significant projections at any k (see paper §2.4).\n",
        );
    }
    if let Err(e) = session.finish() {
        return (exit::RUNTIME, e);
    }
    (exit::OK, out)
}

#[cfg(test)]
mod tests {
    use crate::exit;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn advises_from_record_count() {
        let (code, out) = super::run(&argv(&["--records", "10000"]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("phi = 10"), "{out}");
        assert!(out.contains("k   = 3"), "{out}");
    }

    #[test]
    fn json_output() {
        let (code, out) = super::run(&argv(&["--records", "452", "--json"]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("\"phi\""));
        assert!(out.contains("\"empty_cube_sparsity\""));
    }

    #[test]
    fn warns_when_dataset_too_small() {
        let (code, out) = super::run(&argv(&["--records", "5"]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("warning"), "{out}");
    }

    #[test]
    fn advises_from_csv() {
        let (path, _) = super::super::test_support::planted_csv("advise-csv");
        let (code, out) = super::run(&argv(&[path.to_str().unwrap()]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("N = 400"), "{out}");
    }

    #[test]
    fn usage_errors() {
        let (code, _) = super::run(&argv(&["--records", "abc"]));
        assert_eq!(code, exit::USAGE);
        let (code, out) = super::run(&argv(&["--records", "0"]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("positive"));
        let (code, _) = super::run(&argv(&["--help"]));
        assert_eq!(code, exit::OK);
    }
}
