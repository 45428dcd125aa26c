#![warn(missing_docs)]

//! Library side of the `hdoutlier` command-line tool.
//!
//! Everything testable lives here; `main.rs` is a thin shell. Submodules:
//!
//! - [`args`]: a small, dependency-free command-line parser (flags with
//!   values, `--flag=value` and `--flag value` forms, positional arguments,
//!   typed getters with error messages);
//! - [`commands`]: the `detect`, `score`, `stream`, `serve`, `explain`,
//!   `advise` and `baseline` subcommands, returning their output as a
//!   string so tests can assert on it;
//! - [`obs_setup`]: the shared `--log-level` / `--log-json` /
//!   `--metrics-out` observability flags and the metrics snapshot helpers.

pub mod args;
pub mod commands;
pub mod obs_setup;

/// Exit codes used by the binary.
pub mod exit {
    /// Success.
    pub const OK: i32 = 0;
    /// Bad usage (unknown flag, missing argument…).
    pub const USAGE: i32 = 2;
    /// Runtime failure (unreadable file, invalid data…).
    pub const RUNTIME: i32 = 1;
}

/// Top-level usage text.
pub const USAGE: &str = "\
hdoutlier — subspace outlier detection (Aggarwal & Yu, SIGMOD 2001)

USAGE:
    hdoutlier <COMMAND> [OPTIONS]

COMMANDS:
    detect    find outliers in a CSV file via sparse-projection search
    score     score records against a model saved by `detect --save-model`
    stream    score CSV records from stdin one by one, emitting NDJSON verdicts
    serve     host many concurrent scoring sessions over HTTP (NDJSON in/out)
    explain   rank every subspace view of one record by abnormality
    advise    recommend phi and k for a dataset size (the paper's Eq. 2)
    baseline  run a distance-based comparator (knn | lof | knorr-ng)
    scenario  run seeded end-to-end scenario packs against golden reports
    help      show this message

Run `hdoutlier <COMMAND> --help` for per-command options.
";

/// Dispatches a full argument vector (without argv\[0\]); returns
/// `(exit_code, output)`. Reports and errors are rendered into the output
/// so tests can assert on messages.
pub fn run(argv: &[String]) -> (i32, String) {
    let mut sink = Vec::new();
    let (code, err) = run_to(argv, &mut sink);
    let mut out = String::from_utf8(sink).expect("reports are valid UTF-8");
    out.push_str(&err);
    (code, out)
}

/// Dispatches with reports streamed to `sink`. The binary passes stdout, so
/// a consumer closing the pipe early (`hdoutlier ... | head`) is handled
/// gracefully mid-report instead of surfacing as a write failure. The
/// returned string carries only help or error text.
pub fn run_to(argv: &[String], sink: &mut impl std::io::Write) -> (i32, String) {
    let Some(command) = argv.first() else {
        return (exit::USAGE, USAGE.to_string());
    };
    let rest = &argv[1..];
    match command.as_str() {
        "detect" => commands::detect::run_to(rest, sink),
        "score" => emit(commands::score::run(rest), sink),
        "stream" => {
            let stdin = std::io::stdin();
            commands::stream::run_streaming(rest, stdin.lock(), sink)
        }
        "serve" => commands::serve::run(rest),
        "explain" => commands::explain::run_to(rest, sink),
        "advise" => emit(commands::advise::run(rest), sink),
        "baseline" => commands::baseline::run_to(rest, sink),
        "scenario" => commands::scenario::run_to(rest, sink),
        "help" | "--help" | "-h" => (exit::OK, USAGE.to_string()),
        other => (exit::USAGE, format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

/// Routes a fully rendered `(code, output)` result through the sink: success
/// output is a report (written with graceful broken-pipe handling), anything
/// else is help/error text for the caller to place.
fn emit(result: (i32, String), sink: &mut impl std::io::Write) -> (i32, String) {
    let (code, out) = result;
    if code != exit::OK {
        return (code, out);
    }
    match commands::emit_report(sink, &out) {
        Ok(()) => (exit::OK, String::new()),
        Err(e) => (exit::RUNTIME, e),
    }
}
