//! The CLI subcommands. Each returns `(exit_code, output)` so the binary is
//! a one-liner and tests can drive the full path.

pub mod advise;
pub mod baseline;
pub mod detect;
pub mod explain;
pub mod scenario;
pub mod score;
pub mod serve;
pub mod stream;

use crate::args::{ArgError, Parsed, Spec};
use crate::exit;
use hdoutlier_data::csv::{ColumnRef, CsvOptions};
use hdoutlier_data::Dataset;

/// Parses with a spec, turning usage errors into `(USAGE, message + help)`.
pub(crate) fn parse_or_usage(
    spec: &Spec,
    argv: &[String],
    help: &str,
) -> Result<Parsed, (i32, String)> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Err((exit::OK, help.to_string()));
    }
    spec.parse(argv)
        .map_err(|e| (exit::USAGE, format!("{e}\n\n{help}")))
}

/// Renders an [`ArgError`] as a usage failure.
pub(crate) fn usage_err(e: ArgError, help: &str) -> (i32, String) {
    (exit::USAGE, format!("{e}\n\n{help}"))
}

/// Writes a rendered report to the command's sink. A consumer closing the
/// pipe early (`hdoutlier ... | head`) is a normal shutdown, not a failure;
/// any other write error is returned as runtime-error text.
pub(crate) fn emit_report(sink: &mut impl std::io::Write, rendered: &str) -> Result<(), String> {
    match sink
        .write_all(rendered.as_bytes())
        .and_then(|()| sink.flush())
    {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("stdout write failed: {e}")),
    }
}

/// The `--delimiter` flag (default `,`); `Err` is the usage message.
pub(crate) fn delimiter(parsed: &Parsed) -> Result<char, String> {
    match parsed.get("delimiter") {
        None => Ok(','),
        Some(d) if d.chars().count() == 1 => Ok(d.chars().next().expect("one char")),
        Some(d) => Err(format!("--delimiter must be a single character, got {d:?}")),
    }
}

/// Loads the dataset named by the positional argument, honoring the shared
/// input flags (`--no-header`, `--label-column`, `--delimiter`).
pub(crate) fn load_dataset(parsed: &Parsed, help: &str) -> Result<Dataset, (i32, String)> {
    let path = parsed
        .positional()
        .first()
        .ok_or_else(|| (exit::USAGE, format!("missing input CSV path\n\n{help}")))?;
    let delimiter = delimiter(parsed).map_err(|e| (exit::USAGE, format!("{e}\n\n{help}")))?;
    let options = CsvOptions {
        has_header: !parsed.has("no-header"),
        delimiter,
        label_column: parsed
            .get("label-column")
            .map(|name| match name.parse::<usize>() {
                Ok(idx) if !parsed.has("no-header") => ColumnRef::Name(idx.to_string()),
                Ok(idx) => ColumnRef::Index(idx),
                Err(_) => ColumnRef::Name(name.to_string()),
            }),
        ..CsvOptions::default()
    };
    hdoutlier_data::csv::read_path(path, &options)
        .map_err(|e| (exit::RUNTIME, format!("failed to read {path}: {e}")))
}

#[cfg(test)]
pub(crate) mod test_support {
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};

    /// Writes a small planted CSV to a temp path and returns it along with
    /// the planted rows.
    pub fn planted_csv(name: &str) -> (std::path::PathBuf, Vec<usize>) {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 400,
            n_dims: 6,
            n_outliers: 3,
            strong_groups: Some(2),
            seed: 31,
            ..PlantedConfig::default()
        });
        let dir = std::env::temp_dir().join("hdoutlier-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}.csv"));
        hdoutlier_data::csv::write_path(&planted.dataset, &path).expect("writable");
        (path, planted.outlier_rows)
    }
}
