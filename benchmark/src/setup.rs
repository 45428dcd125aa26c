//! Set-up shared by the untraced and traced runs: seeded input files and
//! the model the stream workload scores against.

use crate::inputs;
use crate::jobs;
use crate::spec::{Data, MODEL_FIT};
use crate::Ctx;
use hdoutlier_data::Dataset;
use std::path::PathBuf;

/// Writes the detect workload's CSV; returns its path and row count.
pub fn detect_csv(ctx: &Ctx, data: Data) -> Result<(PathBuf, usize), String> {
    let dataset = inputs::detect_dataset(data, ctx.seed);
    let path = ctx.path("input.csv");
    inputs::write_csv(&dataset, &path)?;
    Ok((path, dataset.n_rows()))
}

/// Writes the training CSV and fits the stream model on it with the binary
/// (`detect --save-model`), as a user deploying the model would.
pub fn fit_model(ctx: &Ctx) -> Result<PathBuf, String> {
    let train = ctx.path("train.csv");
    inputs::write_csv(&inputs::training(ctx.seed), &train)?;
    let model = ctx.path("model.json");
    let mut args = MODEL_FIT.args();
    args.extend([
        "--save-model".to_string(),
        model.display().to_string(),
        train.display().to_string(),
    ]);
    let log = ctx.path("fit.log");
    jobs::run(ctx.bin, &args, None, &log, false)?.ensure_success("model fit", &log)?;
    Ok(model)
}

/// Writes `n` seeded records as a CSV for `stream`; returns its path and
/// the records.
pub fn records_csv(ctx: &Ctx, n: usize) -> Result<(PathBuf, Dataset), String> {
    let records = inputs::records(n, ctx.seed);
    let path = ctx.path("records.csv");
    inputs::write_csv(&records, &path)?;
    Ok((path, records))
}
