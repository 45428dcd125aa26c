//! The untraced run: end-to-end metrics of the shipped binary, driven as a
//! child process on seeded inputs, with every output checked.
//!
//! Set-up (inputs, and the model fit for `stream-csv`) repeats until
//! `SETUP_SECONDS` have passed (at least `MIN_SETUPS` times); `setup_s` is
//! the median. Then one untimed warm-up job, then timed jobs until
//! `--seconds` have passed (at least `MIN_JOBS`).

use crate::check::{self, DetectSummary, VerdictStream};
use crate::jobs::{self, Job};
use crate::setup;
use crate::spec::{Data, Fit, Kind};
use crate::{stats, sys, Ctx, Outcome};
use std::time::Instant;

/// A set-up takes 0.3 s (detect) to 2.5 s (stream, with its model fit), so
/// one run repeats it 3 to 10 times: a median of a few short set-ups
/// swings with the host's speed.
const SETUP_SECONDS: f64 = 3.0;
const MIN_SETUPS: usize = 3;
const MIN_JOBS: usize = 3;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.kind {
        Kind::Detect { data, fit } => detect(ctx, data, &fit),
        Kind::Stream { records } => stream(ctx, records),
    }
}

/// Repeats set-up; returns the seconds of each and the last set-up's result.
fn timed_setups<T>(mut once: impl FnMut() -> Result<T, String>) -> Result<(Vec<f64>, T), String> {
    let mut seconds = Vec::new();
    loop {
        let started = Instant::now();
        let last = once()?;
        seconds.push(started.elapsed().as_secs_f64());
        if seconds.len() >= MIN_SETUPS && seconds.iter().sum::<f64>() >= SETUP_SECONDS {
            return Ok((seconds, last));
        }
    }
}

/// One warm-up job, then timed jobs until the run's seconds are spent.
fn run_jobs(
    ctx: &Ctx,
    mut job: impl FnMut() -> Result<Job, String>,
) -> Result<(Job, Vec<Job>), String> {
    let warm = job()?;
    let started = Instant::now();
    let mut timed = Vec::new();
    while timed.len() < MIN_JOBS || started.elapsed().as_secs_f64() < ctx.seconds {
        timed.push(job()?);
    }
    Ok((warm, timed))
}

fn detect(ctx: &Ctx, data: Data, fit: &Fit) -> Result<Outcome, String> {
    let (setups, (csv, rows)) = timed_setups(|| setup::detect_csv(ctx, data))?;
    let mut args = fit.args();
    args.extend(["--json".to_string(), csv.display().to_string()]);
    let log = ctx.path("detect.log");
    let (warm, timed) = run_jobs(ctx, || jobs::run(ctx.bin, &args, None, &log, true))?;
    let reference = check::reference_detect(&csv, fit)?;
    let mut out = Outcome::default();
    for job in std::iter::once(&warm).chain(&timed) {
        out.attempted += 1;
        if let Err(e) = job.ensure_success("detect", &log) {
            out.fail(e);
            continue;
        }
        match DetectSummary::from_json(&String::from_utf8_lossy(&job.stdout)) {
            Ok(summary) if summary == reference => {}
            Ok(_) => out.fail("detect report differs from the in-process reference".into()),
            Err(e) => out.fail(e),
        }
    }
    job_metrics(&mut out, &setups, &timed, rows);
    Ok(out)
}

fn stream(ctx: &Ctx, n: usize) -> Result<Outcome, String> {
    let (setups, (model, (csv, records))) =
        timed_setups(|| Ok((setup::fit_model(ctx)?, setup::records_csv(ctx, n)?)))?;
    let args = vec![
        "stream".to_string(),
        "--model".into(),
        model.display().to_string(),
    ];
    let log = ctx.path("stream.log");
    let (warm, timed) = run_jobs(ctx, || jobs::run(ctx.bin, &args, Some(&csv), &log, false))?;
    let mut reference = VerdictStream::new(&check::load_model(&model)?)?;
    for row in records.rows() {
        reference.push(row)?;
    }
    let mut out = Outcome::default();
    for job in std::iter::once(&warm).chain(&timed) {
        out.attempted += 1;
        if let Err(e) = job.ensure_success("stream", &log) {
            out.fail(e);
        } else if job.lines != n as u64 || job.digest != reference.digest {
            out.fail(format!(
                "stream wrote {} verdict lines that differ from the in-process replay",
                job.lines
            ));
        }
    }
    job_metrics(&mut out, &setups, &timed, n);
    Ok(out)
}

/// The end-to-end metrics: medians over the set-ups and the timed jobs.
fn job_metrics(out: &mut Outcome, setups: &[f64], jobs: &[Job], records: usize) {
    let n = jobs.len();
    out.metric(
        "setup_s",
        stats::median(setups),
        setups.len(),
        "median of the set-ups",
    );
    let wall: Vec<f64> = jobs.iter().map(|j| j.wall.as_secs_f64()).collect();
    let p50 = stats::median(&wall);
    let [q1, _, q3] = stats::quartiles(&wall);
    let tail = stats::tail(&wall);
    out.metric(
        "job_s",
        p50,
        n,
        format!(
            "median job wall time ({:.0} records/s); quartiles {q1:.3}, {q3:.3}; p{} {:.3}",
            records as f64 / p50,
            tail.level,
            tail.value
        ),
    );
    let usage: Vec<sys::Usage> = jobs.iter().filter_map(|j| j.exit.usage).collect();
    if !usage.is_empty() {
        let cpu: Vec<f64> = usage.iter().map(|u| u.cpu_s).collect();
        let rss: Vec<f64> = usage.iter().map(|u| u.max_rss_mb).collect();
        out.metric(
            "cpu_s",
            stats::median(&cpu),
            usage.len(),
            "median over jobs of the child's user + system CPU",
        );
        out.metric(
            "peak_rss_mb",
            stats::median(&rss),
            usage.len(),
            "median job max RSS",
        );
    }
}
