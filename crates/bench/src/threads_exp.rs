//! Thread-scaling measurement for the brute-force search `detect --search
//! brute` ships: the same exhaustive sweep at 1, 2, and 4 workers, verifying
//! on the way that the best-m set is **identical** at every thread count (the
//! pool's contract) and reporting wall time and speedup per setting.
//!
//! Speedup is bounded by the machine: on a single hardware thread the pool
//! only adds scheduling overhead and every speedup is ≈ 1× or below — the
//! numbers recorded in `BENCH_detect.json` are honest wall-clock, not an
//! extrapolation. Each setting is timed three times and the fastest run
//! kept, which filters scheduler noise out of the `repro threads
//! --assert-against` gate.
//!
//! `repro threads` also runs [`run`] at φ = 16, k = 3, one worker, where
//! no depth-(k−2) node of the walker builds a local posting index: each
//! gathers a code table and counts its leaves with the walk's histograms,
//! so the gate covers both leaf kernels.
//!
//! The same gate times `explain`'s view ranking at one worker
//! ([`explain_views`]): every view of one record at k = 1, 2, 3, each
//! needing one exact binomial tail, so a tail that goes back to summing
//! `O(n)` PMF terms shows up as a ~200x slip per view.

use hdoutlier_core::brute::{brute_force_search_incremental_parallel, BruteForceConfig};
use hdoutlier_core::drill::record_profile;
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::uniform;
use hdoutlier_index::BitmapCounter;

use crate::bench_json::{fastest_of, REPEATS};
use crate::table;

/// One thread-count measurement.
#[derive(Debug, Clone)]
pub struct ThreadsRow {
    /// Pool workers used.
    pub threads: usize,
    /// Wall time of the fastest full sweep.
    pub elapsed_s: f64,
    /// `t(1) / t(threads)`.
    pub speedup: f64,
    /// Complete cubes scored (identical across rows by construction).
    pub scored: u64,
}

/// Experiment shape. Sized so a serial sweep takes long enough to time
/// reliably but stays far from the budget cap.
#[derive(Debug, Clone)]
pub struct Config {
    /// Rows in the synthetic dataset.
    pub n_rows: usize,
    /// Dataset dimensionality.
    pub n_dims: usize,
    /// Grid resolution.
    pub phi: u32,
    /// Projection dimensionality.
    pub k: usize,
    /// Thread counts to measure (first entry is the serial reference).
    pub threads: Vec<usize>,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            n_rows: 20_000,
            n_dims: 16,
            phi: 5,
            k: 4,
            threads: vec![1, 2, 4],
            seed: 2001,
        }
    }
}

/// Runs the sweep once per thread count.
///
/// # Panics
/// Panics if any thread count reports a different best-m set than the
/// serial reference — that would be a pool correctness bug, and timing a
/// wrong answer is worthless.
pub fn run(config: &Config) -> Vec<ThreadsRow> {
    let ds = uniform(config.n_rows, config.n_dims, config.seed);
    let disc = Discretized::new(&ds, config.phi, DiscretizeStrategy::EquiDepth).expect("non-empty");
    let counter = BitmapCounter::new(&disc);
    let brute_config = BruteForceConfig {
        m: 10,
        ..BruteForceConfig::default()
    };

    let mut reference: Option<Vec<(u64, String)>> = None;
    let mut serial_elapsed = None;
    config
        .threads
        .iter()
        .map(|&threads| {
            let mut outcome = None;
            let elapsed_s = fastest_of(REPEATS, || {
                let start = std::time::Instant::now();
                let found = brute_force_search_incremental_parallel(
                    &counter,
                    config.k,
                    &brute_config,
                    threads,
                );
                let elapsed_s = start.elapsed().as_secs_f64();
                outcome = Some(found);
                elapsed_s
            });
            let outcome = outcome.expect("at least one sweep");

            let signature: Vec<(u64, String)> = outcome
                .best
                .iter()
                .map(|s| (s.sparsity.to_bits(), s.projection.to_string()))
                .collect();
            match &reference {
                None => reference = Some(signature),
                Some(want) => assert_eq!(
                    &signature, want,
                    "threads = {threads} changed the best-m set"
                ),
            }

            let serial = *serial_elapsed.get_or_insert(elapsed_s);
            ThreadsRow {
                threads,
                elapsed_s,
                speedup: serial / elapsed_s,
                scored: outcome.scored,
            }
        })
        .collect()
}

/// Times `record_profile` at one worker — the ranking `explain --k 1,2,3
/// --threads 1` runs — for row 17 of a seeded uniform `n_rows × n_dims`
/// dataset on a φ = 5 grid. Returns the number of views ranked and the
/// fastest of [`REPEATS`] runs in seconds; the counter is built once,
/// outside the timing.
pub fn explain_views(n_rows: usize, n_dims: usize, seed: u64) -> (u64, f64) {
    let ds = uniform(n_rows, n_dims, seed);
    let disc = Discretized::new(&ds, 5, DiscretizeStrategy::EquiDepth).expect("non-empty");
    let counter = BitmapCounter::new(&disc);
    let row = 17.min(n_rows - 1);
    let mut views = 0;
    let elapsed_s = fastest_of(REPEATS, || {
        let start = std::time::Instant::now();
        views = record_profile(&counter, &disc, row, &[1, 2, 3], 1).len() as u64;
        start.elapsed().as_secs_f64()
    });
    (views, elapsed_s)
}

/// Renders the measurement table.
pub fn render(rows: &[ThreadsRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                format!("{:.1}", r.elapsed_s * 1e3),
                format!("{:.2}x", r.speedup),
                r.scored.to_string(),
            ]
        })
        .collect();
    table::render(
        &["threads", "time (ms)", "speedup", "cubes scored"],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_identical_across_thread_counts_and_renders() {
        // A small shape so the correctness assertion inside `run` executes
        // quickly; the default shape is for timing, not testing.
        let rows = run(&Config {
            n_rows: 400,
            n_dims: 6,
            phi: 4,
            k: 2,
            threads: vec![1, 2, 8],
            seed: 5,
        });
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.scored == rows[0].scored));
        assert_eq!(rows[0].speedup, 1.0);
        let rendered = render(&rows);
        assert!(rendered.contains("speedup"), "{rendered}");
    }

    #[test]
    fn explain_views_ranks_every_view_up_to_k_three() {
        // C(8, 1) + C(8, 2) + C(8, 3) views of one record.
        let (views, elapsed_s) = explain_views(200, 8, 5);
        assert_eq!(views, 8 + 28 + 56);
        assert!(elapsed_s > 0.0);
    }
}
