//! The record loop allocates nothing of its own once warm: lines are split
//! in place out of the input buffer, parsed into one reused row, assigned
//! into the scorer's one reused cell buffer, and written into one reused
//! line buffer. Measured with the counting allocator, 10,000 CSV records
//! through [`Pipeline::run`] into a `String` sink may allocate only the
//! `matched` vector of an outlier's [`Verdict`] and the drift report on a
//! cadence record: at most one allocation per ten records. They must in
//! fact allocate exactly what the scorer alone allocates on the same
//! records.
//!
//! This binary holds a single test so no other test's allocations land
//! between the two counter reads.
//!
//! [`Verdict`]: hdoutlier_stream::Verdict

use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_obs::{alloc_stats, CountingAllocator};
use hdoutlier_stream::{ErrorPolicy, OnlineScorer, Pipeline, RecordFormat, Settings};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const RECORDS: usize = 10_000;

#[test]
fn the_warm_record_loop_allocates_only_the_verdicts() {
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 2_000,
        n_dims: 8,
        n_outliers: 10,
        strong_groups: Some(2),
        seed: 2002,
        ..PlantedConfig::default()
    });
    let ds = &planted.dataset;
    let model = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(10)
        .search(SearchMethod::BruteForce)
        .build()
        .fit(ds)
        .unwrap();
    let text = hdoutlier_data::csv::write_string(ds);
    let lines: Vec<&str> = text.lines().skip(1).collect();
    let mut input = String::new();
    for i in 0..RECORDS {
        input.push_str(lines[i % lines.len()]);
        input.push('\n');
    }
    let settings = Settings {
        format: RecordFormat::Csv {
            delimiter: ',',
            header: false,
        },
        outliers_only: false,
        policy: ErrorPolicy::Abort,
        max_consecutive: 100,
        checkpoint: None,
        checkpoint_every: 1000,
        drift_alpha: None,
        drift_every: None,
    };

    // The scorer alone on the same records, from the same state.
    let rows: Vec<&[f64]> = (0..RECORDS).map(|i| ds.row(i % ds.n_rows())).collect();
    let mut scorer = OnlineScorer::new(model.clone()).unwrap();
    for row in &rows {
        scorer.score_record(row).unwrap();
    }
    let before = alloc_stats().allocations;
    for row in &rows {
        scorer.score_record(row).unwrap();
    }
    let scorer_allocations = alloc_stats().allocations - before;

    let scorer = OnlineScorer::new(model).unwrap();
    let (mut pipeline, _) = Pipeline::open(scorer, settings, None).unwrap();
    let mut warm = String::new();
    pipeline.run(input.as_bytes(), &mut warm).unwrap();
    let mut sink = String::with_capacity(2 * warm.len());
    let before = alloc_stats().allocations;
    pipeline.run(input.as_bytes(), &mut sink).unwrap();
    let allocations = alloc_stats().allocations - before;

    assert_eq!(sink.lines().count(), RECORDS);
    assert!(
        allocations <= RECORDS as u64 / 10,
        "{allocations} allocations for {RECORDS} records"
    );
    assert_eq!(
        allocations, scorer_allocations,
        "the pipeline allocated beyond the scorer's verdicts"
    );
}
