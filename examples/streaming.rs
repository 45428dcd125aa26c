//! The streaming loop through the library API: train a model on history,
//! then score a live stream record by record while the drift monitor
//! watches for the grid going stale — what `hdoutlier stream` and
//! `hdoutlier serve` run per record.
//!
//! ```text
//! cargo run --release --example streaming
//! ```

use hdoutlier::core::detector::{OutlierDetector, SearchMethod};
use hdoutlier::data::generators::{planted_outliers, PlantedConfig};
use hdoutlier::stream::OnlineScorer;

fn main() {
    // --- Offline: fit on historical data, as in `model_deployment`. ---
    let history = planted_outliers(&PlantedConfig {
        n_rows: 4000,
        n_dims: 8,
        n_outliers: 6,
        strong_groups: Some(2),
        seed: 2026,
        ..PlantedConfig::default()
    });
    let model = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(10)
        .search(SearchMethod::BruteForce)
        .build()
        .fit(&history.dataset)
        .expect("valid parameters");
    println!(
        "trained: {} projections, {} dims, phi={}",
        model.projections().len(),
        model.grid().n_dims(),
        model.grid().phi()
    );

    // --- Online: one scorer, with a drift check every 1000 records. ---
    let mut scorer = OnlineScorer::new(model).expect("phi >= 2");
    scorer.set_check_every(1000).expect("positive cadence");

    // Fresh traffic from the same process (different seed), so the model's
    // sparse cubes stay rare; after t=2000 the first attribute shifts — the
    // drift monitor should notice.
    let live = planted_outliers(&PlantedConfig {
        n_rows: 3000,
        n_dims: 8,
        n_outliers: 5,
        strong_groups: Some(2),
        seed: 7,
        ..PlantedConfig::default()
    });
    let mut flagged = 0usize;
    for (t, fresh) in live.dataset.rows().enumerate() {
        let mut record = fresh.to_vec();
        if t >= 2000 {
            record[0] += 4.0;
        }
        let verdict = scorer.score_record(&record).expect("shape");
        if verdict.outlier {
            flagged += 1;
            if flagged <= 3 {
                println!(
                    "t={t}: outlier, S = {:.2} ({} projection(s))",
                    verdict.score.expect("matched"),
                    verdict.matched.len()
                );
            }
        }
        if let Some(report) = &verdict.drift {
            println!(
                "t={t}: drift check — drifted dims {:?} (alpha {})",
                report.drifted_dims, report.alpha
            );
        }
    }
    println!(
        "{flagged} of {} streamed records flagged",
        scorer.records_scored()
    );
}
