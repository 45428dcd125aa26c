//! Seeded inputs. Every dataset and record stream is a pure function of
//! the run's `--seed`; the binary only ever sees the files built here.

use crate::spec::{Data, DIMS, TRAIN_ROWS};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_data::Dataset;
use std::path::Path;

/// A sub-seed per purpose, so the detect input, the training set and the
/// stream of one run are independent draws.
fn mix(seed: u64, purpose: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut z = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn planted(rows: usize, dims: usize, outliers: usize, seed: u64) -> Dataset {
    planted_outliers(&PlantedConfig {
        n_rows: rows,
        n_dims: dims,
        n_outliers: outliers,
        seed,
        ..PlantedConfig::default()
    })
    .dataset
}

/// The CSV a detect workload reads.
pub fn detect_dataset(data: Data, seed: u64) -> Dataset {
    match data {
        Data::Planted { rows, dims } => planted(rows, dims, rows / 2_000, mix(seed, 1)),
        // Musk's Table 1 shape (160 correlated pairs, a few contrarian
        // records) at the 6,600 rows of the larger musk file.
        Data::MuskShaped => planted(6_600, 160, 10, mix(seed, 2)),
    }
}

/// The training set the stream model is fitted on.
pub fn training(seed: u64) -> Dataset {
    planted(TRAIN_ROWS, DIMS, TRAIN_ROWS / 2_000, mix(seed, 3))
}

/// Records to score: fresh draws from the training distribution whose last
/// quarter is shifted by one standard deviation in five columns, so the
/// periodic drift checks report drift there.
pub fn records(n: usize, seed: u64) -> Dataset {
    let base = planted(n, DIMS, n / 2_000, mix(seed, 4));
    let mut values: Vec<f64> = base.rows().flatten().copied().collect();
    for row in values.chunks_mut(DIMS).skip(n - n / 4) {
        for v in &mut row[..5] {
            *v += 1.0;
        }
    }
    Dataset::new(values, n, DIMS).expect("shape preserved")
}

pub fn write_csv(dataset: &Dataset, path: &Path) -> Result<(), String> {
    hdoutlier_data::csv::write_path(dataset, path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = records(400, 5);
        assert_eq!(a, records(400, 5));
        assert_ne!(a, records(400, 6));
        assert_ne!(training(5), records(TRAIN_ROWS, 5));
        // The last quarter is shifted.
        let head: f64 = (0..100).map(|r| a.value(r, 0)).sum::<f64>() / 100.0;
        let tail: f64 = (300..400).map(|r| a.value(r, 0)).sum::<f64>() / 100.0;
        assert!(tail - head > 0.5, "{head} {tail}");
    }
}
