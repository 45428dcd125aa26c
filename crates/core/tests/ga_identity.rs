//! Pins the evolutionary search's exact output on a high-dimensional input.
//!
//! The scenario goldens run the GA at small `d`, where few Type-II/Type-III
//! mixes occur in the optimized crossover. Here a planted 1,000 × 120 input
//! at φ = 6, k = 3 exercises both phases of Fig. 5 the way a 160-column
//! input does. Each run must reproduce, bit for bit, its best-m list (the
//! constrained `dim:range` pairs of each projection, its sparsity's bits
//! and its count), its generation and evaluation counts, its final gene
//! convergence and the memo's hit and miss counts. One more run pins the
//! literal Fig. 3 best set (`track_internal_candidates = false`), which
//! reports population members only.

use hdoutlier_core::crossover::CrossoverKind;
use hdoutlier_core::evolutionary::{evolutionary_search, EvolutionaryConfig};
use hdoutlier_core::fitness::SparsityFitness;
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_index::{BitmapCounter, CachedCounter};

/// The default search with `crossover` at `seed`.
fn config(crossover: CrossoverKind, seed: u64) -> EvolutionaryConfig {
    EvolutionaryConfig {
        crossover,
        seed,
        ..EvolutionaryConfig::default()
    }
}

/// One run's output in a comparable form: the summary line, then one line
/// per reported projection.
fn run(config: &EvolutionaryConfig) -> Vec<String> {
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 1_000,
        n_dims: 120,
        seed: 17,
        ..PlantedConfig::default()
    });
    let disc = Discretized::new(&planted.dataset, 6, DiscretizeStrategy::EquiDepth).unwrap();
    let counter = CachedCounter::new(BitmapCounter::new(&disc));
    let fitness = SparsityFitness::new(&counter, 3);
    let out = evolutionary_search(&fitness, config);
    let (hits, misses) = counter.stats();
    let mut lines = vec![format!(
        "generations {} evaluations {} convergence {:#018x} hits {hits} misses {misses}",
        out.generations,
        out.evaluations,
        out.gene_convergence.to_bits()
    )];
    lines.extend(out.best.iter().map(|s| {
        let pairs: Vec<String> = (0..s.projection.d())
            .filter_map(|pos| s.projection.gene(pos).map(|g| format!("{pos}:{g}")))
            .collect();
        format!(
            "{} {:#018x} {}",
            pairs.join(","),
            s.sparsity.to_bits(),
            s.count
        )
    }));
    lines
}

fn check(config: EvolutionaryConfig, want: &[&str]) {
    let got = run(&config);
    assert_eq!(got, want, "{config:?}; got:\n{}", got.join("\n"));
}

#[test]
fn optimized_crossover_at_seed_1() {
    check(
        config(CrossoverKind::Optimized, 1),
        &[
            "generations 500 evaluations 50100 convergence 0x3fd0a3d70a3d70a4 hits 214260 misses 16649",
            "0:0,6:3,115:5 0xbffb0d970da8a99e 1",
            "0:0,114:3,115:5 0xbffb0d970da8a99e 1",
            "0:1,114:2,115:4 0xbffb0d970da8a99e 1",
            "0:2,8:2,114:1 0xbffb0d970da8a99e 1",
            "0:2,58:4,114:4 0xbffb0d970da8a99e 1",
            "0:2,114:1,115:3 0xbffb0d970da8a99e 1",
            "0:2,114:1,115:4 0xbffb0d970da8a99e 1",
            "0:3,17:5,114:1 0xbffb0d970da8a99e 1",
            "0:3,53:0,114:1 0xbffb0d970da8a99e 1",
            "0:5,16:2,114:1 0xbffb0d970da8a99e 1",
            "0:5,45:1,115:1 0xbffb0d970da8a99e 1",
            "1:1,18:3,115:5 0xbffb0d970da8a99e 1",
            "1:1,42:2,114:1 0xbffb0d970da8a99e 1",
            "1:1,60:0,114:1 0xbffb0d970da8a99e 1",
            "1:1,103:1,114:0 0xbffb0d970da8a99e 1",
            "1:2,6:2,114:0 0xbffb0d970da8a99e 1",
            "1:4,68:2,115:3 0xbffb0d970da8a99e 1",
            "1:4,69:4,114:1 0xbffb0d970da8a99e 1",
            "1:5,69:5,114:0 0xbffb0d970da8a99e 1",
            "2:3,114:0,115:2 0xbffb0d970da8a99e 1",
        ],
    );
}

#[test]
fn optimized_crossover_at_seed_7() {
    check(
        config(CrossoverKind::Optimized, 7),
        &[
            "generations 500 evaluations 50100 convergence 0x3fd147ae147ae148 hits 215237 misses 16163",
            "0:0,88:1,108:3 0xbffb0d970da8a99e 1",
            "0:2,7:3,89:5 0xbffb0d970da8a99e 1",
            "0:2,88:0,89:2 0xbffb0d970da8a99e 1",
            "0:2,89:5,94:4 0xbffb0d970da8a99e 1",
            "0:3,88:1,89:4 0xbffb0d970da8a99e 1",
            "0:3,88:2,89:4 0xbffb0d970da8a99e 1",
            "0:3,88:3,89:5 0xbffb0d970da8a99e 1",
            "0:3,88:4,89:5 0xbffb0d970da8a99e 1",
            "0:4,19:4,89:4 0xbffb0d970da8a99e 1",
            "0:4,26:0,89:4 0xbffb0d970da8a99e 1",
            "0:5,3:1,89:5 0xbffb0d970da8a99e 1",
            "0:5,26:2,88:1 0xbffb0d970da8a99e 1",
            "0:5,88:3,89:5 0xbffb0d970da8a99e 1",
            "1:0,34:4,89:5 0xbffb0d970da8a99e 1",
            "1:0,88:0,89:1 0xbffb0d970da8a99e 1",
            "1:1,69:5,89:4 0xbffb0d970da8a99e 1",
            "1:1,88:1,99:2 0xbffb0d970da8a99e 1",
            "1:1,88:2,89:5 0xbffb0d970da8a99e 1",
            "1:1,88:3,89:0 0xbffb0d970da8a99e 1",
            "1:2,59:1,88:0 0xbffb0d970da8a99e 1",
        ],
    );
}

#[test]
fn two_point_crossover_at_seed_1() {
    check(
        config(CrossoverKind::TwoPoint, 1),
        &[
            "generations 500 evaluations 50100 convergence 0x3fda3d70a3d70a3d hits 37959 misses 8840",
            "0:2,16:3,18:4 0xbffb0d970da8a99e 1",
            "0:3,16:0,17:2 0xbffb0d970da8a99e 1",
            "0:4,16:3,17:0 0xbffb0d970da8a99e 1",
            "1:1,16:1,17:2 0xbffb0d970da8a99e 1",
            "1:3,16:4,17:1 0xbffb0d970da8a99e 1",
            "1:3,16:5,17:3 0xbffb0d970da8a99e 1",
            "1:4,11:3,18:1 0xbffb0d970da8a99e 1",
            "1:4,16:5,17:3 0xbffb0d970da8a99e 1",
            "1:5,16:2,17:0 0xbffb0d970da8a99e 1",
            "2:0,16:2,17:0 0xbffb0d970da8a99e 1",
            "2:0,17:3,21:1 0xbffb0d970da8a99e 1",
            "2:2,16:4,17:1 0xbffb0d970da8a99e 1",
            "2:2,17:2,91:4 0xbffb0d970da8a99e 1",
            "2:3,16:1,17:0 0xbffb0d970da8a99e 1",
            "2:3,16:5,17:2 0xbffb0d970da8a99e 1",
            "2:4,16:3,17:0 0xbffb0d970da8a99e 1",
            "2:4,17:0,111:0 0xbffb0d970da8a99e 1",
            "2:5,16:2,17:0 0xbffb0d970da8a99e 1",
            "2:5,16:4,21:3 0xbffb0d970da8a99e 1",
            "3:0,16:5,109:0 0xbffb0d970da8a99e 1",
        ],
    );
}

#[test]
fn two_point_crossover_at_seed_7() {
    check(
        config(CrossoverKind::TwoPoint, 7),
        &[
            "generations 500 evaluations 50100 convergence 0x3fe851eb851eb852 hits 45439 misses 4818",
            "0:1,9:2,54:2 0xbffb0d970da8a99e 1",
            "0:2,10:1,28:1 0xbffb0d970da8a99e 1",
            "0:4,9:2,54:0 0xbffb0d970da8a99e 1",
            "0:5,28:3,54:0 0xbffb0d970da8a99e 1",
            "2:1,10:4,96:0 0xbffb0d970da8a99e 1",
            "4:0,28:1,54:0 0xbffb0d970da8a99e 1",
            "4:1,10:1,28:1 0xbffb0d970da8a99e 1",
            "4:4,10:1,54:0 0xbffb0d970da8a99e 1",
            "4:5,21:1,54:0 0xbffb0d970da8a99e 1",
            "7:5,28:1,54:0 0xbffb0d970da8a99e 1",
            "8:0,9:2,54:0 0xbffb0d970da8a99e 1",
            "8:0,28:3,54:4 0xbffb0d970da8a99e 1",
            "8:2,9:0,28:1 0xbffb0d970da8a99e 1",
            "8:2,10:1,54:0 0xbffb0d970da8a99e 1",
            "8:4,9:2,28:1 0xbffb0d970da8a99e 1",
            "9:0,28:1,54:2 0xbffb0d970da8a99e 1",
            "9:0,28:1,63:1 0xbffb0d970da8a99e 1",
            "9:0,28:1,81:5 0xbffb0d970da8a99e 1",
            "9:0,28:1,104:5 0xbffb0d970da8a99e 1",
            "9:0,54:0,82:3 0xbffb0d970da8a99e 1",
        ],
    );
}

#[test]
fn population_members_only_without_internal_tracking() {
    check(
        EvolutionaryConfig {
            track_internal_candidates: false,
            ..config(CrossoverKind::Optimized, 7)
        },
        &[
            "generations 500 evaluations 50100 convergence 0x3fd147ae147ae148 hits 213364 misses 16163",
            "0:0,88:1,108:3 0xbffb0d970da8a99e 1",
            "0:2,7:3,89:5 0xbffb0d970da8a99e 1",
            "0:2,88:0,89:2 0xbffb0d970da8a99e 1",
            "0:2,89:5,94:4 0xbffb0d970da8a99e 1",
            "0:3,88:1,89:4 0xbffb0d970da8a99e 1",
            "0:3,88:2,89:4 0xbffb0d970da8a99e 1",
            "0:3,88:3,89:5 0xbffb0d970da8a99e 1",
            "0:4,19:4,89:4 0xbffb0d970da8a99e 1",
            "0:4,26:0,89:4 0xbffb0d970da8a99e 1",
            "0:5,3:1,89:5 0xbffb0d970da8a99e 1",
            "0:5,26:2,88:1 0xbffb0d970da8a99e 1",
            "0:5,88:3,89:5 0xbffb0d970da8a99e 1",
            "1:0,34:4,89:5 0xbffb0d970da8a99e 1",
            "1:0,88:0,89:1 0xbffb0d970da8a99e 1",
            "1:1,69:5,89:4 0xbffb0d970da8a99e 1",
            "1:1,88:1,99:2 0xbffb0d970da8a99e 1",
            "1:1,88:2,89:5 0xbffb0d970da8a99e 1",
            "1:1,88:3,89:0 0xbffb0d970da8a99e 1",
            "1:2,59:1,88:0 0xbffb0d970da8a99e 1",
            "1:2,88:0,89:3 0xbffb0d970da8a99e 1",
        ],
    );
}
