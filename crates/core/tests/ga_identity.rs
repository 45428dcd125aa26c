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
//!
//! At k = 3 every run stops at the count-1 floor within 25 generations,
//! with all 20 reported cubes holding one record. At k = 2 the same input
//! never yields 20 count-1 cubes, so those four runs go to the
//! 500-generation cap: they pin a run the floor rule leaves untouched.

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

/// One run's output at dimensionality `k` in a comparable form: the summary
/// line, then one line per reported projection.
fn run(k: usize, config: &EvolutionaryConfig) -> Vec<String> {
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 1_000,
        n_dims: 120,
        seed: 17,
        ..PlantedConfig::default()
    });
    let disc = Discretized::new(&planted.dataset, 6, DiscretizeStrategy::EquiDepth).unwrap();
    let counter = CachedCounter::new(BitmapCounter::new(&disc));
    let fitness = SparsityFitness::new(&counter, k);
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

fn check(k: usize, config: EvolutionaryConfig, want: &[&str]) {
    let got = run(k, &config);
    assert_eq!(got, want, "k = {k}, {config:?}; got:\n{}", got.join("\n"));
}

#[test]
fn optimized_crossover_at_seed_1() {
    check(
        3,
        config(CrossoverKind::Optimized, 1),
        &[
            "generations 1 evaluations 200 convergence 0x3fa47ae147ae147b hits 566 misses 687",
            "3:3,7:2,26:4 0xbffb0d970da8a99e 1",
            "3:4,5:5,9:3 0xbffb0d970da8a99e 1",
            "3:4,5:5,86:4 0xbffb0d970da8a99e 1",
            "6:0,7:2,104:3 0xbffb0d970da8a99e 1",
            "17:1,97:3,110:1 0xbffb0d970da8a99e 1",
            "18:3,48:5,57:1 0xbffb0d970da8a99e 1",
            "18:3,48:5,59:5 0xbffb0d970da8a99e 1",
            "18:5,21:1,104:2 0xbffb0d970da8a99e 1",
            "18:5,22:5,104:2 0xbffb0d970da8a99e 1",
            "22:5,55:5,86:5 0xbffb0d970da8a99e 1",
            "28:4,29:1,72:5 0xbffb0d970da8a99e 1",
            "33:5,35:2,116:2 0xbffb0d970da8a99e 1",
            "35:2,87:5,93:3 0xbffb0d970da8a99e 1",
            "35:2,87:5,105:1 0xbffb0d970da8a99e 1",
            "39:3,84:5,87:5 0xbffb0d970da8a99e 1",
            "39:4,49:4,95:4 0xbffb0d970da8a99e 1",
            "46:2,57:2,116:1 0xbffb0d970da8a99e 1",
            "46:2,83:4,116:1 0xbffb0d970da8a99e 1",
            "50:0,67:5,93:0 0xbffb0d970da8a99e 1",
            "55:5,86:5,110:0 0xbffb0d970da8a99e 1",
        ],
    );
}

#[test]
fn optimized_crossover_at_seed_7() {
    check(
        3,
        config(CrossoverKind::Optimized, 7),
        &[
            "generations 1 evaluations 200 convergence 0x3f9eb851eb851eb8 hits 574 misses 681",
            "3:2,78:4,106:2 0xbffb0d970da8a99e 1",
            "12:3,57:2,59:4 0xbffb0d970da8a99e 1",
            "12:5,99:1,115:0 0xbffb0d970da8a99e 1",
            "13:5,58:2,107:2 0xbffb0d970da8a99e 1",
            "13:5,94:3,99:1 0xbffb0d970da8a99e 1",
            "13:5,94:3,107:2 0xbffb0d970da8a99e 1",
            "16:5,75:5,94:1 0xbffb0d970da8a99e 1",
            "17:0,59:5,102:2 0xbffb0d970da8a99e 1",
            "17:2,81:4,97:5 0xbffb0d970da8a99e 1",
            "17:5,90:4,110:3 0xbffb0d970da8a99e 1",
            "18:1,87:5,118:0 0xbffb0d970da8a99e 1",
            "22:3,29:2,75:1 0xbffb0d970da8a99e 1",
            "37:2,72:2,110:3 0xbffb0d970da8a99e 1",
            "38:4,61:1,106:1 0xbffb0d970da8a99e 1",
            "42:4,88:2,115:3 0xbffb0d970da8a99e 1",
            "58:5,108:4,110:0 0xbffb0d970da8a99e 1",
            "59:4,106:2,107:4 0xbffb0d970da8a99e 1",
            "61:3,69:3,93:1 0xbffb0d970da8a99e 1",
            "75:1,84:1,112:2 0xbffb0d970da8a99e 1",
            "81:0,106:2,108:4 0xbffb0d970da8a99e 1",
        ],
    );
}

#[test]
fn two_point_crossover_at_seed_1() {
    check(
        3,
        config(CrossoverKind::TwoPoint, 1),
        &[
            "generations 12 evaluations 1300 convergence 0x3ff0000000000000 hits 645 misses 373",
            "3:3,7:2,26:4 0xbffb0d970da8a99e 1",
            "3:4,5:5,48:5 0xbffb0d970da8a99e 1",
            "6:0,7:2,104:3 0xbffb0d970da8a99e 1",
            "6:3,54:5,108:2 0xbffb0d970da8a99e 1",
            "8:4,35:4,49:4 0xbffb0d970da8a99e 1",
            "9:4,48:5,116:1 0xbffb0d970da8a99e 1",
            "16:3,35:1,76:4 0xbffb0d970da8a99e 1",
            "16:3,59:2,87:3 0xbffb0d970da8a99e 1",
            "17:1,97:3,110:1 0xbffb0d970da8a99e 1",
            "18:3,66:4,79:3 0xbffb0d970da8a99e 1",
            "20:2,65:0,110:0 0xbffb0d970da8a99e 1",
            "28:5,35:4,54:0 0xbffb0d970da8a99e 1",
            "29:1,35:1,54:0 0xbffb0d970da8a99e 1",
            "35:2,87:5,105:1 0xbffb0d970da8a99e 1",
            "44:2,57:1,86:5 0xbffb0d970da8a99e 1",
            "49:4,67:5,103:3 0xbffb0d970da8a99e 1",
            "49:4,84:0,100:5 0xbffb0d970da8a99e 1",
            "57:2,83:4,116:1 0xbffb0d970da8a99e 1",
            "57:2,112:0,114:1 0xbffb0d970da8a99e 1",
            "60:1,61:4,116:1 0xbffb0d970da8a99e 1",
        ],
    );
}

#[test]
fn two_point_crossover_at_seed_7() {
    check(
        3,
        config(CrossoverKind::TwoPoint, 7),
        &[
            "generations 25 evaluations 2600 convergence 0x3fd28f5c28f5c28f hits 1390 misses 580",
            "2:1,10:4,96:0 0xbffb0d970da8a99e 1",
            "8:0,28:3,54:4 0xbffb0d970da8a99e 1",
            "9:1,28:1,49:0 0xbffb0d970da8a99e 1",
            "9:2,28:1,35:1 0xbffb0d970da8a99e 1",
            "11:2,35:0,78:3 0xbffb0d970da8a99e 1",
            "17:0,59:5,102:2 0xbffb0d970da8a99e 1",
            "20:3,35:1,106:5 0xbffb0d970da8a99e 1",
            "20:3,35:1,114:4 0xbffb0d970da8a99e 1",
            "20:3,54:0,115:3 0xbffb0d970da8a99e 1",
            "23:1,28:0,54:0 0xbffb0d970da8a99e 1",
            "23:3,28:3,42:4 0xbffb0d970da8a99e 1",
            "28:3,54:0,111:0 0xbffb0d970da8a99e 1",
            "28:3,70:5,106:0 0xbffb0d970da8a99e 1",
            "42:4,67:4,112:2 0xbffb0d970da8a99e 1",
            "42:4,88:2,115:3 0xbffb0d970da8a99e 1",
            "54:0,60:2,70:3 0xbffb0d970da8a99e 1",
            "61:3,69:3,93:1 0xbffb0d970da8a99e 1",
            "75:1,84:1,112:2 0xbffb0d970da8a99e 1",
            "75:1,100:3,106:5 0xbffb0d970da8a99e 1",
            "81:0,106:2,108:4 0xbffb0d970da8a99e 1",
        ],
    );
}

#[test]
fn population_members_only_without_internal_tracking() {
    check(
        3,
        EvolutionaryConfig {
            track_internal_candidates: false,
            ..config(CrossoverKind::Optimized, 7)
        },
        &[
            "generations 2 evaluations 300 convergence 0x3faeb851eb851eb8 hits 952 misses 1052",
            "4:4,110:5,114:4 0xbffb0d970da8a99e 1",
            "8:5,115:1,118:4 0xbffb0d970da8a99e 1",
            "12:3,57:2,59:4 0xbffb0d970da8a99e 1",
            "12:5,42:4,88:2 0xbffb0d970da8a99e 1",
            "12:5,99:1,115:0 0xbffb0d970da8a99e 1",
            "13:5,58:2,107:2 0xbffb0d970da8a99e 1",
            "13:5,94:3,99:1 0xbffb0d970da8a99e 1",
            "13:5,94:3,107:2 0xbffb0d970da8a99e 1",
            "16:5,75:5,94:1 0xbffb0d970da8a99e 1",
            "16:5,94:5,118:2 0xbffb0d970da8a99e 1",
            "17:0,59:5,102:2 0xbffb0d970da8a99e 1",
            "17:3,49:2,111:3 0xbffb0d970da8a99e 1",
            "17:5,90:4,110:3 0xbffb0d970da8a99e 1",
            "18:1,87:5,118:0 0xbffb0d970da8a99e 1",
            "18:5,37:4,59:4 0xbffb0d970da8a99e 1",
            "20:2,52:1,84:1 0xbffb0d970da8a99e 1",
            "22:3,49:2,111:3 0xbffb0d970da8a99e 1",
            "22:3,97:3,118:5 0xbffb0d970da8a99e 1",
            "33:3,97:5,111:4 0xbffb0d970da8a99e 1",
            "37:2,72:2,110:3 0xbffb0d970da8a99e 1",
        ],
    );
}

#[test]
fn optimized_crossover_at_k2_seed_1() {
    check(
        2,
        config(CrossoverKind::Optimized, 1),
        &[
            "generations 500 evaluations 50100 convergence 0x3fd1eb851eb851ec hits 153521 misses 5074",
            "0:3,1:0 0xc0149c76bfeae3e5 1",
            "8:0,9:3 0xc0149c76bfeae3e5 1",
            "30:0,31:3 0xc0149c76bfeae3e5 1",
            "30:1,31:4 0xc0149c76bfeae3e5 1",
            "30:3,31:0 0xc0149c76bfeae3e5 1",
            "30:5,31:0 0xc0149c76bfeae3e5 1",
            "48:5,49:2 0xc0149c76bfeae3e5 1",
            "56:5,57:2 0xc0149c76bfeae3e5 1",
            "30:5,31:2 0xc013d76ae11d9a96 2",
            "0:5,1:3 0xc013125f02505148 3",
            "8:1,9:4 0xc013125f02505148 3",
            "30:2,31:0 0xc013125f02505148 3",
            "8:3,9:5 0xc0124d53238307f9 4",
            "30:3,31:5 0xc011884744b5beaa 5",
            "30:5,31:3 0xc010c33b65e8755c 6",
            "44:4,45:2 0xc00ffc5f0e36581a 7",
            "8:1,9:3 0xc00ce82f930132df 9",
            "30:0,31:2 0xc00ce82f930132df 9",
            "0:2,1:0 0xc00b5e17d566a042 10",
            "24:1,31:3 0xc00849e85a317b07 12",
        ],
    );
}

#[test]
fn optimized_crossover_at_k2_seed_7() {
    check(
        2,
        config(CrossoverKind::Optimized, 7),
        &[
            "generations 500 evaluations 50100 convergence 0x3fe0000000000000 hits 154463 misses 6094",
            "4:2,5:5 0xc0149c76bfeae3e5 1",
            "4:5,5:2 0xc0149c76bfeae3e5 1",
            "12:5,13:0 0xc0149c76bfeae3e5 1",
            "70:2,71:5 0xc0149c76bfeae3e5 1",
            "74:0,75:4 0xc0149c76bfeae3e5 1",
            "74:0,75:5 0xc0149c76bfeae3e5 1",
            "74:1,75:4 0xc0149c76bfeae3e5 1",
            "74:2,75:5 0xc0149c76bfeae3e5 1",
            "4:0,5:2 0xc013125f02505148 3",
            "4:4,5:1 0xc013125f02505148 3",
            "74:0,75:2 0xc013125f02505148 3",
            "74:3,75:5 0xc013125f02505148 3",
            "4:1,5:4 0xc011884744b5beaa 5",
            "4:2,5:0 0xc011884744b5beaa 5",
            "38:0,39:2 0xc011884744b5beaa 5",
            "4:3,5:5 0xc010c33b65e8755c 6",
            "4:3,5:1 0xc00e7247509bc57d 8",
            "4:5,5:3 0xc00e7247509bc57d 8",
            "74:5,75:3 0xc00ce82f930132df 9",
            "4:1,5:3 0xc00b5e17d566a042 10",
        ],
    );
}

#[test]
fn two_point_crossover_at_k2_seed_1() {
    check(
        2,
        config(CrossoverKind::TwoPoint, 1),
        &[
            "generations 500 evaluations 50100 convergence 0x3ff0000000000000 hits 44979 misses 4838",
            "24:4,25:0 0xc0149c76bfeae3e5 1",
            "94:0,95:3 0xc0149c76bfeae3e5 1",
            "94:1,95:4 0xc0149c76bfeae3e5 1",
            "94:4,95:1 0xc0149c76bfeae3e5 1",
            "94:5,95:2 0xc0149c76bfeae3e5 1",
            "94:3,95:0 0xc013d76ae11d9a96 2",
            "94:5,95:3 0xc013125f02505148 3",
            "94:2,95:0 0xc0124d53238307f9 4",
            "94:3,95:5 0xc0124d53238307f9 4",
            "94:0,95:2 0xc010c33b65e8755c 6",
            "44:4,45:2 0xc00ffc5f0e36581a 7",
            "68:3,69:5 0xc00b5e17d566a042 10",
            "94:1,95:3 0xc00b5e17d566a042 10",
            "94:3,95:1 0xc006bfd09c96e86a 13",
            "0:0,37:5 0xc00535b8defc55cc 14",
            "0:1,95:1 0xc003aba12161c32f 15",
            "1:4,94:0 0xc003aba12161c32f 15",
            "48:3,94:0 0xc003aba12161c32f 15",
            "94:2,95:4 0xc003aba12161c32f 15",
            "95:3,117:3 0xc003aba12161c32f 15",
        ],
    );
}

#[test]
fn two_point_crossover_at_k2_seed_7() {
    check(
        2,
        config(CrossoverKind::TwoPoint, 7),
        &[
            "generations 500 evaluations 50100 convergence 0x3fdf5c28f5c28f5c hits 42372 misses 5783",
            "108:1,109:5 0xc0149c76bfeae3e5 1",
            "78:1,79:4 0xc013d76ae11d9a96 2",
            "78:3,79:0 0xc013d76ae11d9a96 2",
            "78:4,79:1 0xc013125f02505148 3",
            "84:3,85:5 0xc013125f02505148 3",
            "108:0,109:3 0xc013125f02505148 3",
            "78:5,79:3 0xc010c33b65e8755c 6",
            "78:0,79:2 0xc00ffc5f0e36581a 7",
            "78:3,79:5 0xc00ffc5f0e36581a 7",
            "78:4,79:2 0xc00ffc5f0e36581a 7",
            "8:2,9:0 0xc00b5e17d566a042 10",
            "22:1,78:0 0xc00849e85a317b07 12",
            "78:1,79:3 0xc00849e85a317b07 12",
            "78:2,79:0 0xc006bfd09c96e86a 13",
            "28:3,91:5 0xc00535b8defc55cc 14",
            "69:5,78:2 0xc00535b8defc55cc 14",
            "9:3,84:5 0xc003aba12161c32f 15",
            "27:4,87:5 0xc003aba12161c32f 15",
            "32:3,102:2 0xc003aba12161c32f 15",
            "58:3,78:5 0xc003aba12161c32f 15",
        ],
    );
}
