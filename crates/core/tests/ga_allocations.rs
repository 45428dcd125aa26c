//! The evolutionary search scores cubes from borrowed sorted pairs held in
//! reused buffers: the memo and the tracked best set allocate a key only
//! the first time a cube is seen, and no candidate builds a heap `Cube`.
//! Measured with the counting allocator, a whole run with either crossover
//! must allocate fewer than ten blocks per fitness evaluation.
//!
//! The runs are at k = 2, where this input never holds m cubes at the
//! count-1 floor, so both crossovers run all 500 generations and the bound
//! covers a full run. At k = 3 the search stops at the floor within a few
//! dozen generations.
//!
//! This binary holds a single test so no other test's allocations land
//! between the two counter reads.

use hdoutlier_core::crossover::CrossoverKind;
use hdoutlier_core::evolutionary::{evolutionary_search, EvolutionaryConfig};
use hdoutlier_core::fitness::SparsityFitness;
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_index::{BitmapCounter, CachedCounter};
use hdoutlier_obs::{alloc_stats, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn ga_allocations_stay_below_ten_blocks_per_evaluation() {
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 1_000,
        n_dims: 120,
        seed: 17,
        ..PlantedConfig::default()
    });
    let disc = Discretized::new(&planted.dataset, 6, DiscretizeStrategy::EquiDepth).unwrap();
    for crossover in [CrossoverKind::Optimized, CrossoverKind::TwoPoint] {
        let counter = CachedCounter::new(BitmapCounter::new(&disc));
        let fitness = SparsityFitness::new(&counter, 2);
        let config = EvolutionaryConfig {
            crossover,
            seed: 7,
            ..EvolutionaryConfig::default()
        };

        let before = alloc_stats().allocations;
        let out = evolutionary_search(&fitness, &config);
        let allocations = alloc_stats().allocations - before;

        // The seed population and 500 generations of 100.
        assert_eq!(out.evaluations, 50_100, "{crossover:?}");
        assert!(
            allocations < 10 * out.evaluations,
            "{crossover:?}: {allocations} allocations for {} evaluations",
            out.evaluations
        );
    }
}
