//! The brute-force search allocates per task, never per node: each
//! depth's buffers — its nodes' grouped member positions and group bounds,
//! and the local table a child gathers from them (a code table, or the pair
//! kernel's local posting index) — the histogram and the best-set storage
//! all belong to one first dimension's task, and each buffer grows only
//! when a node outgrows every earlier one at its depth. Measured with the
//! counting allocator, the whole search must allocate fewer than one block
//! per hundred scored cubes.
//!
//! This binary holds a single test so no other test's allocations land
//! between the two counter reads.

use hdoutlier_core::brute::{brute_force_search_incremental_parallel, BruteForceConfig};
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::uniform;
use hdoutlier_index::BitmapCounter;
use hdoutlier_obs::{alloc_stats, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn search_allocations_do_not_scale_with_the_cube_space() {
    let ds = uniform(20_000, 10, 2001);
    let disc = Discretized::new(&ds, 5, DiscretizeStrategy::EquiDepth).unwrap();
    let counter = BitmapCounter::new(&disc);
    let config = BruteForceConfig::default();

    let before = alloc_stats().allocations;
    let out = brute_force_search_incremental_parallel(&counter, 3, &config, 1);
    let allocations = alloc_stats().allocations - before;

    assert!(out.completed);
    // C(10,3)·5³ cubes, none pruned on 20k uniform rows.
    assert_eq!(out.scored, 15_000);
    assert!(
        allocations < out.scored / 100,
        "{allocations} allocations for {} scored cubes",
        out.scored
    );
}
