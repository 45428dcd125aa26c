//! The posting index shares the grid's code table with the `Discretized`
//! it is built from: under the counting allocator, building the index on a
//! 50,000 × 20 grid at φ = 5 allocates its 100 postings (0.6 MiB) and
//! nothing the size of the 50,000 × 20 table of two-byte codes (1.9 MiB).
//!
//! This binary holds a single test so no other test's allocations land
//! between the two counter reads.

use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::uniform;
use hdoutlier_index::BitmapCounter;
use hdoutlier_obs::{alloc_stats, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn the_index_allocates_its_postings_and_no_code_table() {
    let (n_rows, n_dims, phi) = (50_000, 20, 5);
    let ds = uniform(n_rows, n_dims, 32);
    let disc = Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap();

    let before = alloc_stats().bytes_total;
    let counter = BitmapCounter::new(&disc);
    let allocated = alloc_stats().bytes_total - before;

    let postings = (n_dims * phi as usize * n_rows.div_ceil(64) * 8) as u64;
    let table = (n_rows * n_dims * 2) as u64;
    assert!(
        (postings..postings + 16 * 1024).contains(&allocated),
        "the index allocated {allocated} bytes for {postings} bytes of postings"
    );
    // The table the index reads still counts toward its footprint.
    assert_eq!(
        counter.index().memory_bytes() as u64,
        postings + table,
        "memory_bytes"
    );
}
