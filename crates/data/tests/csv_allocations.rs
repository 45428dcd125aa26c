//! The CSV reader allocates per document, never per field: numbers are
//! parsed from slices of the text straight into the dataset's value
//! buffer. Measured with the counting allocator, reading a 5,000 × 40 CSV
//! must allocate fewer blocks than the CSV has rows.
//!
//! This binary holds a single test so no other test's allocations land
//! between the two counter reads.

use hdoutlier_data::csv::{read_str, write_string, CsvOptions};
use hdoutlier_data::generators::uniform;
use hdoutlier_obs::{alloc_stats, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn read_allocations_do_not_scale_with_the_fields() {
    let (n_rows, n_dims) = (5_000, 40);
    let text = write_string(&uniform(n_rows, n_dims, 2001));
    let options = CsvOptions::default();

    let before = alloc_stats().allocations;
    let ds = read_str(&text, &options).unwrap();
    let allocations = alloc_stats().allocations - before;

    assert_eq!((ds.n_rows(), ds.n_dims()), (n_rows, n_dims));
    assert!(
        allocations < n_rows as u64,
        "{allocations} allocations to read {n_rows} rows of {n_dims} fields"
    );
}
