//! Reading a CSV file holds the values and one chunk of text, never the
//! whole text: measured with the counting allocator, the bytes live at the
//! peak of `read_path` on a 20,000 × 20 CSV (7.71 MB) stay below the
//! file's length. Measured: 3.31 MB, the value buffer (400,000 numbers,
//! sized from the file's length with 1/64 to spare) and the 64 KiB chunk.
//! Growing the buffer by doubling held 4.26 MB; reading the text whole
//! held 11.90 MB.
//!
//! This binary holds a single test so no other test's allocations land
//! between the two counter reads.

use hdoutlier_data::csv::{read_path, CsvOptions};
use hdoutlier_obs::{alloc_stats, CountingAllocator};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{Rng, SeedableRng};
use std::io::Write;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn reading_a_file_holds_less_than_its_text() {
    let (n_rows, n_dims) = (20_000, 20);
    let dir = std::env::temp_dir().join("hdoutlier-csv-peak-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("peak.csv");
    // Written a row at a time, so no copy of the text is ever live.
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let header: Vec<String> = (0..n_dims).map(|j| format!("c{j}")).collect();
    writeln!(out, "{}", header.join(",")).unwrap();
    let mut rng = StdRng::seed_from_u64(2025);
    for _ in 0..n_rows {
        for j in 0..n_dims {
            let sep = if j + 1 == n_dims { '\n' } else { ',' };
            write!(out, "{}{sep}", rng.gen::<f64>()).unwrap();
        }
    }
    drop(out);
    let file_len = std::fs::metadata(&path).unwrap().len();

    // The peak after the read, less what was live before it, bounds what
    // the read held at its own peak.
    let live_before = alloc_stats().bytes_live;
    let ds = read_path(&path, &CsvOptions::default()).unwrap();
    let held = alloc_stats().bytes_peak - live_before;
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!((ds.n_rows(), ds.n_dims()), (n_rows, n_dims));
    assert!(
        held < file_len,
        "read_path held {held} bytes at its peak for a {file_len}-byte file"
    );
}
