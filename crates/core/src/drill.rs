//! Record-level drill-down: for one record, enumerate and rank every
//! subspace view of it.
//!
//! The searches answer "which cubes are abnormally sparse?"; an analyst
//! triaging a specific alert asks the transposed question — "in which views
//! is *this record* abnormal?" For a fixed record the answer space is tiny:
//! a dimension subset `A` determines exactly one cube (the record's own
//! cells on `A`), so the complete k-dimensional profile is just `C(d, k)`
//! cubes, enumerable directly rather than searched. Views are ranked by
//! exact significance so different `k` are comparable (§1.1's
//! comparability desideratum).

use hdoutlier_data::discretize::MISSING_CELL;
use hdoutlier_data::Discretized;
use hdoutlier_index::{Cube, CubeCounter};
use hdoutlier_stats::SparsityParams;

/// One view of the record: the cube its cells define on a dimension subset.
#[derive(Debug, Clone)]
pub struct RecordView {
    /// The cube (the record's own cells on the chosen dimensions).
    pub cube: Cube,
    /// Occupancy of the cube (at least 1 — the record itself).
    pub count: usize,
    /// Sparsity coefficient at the cube's dimensionality.
    pub sparsity: f64,
    /// Exact significance `P[occupancy <= count]` — the cross-k ranking key.
    pub exact_significance: f64,
}

/// Complete profile of one record across the requested dimensionalities,
/// ascending by exact significance (most abnormal views first).
///
/// Dimensions on which the record is missing are skipped (a missing value
/// belongs to no range — §1.2 semantics). The cost is
/// `Σ_k C(d_present, k)` counter queries; keep `ks` small (1–3) for wide
/// data. The view list is enumerated serially (cheap combinatorics); only
/// the occupancy counts and their significance run on `threads` pool
/// workers, and they come back in enumeration order, so the profile is
/// bit-identical at any thread count.
///
/// # Panics
/// Panics if `row` is out of bounds, any `k` exceeds the number of present
/// attributes, or `threads` is 0.
pub fn record_profile<C: CubeCounter + Sync>(
    counter: &C,
    disc: &Discretized,
    row: usize,
    ks: &[usize],
    threads: usize,
) -> Vec<RecordView> {
    let cubes = enumerate_view_cubes(counter, disc, row, ks);
    let views = hdoutlier_pool::map(threads, &cubes, |_, entry| score_view(counter, entry));
    sort_views(views)
}

/// Every view cube of the record at the requested dimensionalities, paired
/// with the sparsity parameters of its `k`, in deterministic enumeration
/// order.
fn enumerate_view_cubes<C: CubeCounter>(
    counter: &C,
    disc: &Discretized,
    row: usize,
    ks: &[usize],
) -> Vec<(SparsityParams, Cube)> {
    assert!(row < disc.n_rows(), "row {row} out of bounds");
    let cells = disc.row(row);
    let present: Vec<(u32, u16)> = cells
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != MISSING_CELL)
        .map(|(d, &c)| (d as u32, c))
        .collect();
    let n = counter.n_rows() as u64;
    let phi = counter.phi();

    let mut cubes = Vec::new();
    for &k in ks {
        assert!(
            k >= 1 && k <= present.len(),
            "k = {k} out of range for {} present attributes",
            present.len()
        );
        let params = SparsityParams::new(n, phi, k as u32).expect("validated");
        let mut chosen: Vec<(u32, u16)> = Vec::with_capacity(k);
        subsets(&present, k, &mut chosen, &mut |pairs| {
            cubes.push((
                params,
                Cube::new(pairs.iter().copied()).expect("distinct dims"),
            ));
        });
    }
    cubes
}

/// Scores one enumerated view: the only counter query of the profile path.
fn score_view<C: CubeCounter>(counter: &C, entry: &(SparsityParams, Cube)) -> RecordView {
    let (params, cube) = entry;
    let count = counter.count(cube);
    debug_assert!(count >= 1, "a record always covers its own cube");
    RecordView {
        cube: cube.clone(),
        count,
        sparsity: params.sparsity(count as u64),
        exact_significance: params.exact_significance(count as u64),
    }
}

fn sort_views(mut views: Vec<RecordView>) -> Vec<RecordView> {
    views.sort_by(|a, b| {
        a.exact_significance
            .partial_cmp(&b.exact_significance)
            .expect("finite significance")
            .then_with(|| a.cube.dims().cmp(b.cube.dims()))
    });
    views
}

fn subsets<F: FnMut(&[(u32, u16)])>(
    items: &[(u32, u16)],
    k: usize,
    chosen: &mut Vec<(u32, u16)>,
    visit: &mut F,
) {
    if chosen.len() == k {
        visit(chosen);
        return;
    }
    let start = chosen.last().map_or(0, |last| {
        items.iter().position(|x| x == last).expect("member") + 1
    });
    let remaining = k - chosen.len();
    if items.len() - start < remaining {
        return;
    }
    for i in start..items.len() {
        chosen.push(items[i]);
        subsets(items, k, chosen, visit);
        chosen.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::discretize::DiscretizeStrategy;
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
    use hdoutlier_data::Dataset;
    use hdoutlier_index::BitmapCounter;

    fn fixture() -> (
        hdoutlier_data::generators::PlantedOutliers,
        Discretized,
        BitmapCounter,
    ) {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 1500,
            n_dims: 8,
            n_outliers: 3,
            strong_groups: Some(2),
            seed: 71,
            ..PlantedConfig::default()
        });
        let disc = Discretized::new(&planted.dataset, 5, DiscretizeStrategy::EquiDepth).unwrap();
        let counter = BitmapCounter::new(&disc);
        (planted, disc, counter)
    }

    #[test]
    fn planted_outliers_top_view_is_their_signature_pair() {
        let (planted, disc, counter) = fixture();
        for (&row, &(lo, hi)) in planted.outlier_rows.iter().zip(&planted.signatures) {
            let profile = record_profile(&counter, &disc, row, &[2], 1);
            let top = &profile[0];
            let mut want = [lo as u32, hi as u32];
            want.sort_unstable();
            assert_eq!(
                top.cube.dims().collect::<Vec<_>>(),
                want,
                "row {row}: top view {} (S = {:.2})",
                top.cube,
                top.sparsity
            );
            assert!(top.sparsity < -3.0);
        }
    }

    #[test]
    fn profile_is_complete_and_sorted() {
        let (_, disc, counter) = fixture();
        let profile = record_profile(&counter, &disc, 0, &[1, 2], 1);
        // C(8,1) + C(8,2) views.
        assert_eq!(profile.len(), 8 + 28);
        for w in profile.windows(2) {
            assert!(w[0].exact_significance <= w[1].exact_significance);
        }
        for v in &profile {
            assert!(v.count >= 1, "record covers its own cube");
        }
    }

    #[test]
    fn typical_record_has_no_significant_views() {
        let (planted, disc, counter) = fixture();
        // A bulk record whose views should all be unremarkable.
        let bulk_row = (0..1500)
            .find(|&r| !planted.is_outlier(r))
            .expect("bulk exists");
        let profile = record_profile(&counter, &disc, bulk_row, &[2], 1);
        // Most views are not extreme; allow a couple of mild ones.
        let extreme = profile
            .iter()
            .filter(|v| v.exact_significance < 1e-6)
            .count();
        assert!(extreme <= 2, "{extreme} extreme views for a bulk record");
    }

    #[test]
    fn missing_dimensions_are_skipped() {
        let mut rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![i as f64, (i * 7 % 60) as f64, (i * 11 % 60) as f64])
            .collect();
        rows[5][1] = f64::NAN;
        let ds = Dataset::from_rows(rows).unwrap();
        let disc = Discretized::new(&ds, 3, DiscretizeStrategy::EquiDepth).unwrap();
        let counter = BitmapCounter::new(&disc);
        // Row 5 has 2 present attributes: C(2,1) + C(2,2) = 3 views, none
        // involving dim 1.
        let profile = record_profile(&counter, &disc, 5, &[1, 2], 1);
        assert_eq!(profile.len(), 3);
        for v in &profile {
            assert!(v.cube.dims().all(|d| d != 1));
        }
    }

    #[test]
    fn threaded_profile_is_bit_identical_to_serial() {
        let (_, disc, counter) = fixture();
        let serial = record_profile(&counter, &disc, 3, &[1, 2], 1);
        for threads in [1, 2, 8] {
            let got = record_profile(&counter, &disc, 3, &[1, 2], threads);
            assert_eq!(got.len(), serial.len());
            for (g, s) in got.iter().zip(&serial) {
                assert_eq!(g.cube, s.cube, "threads = {threads}");
                assert_eq!(g.count, s.count);
                assert_eq!(g.sparsity.to_bits(), s.sparsity.to_bits());
                assert_eq!(
                    g.exact_significance.to_bits(),
                    s.exact_significance.to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_row_panics() {
        let (_, disc, counter) = fixture();
        record_profile(&counter, &disc, 99_999, &[1], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_k_panics() {
        let (_, disc, counter) = fixture();
        record_profile(&counter, &disc, 0, &[9], 1);
    }
}
