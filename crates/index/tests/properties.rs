//! Seeded property tests for the counting substrate: the bitmap counter
//! and its cache must agree with the naive row scan on arbitrary grids with
//! missing values, whether a cube is counted as a [`Cube`] or as its
//! borrowed sorted pairs. All run on [`hdoutlier_rng::for_each_case`]; a
//! failing case prints the seed that replays it alone.

use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::Dataset;
use hdoutlier_index::{BitmapCounter, CachedCounter, Cube, CubeCounter, NaiveCounter};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::seq::SliceRandom;
use hdoutlier_rng::{for_each_case, Rng};
use std::collections::HashSet;
use std::ops::Range;

/// A 2–59-row dataset of `dims` columns in `±100` with about one value in
/// nine missing, discretized equi-depth at a random `φ < phi_below`.
fn grid_with_missing(rng: &mut StdRng, dims: Range<usize>, phi_below: u32) -> Discretized {
    let (n, d) = (rng.gen_range(2..60), rng.gen_range(dims));
    let values = (0..n * d)
        .map(|_| {
            if rng.gen_range(0..9) == 0 {
                f64::NAN
            } else {
                rng.gen_range(-100.0..100.0)
            }
        })
        .collect();
    let ds = Dataset::new(values, n, d).unwrap();
    let phi = rng.gen_range(1..phi_below);
    Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap()
}

/// A cube over 1–4 distinct dimensions of the grid, with random ranges.
fn random_cube(rng: &mut StdRng, disc: &Discretized) -> Cube {
    let dims = shuffled_dims(rng, disc);
    let k = rng.gen_range(1..=dims.len().min(4));
    cube_on(rng, &dims[..k], disc)
}

/// A cube over `k` distinct random dimensions of the grid, with random
/// ranges.
fn random_cube_of(rng: &mut StdRng, disc: &Discretized, k: usize) -> Cube {
    let dims = shuffled_dims(rng, disc);
    cube_on(rng, &dims[..k], disc)
}

fn shuffled_dims(rng: &mut StdRng, disc: &Discretized) -> Vec<u32> {
    let mut dims: Vec<u32> = (0..disc.n_dims() as u32).collect();
    dims.shuffle(rng);
    dims
}

fn cube_on(rng: &mut StdRng, dims: &[u32], disc: &Discretized) -> Cube {
    Cube::new(
        dims.iter()
            .map(|&dim| (dim, rng.gen_range(0..disc.phi() as u16))),
    )
    .unwrap()
}

#[test]
fn bitmap_counter_matches_the_naive_scan_with_missing_values() {
    for_each_case(0x1dec_0001, 256, |rng| {
        let disc = grid_with_missing(rng, 2..6, 8);
        let bitmap = BitmapCounter::new(&disc);
        let naive = NaiveCounter::new(&disc);
        for _ in 0..10 {
            let cube = random_cube(rng, &disc);
            assert_eq!(bitmap.count(&cube), naive.count(&cube), "count of {cube}");
            assert_eq!(bitmap.rows(&cube), naive.rows(&cube), "rows of {cube}");
        }
    });
}

#[test]
fn cached_counter_is_transparent() {
    for_each_case(0x1dec_0002, 256, |rng| {
        let disc = grid_with_missing(rng, 2..6, 6);
        let naive = NaiveCounter::new(&disc);
        let cached = CachedCounter::new(BitmapCounter::new(&disc));
        let cube = random_cube(rng, &disc);
        for _ in 0..3 {
            assert_eq!(cached.count(&cube), naive.count(&cube), "{cube}");
            assert_eq!(cached.rows(&cube), naive.rows(&cube), "{cube}");
        }
    });
}

#[test]
fn counters_agree_through_the_cube_and_its_sorted_pairs() {
    for_each_case(0x1dec_0003, 128, |rng| {
        let disc = grid_with_missing(rng, 12..16, 6);
        let naive = NaiveCounter::new(&disc);
        let bitmap = BitmapCounter::new(&disc);
        let cached = CachedCounter::new(BitmapCounter::new(&disc));
        let cubes: Vec<Cube> = (1..=12).map(|k| random_cube_of(rng, &disc, k)).collect();
        // The first pass fills the memo (cold), the second reads it (warm).
        for _ in 0..2 {
            for cube in &cubes {
                let want = naive.count(cube);
                assert_eq!(naive.count_pairs(cube.pairs()), want, "{cube}");
                assert_eq!(bitmap.count(cube), want, "{cube}");
                assert_eq!(bitmap.count_pairs(cube.pairs()), want, "{cube}");
                assert_eq!(cached.count(cube), want, "{cube}");
                assert_eq!(cached.count_pairs(cube.pairs()), want, "{cube}");
            }
        }
        let (hits, misses) = cached.stats();
        let distinct: HashSet<&Cube> = cubes.iter().collect();
        assert_eq!(hits + misses, 4 * cubes.len() as u64);
        assert_eq!(misses, distinct.len() as u64);
        // The empty slice constrains nothing: every record is covered.
        let n = disc.n_rows();
        assert_eq!(naive.count_pairs(&[]), n);
        assert_eq!(bitmap.count_pairs(&[]), n);
        assert_eq!(cached.count_pairs(&[]), n);
    });
}
