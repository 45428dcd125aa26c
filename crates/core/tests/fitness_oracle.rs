//! Oracle tests for [`hdoutlier_core::SparsityFitness`]: the sparsity
//! coefficient the fitness reports is checked against a **naive recount**
//! (a row scan of the discretized matrix, no index) fed through Eq. 1
//! recomputed from first principles. The index, the projection→cube
//! mapping, and the statistics all have to agree for these to pass.
//!
//! Also pins the two starvation edge cases: `n(D) = 0` (the empty-cube
//! coefficient of §2.4) and `f^k` underflow (where Eq. 1 degenerates to
//! `0/0` — the fitness must answer `+∞`, never `NaN`).
//!
//! Finally the brute-force walker is checked, outcome for outcome, against
//! an exhaustive enumeration over [`NaiveCounter`] on grids with missing
//! cells, with draws that reach both of its leaf kernels.

use hdoutlier_core::brute::{brute_force_search_incremental_parallel, BruteForceConfig};
use hdoutlier_core::projection::STAR;
use hdoutlier_core::{Projection, SparsityFitness};
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::uniform;
use hdoutlier_data::Dataset;
use hdoutlier_index::{BitmapCounter, Cube, CubeCounter, NaiveCounter};
use hdoutlier_stats::rank::BoundedBest;
use hdoutlier_stats::SparsityParams;

/// Deterministic xorshift64* so every run sees the same random grids.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The oracle rows: scan every discretized row and check the fixed genes
/// by hand. No bitmaps, no cubes.
fn naive_rows(disc: &Discretized, genes: &[u16]) -> Vec<usize> {
    (0..disc.n_rows())
        .filter(|&r| {
            genes
                .iter()
                .enumerate()
                .all(|(d, &g)| g == STAR || disc.cell(r, d) == g)
        })
        .collect()
}

/// The oracle count: how many rows [`naive_rows`] finds.
fn naive_recount(disc: &Discretized, genes: &[u16]) -> usize {
    naive_rows(disc, genes).len()
}

/// Eq. 1 recomputed directly: `S = (n(D) − N·f^k) / sqrt(N·f^k·(1 − f^k))`.
fn oracle_sparsity(count: usize, n: usize, phi: u32, k: usize) -> f64 {
    let fk = (1.0 / phi as f64).powi(k as i32);
    let expected = n as f64 * fk;
    (count as f64 - expected) / (expected * (1.0 - fk)).sqrt()
}

fn assert_close(got: f64, want: f64, context: &str) {
    let tol = 1e-12 * want.abs().max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{context}: got {got}, oracle says {want}"
    );
}

/// A random feasible projection: `k` distinct dimensions, random cells.
fn random_projection(rng: &mut XorShift, d: usize, phi: u32, k: usize) -> Projection {
    let mut genes = vec![STAR; d];
    let mut fixed = 0;
    while fixed < k {
        let dim = rng.below(d as u64) as usize;
        if genes[dim] == STAR {
            genes[dim] = rng.below(phi as u64) as u16;
            fixed += 1;
        }
    }
    Projection::from_genes(genes)
}

#[test]
fn fitness_matches_the_naive_recount_oracle_on_random_grids() {
    // (rows, dims, phi, k, seed) — small enough to recount by scan, varied
    // enough to hit count 0, count 1, and well-populated cubes.
    let configs = [
        (400usize, 5usize, 4u32, 2usize, 1u64),
        (251, 6, 3, 3, 2),
        (800, 4, 8, 1, 3),
        (120, 7, 5, 4, 4),
    ];
    // Each grid both complete and with ~5% of its cells missing: a missing
    // cell never matches a fixed gene, and N in Eq. 1 stays the row count.
    for (n, d, phi, k, seed) in configs {
        for ds in [uniform(n, d, seed), with_missing(n, d, seed)] {
            let disc = Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap();
            let counter = BitmapCounter::new(&disc);
            let fitness = SparsityFitness::new(&counter, k);
            let mut rng = XorShift(0xDEADBEEF ^ seed);
            for trial in 0..40 {
                let p = random_projection(&mut rng, d, phi, k);
                let rows = naive_rows(&disc, p.genes());
                let context = format!("n={n} d={d} phi={phi} k={k} trial={trial} {p}");
                assert_eq!(
                    fitness.count(&p).unwrap(),
                    rows.len(),
                    "{context}: index disagrees with row scan"
                );
                assert_eq!(fitness.rows(&p), rows, "{context}: covered rows");
                assert_close(
                    fitness.evaluate(&p),
                    oracle_sparsity(rows.len(), n, phi, k),
                    &context,
                );
            }
        }
    }
}

#[test]
fn empty_cubes_score_the_papers_empty_cube_coefficient() {
    // 60 rows spread over 6^3 = 216 cube cells: most cubes are empty.
    let (n, d, phi, k) = (60usize, 4usize, 6u32, 3usize);
    let ds = uniform(n, d, 9);
    let disc = Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap();
    let counter = BitmapCounter::new(&disc);
    let fitness = SparsityFitness::new(&counter, k);
    let params = SparsityParams::new(n as u64, phi, k as u32).unwrap();

    let mut rng = XorShift(0xFEED);
    let mut empties = 0;
    let mut occupied_min = f64::INFINITY;
    for _ in 0..200 {
        let p = random_projection(&mut rng, d, phi, k);
        let recount = naive_recount(&disc, p.genes());
        let s = fitness.evaluate(&p);
        if recount == 0 {
            empties += 1;
            // n(D) = 0 collapses Eq. 1 to −sqrt(N / (φ^k − 1)) (§2.4).
            assert_close(s, params.empty_cube_sparsity(), &format!("{p}"));
            assert_close(s, oracle_sparsity(0, n, phi, k), &format!("{p}"));
            assert!(s < 0.0, "{p}: empty cube must score negative, got {s}");
        } else {
            occupied_min = occupied_min.min(s);
        }
    }
    assert!(empties > 0, "no empty cube sampled in 200 trials");
    // The empty-cube coefficient is the floor of the score scale.
    assert!(
        params.empty_cube_sparsity() < occupied_min,
        "an occupied cube scored below the empty-cube floor"
    );
}

/// A counter for a grid so fine that `f^k = φ^{−k}` underflows `f64`:
/// `64 · ln(65534) ≈ 709.8 > 700`, past the validation cutoff in
/// [`SparsityParams::new`]. No real index is needed — every cube is empty.
struct StarvedCounter;

impl CubeCounter for StarvedCounter {
    fn count_pairs(&self, _pairs: &[(u32, u16)]) -> usize {
        0
    }
    fn rows(&self, _cube: &Cube) -> Vec<usize> {
        Vec::new()
    }
    fn n_rows(&self) -> usize {
        70
    }
    fn n_dims(&self) -> usize {
        64
    }
    fn phi(&self) -> u32 {
        65534
    }
}

#[test]
fn fk_underflow_scores_infinite_not_nan() {
    // The params layer refuses the degenerate regime outright…
    assert!(SparsityParams::new(70, 65534, 64).is_none());
    assert!(SparsityParams::new(70, 65534, 63).is_some());

    // …and the fitness layer answers +∞ for it: Eq. 1 would be 0/0 = NaN,
    // which would silently poison every heap and sort downstream.
    let counter = StarvedCounter;
    let fitness = SparsityFitness::new(&counter, 64);
    let genes: Vec<u16> = (0..64).map(|_| 0).collect();
    let s = fitness.evaluate(&Projection::from_genes(genes));
    assert!(s.is_infinite() && s > 0.0, "underflow regime scored {s}");

    // One dimension shallower is still representable: a tiny but finite,
    // strictly negative coefficient.
    let fitness = SparsityFitness::new(&counter, 63);
    let mut genes: Vec<u16> = (0..63).map(|_| 0).collect();
    genes.push(STAR);
    let s = fitness.evaluate(&Projection::from_genes(genes));
    assert!(s.is_finite() && s < 0.0, "k = 63 should be finite, got {s}");
}

/// `uniform(n, d, seed)` with about 5% of its cells blanked to NaN.
fn with_missing(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = XorShift(0x5EED ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let rows: Vec<Vec<f64>> = uniform(n, d, seed)
        .rows()
        .map(|row| {
            row.iter()
                .map(|&v| if rng.below(20) == 0 { f64::NAN } else { v })
                .collect()
        })
        .collect();
    Dataset::from_rows(rows).unwrap()
}

/// Every cube whose lowest dimension is `first`, in the walker's order:
/// lexicographic in the `(dim, range)` sequence.
fn cubes_from(first: u32, d: u32, k: usize, phi: u16) -> Vec<Vec<(u32, u16)>> {
    fn extend(
        cube: &mut Vec<(u32, u16)>,
        k: usize,
        d: u32,
        phi: u16,
        out: &mut Vec<Vec<(u32, u16)>>,
    ) {
        if cube.len() == k {
            out.push(cube.clone());
            return;
        }
        let next = cube.last().map_or(0, |&(dim, _)| dim + 1);
        for dim in next..d {
            for range in 0..phi {
                cube.push((dim, range));
                extend(cube, k, d, phi, out);
                cube.pop();
            }
        }
    }
    let mut out = Vec::new();
    for range in 0..phi {
        extend(&mut vec![(first, range)], k, d, phi, &mut out);
    }
    out
}

/// The brute-force contract, computed the slow way: one task per first
/// dimension with an even share of the budget, a leaf-by-leaf sweep that
/// skips the subtree under the shallowest empty partial cube as one block,
/// and a merge ordered by sparsity, then genes.
fn oracle(
    disc: &Discretized,
    k: usize,
    config: &BruteForceConfig,
) -> (Vec<(Projection, usize, f64)>, u64, u64, bool) {
    let naive = NaiveCounter::new(disc);
    let d = disc.n_dims();
    let phi = disc.phi() as u16;
    let params = SparsityParams::new(disc.n_rows() as u64, disc.phi(), k as u32).unwrap();
    let n_tasks = (d - k + 1) as u64;
    let cap = config.max_candidates.map(|b| b.div_ceil(n_tasks));
    let count = |pairs: &[(u32, u16)]| naive.count(&Cube::new(pairs.iter().copied()).unwrap());
    let (mut best, mut candidates, mut scored, mut completed) = (Vec::new(), 0, 0, true);
    for first in 0..n_tasks as u32 {
        let cubes = cubes_from(first, d as u32, k, phi);
        let mut task_best = BoundedBest::new(config.m);
        let mut task_candidates = 0u64;
        let mut skipped: Option<&[(u32, u16)]> = None;
        for (i, cube) in cubes.iter().enumerate() {
            let empty_prefix = if config.require_nonempty {
                (1..k).find(|&depth| count(&cube[..depth]) == 0)
            } else {
                None
            };
            if let Some(depth) = empty_prefix {
                let prefix = &cube[..depth];
                if skipped == Some(prefix) {
                    continue;
                }
                skipped = Some(prefix);
                task_candidates += cubes[i..]
                    .iter()
                    .take_while(|c| c.starts_with(prefix))
                    .count() as u64;
            } else {
                task_candidates += 1;
                scored += 1;
                let n = count(cube);
                if n > 0 || !config.require_nonempty {
                    task_best.push(params.sparsity(n as u64), (cube.clone(), n));
                }
            }
            if cap.is_some_and(|c| task_candidates >= c) {
                completed = false;
                break;
            }
        }
        candidates += task_candidates;
        best.extend(task_best.into_sorted().into_iter().map(|(s, (cube, n))| {
            let mut genes = vec![STAR; d];
            for (dim, range) in cube {
                genes[dim as usize] = range;
            }
            (Projection::from_genes(genes), n, s)
        }));
    }
    best.sort_by(|a, b| {
        a.2.partial_cmp(&b.2)
            .unwrap()
            .then_with(|| a.0.genes().cmp(b.0.genes()))
    });
    best.truncate(config.m);
    (best, candidates, scored, completed)
}

#[test]
fn brute_force_matches_exhaustive_naive_enumeration_with_missing_values() {
    let mut rng = XorShift(0xB2C7);
    for case in 0..20u64 {
        let k = 1 + (case % 5) as usize;
        // φ up to 16 and n up to 700 put depth-(k−2) nodes on both sides
        // of the walker's kernel selection, with member lists that end on
        // either side of a 64-bit word boundary.
        let phi = 2 + rng.below(if k <= 3 { 15 } else { 4 }) as u32;
        let n = 40 + rng.below(661) as usize;
        let space = |d: usize| {
            (d - k + 1..=d).product::<usize>() / (1..=k).product::<usize>()
                * (phi as usize).pow(k as u32)
        };
        // The oracle recounts every cube by a row scan: keep it to 40,000.
        let mut d = k + rng.below(8 - k as u64) as usize;
        while space(d) > 40_000 {
            d -= 1;
        }
        let space = space(d);
        let ds = with_missing(n, d, case);
        let disc = Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap();
        let counter = BitmapCounter::new(&disc);
        for require_nonempty in [true, false] {
            for max_candidates in [None, Some(1 + space as u64 / 3)] {
                let config = BruteForceConfig {
                    m: 7,
                    require_nonempty,
                    max_candidates,
                };
                let context = format!(
                    "n={n} d={d} phi={phi} k={k} nonempty={require_nonempty} budget={max_candidates:?}"
                );
                let (best, candidates, scored, completed) = oracle(&disc, k, &config);
                for threads in [1, 3] {
                    let got =
                        brute_force_search_incremental_parallel(&counter, k, &config, threads);
                    assert_eq!(got.candidates, candidates, "{context}");
                    assert_eq!(got.scored, scored, "{context}");
                    assert_eq!(got.completed, completed, "{context}");
                    assert_eq!(got.best.len(), best.len(), "{context}");
                    for (g, (projection, count, sparsity)) in got.best.iter().zip(&best) {
                        assert_eq!(&g.projection, projection, "{context}");
                        assert_eq!(g.count, *count, "{context}: {projection}");
                        assert_eq!(g.sparsity.to_bits(), sparsity.to_bits(), "{context}");
                    }
                }
            }
        }
    }
}
