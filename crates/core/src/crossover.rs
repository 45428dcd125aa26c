//! Recombination operators (paper §2.2, Fig. 5).
//!
//! Two mechanisms, exactly as evaluated in Table 1:
//!
//! - **Unbiased two-point crossover** (the baseline, superscript-free "Gen"
//!   column): pick a cut position and exchange suffixes. Children often
//!   carry the wrong number of constrained positions — the paper's example
//!   `3*2*1 × 1*33*` cut after position 4 yields a 4-dimensional and a
//!   2-dimensional child — and such infeasible strings are washed out by
//!   their `+∞` fitness.
//! - **Optimized crossover** ("Gen°"): classifies positions into Type I
//!   (both parents `*`), Type II (neither `*`, `k'` of them) and Type III
//!   (exactly one `*`, `2(k−k')` of them), exhaustively searches the `2^k'`
//!   Type-II recombinations for the most negative partial sparsity, then
//!   greedily extends through Type-III positions until `k` positions are
//!   set. The second child is **complementary**: every position is derived
//!   from the opposite parent of the one the first child used, so the pair
//!   of children partitions the parents' genetic material and both are
//!   k-dimensional.

use crate::fitness::SparsityFitness;
use crate::projection::{Projection, STAR};
use hdoutlier_index::CubeCounter;
use hdoutlier_rng::Rng;

/// Which recombination the evolutionary search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossoverKind {
    /// Suffix exchange at a random cut (may create infeasible children).
    TwoPoint,
    /// The paper's fitness-guided recombination (Fig. 5).
    Optimized,
}

/// Two-point crossover at specific cut points: exchanges the segment of
/// positions `lo..hi` (0-based half-open). Exposed so the paper's worked
/// examples are testable: `3*2*1 × 1*33*` with `(lo, hi) = (3, 5)` yields
/// `3*23*` / `1*3*1`, and with `(3, 4)` yields `3*231` / `1*3**`.
pub fn two_point_at(
    a: &Projection,
    b: &Projection,
    lo: usize,
    hi: usize,
) -> (Projection, Projection) {
    assert_eq!(a.d(), b.d(), "dimensionality mismatch");
    assert!(lo < hi && hi <= a.d(), "cuts must satisfy lo < hi <= d");
    let mut c = a.genes().to_vec();
    let mut d = b.genes().to_vec();
    c[lo..hi].copy_from_slice(&b.genes()[lo..hi]);
    d[lo..hi].copy_from_slice(&a.genes()[lo..hi]);
    (Projection::from_genes(c), Projection::from_genes(d))
}

/// Two-point crossover at a uniformly random segment.
pub fn two_point<R: Rng>(a: &Projection, b: &Projection, rng: &mut R) -> (Projection, Projection) {
    if a.d() < 2 {
        return (a.clone(), b.clone());
    }
    let lo = rng.gen_range(0..a.d());
    let hi = rng.gen_range(lo + 1..=a.d());
    two_point_at(a, b, lo, hi)
}

/// Cap on the exhaustive Type-II enumeration: beyond `2^MAX_EXHAUSTIVE_BITS`
/// assignments the enumeration switches to a deterministic prefix of the
/// mask space. `k'` is "typically quite small" (§2.2) so this rarely binds.
const MAX_EXHAUSTIVE_BITS: usize = 16;

/// The optimized crossover of Fig. 5 (`Recombine`).
///
/// Returns `(s, s')` where `s` is the fitness-optimized recombination and
/// `s'` its complement. For feasible k-dimensional parents both children are
/// k-dimensional.
///
/// Every candidate is scored from one buffer of the child's
/// `(position, range)` pairs, kept sorted by position: Phase 1 rewrites the
/// Type-II ranges in place for each assignment, and Phase 2 inserts each
/// Type-III candidate at its sorted place, scores, and takes it out again.
pub fn optimized<C: CubeCounter, R: Rng>(
    s1: &Projection,
    s2: &Projection,
    fitness: &SparsityFitness<'_, C>,
    rng: &mut R,
) -> (Projection, Projection) {
    assert_eq!(s1.d(), s2.d(), "dimensionality mismatch");
    let (g1, g2) = (s1.genes(), s2.genes());
    let k = fitness.k();

    // Classify positions: Type II (neither star) seeds the child's pairs
    // with s1's range; Type III (exactly one star) offers its non-star
    // parent's range as a Phase-2 candidate. Type I (both star) stays star.
    let mut pairs: Vec<(u32, u16)> = Vec::with_capacity(k + 1);
    let mut candidates: Vec<(u32, u16)> = Vec::new();
    for (pos, (&a, &b)) in g1.iter().zip(g2).enumerate() {
        match (a == STAR, b == STAR) {
            (false, false) => pairs.push((pos as u32, a)),
            (true, true) => {}
            (false, true) => candidates.push((pos as u32, a)),
            (true, false) => candidates.push((pos as u32, b)),
        }
    }

    // --- Phase 1: exhaustive search over Type-II assignments. ---
    // Bit `i` of a mask set means the i-th Type-II position takes s2's range.
    let assign = |pairs: &mut [(u32, u16)], mask: u64| {
        for (bit, pair) in pairs.iter_mut().enumerate() {
            let from = if (mask >> bit) & 1 == 0 { g1 } else { g2 };
            pair.1 = from[pair.0 as usize];
        }
    };
    if !pairs.is_empty() {
        let total_masks: u64 = 1u64 << pairs.len().min(MAX_EXHAUSTIVE_BITS);
        let mut best_mask = 0u64;
        let mut best_score = f64::INFINITY;
        for mask in 0..total_masks {
            assign(&mut pairs, mask);
            let score = fitness.sparsity_of_pairs(&pairs);
            if score < best_score {
                best_score = score;
                best_mask = mask;
            }
        }
        assign(&mut pairs, best_mask);
    }

    // --- Phase 2: greedy extension through Type-III positions. ---
    while pairs.len() < k && !candidates.is_empty() {
        let mut best_idx = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, &(pos, gene)) in candidates.iter().enumerate() {
            let at = pairs.partition_point(|&(p, _)| p < pos);
            pairs.insert(at, (pos, gene));
            let score = fitness.sparsity_of_pairs(&pairs);
            pairs.remove(at);
            if score < best_score {
                best_score = score;
                best_idx = i;
            }
        }
        let (pos, gene) = candidates.swap_remove(best_idx);
        let at = pairs.partition_point(|&(p, _)| p < pos);
        pairs.insert(at, (pos, gene));
    }

    let mut child = vec![STAR; g1.len()];
    for &(pos, gene) in &pairs {
        child[pos as usize] = gene;
    }
    // --- Complementary child: derive every position from the other parent. ---
    // Where s took s1's gene, s' takes s2's, and the reverse. An un-taken
    // Type-III candidate means s took the star parent there, so s' takes
    // the range; a Type-I position is star in both parents.
    let complement = g1
        .iter()
        .zip(g2)
        .zip(&child)
        .map(|((&a, &b), &c)| if c == a { b } else { a })
        .collect();

    let _ = rng; // reserved: tie-breaking hooks keep the signature uniform
    (
        Projection::from_genes(child),
        Projection::from_genes(complement),
    )
}

/// Dispatches on [`CrossoverKind`].
pub fn recombine<C: CubeCounter, R: Rng>(
    kind: CrossoverKind,
    s1: &Projection,
    s2: &Projection,
    fitness: &SparsityFitness<'_, C>,
    rng: &mut R,
) -> (Projection, Projection) {
    match kind {
        CrossoverKind::TwoPoint => two_point(s1, s2, rng),
        CrossoverKind::Optimized => optimized(s1, s2, fitness, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
    use hdoutlier_data::generators::uniform;
    use hdoutlier_data::Dataset;
    use hdoutlier_index::BitmapCounter;
    use hdoutlier_rng::rngs::StdRng;
    use hdoutlier_rng::SeedableRng;

    fn proj(s: &str) -> Projection {
        // Parse the paper's single-digit notation.
        Projection::from_genes(
            s.chars()
                .map(|c| {
                    if c == '*' {
                        STAR
                    } else {
                        c.to_digit(10).expect("digit") as u16 - 1
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn paper_two_point_example() {
        // §2.2: 3*2*1 × 1*33*, crossover after the third position
        // (exchanging positions 4..5) → 3*23* and 1*3*1.
        let a = proj("3*2*1");
        let b = proj("1*33*");
        let (c, d) = two_point_at(&a, &b, 3, 5);
        assert_eq!(c, proj("3*23*"));
        assert_eq!(d, proj("1*3*1"));
        // Crossover after the fourth position (exchanging position 4 only)
        // → 3*231 (4-dim) and 1*3** (2-dim): infeasible for k = 3 runs.
        let (c, d) = two_point_at(&a, &b, 3, 4);
        assert_eq!(c, proj("3*231"));
        assert_eq!(d, proj("1*3**"));
        assert_eq!(c.k(), 4);
        assert_eq!(d.k(), 2);
        assert_ne!(c.k(), 3);
        assert_ne!(d.k(), 3);
    }

    #[test]
    #[should_panic(expected = "cuts must satisfy")]
    fn two_point_bad_cut_panics() {
        two_point_at(&proj("1*"), &proj("*1"), 1, 1);
    }

    #[test]
    fn random_two_point_exchanges_one_segment() {
        let a = proj("11111");
        let b = proj("22222");
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let (c, _) = two_point(&a, &b, &mut rng);
            // c must be 1s with one contiguous run of 2s.
            let genes: Vec<u16> = (0..5).map(|i| c.gene(i).unwrap()).collect();
            let first_two = genes.iter().position(|&g| g == 1).expect("has a 2-run");
            let after = genes[first_two..]
                .iter()
                .position(|&g| g == 0)
                .map_or(5, |p| first_two + p);
            assert!(genes[..first_two].iter().all(|&g| g == 0));
            assert!(genes[first_two..after].iter().all(|&g| g == 1));
            assert!(genes[after..].iter().all(|&g| g == 0));
        }
    }

    fn fixture(k: usize) -> (BitmapCounter, usize) {
        let ds = uniform(600, 6, 11);
        let disc = Discretized::new(&ds, 4, DiscretizeStrategy::EquiDepth).unwrap();
        (BitmapCounter::new(&disc), k)
    }

    #[test]
    fn optimized_children_are_feasible() {
        let (counter, k) = fixture(3);
        let fitness = SparsityFitness::new(&counter, k);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..50 {
            let a = Projection::random(6, 3, 4, &mut rng);
            let b = Projection::random(6, 3, 4, &mut rng);
            let (c, d) = optimized(&a, &b, &fitness, &mut rng);
            assert_eq!(c.k(), 3, "child {c} of {a} × {b}");
            assert_eq!(d.k(), 3, "complement {d} of {a} × {b}");
        }
    }

    #[test]
    fn optimized_children_only_use_parent_material() {
        let (counter, _) = fixture(3);
        let fitness = SparsityFitness::new(&counter, 3);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..50 {
            let a = Projection::random(6, 3, 4, &mut rng);
            let b = Projection::random(6, 3, 4, &mut rng);
            let (c, d) = optimized(&a, &b, &fitness, &mut rng);
            for child in [&c, &d] {
                for pos in 0..6 {
                    let g = child.gene(pos);
                    assert!(
                        g == a.gene(pos) || g == b.gene(pos) || g.is_none(),
                        "position {pos} of {child} not from {a} or {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn complementary_child_derives_from_opposite_parent() {
        let (counter, _) = fixture(3);
        let fitness = SparsityFitness::new(&counter, 3);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..50 {
            let a = Projection::random(6, 3, 4, &mut rng);
            let b = Projection::random(6, 3, 4, &mut rng);
            let (c, d) = optimized(&a, &b, &fitness, &mut rng);
            for pos in 0..6 {
                match (a.gene(pos), b.gene(pos)) {
                    // Type II with distinct values: the children must take
                    // opposite values.
                    (Some(ga), Some(gb)) if ga != gb => {
                        let (gc, gd) = (c.gene(pos).unwrap(), d.gene(pos).unwrap());
                        assert_ne!(gc, gd);
                        assert!((gc == ga && gd == gb) || (gc == gb && gd == ga));
                    }
                    // Type III: exactly one child carries the value.
                    (Some(g), None) | (None, Some(g)) => {
                        let cc = c.gene(pos) == Some(g);
                        let dd = d.gene(pos) == Some(g);
                        assert!(cc ^ dd, "position {pos}: value must go to one child");
                    }
                    // Type I: both stay star.
                    (None, None) => {
                        assert_eq!(c.gene(pos), None);
                        assert_eq!(d.gene(pos), None);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn optimized_type2_enumeration_picks_the_sparsest_combination() {
        // Craft data where dim0-range0 ∧ dim1-range1 is empty, but either
        // parent's own combination is populated. Parents: [0,0,*..] and
        // [1,1,*..]; best recombination of the Type-II positions {0,1} must
        // be (0 from s1, 1 from s2) or (1 from s2, 0 from s1) — the empty combo.
        // Data: values on dims 0,1 arranged so grid cells (0,1) never co-occur.
        let mut rows = Vec::new();
        for i in 0..100 {
            let a = (i % 4) as f64; // dim0 cell = i % 4 under φ=4 equi-depth
            let b = ((i + 1) % 4) as f64; // dim1 cell shifted: (0, 1) never co-occurs
            rows.push(vec![a, b, (i % 7) as f64]);
        }
        let ds = Dataset::from_rows(rows).unwrap();
        let disc = Discretized::new(&ds, 4, DiscretizeStrategy::EquiDepth).unwrap();
        let counter = BitmapCounter::new(&disc);
        // Sanity: cell (0,1) on dims (0,1) — i%4==0 and (i+1)%4==1 ⇒ both i≡0:
        // that's i ≡ 0 (mod 4)... then (i+1)%4 == 1, so it DOES co-occur.
        // Use (0, 2) instead: i%4==0 ∧ (i+1)%4==2 ⇒ i≡0 ∧ i≡1 — empty.
        let empty_cube = hdoutlier_index::Cube::new([(0u32, 0u16), (1u32, 2u16)]).unwrap();
        assert_eq!(counter.count(&empty_cube), 0);
        let fitness = SparsityFitness::new(&counter, 2);
        let s1 = Projection::from_genes(vec![0, 1, STAR]); // (0,0),(1,1): occupied
        let s2 = Projection::from_genes(vec![1, 2, STAR]); // (0,1),(1,2): occupied
        let mut rng = StdRng::seed_from_u64(24);
        let (child, complement) = optimized(&s1, &s2, &fitness, &mut rng);
        // Both parents' own combinations hold 25 records each; the two
        // cross-parent recombinations ((0,2) and (1,1)) are both empty, so
        // the child must be one of them and the complement the other.
        let want_a = Projection::from_genes(vec![0, 2, STAR]);
        let want_b = Projection::from_genes(vec![1, 1, STAR]);
        assert!(
            (child == want_a && complement == want_b) || (child == want_b && complement == want_a),
            "got {child} / {complement}"
        );
        assert_eq!(
            fitness.evaluate(&child),
            fitness.sparsity_of_pairs(empty_cube.pairs())
        );
    }

    #[test]
    fn optimized_handles_disjoint_parents() {
        // k' = 0: all constrained positions are Type III; the greedy phase
        // must still assemble feasible complementary children.
        let (counter, _) = fixture(2);
        let fitness = SparsityFitness::new(&counter, 2);
        let s1 = Projection::from_genes(vec![0, 1, STAR, STAR, STAR, STAR]);
        let s2 = Projection::from_genes(vec![STAR, STAR, 2, 3, STAR, STAR]);
        let mut rng = StdRng::seed_from_u64(25);
        let (c, d) = optimized(&s1, &s2, &fitness, &mut rng);
        assert_eq!(c.k(), 2);
        assert_eq!(d.k(), 2);
        // Together the children carry all four parent genes.
        let mut genes: Vec<(u32, u16)> = c.pairs().chain(d.pairs()).collect();
        genes.sort_unstable();
        assert_eq!(genes, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn optimized_handles_identical_parents() {
        let (counter, _) = fixture(2);
        let fitness = SparsityFitness::new(&counter, 2);
        let s = Projection::from_genes(vec![2, STAR, 1, STAR, STAR, STAR]);
        let mut rng = StdRng::seed_from_u64(26);
        let (c, d) = optimized(&s, &s, &fitness, &mut rng);
        assert_eq!(c, s);
        assert_eq!(d, s);
    }

    #[test]
    fn optimized_is_at_least_as_fit_as_the_best_parent_type2_only() {
        // With only Type-II differences (same constrained positions), the
        // exhaustive phase guarantees the child is no worse than either
        // parent (both parents' gene assignments are in the enumerated set).
        let (counter, _) = fixture(2);
        let fitness = SparsityFitness::new(&counter, 2);
        let mut rng = StdRng::seed_from_u64(27);
        for _ in 0..30 {
            let positions: Vec<u32> = Projection::random(6, 2, 4, &mut rng)
                .pairs()
                .map(|(pos, _)| pos)
                .collect();
            let mut g1 = vec![STAR; 6];
            let mut g2 = vec![STAR; 6];
            for &pos in &positions {
                g1[pos as usize] = rng.gen_range(0..4) as u16;
                g2[pos as usize] = rng.gen_range(0..4) as u16;
            }
            let s1 = Projection::from_genes(g1);
            let s2 = Projection::from_genes(g2);
            let (child, _) = optimized(&s1, &s2, &fitness, &mut rng);
            let best_parent = fitness.evaluate(&s1).min(fitness.evaluate(&s2));
            assert!(
                fitness.evaluate(&child) <= best_parent + 1e-12,
                "{s1} × {s2} → {child}"
            );
        }
    }

    #[test]
    fn recombine_dispatch() {
        let (counter, _) = fixture(2);
        let fitness = SparsityFitness::new(&counter, 2);
        let mut rng = StdRng::seed_from_u64(28);
        let a = Projection::random(6, 2, 4, &mut rng);
        let b = Projection::random(6, 2, 4, &mut rng);
        let (c, _) = recombine(CrossoverKind::Optimized, &a, &b, &fitness, &mut rng);
        assert_eq!(c.k(), 2);
        let (c, d) = recombine(CrossoverKind::TwoPoint, &a, &b, &fitness, &mut rng);
        assert_eq!(c.d(), 6);
        assert_eq!(d.d(), 6);
    }
}
