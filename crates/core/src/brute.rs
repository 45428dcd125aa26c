//! Brute-force projection search (paper Fig. 2).
//!
//! Enumerates every k-dimensional cube — all `C(d, k) · φ^k` combinations of
//! k distinct dimensions with one grid range each — and keeps the m with the
//! most negative sparsity coefficients. The paper builds candidates
//! bottom-up (`R_i = R_{i−1} ⊕ Q_1`); this implementation walks the same
//! tree depth-first, dimensions ascending and then ranges ascending, so
//! memory stays `O(k)` bitmaps instead of materializing `R_i`.
//!
//! One walker, one counting kernel:
//!
//! - **Internal nodes** carry their partial cube as a bitmap. A depth-1
//!   node reads its posting straight from the index; deeper nodes AND the
//!   parent's bitmap with one posting into a per-depth scratch buffer.
//! - **Depth k−1 nodes** extract their member rows once, then count every
//!   leaf below them with one pass per remaining dimension over the index's
//!   column-major code table: a φ+1 histogram of the members' ranges gives
//!   the occupancy of all φ leaves along that dimension. Missing cells land
//!   in the extra bucket, so they cover no cube (paper §1.2).
//! - **Leaves** copy their cube into the best-set only when it would be
//!   admitted, into storage recycled from the member it evicts.
//!
//! Every buffer is allocated once per task, so the search allocates a
//! constant amount per first dimension, not per node.
//!
//! Two sound accelerations (results are identical to the naive sweep):
//!
//! - **Empty-subtree pruning**: occupancy is monotone (adding a constraint
//!   can only shrink a cube), so once a partial cube is empty every
//!   completion is empty too. Empty cubes can never enter a best-set
//!   restricted to non-empty projections (the paper's own quality metric is
//!   over "the best 20 *non-empty* projections"), so the subtree is skipped
//!   and its size added to the examined count.
//! - **Candidate budget**: an optional cap on examined candidates, which is
//!   how the harness reproduces the paper's observation that brute force
//!   "was unable to terminate in a reasonable amount of time" on the
//!   160-dimensional musk data.

use crate::projection::{Projection, STAR};
use crate::report::ScoredProjection;
use hdoutlier_index::{BitmapCounter, GridIndex};
use hdoutlier_obs as obs;
use hdoutlier_stats::rank::BoundedBest;
use hdoutlier_stats::SparsityParams;

/// Profiler frame target: these spans exist for `--profile-out` stack
/// attribution (one relaxed atomic load when profiling is off), not for
/// the event log — the per-node rate would swamp any sink.
const TARGET: &str = "hdoutlier.core";

/// Configuration for [`brute_force_search_incremental_parallel`].
#[derive(Debug, Clone)]
pub struct BruteForceConfig {
    /// Number of best projections to retain (`m` in Fig. 2).
    pub m: usize,
    /// Only retain projections covering at least one record. The paper
    /// reports quality over non-empty projections; empty ones identify no
    /// outlier. Disabling this also disables empty-subtree pruning.
    pub require_nonempty: bool,
    /// Stop after examining (or provably skipping) this many complete
    /// cubes; the outcome is then marked incomplete.
    pub max_candidates: Option<u64>,
}

impl Default for BruteForceConfig {
    fn default() -> Self {
        Self {
            m: 20,
            require_nonempty: true,
            max_candidates: None,
        }
    }
}

/// Result of a brute-force run.
#[derive(Debug, Clone)]
pub struct BruteForceOutcome {
    /// The best projections, most negative sparsity first.
    pub best: Vec<ScoredProjection>,
    /// Complete cubes accounted for (scored directly or covered by an
    /// empty-subtree skip).
    pub candidates: u64,
    /// Complete cubes whose sparsity was actually computed.
    pub scored: u64,
    /// Whether the whole space was covered (false if the budget tripped).
    pub completed: bool,
}

/// Runs the exhaustive search of Fig. 2 on a [`hdoutlier_pool`] of
/// `threads` workers.
///
/// The enumeration is partitioned by the cube's *first* (lowest) dimension,
/// one task per dimension. Subtrees are disjoint and each task is a pure
/// function of its dimension, so the merged result is **identical at every
/// thread count**; ties at the m-th place are broken by projection genes.
///
/// `config.max_candidates` is split evenly across the *tasks* (not the
/// threads), so even an interrupted run covers the same candidate subset no
/// matter how many workers were live.
///
/// # Panics
/// Panics if `threads` is 0, `k` is 0 or exceeds the dimensionality, or the
/// index has more than `u32::MAX` rows.
pub fn brute_force_search_incremental_parallel(
    counter: &BitmapCounter,
    k: usize,
    config: &BruteForceConfig,
    threads: usize,
) -> BruteForceOutcome {
    assert!(threads >= 1, "need at least one thread");
    let index = counter.index();
    let d = index.n_dims();
    assert!(k >= 1, "k must be at least 1");
    assert!(k <= d, "k = {k} exceeds dataset dimensionality {d}");
    assert!(
        u32::try_from(index.n_rows()).is_ok(),
        "row ids must fit in u32"
    );
    let params = SparsityParams::new(index.n_rows() as u64, index.phi(), k as u32)
        .expect("validated k and phi");
    // Only dimensions with at least k − 1 higher ones can start a cube.
    let first_dims: Vec<usize> = (0..=d - k).collect();
    let task_config = BruteForceConfig {
        max_candidates: config
            .max_candidates
            .map(|b| b.div_ceil(first_dims.len() as u64)),
        ..config.clone()
    };
    let tasks = hdoutlier_pool::map(threads, &first_dims, |_, &dim| {
        let _enumerate = obs::profile_span(TARGET, "enumerate");
        Task::new(index, k, params, &task_config).run(dim)
    });
    merge(&tasks, k, config.m, d)
}

/// What one task hands back: its best-m set and the counts.
struct TaskOutcome {
    /// `(slot, count)` per member; the cube is `cubes[slot * k..][..k]`.
    best: BoundedBest<(usize, usize)>,
    cubes: Vec<(u32, u16)>,
    candidates: u64,
    scored: u64,
    completed: bool,
}

/// Merges the per-task best sets into the global best m. Cubes are sorted
/// `(dim, range)` lists of equal length, so comparing them compares the
/// projections' genes (a constrained gene sorts before `STAR`).
fn merge(tasks: &[TaskOutcome], k: usize, m: usize, d: usize) -> BruteForceOutcome {
    let mut best = Vec::new();
    let mut candidates = 0u64;
    let mut scored = 0u64;
    let mut completed = true;
    for t in tasks {
        best.extend(
            t.best
                .iter()
                .map(|(&sparsity, &(slot, count))| (sparsity, &t.cubes[slot * k..][..k], count)),
        );
        candidates = candidates.saturating_add(t.candidates);
        scored = scored.saturating_add(t.scored);
        completed &= t.completed;
    }
    best.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite sparsity")
            .then_with(|| a.1.cmp(b.1))
    });
    best.truncate(m);
    let best = best
        .into_iter()
        .map(|(sparsity, cube, count)| {
            let mut genes = vec![STAR; d];
            for &(dim, range) in cube {
                genes[dim as usize] = range;
            }
            ScoredProjection {
                projection: Projection::from_genes(genes),
                sparsity,
                count,
            }
        })
        .collect();
    BruteForceOutcome {
        best,
        candidates,
        scored,
        completed,
    }
}

/// The depth-first walk of one task, with all of its scratch space.
struct Task<'a> {
    index: &'a GridIndex,
    config: &'a BruteForceConfig,
    params: SparsityParams,
    d: usize,
    k: usize,
    phi: u16,
    /// The cube under construction, dimensions ascending.
    chosen: Vec<(u32, u16)>,
    /// Member rows of the current depth-(k−1) partial cube: the first
    /// `n_members` entries, followed by scratch slots for [`set_bits`].
    members: Vec<u32>,
    n_members: usize,
    /// Per-range occupancy among `members` of one dimension; bucket φ
    /// collects missing cells.
    hist: Vec<u32>,
    best: BoundedBest<(usize, usize)>,
    /// m + 1 cube slots: the m members of `best` plus `spare`, the slot the
    /// next admitted leaf is written to.
    cubes: Vec<(u32, u16)>,
    spare: usize,
    candidates: u64,
    scored: u64,
    budget_hit: bool,
}

impl<'a> Task<'a> {
    fn new(
        index: &'a GridIndex,
        k: usize,
        params: SparsityParams,
        config: &'a BruteForceConfig,
    ) -> Self {
        let phi = index.phi() as u16;
        Self {
            index,
            config,
            params,
            d: index.n_dims(),
            k,
            phi,
            chosen: Vec::with_capacity(k),
            members: vec![0; index.n_rows() + SET_BITS_SLACK],
            n_members: 0,
            hist: vec![0; phi as usize + 1],
            best: BoundedBest::new(config.m),
            cubes: vec![(0, 0); (config.m + 1) * k],
            spare: 0,
            candidates: 0,
            scored: 0,
            budget_hit: false,
        }
    }

    /// Walks every cube whose lowest dimension is `dim`.
    fn run(mut self, dim: usize) -> TaskOutcome {
        if self.k == 1 {
            self.score_leaves(dim);
        } else {
            // One bitmap per depth 2..k−1; depth 1 is a posting.
            let n_words = self.index.n_rows().div_ceil(64);
            let mut stack = vec![vec![0u64; n_words]; self.k - 2];
            let index = self.index;
            for range in 0..self.phi {
                let posting = index.posting(dim as u32, range).words();
                let nonempty = posting.iter().any(|&w| w != 0);
                self.visit(dim, range, posting, nonempty, &mut stack);
                if self.budget_hit {
                    break;
                }
            }
        }
        TaskOutcome {
            best: self.best,
            cubes: self.cubes,
            candidates: self.candidates,
            scored: self.scored,
            completed: !self.budget_hit,
        }
    }

    /// Enters the child `(dim, range)` of the current node, whose partial
    /// cube is `partial`; an empty child is pruned when allowed.
    fn visit(
        &mut self,
        dim: usize,
        range: u16,
        partial: &[u64],
        nonempty: bool,
        stack: &mut [Vec<u64>],
    ) {
        self.chosen.push((dim as u32, range));
        if nonempty || !self.config.require_nonempty {
            self.node(partial, stack, dim);
        } else {
            self.skip_subtree(dim);
        }
        self.chosen.pop();
    }

    /// A node at depth `chosen.len()` in `1..k` with partial cube `partial`
    /// and last chosen dimension `last_dim`.
    fn node(&mut self, partial: &[u64], stack: &mut [Vec<u64>], last_dim: usize) {
        let depth = self.chosen.len();
        if depth + 1 == self.k {
            self.n_members = set_bits(partial, &mut self.members);
            for dim in last_dim + 1..self.d {
                self.score_leaves(dim);
                if self.budget_hit {
                    return;
                }
            }
            return;
        }
        let (child, rest) = stack
            .split_first_mut()
            .expect("one scratch bitmap per inner depth");
        let index = self.index;
        // Enough dimensions must remain to reach depth k.
        for dim in last_dim + 1..=self.d - (self.k - depth) {
            for range in 0..self.phi {
                let posting = index.posting(dim as u32, range).words();
                let nonempty = {
                    let _intersect = obs::profile_span(TARGET, "intersect");
                    and_into(child, partial, posting)
                };
                self.visit(dim, range, child, nonempty, rest);
                if self.budget_hit {
                    return;
                }
            }
        }
    }

    /// Scores the φ leaves that extend the current cube by `dim`: one pass
    /// over `dim`'s codes for the member rows (all rows when k = 1).
    fn score_leaves(&mut self, dim: usize) {
        let codes = self.index.codes(dim as u32);
        self.hist.fill(0);
        {
            let _histogram = obs::profile_span(TARGET, "histogram");
            if self.chosen.is_empty() {
                for &code in codes {
                    self.hist[code as usize] += 1;
                }
            } else {
                for &row in &self.members[..self.n_members] {
                    self.hist[codes[row as usize] as usize] += 1;
                }
            }
        }
        for range in 0..self.phi {
            self.chosen.push((dim as u32, range));
            self.score_leaf(self.hist[range as usize] as usize);
            self.chosen.pop();
            if self.budget_hit {
                return;
            }
        }
    }

    fn score_leaf(&mut self, count: usize) {
        self.candidates += 1;
        self.scored += 1;
        if count > 0 || !self.config.require_nonempty {
            let sparsity = self.params.sparsity(count as u64);
            if self.best.admits(sparsity) {
                let k = self.k;
                self.cubes[self.spare * k..][..k].copy_from_slice(&self.chosen);
                // The evicted member's slot (or the next unused one) is
                // where the next admitted leaf goes.
                self.spare = match self.best.replace(sparsity, (self.spare, count)) {
                    Some((freed, _)) => freed,
                    None => self.best.len(),
                };
            }
        }
        self.check_budget();
    }

    /// Accounts for all completions of the empty partial cube `chosen`,
    /// whose last dimension is `last_dim`.
    fn skip_subtree(&mut self, last_dim: usize) {
        let dims_left = self.d - (last_dim + 1);
        let need = self.k - self.chosen.len();
        let combos = binomial_u64(dims_left as u64, need as u64);
        let completions = combos.saturating_mul((self.phi as u64).saturating_pow(need as u32));
        self.candidates = self.candidates.saturating_add(completions);
        self.check_budget();
    }

    fn check_budget(&mut self) {
        if let Some(cap) = self.config.max_candidates {
            if self.candidates >= cap {
                self.budget_hit = true;
            }
        }
    }
}

/// Slots [`set_bits`] may write past the last index it reports.
const SET_BITS_SLACK: usize = 1;

/// Writes the indices of the set bits of `words`, ascending, to the front
/// of `out` and returns how many there are. `out` needs
/// [`SET_BITS_SLACK`] slot past the last index.
///
/// Partial cubes are sparse: most words hold no bit or one, and which is a
/// coin flip. So every word's lowest bit is written unconditionally (a
/// zero word's slot is overwritten by the next word), leaving a branch only
/// for the rarer word with two or more bits.
fn set_bits(words: &[u64], out: &mut [u32]) -> usize {
    let mut n = 0;
    for (wi, &word) in words.iter().enumerate() {
        let base = wi * 64;
        out[n] = (base + word.trailing_zeros() as usize) as u32;
        n += (word != 0) as usize;
        let mut w = word & word.wrapping_sub(1);
        while w != 0 {
            out[n] = (base + w.trailing_zeros() as usize) as u32;
            n += 1;
            w &= w - 1;
        }
    }
    n
}

/// `out = a & b` word by word; returns whether any bit survived.
fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    let mut any = 0u64;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x & y;
        any |= *o;
    }
    any != 0
}

/// Exact binomial coefficient in u64 (saturating).
fn binomial_u64(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::SparsityFitness;
    use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
    use hdoutlier_data::generators::{planted_outliers, uniform, PlantedConfig};
    use hdoutlier_index::{Cube, CubeCounter};

    fn fixture(n: usize, d: usize, phi: u32, seed: u64) -> BitmapCounter {
        let ds = uniform(n, d, seed);
        let disc = Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap();
        BitmapCounter::new(&disc)
    }

    fn search(counter: &BitmapCounter, k: usize, config: &BruteForceConfig) -> BruteForceOutcome {
        brute_force_search_incremental_parallel(counter, k, config, 1)
    }

    #[test]
    fn covers_whole_space_when_unbudgeted() {
        let counter = fixture(200, 5, 3, 1);
        let out = search(&counter, 2, &BruteForceConfig::default());
        assert!(out.completed);
        // C(5,2)·3² = 90 complete cubes.
        assert_eq!(out.candidates, 90);
        assert_eq!(out.best.len(), 20);
        // Best list is sorted most-negative-first.
        for w in out.best.windows(2) {
            assert!(w[0].sparsity <= w[1].sparsity);
        }
        // Every retained projection is feasible and non-empty.
        for s in &out.best {
            assert_eq!(s.projection.k(), 2);
            assert!(s.count > 0);
        }
    }

    #[test]
    fn matches_naive_double_loop() {
        // Independent full enumeration as the oracle.
        let counter = fixture(300, 4, 4, 2);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = search(
            &counter,
            2,
            &BruteForceConfig {
                m: 5,
                ..BruteForceConfig::default()
            },
        );
        let mut oracle: Vec<(f64, usize)> = Vec::new();
        for d0 in 0..4u32 {
            for d1 in (d0 + 1)..4 {
                for r0 in 0..4u16 {
                    for r1 in 0..4u16 {
                        let cube = Cube::new([(d0, r0), (d1, r1)]).unwrap();
                        let count = counter.count(&cube);
                        if count > 0 {
                            oracle.push((fitness.sparsity_of_pairs(cube.pairs()), count));
                        }
                    }
                }
            }
        }
        oracle.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(out.best.len(), 5);
        for (got, want) in out.best.iter().zip(&oracle) {
            assert!((got.sparsity - want.0).abs() < 1e-12);
        }
    }

    #[test]
    fn budget_interrupts_and_flags_incomplete() {
        let counter = fixture(100, 8, 4, 3);
        let out = search(
            &counter,
            3,
            &BruteForceConfig {
                max_candidates: Some(500),
                ..BruteForceConfig::default()
            },
        );
        assert!(!out.completed);
        // Six tasks, each stopped at its ⌈500/6⌉ = 84 share, except the last
        // (one dimension pair, 4³ = 64 cubes), which ends first: well short
        // of the full C(8,3)·4³ = 3584.
        assert!(out.candidates >= 5 * 84 + 64, "{}", out.candidates);
        assert!(out.candidates < 3584);
    }

    #[test]
    fn finds_planted_sparse_combination() {
        // Planted contrarian records live in near-empty cubes; brute force
        // must rank one of their cubes at the very top.
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 2000,
            n_dims: 6,
            n_outliers: 4,
            seed: 5,
            ..PlantedConfig::default()
        });
        let disc = Discretized::new(&planted.dataset, 5, DiscretizeStrategy::EquiDepth).unwrap();
        let counter = BitmapCounter::new(&disc);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = search(
            &counter,
            2,
            &BruteForceConfig {
                m: 10,
                ..BruteForceConfig::default()
            },
        );
        // The top projections must surface the planted outliers. (The exact
        // top-1 can be any singleton cube — all count-1 cubes tie on Eq. 1 —
        // so the assertion is over the union of the best set.)
        let covered: Vec<usize> = out
            .best
            .iter()
            .flat_map(|s| fitness.rows(&s.projection))
            .collect();
        assert!(
            covered.iter().any(|&r| planted.is_outlier(r)),
            "best projections cover {covered:?}, none planted"
        );
        // And the top sparsity must be decidedly negative.
        assert!(out.best[0].sparsity < -3.0, "{}", out.best[0].sparsity);
    }

    #[test]
    fn allows_empty_projections_when_configured() {
        // 50 rows, φ=5, k=3: expected occupancy 0.4 — most cubes are empty.
        let counter = fixture(50, 5, 5, 4);
        let out = search(
            &counter,
            3,
            &BruteForceConfig {
                m: 5,
                require_nonempty: false,
                max_candidates: None,
            },
        );
        assert!(out.completed);
        // With empties allowed, the most negative coefficient is the
        // empty-cube value and at least one retained cube is empty.
        assert!(out.best.iter().any(|s| s.count == 0));
        let empty = hdoutlier_stats::empty_cube_coefficient(50, 5, 3);
        assert!((out.best[0].sparsity - empty).abs() < 1e-9);
        // All candidates scored (no pruning allowed in this mode).
        assert_eq!(out.candidates, out.scored);
    }

    #[test]
    fn pruning_accounts_for_skipped_candidates_exactly() {
        // With pruning on, candidates (scored + skipped) must still equal
        // the full space size when the run completes.
        let counter = fixture(30, 6, 6, 6); // sparse: plenty of empty subtrees
        let out = search(&counter, 3, &BruteForceConfig::default());
        assert!(out.completed);
        // C(6,3)·6³ = 4320.
        assert_eq!(out.candidates, 4320);
        assert!(out.scored < out.candidates, "pruning should have fired");
    }

    #[test]
    fn m_larger_than_space_returns_everything_nonempty() {
        let counter = fixture(100, 3, 2, 7);
        let out = search(
            &counter,
            2,
            &BruteForceConfig {
                m: 1000,
                ..BruteForceConfig::default()
            },
        );
        // C(3,2)·2² = 12 cubes, all non-empty on 100 uniform rows.
        assert_eq!(out.best.len(), 12);
    }

    #[test]
    fn m_zero_keeps_nothing_but_still_counts() {
        let counter = fixture(100, 4, 3, 8);
        let out = search(
            &counter,
            2,
            &BruteForceConfig {
                m: 0,
                ..BruteForceConfig::default()
            },
        );
        assert!(out.best.is_empty());
        assert_eq!(out.candidates, 6 * 9);
    }

    #[test]
    #[should_panic(expected = "exceeds dataset dimensionality")]
    fn validates_k() {
        let counter = fixture(10, 3, 2, 15);
        search(&counter, 4, &BruteForceConfig::default());
    }

    #[test]
    fn is_deterministic() {
        let counter = fixture(300, 6, 3, 10);
        let config = BruteForceConfig {
            m: 8,
            ..BruteForceConfig::default()
        };
        let a = brute_force_search_incremental_parallel(&counter, 2, &config, 4);
        let b = brute_force_search_incremental_parallel(&counter, 2, &config, 4);
        assert_eq!(
            a.best
                .iter()
                .map(|s| s.projection.clone())
                .collect::<Vec<_>>(),
            b.best
                .iter()
                .map(|s| s.projection.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn k1_and_thread_overflow() {
        // k = 1 and more threads than dimensions.
        let counter = fixture(100, 3, 4, 11);
        let config = BruteForceConfig {
            m: 20,
            ..BruteForceConfig::default()
        };
        let out = brute_force_search_incremental_parallel(&counter, 1, &config, 16);
        assert!(out.completed);
        assert_eq!(out.candidates, 12); // 3 dims × 4 ranges
        assert_eq!(out.best.len(), 12);
    }

    #[test]
    fn parallel_budget_interrupts() {
        let counter = fixture(100, 10, 4, 12);
        let out = brute_force_search_incremental_parallel(
            &counter,
            3,
            &BruteForceConfig {
                m: 10,
                require_nonempty: true,
                max_candidates: Some(100),
            },
            4,
        );
        assert!(!out.completed);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let counter = fixture(10, 3, 2, 13);
        brute_force_search_incremental_parallel(&counter, 1, &BruteForceConfig::default(), 0);
    }

    #[test]
    fn incremental_parallel_is_thread_count_invariant() {
        // The core determinism contract: identical outcome at any thread
        // count, with and without a budget.
        let counter = fixture(300, 8, 4, 21);
        for budget in [None, Some(600)] {
            let config = BruteForceConfig {
                m: 10,
                require_nonempty: true,
                max_candidates: budget,
            };
            let baseline = brute_force_search_incremental_parallel(&counter, 3, &config, 1);
            for threads in [2usize, 4, 8] {
                let got = brute_force_search_incremental_parallel(&counter, 3, &config, threads);
                assert_eq!(got.candidates, baseline.candidates, "budget {budget:?}");
                assert_eq!(got.scored, baseline.scored);
                assert_eq!(got.completed, baseline.completed);
                assert_eq!(
                    got.best
                        .iter()
                        .map(|s| s.projection.clone())
                        .collect::<Vec<_>>(),
                    baseline
                        .best
                        .iter()
                        .map(|s| s.projection.clone())
                        .collect::<Vec<_>>(),
                    "budget {budget:?}, threads {threads}"
                );
                for (a, b) in got.best.iter().zip(&baseline.best) {
                    assert_eq!(a.sparsity.to_bits(), b.sparsity.to_bits());
                    assert_eq!(a.count, b.count);
                }
            }
        }
    }

    #[test]
    fn and_into_reports_emptiness() {
        let mut out = [u64::MAX; 2];
        assert!(and_into(&mut out, &[0b1100, 0], &[0b0110, 0]));
        assert_eq!(out, [0b0100, 0]);
        assert!(!and_into(&mut out, &[0b1000, 1], &[0b0110, 2]));
        assert_eq!(out, [0, 0]);
    }

    #[test]
    fn set_bits_lists_indices_in_order() {
        let words = [0b1011, 0, u64::MAX, 1 << 63];
        let mut out = [0u32; 64 + 3 + 1 + SET_BITS_SLACK];
        let n = set_bits(&words, &mut out);
        let want: Vec<u32> = [0, 1, 3].into_iter().chain(128..192).chain([255]).collect();
        assert_eq!(&out[..n], &want[..]);
        assert_eq!(set_bits(&[0, 0], &mut out), 0);
    }

    #[test]
    fn binomial_helper() {
        assert_eq!(binomial_u64(5, 2), 10);
        assert_eq!(binomial_u64(160, 4), 26_294_360);
        assert_eq!(binomial_u64(3, 5), 0);
        assert_eq!(binomial_u64(0, 0), 1);
        assert_eq!(binomial_u64(200, 100), u64::MAX); // saturates
    }
}
