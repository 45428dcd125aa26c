//! Brute-force projection search (paper Fig. 2).
//!
//! Enumerates every k-dimensional cube — all `C(d, k) · φ^k` combinations of
//! k distinct dimensions with one grid range each — and keeps the m with the
//! most negative sparsity coefficients. The paper builds candidates
//! bottom-up (`R_i = R_{i−1} ⊕ Q_1`); this implementation walks the same
//! tree depth-first, dimensions ascending and then ranges ascending, so
//! memory stays one node table per depth instead of materializing `R_i`.
//!
//! One walker, `walk`. A node holds a **code table** over its m member
//! rows: one m-long column of grid ranges per later dimension. At the task
//! root that is the index's own column-major table. Per child dimension,
//! one counting sort (`partition`) groups the members by range, and each
//! group is one child, so a child's members are a group of its parent's,
//! as `R_i` extends `R_{i−1}` by one constraint:
//!
//! - a **depth-(k−1) child** counts its φ leaves along each later dimension
//!   with one φ+1 histogram over its positions in the parent's table: `m`
//!   code reads per dimension pair;
//! - a **depth-(k−2) child** whose work estimate favours the *pair kernel*
//!   builds a **local posting index** from the parent's columns at its
//!   positions: one `⌈m/64⌉`-word bitmap per later dimension and range. A
//!   depth-(k−1) partial cube is then one of these bitmaps, and each leaf
//!   the AND + popcount of two: `φ² · ⌈m/64⌉` word operations per dimension
//!   pair. The kernel runs when `φ² · ⌈m/64⌉ ≤ 2m`: a code read costs about
//!   two word operations (EXPERIMENTS.md "Local posting index"). Its two
//!   loops, the posting build and the AND + popcount, are the `kernels`
//!   module's: one portable body each, compiled again for AVX-512 and AVX2,
//!   with the widest tier the CPU reports chosen once per process and
//!   dispatched on at every call;
//! - **any other child** gathers its own code table from the parent's
//!   columns at its positions and recurses, so only the task root's
//!   children gather from N-long columns; deeper ones read their parent's
//!   m-long columns, which stay in cache.
//!
//! At k = 1 a task is one histogram of its dimension; at k = 2 the task
//! root is the depth-(k−2) node, and when the pair kernel pays for all N
//! rows its local posting index is the index's own postings. Missing cells
//! carry code φ, a group no child is made of and a histogram bucket no
//! leaf reads, so they cover no cube (paper §1.2). **Leaves** copy their
//! cube into the best-set only when it would be admitted, into storage
//! recycled from the member it evicts.
//!
//! Every buffer belongs to one depth of one task and only grows, so the
//! search allocates a few times per first dimension, never per node.
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

use crate::kernels;
use crate::projection::{Projection, STAR};
use crate::report::ScoredProjection;
use hdoutlier_index::{BitmapCounter, GridIndex};
use hdoutlier_obs as obs;
use hdoutlier_stats::rank::BoundedBest;
use hdoutlier_stats::SparsityParams;
use std::ops::RangeInclusive;

/// Profiler frame target: these spans exist for `--profile-out` stack
/// attribution (one relaxed atomic load when profiling is off), not for
/// the event log — the per-node rate would swamp any sink.
const TARGET: &str = "hdoutlier.core";

/// How many word operations (AND + popcount of two `u64`s) cost as much as
/// one code read (a gather from the column-major code table plus a
/// histogram increment): the exchange rate of [`pair_kernel_pays`]. One
/// value for every kernel tier, though the tiers' crossovers differ
/// (EXPERIMENTS.md "Vector kernels").
const WORD_OPS_PER_CODE_READ: u64 = 2;

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
        run_task(index, k, params, &task_config, dim)
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

/// The scratch of one depth of a task's walk, shared by every node there.
/// Each buffer grows to the largest node that uses it (see [`grown`]).
#[derive(Default)]
struct Level {
    /// The node's member positions grouped by range on the current child
    /// dimension, and the group bounds: group `c` is
    /// `positions[bounds[c]..bounds[c + 1]]`.
    positions: Vec<u32>,
    bounds: Vec<usize>,
    /// The current child's local table, gathered from the node's: a code
    /// table (`m` codes per later dimension) or, below a depth-(k−3) node,
    /// a local posting index (`⌈m/64⌉` words per later dimension and code).
    codes: Vec<u16>,
    postings: Vec<u64>,
}

/// The cube under construction and everything its leaves are scored into.
struct Tally<'a> {
    config: &'a BruteForceConfig,
    params: SparsityParams,
    d: usize,
    k: usize,
    phi: u16,
    /// The cube under construction, dimensions ascending.
    chosen: Vec<(u32, u16)>,
    best: BoundedBest<(usize, usize)>,
    /// m + 1 cube slots: the m members of `best` plus `spare`, the slot the
    /// next admitted leaf is written to.
    cubes: Vec<(u32, u16)>,
    spare: usize,
    candidates: u64,
    scored: u64,
    budget_hit: bool,
}

/// Walks every cube whose lowest dimension is `dim`.
fn run_task(
    index: &GridIndex,
    k: usize,
    params: SparsityParams,
    config: &BruteForceConfig,
    dim: usize,
) -> TaskOutcome {
    let phi = index.phi() as u16;
    let mut tally = Tally {
        config,
        params,
        d: index.n_dims(),
        k,
        phi,
        chosen: Vec::with_capacity(k),
        best: BoundedBest::new(config.m),
        cubes: vec![(0, 0); (config.m + 1) * k],
        spare: 0,
        candidates: 0,
        scored: 0,
        budget_hit: false,
    };
    // Leaf occupancies along one dimension; bucket φ collects missing cells.
    let mut hist = vec![0; phi as usize + 1];
    match k {
        1 => {
            {
                let _histogram = obs::profile_span(TARGET, "histogram");
                for &code in index.codes(dim as u32) {
                    hist[code as usize] += 1;
                }
            }
            tally.score_leaves(dim, &hist);
        }
        // The task root is the depth-(k−2) node, and its local posting index
        // is the index's own postings.
        2 if pair_kernel_pays(phi as usize, index.n_rows()) => {
            let _pairs = obs::profile_span(TARGET, "pairs");
            let bitmap = |dim: usize, range: u16| index.posting(dim as u32, range).words();
            pair_leaves(&mut tally, &mut hist, dim..=dim, bitmap);
        }
        // The task root's members are all rows, and its code table is the
        // index's own. Depths 0..=k−2 group their members, one level each.
        _ => {
            let mut levels: Vec<Level> = (1..k).map(|_| Level::default()).collect();
            let column = |dim: usize| index.codes(dim as u32);
            walk(&mut tally, &mut hist, &mut levels, &column, dim..=dim);
        }
    }
    TaskOutcome {
        best: tally.best,
        cubes: tally.cubes,
        candidates: tally.candidates,
        scored: tally.scored,
        completed: !tally.budget_hit,
    }
}

/// Walks the subtree of the current node, at depth `chosen.len()` in
/// `0..=k−2`: `column(dim)` is the node's code table column of a later
/// dimension, one code per member, and its children take their dimension
/// from `dims`. `levels[0]` is this depth's scratch and the rest its
/// descendants'.
///
/// Per child dimension, [`partition`] groups the members by range, and each
/// group is one child: a depth-(k−1) child counts its φ leaves along each
/// later dimension with one histogram over its positions; a depth-(k−2)
/// child takes the pair kernel when [`pair_kernel_pays`]; any other child
/// gathers its own code table and recurses.
fn walk<'t>(
    tally: &mut Tally,
    hist: &mut [u32],
    levels: &mut [Level],
    column: &dyn Fn(usize) -> &'t [u16],
    dims: RangeInclusive<usize>,
) {
    let (d, k, phi) = (tally.d, tally.k, tally.phi as usize);
    let depth = tally.chosen.len();
    let (level, deeper) = levels.split_first_mut().expect("one level per inner depth");
    for d1 in dims {
        let codes = column(d1);
        let positions = grown(&mut level.positions, codes.len());
        partition(codes, positions, grown(&mut level.bounds, phi + 3));
        for r1 in 0..phi {
            let group = &level.positions[level.bounds[r1]..level.bounds[r1 + 1]];
            let m = group.len();
            // The child's first later dimension, which a local table holds
            // in its first slot.
            let first = d1 + 1;
            tally.child(d1, r1 as u16, m > 0, |tally| {
                if depth + 2 == k {
                    let _histogram = obs::profile_span(TARGET, "histogram");
                    for d2 in first..d {
                        let codes = column(d2);
                        hist.fill(0);
                        for &position in group {
                            hist[codes[position as usize] as usize] += 1;
                        }
                        tally.score_leaves(d2, hist);
                        if tally.budget_hit {
                            return;
                        }
                    }
                } else if depth + 3 == k && pair_kernel_pays(phi, m) {
                    let _pairs = obs::profile_span(TARGET, "pairs");
                    let (w, phi1) = (m.div_ceil(64), phi + 1);
                    let postings = grown(&mut level.postings, (d - first) * phi1 * w);
                    {
                        let _local = obs::profile_span(TARGET, "local_index");
                        for dim in first..d {
                            let bitmaps = &mut postings[(dim - first) * phi1 * w..][..phi1 * w];
                            kernels::local_postings(column(dim), group, bitmaps);
                        }
                    }
                    let postings = &*postings;
                    let bitmap = |dim: usize, range: u16| {
                        &postings[((dim - first) * phi1 + range as usize) * w..][..w]
                    };
                    pair_leaves(tally, hist, first..=d - 2, bitmap);
                } else {
                    let codes = grown(&mut level.codes, (d - first) * m);
                    {
                        let _local = obs::profile_span(TARGET, "local_table");
                        for dim in first..d {
                            let parent = column(dim);
                            let local = &mut codes[(dim - first) * m..][..m];
                            for (code, &position) in local.iter_mut().zip(group) {
                                *code = parent[position as usize];
                            }
                        }
                    }
                    let codes = &*codes;
                    let column = |dim: usize| &codes[(dim - first) * m..][..m];
                    // Enough dimensions must remain to reach depth k.
                    walk(tally, hist, deeper, &column, first..=d - (k - depth - 1));
                }
            });
            if tally.budget_hit {
                return;
            }
        }
    }
}

/// Groups the positions `0..codes.len()` by code with one stable counting
/// sort: the positions of code `c` end up, ascending, in
/// `positions[bounds[c]..bounds[c + 1]]`. `bounds` has φ + 3 slots.
fn partition(codes: &[u16], positions: &mut [u32], bounds: &mut [usize]) {
    bounds.fill(0);
    for &code in codes {
        bounds[code as usize + 2] += 1;
    }
    for c in 2..bounds.len() {
        bounds[c] += bounds[c - 1];
    }
    for (position, &code) in (0..).zip(codes) {
        let slot = &mut bounds[code as usize + 1];
        positions[*slot] = position;
        *slot += 1;
    }
}

/// The pair kernel below a depth-(k−2) node: `bitmap(dim, range)` is the
/// node's local posting of `(dim, range)`, so a child's partial cube is one
/// bitmap and a leaf's occupancy the popcount of two ANDed.
fn pair_leaves<'b>(
    tally: &mut Tally,
    hist: &mut [u32],
    dims: RangeInclusive<usize>,
    bitmap: impl Fn(usize, u16) -> &'b [u64],
) {
    let phi = tally.phi;
    for d1 in dims {
        for r1 in 0..phi {
            let partial = bitmap(d1, r1);
            tally.child(d1, r1, partial.iter().any(|&w| w != 0), |tally| {
                for d2 in d1 + 1..tally.d {
                    for (r2, count) in (0..phi).zip(hist.iter_mut()) {
                        *count = kernels::and_count(partial, bitmap(d2, r2));
                    }
                    tally.score_leaves(d2, hist);
                    if tally.budget_hit {
                        return;
                    }
                }
            });
            if tally.budget_hit {
                return;
            }
        }
    }
}

/// The first `len` slots of `buffer`, which grows to fit but never
/// shrinks: a task's scratch is sized by its largest node, and reallocated
/// only when a node outgrows every one before it.
fn grown<T: Copy + Default>(buffer: &mut Vec<T>, len: usize) -> &mut [T] {
    if buffer.len() < len {
        buffer.resize(len, T::default());
    }
    &mut buffer[..len]
}

/// Whether a depth-(k−2) node with `m` members counts its leaves faster
/// with the pair kernel (`φ² · ⌈m/64⌉` word operations per dimension pair)
/// than with histograms over its own code table (`m` code reads per
/// dimension pair).
fn pair_kernel_pays(phi: usize, m: usize) -> bool {
    let word_ops = (phi as u64 * phi as u64).saturating_mul(m.div_ceil(64) as u64);
    word_ops <= WORD_OPS_PER_CODE_READ * m as u64
}

impl Tally<'_> {
    /// Enters the child `(dim, range)` of the current node and runs `walk`
    /// on it, or skips its subtree when it is empty and pruning is on.
    fn child(&mut self, dim: usize, range: u16, nonempty: bool, walk: impl FnOnce(&mut Self)) {
        self.chosen.push((dim as u32, range));
        if nonempty || !self.config.require_nonempty {
            walk(self);
        } else {
            self.skip_subtree(dim);
        }
        self.chosen.pop();
    }

    /// Scores the φ leaves that extend the current cube by `dim`, whose
    /// occupancies are `counts[..φ]`.
    fn score_leaves(&mut self, dim: usize, counts: &[u32]) {
        for (range, &count) in (0..self.phi).zip(counts) {
            self.chosen.push((dim as u32, range));
            self.score_leaf(count as usize);
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
    use hdoutlier_index::{Cube, CubeCounter, NaiveCounter};

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
    fn local_tables_fit_every_node_of_a_task() {
        // A level's local tables must fit the largest node of the task, not
        // the first one that uses them. Two inputs:
        //
        // - k = 4. Dimension 1 is missing wherever dimension 0 is in its
        //   lowest quarter and equals dimension 0 elsewhere. So task 0's
        //   nodes (0, 0, 1, ·) are empty and skipped; the first depth-2
        //   nodes to count, (0, 0, 2, ·), hold ~75 rows and need local
        //   postings for dimensions 3–4; and (0, 1, 1, 0) holds ~225 rows
        //   and needs them for 2–4.
        // - k = 5. Every value is the square root of a uniform draw, cut
        //   equi-width, so range r holds (2r + 1)/16 of a dimension's rows
        //   and each task's first node at a depth is among its smallest:
        //   the depth-1 and depth-2 code tables and the depth-3 local
        //   tables (code tables below 8 members, postings above) each
        //   meet larger nodes later, with more later dimensions.
        let missing: Vec<Vec<f64>> = uniform(1200, 5, 31)
            .rows()
            .map(|row| {
                let mut row = row.to_vec();
                row[1] = if row[0] < 0.25 { f64::NAN } else { row[0] };
                row
            })
            .collect();
        let skewed: Vec<Vec<f64>> = uniform(2000, 6, 32)
            .rows()
            .map(|row| row.iter().map(|x| x.sqrt()).collect())
            .collect();
        // C(5,4)·4⁴ and C(6,5)·4⁵ cubes.
        for (rows, k, strategy, cubes) in [
            (missing, 4, DiscretizeStrategy::EquiDepth, 1280),
            (skewed, 5, DiscretizeStrategy::EquiWidth, 6144),
        ] {
            let ds = hdoutlier_data::Dataset::from_rows(rows).unwrap();
            let disc = Discretized::new(&ds, 4, strategy).unwrap();
            let counter = BitmapCounter::new(&disc);
            let config = BruteForceConfig {
                m: 100,
                ..BruteForceConfig::default()
            };
            let out = search(&counter, k, &config);
            assert!(out.completed);
            assert_eq!(out.candidates, cubes, "k = {k}");
            assert_eq!(out.best.len(), 100);
            let naive = NaiveCounter::new(&disc);
            for s in &out.best {
                let cube = s.projection.to_cube().unwrap();
                assert_eq!(s.count, naive.count(&cube), "{}", s.projection);
            }
        }
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
