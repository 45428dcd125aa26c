//! Fitness of a projection string: the sparsity coefficient of its cube
//! (paper Eq. 1), evaluated through a cube counter.
//!
//! Fitness is minimized (most negative coefficient = fittest). Infeasible
//! strings — wrong dimensionality for the run — receive `+∞`, the paper's
//! "very low fitness values" for solutions outside the feasible search
//! space (§2.2).

use crate::projection::Projection;
use hdoutlier_index::{Cube, CubeCounter, CubeMap, CubeSet};
use hdoutlier_stats::SparsityParams;
use std::cell::RefCell;

/// What a search reads off the cubes a [`SparsityFitness`] has recorded
/// since [`SparsityFitness::enable_tracking`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TrackedProgress {
    /// Distinct recorded cubes whose coefficient equals the floor, bit for
    /// bit.
    pub(crate) at_floor: usize,
    /// The lowest recorded coefficient at or above the floor: the best one
    /// the search can report (`+∞` until one is recorded).
    pub(crate) best: f64,
}

impl Default for TrackedProgress {
    fn default() -> Self {
        Self {
            at_floor: 0,
            best: f64::INFINITY,
        }
    }
}

/// The recording [`SparsityFitness::enable_tracking`] starts. Its progress
/// changes only when a cube is first inserted, so keeping it costs no
/// lookup.
struct Tracking {
    cubes: CubeMap<f64>,
    internal_candidates: bool,
    floor: f64,
    progress: TrackedProgress,
}

/// Evaluates sparsity coefficients for projections of a fixed dataset.
pub struct SparsityFitness<'a, C: CubeCounter> {
    counter: &'a C,
    /// Target dimensionality `k` of feasible projections.
    k: usize,
    /// Pre-validated parameters per possible sub-dimensionality `1..=k`,
    /// so partial strings (used by the optimized crossover's greedy phase)
    /// are scored with the correct `N·f^j` baseline.
    params_by_k: Vec<Option<SparsityParams>>,
    /// When enabled, the full-k cubes this fitness scores are recorded:
    /// every one it computes, including the candidates the optimized
    /// crossover examines internally, or only the genomes
    /// [`SparsityFitness::evaluate`] scores. The evolutionary search drains
    /// this to build its best-m set, so solutions the algorithm *computed*
    /// but never promoted into the population can still count as "kept track
    /// of" (paper Fig. 3). Insertion order is irrelevant: the evolutionary
    /// search sorts the drained map deterministically.
    tracked: RefCell<Option<Tracking>>,
    /// Tabu set for multi-restart search: genomes whose cube is banned score
    /// `+∞` so the population is pushed toward *new* sparse regions. Bans
    /// apply only at the genome level ([`SparsityFitness::evaluate`]); the
    /// crossover's internal [`SparsityFitness::sparsity_of_pairs`] calls
    /// still see true scores, so banned cubes remain usable as stepping
    /// stones.
    banned: RefCell<CubeSet>,
    /// The pairs of the genome [`SparsityFitness::evaluate`] is scoring,
    /// kept between calls so evaluation does not allocate.
    genome_pairs: RefCell<Vec<(u32, u16)>>,
}

impl<'a, C: CubeCounter> SparsityFitness<'a, C> {
    /// Binds a counter and the run's target dimensionality.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds the counter's dimensionality.
    pub fn new(counter: &'a C, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            k <= counter.n_dims(),
            "k = {k} exceeds dataset dimensionality {}",
            counter.n_dims()
        );
        let n = counter.n_rows() as u64;
        let phi = counter.phi();
        let params_by_k = (0..=k)
            .map(|j| {
                if j == 0 {
                    None
                } else {
                    SparsityParams::new(n, phi, j as u32)
                }
            })
            .collect();
        Self {
            counter,
            k,
            params_by_k,
            tracked: RefCell::new(None),
            banned: RefCell::new(CubeSet::default()),
            genome_pairs: RefCell::new(Vec::with_capacity(k + 1)),
        }
    }

    /// Bans a cube: genomes resolving to it score `+∞` from now on. Used by
    /// [`crate::evolutionary::multi_restart_search`] to force successive
    /// restarts into unexplored regions.
    pub fn ban(&self, cube: &Cube) {
        self.banned.borrow_mut().insert(cube.pairs().into());
    }

    /// Number of currently banned cubes.
    pub fn banned_len(&self) -> usize {
        self.banned.borrow().len()
    }

    /// Removes all bans.
    pub fn clear_bans(&self) {
        self.banned.borrow_mut().clear();
    }

    /// Starts recording full-k cubes, clearing any previous recording:
    /// every cube this fitness scores when `internal_candidates` is set,
    /// otherwise only the genomes [`SparsityFitness::evaluate`] scores (the
    /// literal Fig. 3 best set). Cubes scoring exactly `floor` are counted
    /// as they are first recorded.
    pub fn enable_tracking(&self, floor: f64, internal_candidates: bool) {
        *self.tracked.borrow_mut() = Some(Tracking {
            cubes: CubeMap::default(),
            internal_candidates,
            floor,
            progress: TrackedProgress::default(),
        });
    }

    /// The floor count and best coefficient of what has been recorded since
    /// [`SparsityFitness::enable_tracking`]; nothing recorded reads as
    /// `(0, +∞)`.
    pub(crate) fn tracked_progress(&self) -> TrackedProgress {
        self.tracked
            .borrow()
            .as_ref()
            .map_or(TrackedProgress::default(), |t| t.progress)
    }

    /// Stops recording and returns everything recorded since
    /// [`SparsityFitness::enable_tracking`], keyed by each cube's sorted
    /// pairs. Returns an empty map if tracking was never enabled.
    pub fn take_tracked(&self) -> CubeMap<f64> {
        self.tracked
            .borrow_mut()
            .take()
            .map(|t| t.cubes)
            .unwrap_or_default()
    }

    /// The run's target dimensionality.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying counter.
    pub fn counter(&self) -> &C {
        self.counter
    }

    /// Eq. 1 for a full-k cube holding `count` records; `+∞` where the
    /// coefficient is undefined at this `k` (see [`SparsityParams::new`]),
    /// as it is for every cube there.
    pub(crate) fn sparsity_of_count(&self, count: u64) -> f64 {
        self.params_by_k[self.k].map_or(f64::INFINITY, |p| p.sparsity(count))
    }

    /// Full fitness: sparsity coefficient for feasible strings, `+∞`
    /// otherwise. One pass over the genes collects the constrained pairs
    /// (stopping once there are more than `k`); bans are consulted only
    /// while some are set.
    pub fn evaluate(&self, projection: &Projection) -> f64 {
        let mut pairs = self.genome_pairs.borrow_mut();
        pairs.clear();
        pairs.extend(projection.pairs().take(self.k + 1));
        if pairs.len() != self.k {
            return f64::INFINITY;
        }
        let banned = self.banned.borrow();
        if !banned.is_empty() && banned.contains(&pairs[..]) {
            return f64::INFINITY;
        }
        self.score(&pairs, true)
    }

    /// Sparsity of the cube given by `pairs` (distinct dimensions,
    /// ascending) at *its own* dimensionality, for partial strings during
    /// optimized crossover. Cubes deeper than the run's `k`, and the empty
    /// one, are infeasible and score `+∞`.
    pub fn sparsity_of_pairs(&self, pairs: &[(u32, u16)]) -> f64 {
        self.score(pairs, false)
    }

    /// Scores `pairs` at their own dimensionality and records a full-k cube
    /// the first time it is scored: every one while internal candidates are
    /// tracked, otherwise only a `genome`'s.
    fn score(&self, pairs: &[(u32, u16)], genome: bool) -> f64 {
        let Some(params) = self.params_by_k.get(pairs.len()).copied().flatten() else {
            return f64::INFINITY;
        };
        let s = params.sparsity(self.counter.count_pairs(pairs) as u64);
        if pairs.len() == self.k {
            if let Some(t) = self.tracked.borrow_mut().as_mut() {
                if (genome || t.internal_candidates) && !t.cubes.contains_key(pairs) {
                    t.cubes.insert(pairs.into(), s);
                    if s.to_bits() == t.floor.to_bits() {
                        t.progress.at_floor += 1;
                    }
                    if s >= t.floor {
                        t.progress.best = t.progress.best.min(s);
                    }
                }
            }
        }
        s
    }

    /// Occupancy of a projection's cube; `None` for the all-star projection
    /// (which trivially contains every record).
    pub fn count(&self, projection: &Projection) -> Option<usize> {
        projection.to_cube().map(|c| self.counter.count(&c))
    }

    /// Rows covering a projection.
    pub fn rows(&self, projection: &Projection) -> Vec<usize> {
        match projection.to_cube() {
            Some(cube) => self.counter.rows(&cube),
            None => (0..self.counter.n_rows()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::STAR;
    use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
    use hdoutlier_data::generators::uniform;
    use hdoutlier_index::BitmapCounter;

    fn fixture() -> (BitmapCounter, usize) {
        let ds = uniform(1000, 5, 7);
        let disc = Discretized::new(&ds, 4, DiscretizeStrategy::EquiDepth).unwrap();
        (BitmapCounter::new(&disc), 1000)
    }

    #[test]
    fn feasible_projection_scores_eq1() {
        let (counter, n) = fixture();
        let fitness = SparsityFitness::new(&counter, 2);
        let p = Projection::from_genes(vec![0, STAR, 3, STAR, STAR]);
        let count = fitness.count(&p).unwrap();
        let want = hdoutlier_stats::sparsity_coefficient(count as u64, n as u64, 4, 2);
        assert_eq!(fitness.evaluate(&p), want);
    }

    #[test]
    fn infeasible_projection_is_infinity() {
        let (counter, _) = fixture();
        let fitness = SparsityFitness::new(&counter, 2);
        // k = 1 and k = 3 strings are infeasible for a k = 2 run.
        assert_eq!(
            fitness.evaluate(&Projection::from_genes(vec![0, STAR, STAR, STAR, STAR])),
            f64::INFINITY
        );
        assert_eq!(
            fitness.evaluate(&Projection::from_genes(vec![0, 1, 2, STAR, STAR])),
            f64::INFINITY
        );
        assert_eq!(fitness.evaluate(&Projection::all_star(5)), f64::INFINITY);
    }

    #[test]
    fn partial_cube_scoring_uses_own_dimensionality() {
        let (counter, n) = fixture();
        let fitness = SparsityFitness::new(&counter, 3);
        let cube = hdoutlier_index::Cube::new([(0, 1)]).unwrap();
        let got = fitness.sparsity_of_pairs(cube.pairs());
        let count = counter.count(&cube);
        let want = hdoutlier_stats::sparsity_coefficient(count as u64, n as u64, 4, 1);
        assert_eq!(got, want);
        // Deeper than k is infeasible.
        let deep = hdoutlier_index::Cube::new([(0, 0), (1, 0), (2, 0), (3, 0)]).unwrap();
        assert_eq!(fitness.sparsity_of_pairs(deep.pairs()), f64::INFINITY);
    }

    #[test]
    fn uniform_data_has_mild_coefficients_at_k1() {
        // Equi-depth on 1000 rows, φ=4: every 1-d range holds exactly 250,
        // so every k=1 sparsity coefficient is ~0.
        let (counter, _) = fixture();
        let fitness = SparsityFitness::new(&counter, 1);
        for dim in 0..5 {
            for r in 0..4u16 {
                let mut genes = vec![STAR; 5];
                genes[dim] = r;
                let s = fitness.evaluate(&Projection::from_genes(genes));
                assert!(s.abs() < 0.1, "dim {dim} range {r}: {s}");
            }
        }
    }

    #[test]
    fn rows_and_count_agree() {
        let (counter, _) = fixture();
        let fitness = SparsityFitness::new(&counter, 2);
        let p = Projection::from_genes(vec![1, STAR, STAR, 2, STAR]);
        assert_eq!(fitness.rows(&p).len(), fitness.count(&p).unwrap());
        // All-star covers everything.
        assert_eq!(fitness.rows(&Projection::all_star(5)).len(), 1000);
        assert_eq!(fitness.count(&Projection::all_star(5)), None);
    }

    #[test]
    fn tracking_counts_each_floor_cube_once_and_resets() {
        let (counter, _) = fixture();
        let fitness = SparsityFitness::new(&counter, 2);
        let p = Projection::from_genes(vec![0, STAR, 3, STAR, STAR]);
        let s = fitness.evaluate(&p);
        // Nothing is recorded before tracking starts.
        assert_eq!(fitness.tracked_progress(), TrackedProgress::default());
        fitness.enable_tracking(s, false);
        fitness.evaluate(&p);
        fitness.evaluate(&p);
        // A genome-only recording skips the crossover's internal scoring.
        let other = Projection::from_genes(vec![1, STAR, 2, STAR, STAR]);
        fitness.sparsity_of_pairs(other.to_cube().unwrap().pairs());
        let progress = fitness.tracked_progress();
        assert_eq!((progress.at_floor, progress.best), (1, s));
        fitness.enable_tracking(s, true);
        assert_eq!(fitness.tracked_progress(), TrackedProgress::default());
        fitness.sparsity_of_pairs(p.to_cube().unwrap().pairs());
        assert_eq!(fitness.tracked_progress().at_floor, 1);
        assert_eq!(fitness.take_tracked().len(), 1);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let (counter, _) = fixture();
        SparsityFitness::new(&counter, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds dataset dimensionality")]
    fn oversized_k_panics() {
        let (counter, _) = fixture();
        SparsityFitness::new(&counter, 6);
    }
}
