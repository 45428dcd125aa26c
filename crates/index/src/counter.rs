//! The cube-counting abstraction and its implementations.
//!
//! Search algorithms only ever ask "how many records are in this cube?", so
//! they are written against [`CubeCounter`] and the backend is chosen at
//! construction:
//!
//! - [`BitmapCounter`]: the production backend over [`GridIndex`].
//! - [`NaiveCounter`]: a direct row scan over the discretized cells, kept as
//!   the independent oracle for tests and for the index ablation bench.
//! - [`CachedCounter`]: memoizes any inner counter; evolutionary search
//!   revisits the same strings constantly (especially near convergence) and
//!   the optimized crossover re-scores many sibling cubes.
//!
//! Every count goes through [`CubeCounter::count_pairs`], which takes a
//! cube as a borrowed slice of `(dimension, range)` pairs sorted by
//! dimension: a search can score a candidate from a reused buffer without
//! building a [`Cube`], and [`CubeCounter::count`] is the same call on a
//! cube's own pairs.

use crate::cube::Cube;
use crate::grid::GridIndex;
use crate::key::CubeMap;
use hdoutlier_data::discretize::{Discretized, MISSING_CELL};
use std::cell::{Cell, RefCell};

/// Anything that can report cube occupancy for a fixed dataset.
pub trait CubeCounter {
    /// Number of records covering the cube given by `pairs`: distinct
    /// dimensions, ascending, each with one grid range. The empty slice
    /// constrains nothing and covers every record.
    fn count_pairs(&self, pairs: &[(u32, u16)]) -> usize;

    /// Number of records covering `cube`.
    fn count(&self, cube: &Cube) -> usize {
        self.count_pairs(cube.pairs())
    }

    /// Row indices of the records covering `cube`, ascending.
    fn rows(&self, cube: &Cube) -> Vec<usize>;

    /// Total number of records.
    fn n_rows(&self) -> usize;

    /// Number of dimensions.
    fn n_dims(&self) -> usize;

    /// Grid ranges per dimension.
    fn phi(&self) -> u32;
}

/// Bitmap-intersection backend.
#[derive(Debug, Clone)]
pub struct BitmapCounter {
    index: GridIndex,
}

impl BitmapCounter {
    /// Builds the posting index from a discretized dataset.
    pub fn new(disc: &Discretized) -> Self {
        Self {
            index: GridIndex::new(disc),
        }
    }

    /// Access to the underlying index.
    pub fn index(&self) -> &GridIndex {
        &self.index
    }
}

impl CubeCounter for BitmapCounter {
    fn count_pairs(&self, pairs: &[(u32, u16)]) -> usize {
        self.index.count_pairs(pairs)
    }

    fn rows(&self, cube: &Cube) -> Vec<usize> {
        self.index.rows(cube)
    }

    fn n_rows(&self) -> usize {
        self.index.n_rows()
    }

    fn n_dims(&self) -> usize {
        self.index.n_dims()
    }

    fn phi(&self) -> u32 {
        self.index.phi()
    }
}

/// Direct row-scan backend (the test oracle and ablation baseline).
#[derive(Debug, Clone)]
pub struct NaiveCounter {
    disc: Discretized,
}

impl NaiveCounter {
    /// Wraps a discretized dataset (clones it; the oracle is not a hot path).
    pub fn new(disc: &Discretized) -> Self {
        Self { disc: disc.clone() }
    }

    fn covers(&self, row: usize, pairs: &[(u32, u16)]) -> bool {
        pairs.iter().all(|&(d, r)| {
            let cell = self.disc.cell(row, d as usize);
            cell != MISSING_CELL && cell == r
        })
    }
}

impl CubeCounter for NaiveCounter {
    fn count_pairs(&self, pairs: &[(u32, u16)]) -> usize {
        (0..self.disc.n_rows())
            .filter(|&row| self.covers(row, pairs))
            .count()
    }

    fn rows(&self, cube: &Cube) -> Vec<usize> {
        (0..self.disc.n_rows())
            .filter(|&row| self.covers(row, cube.pairs()))
            .collect()
    }

    fn n_rows(&self) -> usize {
        self.disc.n_rows()
    }

    fn n_dims(&self) -> usize {
        self.disc.n_dims()
    }

    fn phi(&self) -> u32 {
        self.disc.phi()
    }
}

/// Memoizing wrapper over any counter.
///
/// Only counts are cached (they are the fitness hot path); `rows`
/// delegates — it is called once per reported projection, not per
/// generation. The memo maps a cube's sorted pairs to its count and is
/// looked up by the borrowed slice, so a key is allocated only the first
/// time its cube is counted.
///
/// The memo table is single-threaded (`RefCell`), so the wrapper is not
/// `Sync`: the evolutionary search that uses it scores on one thread.
pub struct CachedCounter<C: CubeCounter> {
    inner: C,
    cache: RefCell<CubeMap<usize>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<C: CubeCounter> CachedCounter<C> {
    /// Wraps a counter with an unbounded memo table.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            cache: RefCell::new(CubeMap::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Drops all memoized entries.
    pub fn clear(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Unwraps the inner counter.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: CubeCounter> CubeCounter for CachedCounter<C> {
    fn count_pairs(&self, pairs: &[(u32, u16)]) -> usize {
        let mut cache = self.cache.borrow_mut();
        if let Some(&n) = cache.get(pairs) {
            self.hits.set(self.hits.get() + 1);
            return n;
        }
        let n = self.inner.count_pairs(pairs);
        cache.insert(pairs.into(), n);
        self.misses.set(self.misses.get() + 1);
        n
    }

    fn rows(&self, cube: &Cube) -> Vec<usize> {
        self.inner.rows(cube)
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn n_dims(&self) -> usize {
        self.inner.n_dims()
    }

    fn phi(&self) -> u32 {
        self.inner.phi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::discretize::DiscretizeStrategy;
    use hdoutlier_data::generators::uniform;

    fn counters() -> (BitmapCounter, NaiveCounter) {
        let ds = uniform(500, 6, 99);
        let disc = Discretized::new(&ds, 5, DiscretizeStrategy::EquiDepth).unwrap();
        (BitmapCounter::new(&disc), NaiveCounter::new(&disc))
    }

    #[test]
    fn bitmap_and_naive_agree_on_many_cubes() {
        let (bitmap, naive) = counters();
        for d0 in 0..6u32 {
            for d1 in 0..6u32 {
                if d0 == d1 {
                    continue;
                }
                for r0 in 0..5u16 {
                    for r1 in 0..5u16 {
                        let cube = Cube::new([(d0, r0), (d1, r1)]).unwrap();
                        assert_eq!(bitmap.count(&cube), naive.count(&cube), "cube {cube}");
                        assert_eq!(bitmap.rows(&cube), naive.rows(&cube));
                    }
                }
            }
        }
    }

    #[test]
    fn metadata_agrees() {
        let (bitmap, naive) = counters();
        assert_eq!(bitmap.n_rows(), 500);
        assert_eq!(naive.n_rows(), 500);
        assert_eq!(bitmap.n_dims(), 6);
        assert_eq!(bitmap.phi(), 5);
        assert_eq!(naive.phi(), 5);
        assert_eq!(naive.n_dims(), 6);
    }

    #[test]
    fn cache_returns_same_answers_and_counts_hits() {
        let (bitmap, _) = counters();
        let cached = CachedCounter::new(bitmap);
        let cube = Cube::new([(0, 1), (3, 2)]).unwrap();
        let first = cached.count(&cube);
        let second = cached.count(&cube);
        assert_eq!(first, second);
        let (hits, misses) = cached.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
        cached.clear();
        cached.count(&cube);
        assert_eq!(cached.stats(), (1, 2));
        // rows() is uncached but correct.
        assert_eq!(cached.rows(&cube).len(), first);
        let inner = cached.into_inner();
        assert_eq!(inner.count(&cube), first);
    }

    #[test]
    fn cache_distinguishes_different_cubes() {
        let (bitmap, naive) = counters();
        let cached = CachedCounter::new(bitmap);
        let a = Cube::new([(0, 0)]).unwrap();
        let b = Cube::new([(0, 1)]).unwrap();
        assert_eq!(cached.count(&a), naive.count(&a));
        assert_eq!(cached.count(&b), naive.count(&b));
        assert_eq!(cached.stats().1, 2); // two misses, no collisions
    }

    #[test]
    fn full_k_cube_occupancy_sums_to_n() {
        // Summing counts over all ranges of one dim partitions the rows.
        let (bitmap, _) = counters();
        let total: usize = (0..5u16)
            .map(|r| bitmap.count(&Cube::new([(2, r)]).unwrap()))
            .sum();
        assert_eq!(total, 500);
    }
}
