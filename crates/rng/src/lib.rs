#![warn(missing_docs)]

//! Deterministic pseudo-randomness for the workspace, with no external
//! dependencies.
//!
//! The build environment is hermetic (no crates.io), so the workspace cannot
//! depend on `rand`. This crate provides the small slice of the `rand 0.8`
//! API the codebase actually uses — [`Rng::gen`], [`Rng::gen_range`],
//! [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], and
//! [`seq::SliceRandom::shuffle`] — over two classic std-only generators:
//!
//! - [`SplitMix64`]: a 64-bit state mixer, used to expand seeds;
//! - [`Xoshiro256PlusPlus`]: the general-purpose generator behind
//!   [`rngs::StdRng`].
//!
//! [`for_each_case`] is the workspace's one property-test runner: seeded,
//! with a replay line for the failing case.
//!
//! Streams are stable across platforms and releases of this crate: tests
//! and experiments that fix a seed are reproducible. They are *not* the
//! same streams `rand`'s `StdRng` (ChaCha12) produced, so seed-pinned
//! expectations from before the switch do not carry over.

pub mod seq;

mod uniform;
mod xoshiro;

pub use uniform::{SampleRange, Standard};
pub use xoshiro::{SplitMix64, Xoshiro256PlusPlus};

/// The raw generator interface: a source of uniform `u64` words.
///
/// Object-safe; everything else is provided on top of it by [`Rng`].
pub trait RngCore {
    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniform bits (upper half of [`RngCore::next_u64`], which
    /// are the better-mixed bits of xoshiro-family outputs).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Convenience sampling methods, mirroring the `rand::Rng` surface the
/// workspace uses.
pub trait Rng: RngCore {
    /// A uniform sample of `T`: floats in `[0, 1)`, `bool` as a fair coin,
    /// integers over their full domain.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform sample from `range` (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, B: SampleRange<T>>(&mut self, range: B) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The workspace's property-test runner: calls `f` once for each of `cases`
/// cases, each on its own generator.
///
/// Case `i` is seeded with the `i`-th output of a [`SplitMix64`] stream over
/// `seed`, so one failing case replays alone without re-running the cases
/// before it. When `f` panics, the runner prints
/// `case {i}: replay with StdRng::seed_from_u64({case_seed:#018x})` to
/// stderr and resumes the unwind, leaving the original assertion message as
/// the test's failure. To replay, call `f` on that generator directly.
///
/// ```
/// use hdoutlier_rng::{for_each_case, Rng};
/// for_each_case(7, 64, |rng| {
///     let x: f64 = rng.gen_range(-1.0..1.0);
///     assert!(x.abs() < 1.0);
/// });
/// ```
pub fn for_each_case(seed: u64, cases: u32, mut f: impl FnMut(&mut rngs::StdRng)) {
    let mut seeds = SplitMix64::new(seed);
    for case in 0..cases {
        let case_seed = seeds.next_u64();
        let mut rng = rngs::StdRng::seed_from_u64(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(panic) = outcome {
            eprintln!("case {case}: replay with StdRng::seed_from_u64({case_seed:#018x})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    /// The workspace's standard generator (xoshiro256++ behind SplitMix64
    /// seed expansion). Alias rather than newtype so the generator's own
    /// API stays reachable.
    pub type StdRng = super::Xoshiro256PlusPlus;

    /// Small-footprint generator; the same algorithm suffices here.
    pub type SmallRng = super::Xoshiro256PlusPlus;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = rngs::StdRng::seed_from_u64(1);
        let mut b = rngs::StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "{same} collisions in 64 draws");
    }

    #[test]
    fn unit_floats_are_in_range_and_vary() {
        let mut rng = rngs::StdRng::seed_from_u64(3);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor spread: [{lo}, {hi}]");
    }

    #[test]
    fn gen_range_covers_and_respects_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(4);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v: usize = rng.gen_range(0..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        for _ in 0..1_000 {
            let v: i64 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&v));
            let f: f64 = rng.gen_range(2.0..3.0);
            assert!((2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = rngs::StdRng::seed_from_u64(5);
        let mut counts = [0usize; 8];
        let draws = 80_000;
        for _ in 0..draws {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        let expect = draws / 8;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = rngs::StdRng::seed_from_u64(6);
        let _: u32 = rng.gen_range(5..5);
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = rngs::StdRng::seed_from_u64(8);
        let heads = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&heads), "{heads}");
        let rare = (0..10_000).filter(|_| rng.gen_bool(0.01)).count();
        assert!(rare < 300, "{rare}");
    }

    #[test]
    fn for_each_case_gives_each_case_its_own_replayable_seed() {
        let mut seen = Vec::new();
        for_each_case(42, 16, |rng| seen.push(rng.next_u64()));
        assert_eq!(seen.len(), 16);
        // Case i's generator is StdRng over the i-th SplitMix64 output.
        let mut seeds = SplitMix64::new(42);
        for &first in &seen {
            let mut replay = rngs::StdRng::seed_from_u64(seeds.next_u64());
            assert_eq!(replay.next_u64(), first);
        }
        let mut distinct = seen.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), seen.len());
    }

    #[test]
    fn for_each_case_keeps_the_original_panic_and_stops() {
        let mut ran = 0;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_case(1, 100, |_| {
                ran += 1;
                assert!(ran < 3, "third case fails");
            })
        }));
        let payload = outcome.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"third case fails"),
            "the original payload is resumed"
        );
        assert_eq!(ran, 3);
    }

    #[test]
    fn works_through_mut_references() {
        // Generic helpers take `&mut R: Rng`; make sure reborrowing works.
        fn draw<R: RngCore>(rng: &mut R) -> u64 {
            rng.next_u64()
        }
        let mut rng = rngs::StdRng::seed_from_u64(9);
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        assert_ne!(a, b);
    }
}
