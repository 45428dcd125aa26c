#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Counting substrate for the Aggarwal–Yu subspace outlier detector.
//!
//! Every fitness evaluation in the search — brute-force or evolutionary —
//! asks one question: *how many records fall in this k-dimensional cube?*
//! This crate answers it three ways:
//!
//! - [`bitmap`]: a packed bitset over `u64` words.
//! - [`grid`]: a [`grid::GridIndex`] holding one posting bitmap per
//!   `(dimension, range)` pair; a cube's occupancy is the popcount of the
//!   intersection of its k postings, folded word by word — `O(k · N / 64)`
//!   per cube instead of the naive `O(k · N)` row scan. Beside them it
//!   reads the grid's one column-major code table (a missing value coded
//!   φ), shared with the `Discretized` it was built from, not copied.
//! - [`counter`]: the [`counter::CubeCounter`] abstraction, which counts a
//!   cube given as borrowed `(dimension, range)` pairs sorted by dimension,
//!   with a naive scanning implementation (used to cross-check the bitmaps
//!   in tests and in the ablation bench) and a memoizing wrapper for search
//!   algorithms that revisit cubes.
//! - [`key`]: maps and sets keyed by a cube's sorted pairs and looked up by
//!   the borrowed slice, as the memo and the evolutionary search use them.

pub mod bitmap;
pub mod counter;
pub mod cube;
pub mod grid;
pub mod key;

pub use bitmap::Bitmap;
pub use counter::{BitmapCounter, CachedCounter, CubeCounter, NaiveCounter};
pub use cube::Cube;
pub use grid::GridIndex;
pub use key::{CubeKey, CubeMap, CubeSet};
