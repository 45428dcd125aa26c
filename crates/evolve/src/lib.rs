#![warn(missing_docs)]

//! Generic evolutionary-search substrate (paper §2.1).
//!
//! The outlier detector's genetic algorithm is built on this crate's
//! problem-agnostic pieces:
//!
//! - [`selection`]: rank-roulette (the paper's Fig. 4 scheme, weight
//!   `p − r(i)`), plus fitness-proportional and tournament selection for the
//!   selection-scheme ablation.
//! - [`convergence`]: De Jong's criterion — a gene has converged when 95 %
//!   of the population agrees on its value; the population has converged
//!   when every gene has (§2.1, the paper's termination condition).
//! - [`engine`]: the generation loop of Fig. 3 — selection → crossover →
//!   mutation — over any [`engine::EvolutionaryProblem`], with an observer
//!   hook so callers can maintain their own best-set, and deterministic
//!   behavior under a seeded RNG.
//!
//! Fitness is always **minimized** here, matching the paper's "most negative
//! sparsity coefficient first" ordering.

pub mod convergence;
pub mod engine;
pub mod selection;

pub use convergence::{gene_convergence, population_converged};
pub use engine::{two_point_crossover, Engine, EngineConfig, EvolutionaryProblem, RunStats};
pub use selection::SelectionScheme;
