#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Streaming layer over the batch detector: score records as they arrive
//! instead of re-running the whole pipeline per batch.
//!
//! The paper's pipeline — equi-depth grid, sparsity coefficient `S(D)`,
//! projection search — is batch. A deployment mines the sparse projections
//! offline and then checks each new record against them; this crate is the
//! online half:
//!
//! - [`OnlineScorer`] + [`DriftMonitor`]: a trained
//!   [`hdoutlier_core::FittedModel`] applied record-by-record, with a
//!   per-dimension occupancy χ² test against the trained grid that signals
//!   when the boundaries have gone stale and a re-fit is warranted;
//! - [`Checkpoint`]: atomic (temp-file + rename) JSON persistence of the
//!   scorer's state — record index, drift occupancy, outlier/skip totals —
//!   guarded by a grid fingerprint, so a crashed or redeployed scorer
//!   resumes where it left off instead of silently resetting drift
//!   statistics.
//!
//! The deployment surfaces — the CLI `stream` subcommand and the
//! `hdoutlier serve` network server — share one implementation of
//! everything past the transport: [`pipeline`] (the per-record loop: parse,
//! score, error policy and breaker, quarantine, checkpoint cadence),
//! [`model_io`] (JSON persistence of fitted models) and [`ndjson`] (the
//! NDJSON verdict wire format). The serve path's byte-identical-to-`stream`
//! guarantee rests on both front ends driving the same [`Pipeline`].

pub mod checkpoint;
pub mod drift;
pub mod model_io;
pub mod ndjson;
pub mod pipeline;
pub mod scorer;

pub use checkpoint::{Checkpoint, CheckpointError, RecoveredFrom};
pub use drift::{DriftMonitor, DriftReport};
pub use model_io::ModelIoError;
pub use pipeline::{ErrorPolicy, OpenError, Pipeline, RecordFormat, Settings, Sink, Stop};
pub use scorer::{OnlineScorer, Verdict};
