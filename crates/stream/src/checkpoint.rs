//! Crash-safe persistence of online-scorer state.
//!
//! A long-running deployment of [`OnlineScorer`] accumulates state that is
//! expensive — or impossible — to rebuild after a crash or redeploy: the
//! drift monitor's per-range occupancy (the staleness signal silently
//! resets to "no evidence" if lost), the record index (verdict numbering),
//! and the outlier/skip totals. [`Checkpoint`] captures that state as a
//! plain value, serializes it through the in-tree [`hdoutlier_json`]
//! machinery, and persists it *atomically and durably*:
//! [`Checkpoint::save_atomic`] writes a sibling temp file
//! ([`staging_path`]), fsyncs it and its directory, rotates the old
//! generation to [`prev_path`], and renames the new one into place — so a
//! kill or power loss at any instant leaves a loadable generation on disk,
//! never a torn one. [`Checkpoint::load_with_recovery`] completes the
//! story on the read side: a corrupt primary is quarantined to
//! [`corrupt_path`] and the `.prev` generation restored instead.
//!
//! Resume is guarded by a fingerprint of the model's grid
//! ([`grid_fingerprint`]): drift occupancy is only meaningful under the
//! boundaries it was accumulated against, so [`Checkpoint::restore`]
//! refuses to graft state onto a scorer whose grid differs.

use crate::scorer::OnlineScorer;
use hdoutlier_core::FittedModel;
use hdoutlier_data::hash::fnv1a;
use hdoutlier_json::{FieldChain, Json, JsonError};
use std::path::{Path, PathBuf};

/// Serialization format version, written into every checkpoint file.
pub const FORMAT_VERSION: f64 = 1.0;

/// Errors while loading or applying a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file is not valid JSON.
    Json(JsonError),
    /// The JSON does not describe a checkpoint (missing/ill-typed fields).
    Schema(String),
    /// The checkpoint does not fit the scorer it is being restored into
    /// (grid fingerprint or drift-state shape mismatch).
    Mismatch(String),
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Json(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema(msg) => write!(f, "checkpoint schema error: {msg}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint does not match model: {msg}"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a hash of the model's grid structure: φ, dimensionality, and every
/// boundary's exact bit pattern. Two models fingerprint equal iff their
/// grids discretize identically, which is exactly when drift occupancy
/// transfers between them.
pub fn grid_fingerprint(model: &FittedModel) -> u64 {
    let grid = model.grid();
    let mut bytes = Vec::new();
    bytes.extend(u64::from(grid.phi()).to_le_bytes());
    bytes.extend((grid.n_dims() as u64).to_le_bytes());
    for dim in 0..grid.n_dims() {
        for &b in grid.boundaries(dim) {
            bytes.extend(b.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// The sibling path [`Checkpoint::save_atomic`] stages into before the
/// rename (`<path>.tmp`). Exposed so operators and tests can reason about —
/// and fault-inject — the window between temp-write and rename.
pub fn staging_path(path: &Path) -> PathBuf {
    sibling(path, ".tmp")
}

/// Where [`Checkpoint::save_atomic`] rotates the previous generation
/// (`<path>.prev`) before installing a new one. Recovery
/// ([`Checkpoint::load_with_recovery`]) falls back to it when the primary
/// file is corrupt or lost mid-rotation.
pub fn prev_path(path: &Path) -> PathBuf {
    sibling(path, ".prev")
}

/// Where [`Checkpoint::load_with_recovery`] quarantines a corrupt primary
/// checkpoint (`<path>.corrupt`) so the evidence survives the recovery
/// instead of being overwritten by the next cadence save.
pub fn corrupt_path(path: &Path) -> PathBuf {
    sibling(path, ".corrupt")
}

/// `<path><suffix>` as a sibling file in the same directory.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Fsyncs the directory containing `path`, making renames and new entries
/// in it durable — an atomic rename protocol without this survives a
/// process kill but not a power loss (the rename may still live only in
/// the page cache when the lights go out).
fn fsync_parent(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

/// A point-in-time snapshot of streaming state: everything an
/// [`OnlineScorer`] (plus the CLI's skip/quarantine accounting) needs to
/// continue where a previous process stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// [`grid_fingerprint`] of the model the state was accumulated under.
    pub fingerprint: u64,
    /// Records scored (the next verdict's 0-based index).
    pub records_scored: u64,
    /// Records flagged as outliers.
    pub outliers: u64,
    /// Records skipped by the caller's error policy.
    pub skipped: u64,
    /// Records quarantined by the caller's error policy.
    pub quarantined: u64,
    /// Drift-check significance level in effect.
    pub drift_alpha: f64,
    /// Drift-check cadence in effect.
    pub check_every: u64,
    /// Records folded into the drift monitor.
    pub drift_records: u64,
    /// Per-dimension non-missing observation totals.
    pub drift_totals: Vec<u64>,
    /// Range occupancy, flattened `dim * phi + range`.
    pub drift_counts: Vec<u64>,
}

impl Checkpoint {
    /// Snapshots a scorer plus the caller's skip/quarantine totals.
    pub fn capture(scorer: &OnlineScorer, skipped: u64, quarantined: u64) -> Self {
        let monitor = scorer.monitor();
        Checkpoint {
            fingerprint: grid_fingerprint(scorer.model()),
            records_scored: scorer.records_scored(),
            outliers: scorer.outliers_flagged(),
            skipped,
            quarantined,
            drift_alpha: scorer.drift_alpha(),
            check_every: scorer.check_every(),
            drift_records: monitor.records_observed(),
            drift_totals: monitor.totals().to_vec(),
            drift_counts: monitor.counts().to_vec(),
        }
    }

    /// Restores this checkpoint's state into `scorer`, which must wrap a
    /// model whose grid fingerprint matches.
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] on a fingerprint difference, an
    /// invalid cadence/alpha, or drift vectors of the wrong shape.
    pub fn restore(&self, scorer: &mut OnlineScorer) -> Result<(), CheckpointError> {
        let fingerprint = grid_fingerprint(scorer.model());
        if fingerprint != self.fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint was taken under grid fingerprint {:016x}, model has {fingerprint:016x} \
                 (drift occupancy does not transfer between grids; re-fit or drop --resume)",
                self.fingerprint
            )));
        }
        let adapt = |e: hdoutlier_data::DataError| CheckpointError::Mismatch(e.to_string());
        scorer.set_drift_alpha(self.drift_alpha).map_err(adapt)?;
        scorer.set_check_every(self.check_every).map_err(adapt)?;
        scorer
            .restore_state(
                self.records_scored,
                self.outliers,
                self.drift_counts.clone(),
                self.drift_totals.clone(),
                self.drift_records,
            )
            .map_err(adapt)
    }

    /// Serializes to a JSON value (schema documented in `docs/metrics.md`).
    ///
    /// # Errors
    /// [`JsonError`] on builder misuse (not reachable from a well-formed
    /// checkpoint).
    pub fn to_json(&self) -> Result<Json, JsonError> {
        let counts: Vec<Json> = self.drift_counts.iter().map(|&c| Json::from(c)).collect();
        let totals: Vec<Json> = self.drift_totals.iter().map(|&t| Json::from(t)).collect();
        Json::object()
            .field("format", FORMAT_VERSION)
            // Hex, not a JSON number: u64 fingerprints exceed f64's exact
            // integer range.
            .field("fingerprint", format!("{:016x}", self.fingerprint))
            .field(
                "scorer",
                Json::object()
                    .field("records_scored", self.records_scored)
                    .field("outliers", self.outliers)
                    .field("drift_alpha", self.drift_alpha)
                    .field("check_every", self.check_every)
                    .field(
                        "drift",
                        Json::object()
                            .field("records", self.drift_records)
                            .field("totals", Json::Array(totals))
                            .field("counts", Json::Array(counts))?,
                    )?,
            )
            .field(
                "stream",
                Json::object()
                    .field("skipped", self.skipped)
                    .field("quarantined", self.quarantined)?,
            )
    }

    /// Deserializes from JSON text.
    ///
    /// # Errors
    /// [`CheckpointError::Json`] or [`CheckpointError::Schema`].
    pub fn from_json_text(text: &str) -> Result<Self, CheckpointError> {
        let json = Json::parse(text).map_err(CheckpointError::Json)?;
        Self::from_json(&json)
    }

    /// Deserializes from a parsed JSON value.
    pub fn from_json(json: &Json) -> Result<Self, CheckpointError> {
        let schema = |msg: String| CheckpointError::Schema(msg);
        let version = json
            .get("format")
            .and_then(Json::as_number)
            .ok_or_else(|| schema("missing format version".into()))?;
        if version != FORMAT_VERSION {
            return Err(schema(format!("unsupported format version {version}")));
        }
        let fingerprint = json
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| schema("fingerprint must be a hex string".into()))?;
        let scorer = json
            .get("scorer")
            .ok_or_else(|| schema("missing scorer section".into()))?;
        let drift = scorer
            .get("drift")
            .ok_or_else(|| schema("missing scorer.drift section".into()))?;
        let stream = json
            .get("stream")
            .ok_or_else(|| schema("missing stream section".into()))?;
        let drift_alpha = scorer
            .get("drift_alpha")
            .and_then(Json::as_number)
            .filter(|a| *a > 0.0 && *a < 1.0)
            .ok_or_else(|| schema("scorer.drift_alpha must be in (0, 1)".into()))?;
        Ok(Checkpoint {
            fingerprint,
            records_scored: count_field(scorer, "records_scored")?,
            outliers: count_field(scorer, "outliers")?,
            skipped: count_field(stream, "skipped")?,
            quarantined: count_field(stream, "quarantined")?,
            drift_alpha,
            check_every: count_field(scorer, "check_every")?,
            drift_records: count_field(drift, "records")?,
            drift_totals: count_array(drift, "totals")?,
            drift_counts: count_array(drift, "counts")?,
        })
    }

    /// Writes the checkpoint to `path` atomically and durably:
    ///
    /// 1. the JSON is staged into [`staging_path`] and fsynced (data
    ///    durable before any rename moves it into place),
    /// 2. the parent directory is fsynced (the staging entry itself is
    ///    durable before the rotation starts),
    /// 3. an existing checkpoint is rotated to [`prev_path`] — the last
    ///    good generation survives as a recovery fallback,
    /// 4. the staging file is renamed over `path`,
    /// 5. the parent directory is fsynced again (the renames are durable).
    ///
    /// A kill — or a power loss — at any instant leaves a loadable
    /// generation on disk: the new one, the previous one at `path`, or the
    /// previous one rotated to `<path>.prev` (the one window where `path`
    /// itself is briefly absent), which [`Checkpoint::load_with_recovery`]
    /// falls back to.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when a write, fsync, or rename fails.
    pub fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        use std::io::Write;
        let text = self.to_json().map_err(CheckpointError::Json)?.pretty() + "\n";
        let staging = staging_path(path);
        let mut file = std::fs::File::create(&staging).map_err(CheckpointError::Io)?;
        file.write_all(text.as_bytes())
            .map_err(CheckpointError::Io)?;
        file.sync_all().map_err(CheckpointError::Io)?;
        drop(file);
        fsync_parent(path).map_err(CheckpointError::Io)?;
        if path.exists() {
            std::fs::rename(path, prev_path(path)).map_err(CheckpointError::Io)?;
        }
        std::fs::rename(&staging, path).map_err(CheckpointError::Io)?;
        fsync_parent(path).map_err(CheckpointError::Io)
    }

    /// Loads a checkpoint previously written by [`Checkpoint::save_atomic`].
    ///
    /// # Errors
    /// [`CheckpointError::Io`], [`CheckpointError::Json`], or
    /// [`CheckpointError::Schema`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
        Self::from_json_text(&text)
    }

    /// Loads `path`, falling back to the rotated [`prev_path`] generation
    /// when the primary is corrupt, truncated, or missing:
    ///
    /// - a primary that fails to *parse* (bit rot, torn write on a
    ///   non-atomic filesystem, disk-full truncation) is quarantined to
    ///   [`corrupt_path`] — the evidence survives for the operator — and
    ///   the previous generation is restored instead;
    /// - a primary that is *missing* while `<path>.prev` exists (a kill in
    ///   the one window of the save protocol where `path` is briefly
    ///   absent) restores the previous generation directly;
    /// - when neither generation loads, the primary's error is returned
    ///   (environmental I/O failures are never masked by the fallback).
    ///
    /// # Errors
    /// The primary's [`CheckpointError`] when no generation is loadable.
    pub fn load_with_recovery(path: &Path) -> Result<(Self, RecoveredFrom), CheckpointError> {
        match Self::load(path) {
            Ok(cp) => Ok((cp, RecoveredFrom::Primary)),
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                Self::fall_back_to_prev(path, CheckpointError::Io(e), None)
            }
            Err(primary_err @ (CheckpointError::Json(_) | CheckpointError::Schema(_))) => {
                let corrupt = corrupt_path(path);
                let quarantined = std::fs::rename(path, &corrupt).is_ok().then_some(corrupt);
                Self::fall_back_to_prev(path, primary_err, quarantined)
            }
            // Mismatch cannot happen here (no scorer involved); other Io
            // errors (permissions, device faults) are environmental and
            // surface as-is.
            Err(e) => Err(e),
        }
    }

    /// The `.prev` leg of [`Checkpoint::load_with_recovery`].
    fn fall_back_to_prev(
        path: &Path,
        primary_err: CheckpointError,
        quarantined: Option<PathBuf>,
    ) -> Result<(Self, RecoveredFrom), CheckpointError> {
        match Self::load(&prev_path(path)) {
            Ok(cp) => Ok((cp, RecoveredFrom::Previous { quarantined })),
            // The fallback failing is reported as the *primary* failure:
            // that is the file the operator configured and must inspect.
            Err(_) => Err(primary_err),
        }
    }
}

/// Which generation [`Checkpoint::load_with_recovery`] restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveredFrom {
    /// The primary file at the configured path.
    Primary,
    /// The rotated `<path>.prev` generation; `quarantined` names the
    /// `<path>.corrupt` file holding the unreadable primary, when there
    /// was one to preserve.
    Previous {
        /// Where the corrupt primary was moved, when it existed.
        quarantined: Option<PathBuf>,
    },
}

/// A non-negative integer field of `parent`, as u64.
fn count_field(parent: &Json, key: &str) -> Result<u64, CheckpointError> {
    parent
        .get(key)
        .and_then(Json::as_number)
        .filter(|v| *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53))
        .map(|v| v as u64)
        .ok_or_else(|| CheckpointError::Schema(format!("{key} must be a non-negative integer")))
}

/// An array-of-counts field of `parent`, as `Vec<u64>`.
fn count_array(parent: &Json, key: &str) -> Result<Vec<u64>, CheckpointError> {
    parent
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| CheckpointError::Schema(format!("{key} must be an array")))?
        .iter()
        .map(|v| {
            v.as_number()
                .filter(|v| *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53))
                .map(|v| v as u64)
                .ok_or_else(|| {
                    CheckpointError::Schema(format!("{key} entries must be non-negative integers"))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_core::{OutlierDetector, SearchMethod};
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};

    fn fitted(seed: u64) -> (FittedModel, hdoutlier_data::Dataset) {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 1000,
            n_dims: 6,
            n_outliers: 4,
            strong_groups: Some(2),
            seed,
            ..PlantedConfig::default()
        });
        let model = OutlierDetector::builder()
            .phi(4)
            .k(2)
            .m(6)
            .search(SearchMethod::BruteForce)
            .build()
            .fit(&planted.dataset)
            .unwrap();
        (model, planted.dataset)
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let (model, ds) = fitted(7);
        let mut scorer = OnlineScorer::new(model).unwrap();
        scorer.set_check_every(100).unwrap();
        scorer.set_drift_alpha(0.05).unwrap();
        for i in 0..250 {
            scorer.score_record(ds.row(i)).unwrap();
        }
        let cp = Checkpoint::capture(&scorer, 3, 2);
        let text = cp.to_json().unwrap().pretty();
        let back = Checkpoint::from_json_text(&text).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.records_scored, 250);
        assert_eq!(back.skipped, 3);
        assert_eq!(back.quarantined, 2);
        assert_eq!(back.check_every, 100);
    }

    #[test]
    fn restore_resumes_identically_to_an_uninterrupted_run() {
        let (model, ds) = fitted(11);
        // Uninterrupted reference.
        let mut reference = OnlineScorer::new(model.clone()).unwrap();
        reference.set_check_every(100).unwrap();
        let mut ref_verdicts = Vec::new();
        for i in 0..600 {
            ref_verdicts.push(reference.score_record(ds.row(i)).unwrap());
        }
        // Interrupted at 300, checkpointed, resumed in a fresh scorer.
        let mut first = OnlineScorer::new(model.clone()).unwrap();
        first.set_check_every(100).unwrap();
        for i in 0..300 {
            first.score_record(ds.row(i)).unwrap();
        }
        let text = Checkpoint::capture(&first, 0, 0)
            .to_json()
            .unwrap()
            .render();
        let cp = Checkpoint::from_json_text(&text).unwrap();
        let mut resumed = OnlineScorer::new(model).unwrap();
        cp.restore(&mut resumed).unwrap();
        assert_eq!(resumed.records_scored(), 300);
        assert_eq!(resumed.check_every(), 100);
        for (i, r) in ref_verdicts.iter().enumerate().skip(300) {
            let v = resumed.score_record(ds.row(i)).unwrap();
            assert_eq!(v.index, r.index);
            assert_eq!(v.outlier, r.outlier);
            assert_eq!(v.score, r.score);
            // Drift checks fire at the same records with identical state.
            assert_eq!(v.drift.is_some(), r.drift.is_some(), "record {i}");
            if let (Some(a), Some(b)) = (&v.drift, &r.drift) {
                assert_eq!(a.statistics, b.statistics);
                assert_eq!(a.p_values, b.p_values);
                assert_eq!(a.drifted_dims, b.drifted_dims);
            }
        }
        assert_eq!(resumed.outliers_flagged(), reference.outliers_flagged());
    }

    /// Saved checkpoints store the fingerprint, so its value must not
    /// change: a different hash would refuse every checkpoint on resume.
    #[test]
    fn fingerprint_value_is_pinned() {
        let grid = hdoutlier_data::GridSpec::from_parts(
            vec![vec![-1.5, 0.0, 2.25], vec![0.125, 0.5, 1e9]],
            4,
            vec!["a".into(), "b".into()],
        )
        .unwrap();
        let model = FittedModel::new(grid, Vec::new());
        assert_eq!(grid_fingerprint(&model), 0x0d73_efb1_aeb5_ad70);
    }

    #[test]
    fn fingerprint_differs_between_grids_and_blocks_restore() {
        let (model_a, ds) = fitted(13);
        let (model_b, _) = fitted(14);
        assert_ne!(grid_fingerprint(&model_a), grid_fingerprint(&model_b));
        // Same model → same fingerprint (stable across clones).
        assert_eq!(
            grid_fingerprint(&model_a),
            grid_fingerprint(&model_a.clone())
        );

        let mut scorer_a = OnlineScorer::new(model_a).unwrap();
        for i in 0..50 {
            scorer_a.score_record(ds.row(i)).unwrap();
        }
        let cp = Checkpoint::capture(&scorer_a, 0, 0);
        let mut scorer_b = OnlineScorer::new(model_b).unwrap();
        let err = cp.restore(&mut scorer_b).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // scorer_b is untouched by the failed restore.
        assert_eq!(scorer_b.records_scored(), 0);
    }

    #[test]
    fn schema_errors_are_reported() {
        assert!(matches!(
            Checkpoint::from_json_text("not json"),
            Err(CheckpointError::Json(_))
        ));
        assert!(matches!(
            Checkpoint::from_json_text("{}"),
            Err(CheckpointError::Schema(_))
        ));
        assert!(Checkpoint::from_json_text(r#"{"format": 99}"#).is_err());
        // Negative counts rejected.
        let bad = r#"{"format":1,"fingerprint":"00000000000000aa",
            "scorer":{"records_scored":-1,"outliers":0,"drift_alpha":0.01,
                      "check_every":512,"drift":{"records":0,"totals":[],"counts":[]}},
            "stream":{"skipped":0,"quarantined":0}}"#;
        assert!(matches!(
            Checkpoint::from_json_text(bad),
            Err(CheckpointError::Schema(_))
        ));
        // Bad alpha rejected.
        let bad = r#"{"format":1,"fingerprint":"00000000000000aa",
            "scorer":{"records_scored":0,"outliers":0,"drift_alpha":7,
                      "check_every":512,"drift":{"records":0,"totals":[],"counts":[]}},
            "stream":{"skipped":0,"quarantined":0}}"#;
        assert!(matches!(
            Checkpoint::from_json_text(bad),
            Err(CheckpointError::Schema(_))
        ));
    }

    #[test]
    fn save_atomic_leaves_no_staging_file() {
        let (model, ds) = fitted(17);
        let mut scorer = OnlineScorer::new(model).unwrap();
        for i in 0..10 {
            scorer.score_record(ds.row(i)).unwrap();
        }
        let dir = std::env::temp_dir().join("hdoutlier-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.ckpt.json");
        let cp = Checkpoint::capture(&scorer, 0, 0);
        cp.save_atomic(&path).unwrap();
        assert!(!staging_path(&path).exists());
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        // Unwritable destination directory surfaces as Io.
        let err = cp
            .save_atomic(Path::new("/nonexistent-dir/x.json"))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }
}
