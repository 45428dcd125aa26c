//! JSON persistence for fitted models: `detect --save-model` writes one;
//! `score --model`, `stream --model`, and a `serve` session's `"model"`
//! field load one and score records without the training data.
//!
//! This lives in the streaming crate (rather than the CLI, where it
//! started) because every deployment surface that scores without training
//! data — the `score`/`stream` subcommands and the network scoring server
//! — needs it; the CLI re-exports it unchanged.

use hdoutlier_core::projection::{Projection, STAR};
use hdoutlier_core::report::ScoredProjection;
use hdoutlier_core::FittedModel;
use hdoutlier_data::GridSpec;
use hdoutlier_json::{FieldChain, Json, JsonError};

/// Serialization format version, written into every model file.
pub const FORMAT_VERSION: f64 = 1.0;

/// Errors while loading a model file.
#[derive(Debug)]
pub enum ModelIoError {
    /// The file is not valid JSON.
    Json(JsonError),
    /// The JSON does not describe a model (missing/ill-typed fields).
    Schema(String),
    /// The grid parts fail validation.
    Grid(hdoutlier_data::DataError),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Json(e) => write!(f, "model file is not valid JSON: {e}"),
            ModelIoError::Schema(msg) => write!(f, "model file schema error: {msg}"),
            ModelIoError::Grid(e) => write!(f, "model grid invalid: {e}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

/// Serializes a fitted model to a JSON value.
///
/// # Errors
/// [`JsonError`] on builder misuse (not reachable from a well-formed model).
pub fn to_json(model: &FittedModel) -> Result<Json, JsonError> {
    let grid = model.grid();
    let boundaries: Vec<Json> = (0..grid.n_dims())
        .map(|d| {
            Json::Array(
                grid.boundaries(d)
                    .iter()
                    .map(|&b| Json::Number(b))
                    .collect(),
            )
        })
        .collect();
    let names: Vec<Json> = grid
        .names()
        .iter()
        .map(|n| Json::String(n.clone()))
        .collect();
    let projections: Vec<Json> = model
        .projections()
        .iter()
        .map(|s| {
            let genes: Vec<Json> = s
                .projection
                .genes()
                .iter()
                .map(|&g| {
                    if g == STAR {
                        Json::Null
                    } else {
                        Json::Number(g as f64)
                    }
                })
                .collect();
            Json::object()
                .field("genes", Json::Array(genes))
                .field("sparsity", s.sparsity)
                .field("count", s.count)
        })
        .collect::<Result<_, _>>()?;
    Json::object()
        .field("format", FORMAT_VERSION)
        .field(
            "grid",
            Json::object()
                .field("phi", grid.phi())
                .field("names", Json::Array(names))
                .field("boundaries", Json::Array(boundaries))?,
        )
        .field("projections", Json::Array(projections))
}

/// Deserializes a fitted model from JSON text.
pub fn from_json_text(text: &str) -> Result<FittedModel, ModelIoError> {
    let json = Json::parse(text).map_err(ModelIoError::Json)?;
    from_json(&json)
}

/// Deserializes a fitted model from a parsed JSON value.
pub fn from_json(json: &Json) -> Result<FittedModel, ModelIoError> {
    let schema = |msg: &str| ModelIoError::Schema(msg.to_string());
    let version = json
        .get("format")
        .and_then(Json::as_number)
        .ok_or_else(|| schema("missing format version"))?;
    if version != FORMAT_VERSION {
        return Err(schema(&format!("unsupported format version {version}")));
    }
    let grid = json.get("grid").ok_or_else(|| schema("missing grid"))?;
    let phi = grid
        .get("phi")
        .and_then(Json::as_number)
        .filter(|&p| p >= 1.0 && p.fract() == 0.0)
        .ok_or_else(|| schema("grid.phi must be a positive integer"))? as u32;
    let names: Vec<String> = grid
        .get("names")
        .and_then(Json::as_array)
        .ok_or_else(|| schema("grid.names must be an array"))?
        .iter()
        .map(|n| {
            n.as_str()
                .map(str::to_string)
                .ok_or_else(|| schema("grid.names entries must be strings"))
        })
        .collect::<Result<_, _>>()?;
    let uppers: Vec<Vec<f64>> = grid
        .get("boundaries")
        .and_then(Json::as_array)
        .ok_or_else(|| schema("grid.boundaries must be an array"))?
        .iter()
        .map(|dim| {
            dim.as_array()
                .ok_or_else(|| schema("grid.boundaries entries must be arrays"))?
                .iter()
                .map(|b| {
                    b.as_number()
                        .ok_or_else(|| schema("boundaries must be numbers"))
                })
                .collect::<Result<Vec<f64>, _>>()
        })
        .collect::<Result<_, _>>()?;
    let spec = GridSpec::from_parts(uppers, phi, names).map_err(ModelIoError::Grid)?;

    let d = spec.n_dims();
    let projections: Vec<ScoredProjection> = json
        .get("projections")
        .and_then(Json::as_array)
        .ok_or_else(|| schema("missing projections array"))?
        .iter()
        .map(|p| {
            let genes_json = p
                .get("genes")
                .and_then(Json::as_array)
                .ok_or_else(|| schema("projection.genes must be an array"))?;
            if genes_json.len() != d {
                return Err(schema(&format!(
                    "projection has {} genes for a {d}-dimensional grid",
                    genes_json.len()
                )));
            }
            let genes: Vec<u16> = genes_json
                .iter()
                .map(|g| match g {
                    Json::Null => Ok(STAR),
                    other => other
                        .as_number()
                        .filter(|&v| v >= 0.0 && v.fract() == 0.0 && v < phi as f64)
                        .map(|v| v as u16)
                        .ok_or_else(|| schema("genes must be null or a range in 0..phi")),
                })
                .collect::<Result<_, _>>()?;
            let sparsity = p
                .get("sparsity")
                .and_then(Json::as_number)
                .ok_or_else(|| schema("projection.sparsity must be a number"))?;
            let count = p
                .get("count")
                .and_then(Json::as_number)
                .filter(|&c| c >= 0.0 && c.fract() == 0.0)
                .ok_or_else(|| schema("projection.count must be a non-negative integer"))?
                as usize;
            Ok(ScoredProjection {
                projection: Projection::from_genes(genes),
                sparsity,
                count,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(FittedModel::new(spec, projections))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_core::detector::{OutlierDetector, SearchMethod};
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};

    fn fitted() -> (FittedModel, hdoutlier_data::generators::PlantedOutliers) {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 800,
            n_dims: 8,
            n_outliers: 3,
            strong_groups: Some(2),
            seed: 33,
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
        (model, planted)
    }

    #[test]
    fn model_round_trips_and_scores_identically() {
        let (model, planted) = fitted();
        let text = to_json(&model).unwrap().pretty();
        let loaded = from_json_text(&text).expect("round trip");
        // Same projections...
        assert_eq!(loaded.projections().len(), model.projections().len());
        for (a, b) in loaded.projections().iter().zip(model.projections()) {
            assert_eq!(a.projection, b.projection);
            assert_eq!(a.sparsity, b.sparsity);
            assert_eq!(a.count, b.count);
        }
        // ...and identical scoring on every training row.
        for row in 0..planted.dataset.n_rows() {
            let r = planted.dataset.row(row);
            assert_eq!(loaded.score(r).unwrap(), model.score(r).unwrap());
        }
    }

    #[test]
    fn schema_errors_are_reported() {
        assert!(matches!(
            from_json_text("not json"),
            Err(ModelIoError::Json(_))
        ));
        assert!(matches!(from_json_text("{}"), Err(ModelIoError::Schema(_))));
        assert!(from_json_text(r#"{"format": 99}"#).is_err());
        // Valid envelope, broken grid.
        let bad =
            r#"{"format":1,"grid":{"phi":3,"names":["a"],"boundaries":[[2,1]]},"projections":[]}"#;
        assert!(matches!(from_json_text(bad), Err(ModelIoError::Grid(_))));
        // Projection with wrong gene count.
        let bad = r#"{"format":1,"grid":{"phi":3,"names":["a"],"boundaries":[[1,2]]},
                      "projections":[{"genes":[0,1],"sparsity":-3,"count":1}]}"#;
        assert!(matches!(from_json_text(bad), Err(ModelIoError::Schema(_))));
        // Gene out of phi range.
        let bad = r#"{"format":1,"grid":{"phi":3,"names":["a"],"boundaries":[[1,2]]},
                      "projections":[{"genes":[7],"sparsity":-3,"count":1}]}"#;
        assert!(matches!(from_json_text(bad), Err(ModelIoError::Schema(_))));
    }

    /// A grid at φ ≥ `u16::MAX` is refused: its ranges would not fit the
    /// `u16` genes below the wildcard `STAR`, and a top gene of 65535 would
    /// read as a star, dropping its constraint.
    #[test]
    fn grids_past_the_u16_cells_are_rejected() {
        for phi in [65535u32, 65536] {
            let bounds: Vec<String> = (1..phi).map(|b| b.to_string()).collect();
            let text = format!(
                r#"{{"format":1,"grid":{{"phi":{phi},"names":["a","b"],
                    "boundaries":[[{b}],[{b}]]}},
                    "projections":[{{"genes":[{top},0],"sparsity":-3,"count":1}}]}}"#,
                b = bounds.join(","),
                top = phi - 1,
            );
            assert!(
                matches!(from_json_text(&text), Err(ModelIoError::Grid(_))),
                "phi {phi}"
            );
        }
    }

    #[test]
    fn stars_serialize_as_null() {
        let (model, _) = fitted();
        let json = to_json(&model).unwrap();
        let text = json.render();
        assert!(text.contains("null"), "{text}");
        assert!(text.contains("\"format\":1"));
    }
}
