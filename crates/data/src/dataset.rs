//! The in-memory dataset representation.
//!
//! A [`Dataset`] is a dense row-major matrix of `f64` with:
//!
//! - **missing values** encoded as NaN (the paper's §1.2 observes that
//!   sparse projections can be mined even from records with missing
//!   attributes, so missingness must survive all the way to the grid);
//! - **column names** for interpretable outlier reports, and
//! - optional **class labels**, used only by evaluation (the detector itself
//!   is unsupervised).

use std::fmt;

/// Errors produced while constructing or transforming datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// The value buffer length is not `n_rows * n_dims`.
    ShapeMismatch {
        /// Expected buffer length.
        expected: usize,
        /// Actual buffer length.
        actual: usize,
    },
    /// Column-name count differs from `n_dims`.
    NameCountMismatch {
        /// Number of dimensions in the data.
        n_dims: usize,
        /// Number of names supplied.
        n_names: usize,
    },
    /// Label count differs from `n_rows`.
    LabelCountMismatch {
        /// Number of rows in the data.
        n_rows: usize,
        /// Number of labels supplied.
        n_labels: usize,
    },
    /// A referenced column does not exist.
    NoSuchColumn(String),
    /// A referenced column index is out of bounds.
    ColumnIndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of dimensions in the data.
        n_dims: usize,
    },
    /// A referenced row index is out of bounds.
    RowIndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of rows in the data.
        n_rows: usize,
    },
    /// The dataset has zero rows or zero columns where data was required.
    Empty,
    /// Malformed input while parsing (CSV etc.); the string carries context.
    Parse(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::ShapeMismatch { expected, actual } => {
                write!(f, "value buffer has {actual} entries, expected {expected}")
            }
            DataError::NameCountMismatch { n_dims, n_names } => {
                write!(f, "{n_names} column names for {n_dims} dimensions")
            }
            DataError::LabelCountMismatch { n_rows, n_labels } => {
                write!(f, "{n_labels} labels for {n_rows} rows")
            }
            DataError::NoSuchColumn(name) => write!(f, "no column named {name:?}"),
            DataError::ColumnIndexOutOfBounds { index, n_dims } => {
                write!(
                    f,
                    "column index {index} out of bounds for {n_dims} dimensions"
                )
            }
            DataError::RowIndexOutOfBounds { index, n_rows } => {
                write!(f, "row index {index} out of bounds for {n_rows} rows")
            }
            DataError::Empty => write!(f, "dataset is empty"),
            DataError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

/// A dense, row-major numeric dataset.
///
/// ```
/// use hdoutlier_data::Dataset;
/// let ds = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, f64::NAN]]).unwrap();
/// assert_eq!(ds.n_rows(), 2);
/// assert_eq!(ds.n_dims(), 2);
/// assert_eq!(ds.value(0, 1), 2.0);
/// assert!(ds.is_missing(1, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    values: Vec<f64>,
    n_rows: usize,
    n_dims: usize,
    names: Vec<String>,
    labels: Option<Vec<u32>>,
}

impl Dataset {
    /// Builds a dataset from a row-major buffer.
    pub fn new(values: Vec<f64>, n_rows: usize, n_dims: usize) -> Result<Self, DataError> {
        if values.len() != n_rows * n_dims {
            return Err(DataError::ShapeMismatch {
                expected: n_rows * n_dims,
                actual: values.len(),
            });
        }
        Ok(Self {
            values,
            n_rows,
            n_dims,
            names: (0..n_dims).map(|j| format!("x{j}")).collect(),
            labels: None,
        })
    }

    /// Builds a dataset from per-row vectors; all rows must share a length.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, DataError> {
        let n_rows = rows.len();
        let n_dims = rows.first().map(Vec::len).unwrap_or(0);
        if n_rows == 0 || n_dims == 0 {
            return Err(DataError::Empty);
        }
        let mut values = Vec::with_capacity(n_rows * n_dims);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_dims {
                return Err(DataError::Parse(format!(
                    "row {i} has {} values, expected {n_dims}",
                    row.len()
                )));
            }
            values.extend_from_slice(row);
        }
        Self::new(values, n_rows, n_dims)
    }

    /// Starts a builder for datasets with names/labels.
    pub fn builder() -> DatasetBuilder {
        DatasetBuilder::default()
    }

    /// Number of records.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// The value at `(row, dim)`; NaN means missing.
    ///
    /// # Panics
    /// Panics if either index is out of bounds (debug-friendly hot path).
    #[inline]
    pub fn value(&self, row: usize, dim: usize) -> f64 {
        debug_assert!(row < self.n_rows && dim < self.n_dims);
        self.values[row * self.n_dims + dim]
    }

    /// Whether `(row, dim)` is a missing entry.
    #[inline]
    pub fn is_missing(&self, row: usize, dim: usize) -> bool {
        self.value(row, dim).is_nan()
    }

    /// The `row`-th record as a slice.
    pub fn row(&self, row: usize) -> &[f64] {
        &self.values[row * self.n_dims..(row + 1) * self.n_dims]
    }

    /// Iterator over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.values.chunks_exact(self.n_dims)
    }

    /// Copies column `dim` into a vector (row-major storage makes columns
    /// strided; callers that need repeated column access should copy once).
    pub fn column(&self, dim: usize) -> Vec<f64> {
        (0..self.n_rows).map(|i| self.value(i, dim)).collect()
    }

    /// Column names, always `n_dims` long.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Name of column `dim`.
    pub fn name(&self, dim: usize) -> &str {
        &self.names[dim]
    }

    /// Index of the column with the given name.
    pub fn column_index(&self, name: &str) -> Result<usize, DataError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| DataError::NoSuchColumn(name.to_string()))
    }

    /// Class labels, if attached (evaluation only).
    pub fn labels(&self) -> Option<&[u32]> {
        self.labels.as_deref()
    }

    /// Replaces the column names.
    pub fn set_names<S: Into<String>>(&mut self, names: Vec<S>) -> Result<(), DataError> {
        if names.len() != self.n_dims {
            return Err(DataError::NameCountMismatch {
                n_dims: self.n_dims,
                n_names: names.len(),
            });
        }
        self.names = names.into_iter().map(Into::into).collect();
        Ok(())
    }

    /// Attaches class labels.
    pub fn set_labels(&mut self, labels: Vec<u32>) -> Result<(), DataError> {
        if labels.len() != self.n_rows {
            return Err(DataError::LabelCountMismatch {
                n_rows: self.n_rows,
                n_labels: labels.len(),
            });
        }
        self.labels = Some(labels);
        Ok(())
    }

    /// Total number of missing entries.
    pub fn missing_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_nan()).count()
    }

    /// A new dataset containing only the given columns (in the given order).
    /// Labels are carried over; names follow the selection.
    pub fn select_columns(&self, dims: &[usize]) -> Result<Self, DataError> {
        if dims.is_empty() {
            return Err(DataError::Empty);
        }
        for &d in dims {
            if d >= self.n_dims {
                return Err(DataError::ColumnIndexOutOfBounds {
                    index: d,
                    n_dims: self.n_dims,
                });
            }
        }
        let mut values = Vec::with_capacity(self.n_rows * dims.len());
        for i in 0..self.n_rows {
            for &d in dims {
                values.push(self.value(i, d));
            }
        }
        let mut out = Self::new(values, self.n_rows, dims.len())?;
        out.names = dims.iter().map(|&d| self.names[d].clone()).collect();
        out.labels = self.labels.clone();
        Ok(out)
    }

    /// A new dataset containing only the given rows (in the given order).
    pub fn select_rows(&self, rows: &[usize]) -> Result<Self, DataError> {
        if rows.is_empty() {
            return Err(DataError::Empty);
        }
        for &r in rows {
            if r >= self.n_rows {
                return Err(DataError::RowIndexOutOfBounds {
                    index: r,
                    n_rows: self.n_rows,
                });
            }
        }
        let mut values = Vec::with_capacity(rows.len() * self.n_dims);
        for &r in rows {
            values.extend_from_slice(self.row(r));
        }
        let mut out = Self::new(values, rows.len(), self.n_dims)?;
        out.names = self.names.clone();
        out.labels = self
            .labels
            .as_ref()
            .map(|l| rows.iter().map(|&r| l[r]).collect());
        Ok(out)
    }

    /// Appends another dataset's rows; shapes and names must match.
    pub fn append(&mut self, other: &Dataset) -> Result<(), DataError> {
        if other.n_dims != self.n_dims {
            return Err(DataError::ShapeMismatch {
                expected: self.n_dims,
                actual: other.n_dims,
            });
        }
        self.values.extend_from_slice(&other.values);
        match (&mut self.labels, &other.labels) {
            (Some(mine), Some(theirs)) => mine.extend_from_slice(theirs),
            (None, None) => {}
            // Mixing labeled and unlabeled data drops labels rather than
            // inventing them.
            _ => self.labels = None,
        }
        self.n_rows += other.n_rows;
        Ok(())
    }

    /// Consumes the dataset, returning the raw row-major buffer.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

/// Builder for [`Dataset`] with names and labels.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    rows: Vec<Vec<f64>>,
    names: Option<Vec<String>>,
    labels: Option<Vec<u32>>,
}

impl DatasetBuilder {
    /// Adds one record.
    pub fn row(mut self, row: Vec<f64>) -> Self {
        self.rows.push(row);
        self
    }

    /// Adds many records.
    pub fn rows<I: IntoIterator<Item = Vec<f64>>>(mut self, rows: I) -> Self {
        self.rows.extend(rows);
        self
    }

    /// Sets column names.
    pub fn names<S: Into<String>, I: IntoIterator<Item = S>>(mut self, names: I) -> Self {
        self.names = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Sets class labels.
    pub fn labels<I: IntoIterator<Item = u32>>(mut self, labels: I) -> Self {
        self.labels = Some(labels.into_iter().collect());
        self
    }

    /// Validates and builds.
    pub fn build(self) -> Result<Dataset, DataError> {
        let mut ds = Dataset::from_rows(self.rows)?;
        if let Some(names) = self.names {
            ds.set_names(names)?;
        }
        if let Some(labels) = self.labels {
            ds.set_labels(labels)?;
        }
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::builder()
            .row(vec![1.0, 10.0, 100.0])
            .row(vec![2.0, 20.0, 200.0])
            .row(vec![3.0, f64::NAN, 300.0])
            .row(vec![4.0, 40.0, 400.0])
            .names(["a", "b", "c"])
            .labels([0, 0, 1, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let ds = sample();
        assert_eq!(ds.n_rows(), 4);
        assert_eq!(ds.n_dims(), 3);
        assert_eq!(ds.value(1, 2), 200.0);
        let row = ds.row(2);
        assert_eq!(row[0], 3.0);
        assert!(row[1].is_nan());
        assert_eq!(row[2], 300.0);
        assert!(ds.is_missing(2, 1));
        assert!(!ds.is_missing(2, 0));
        assert_eq!(ds.missing_count(), 1);
        assert_eq!(ds.column(0), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ds.name(1), "b");
        assert_eq!(ds.column_index("c"), Ok(2));
        assert!(ds.column_index("zz").is_err());
        assert_eq!(ds.labels(), Some(&[0, 0, 1, 2][..]));
    }

    #[test]
    fn shape_validation() {
        assert!(matches!(
            Dataset::new(vec![1.0; 5], 2, 3),
            Err(DataError::ShapeMismatch {
                expected: 6,
                actual: 5
            })
        ));
        assert!(matches!(Dataset::from_rows(vec![]), Err(DataError::Empty)));
        assert!(matches!(
            Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]]),
            Err(DataError::Parse(_))
        ));
    }

    #[test]
    fn name_and_label_validation() {
        let mut ds = Dataset::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert!(ds.set_names(vec!["only-one"]).is_err());
        assert!(ds.set_names(vec!["p", "q"]).is_ok());
        assert!(ds.set_labels(vec![1, 2]).is_err());
        assert!(ds.set_labels(vec![7]).is_ok());
    }

    #[test]
    fn select_columns_reorders_and_keeps_labels() {
        let ds = sample();
        let sub = ds.select_columns(&[2, 0]).unwrap();
        assert_eq!(sub.n_dims(), 2);
        assert_eq!(sub.names(), &["c".to_string(), "a".to_string()]);
        assert_eq!(sub.value(1, 0), 200.0);
        assert_eq!(sub.value(1, 1), 2.0);
        assert_eq!(sub.labels(), Some(&[0, 0, 1, 2][..]));
        assert!(ds.select_columns(&[]).is_err());
        assert!(ds.select_columns(&[5]).is_err());
    }

    #[test]
    fn select_rows_subsets_labels() {
        let ds = sample();
        let sub = ds.select_rows(&[3, 0]).unwrap();
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.value(0, 0), 4.0);
        assert_eq!(sub.labels(), Some(&[2, 0][..]));
        assert!(ds.select_rows(&[]).is_err());
        assert!(ds.select_rows(&[99]).is_err());
    }

    #[test]
    fn append_rows() {
        let mut a = sample();
        let b = sample();
        a.append(&b).unwrap();
        assert_eq!(a.n_rows(), 8);
        assert_eq!(a.labels().unwrap().len(), 8);
        let c = Dataset::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert!(a.append(&c).is_err()); // dim mismatch
    }

    #[test]
    fn append_mixed_labels_drops_labels() {
        let mut a = sample();
        let mut b = sample();
        b.labels = None;
        a.append(&b).unwrap();
        assert!(a.labels().is_none());
    }

    #[test]
    fn rows_iterator_covers_all() {
        let ds = sample();
        assert_eq!(ds.rows().count(), 4);
        let first = ds.rows().next().unwrap();
        assert_eq!(first, &[1.0, 10.0, 100.0]);
    }

    #[test]
    fn default_names_are_generated() {
        let ds = Dataset::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert_eq!(ds.names(), &["x0".to_string(), "x1".to_string()]);
    }

    #[test]
    fn error_display_strings() {
        let e = DataError::NoSuchColumn("q".into());
        assert!(e.to_string().contains("q"));
        let e = DataError::ShapeMismatch {
            expected: 6,
            actual: 5,
        };
        assert!(e.to_string().contains('6'));
    }
}
