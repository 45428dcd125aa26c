//! k-nearest-neighbor search by brute-force scan.
//!
//! A full scan per query: in the high-dimensional regime the paper is about,
//! space-partitioning indexes degrade toward one anyway.

use crate::distance::Metric;
use crate::BaselineError;
use hdoutlier_data::Dataset;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A neighbor: `(distance, row)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Distance from the query point.
    pub distance: f64,
    /// Row index of the neighbor.
    pub row: usize,
}

impl Eq for Neighbor {}
impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on distance; ties by row for determinism.
        self.distance
            .partial_cmp(&other.distance)
            .expect("distances are finite")
            .then(self.row.cmp(&other.row))
    }
}

/// Brute-force k-nearest neighbors of row `query` (excluding itself).
///
/// Returns ascending by distance; `k` is clamped to `n − 1`.
pub fn knn_brute(dataset: &Dataset, query: usize, k: usize, metric: Metric) -> Vec<Neighbor> {
    let q = dataset.row(query);
    let k = k.min(dataset.n_rows().saturating_sub(1));
    let mut heap: BinaryHeap<Neighbor> = BinaryHeap::with_capacity(k + 1);
    for row in 0..dataset.n_rows() {
        if row == query {
            continue;
        }
        let distance = metric.distance(q, dataset.row(row));
        if heap.len() < k {
            heap.push(Neighbor { distance, row });
        } else if let Some(top) = heap.peek() {
            if distance < top.distance {
                heap.pop();
                heap.push(Neighbor { distance, row });
            }
        }
    }
    let mut out: Vec<Neighbor> = heap.into_vec();
    out.sort();
    out
}

/// Distance from each row to its k-th nearest neighbor — the Ramaswamy
/// outlier score. `O(n²·d)`, one independent scan per row, fanned out over
/// `threads` pool workers; the pool's ordered reduction keeps the output in
/// row order, so the result is bit-identical at any thread count.
pub fn kth_nn_distances(
    dataset: &Dataset,
    k: usize,
    metric: Metric,
    threads: usize,
) -> Result<Vec<f64>, BaselineError> {
    crate::ensure_complete(dataset)?;
    if k == 0 {
        return Err(BaselineError::BadParams("k must be >= 1".into()));
    }
    if k >= dataset.n_rows() {
        return Err(BaselineError::BadParams(format!(
            "k = {k} must be < n = {}",
            dataset.n_rows()
        )));
    }
    let rows: Vec<usize> = (0..dataset.n_rows()).collect();
    Ok(hdoutlier_pool::map(threads, &rows, |_, &row| {
        knn_brute(dataset, row, k, metric)
            .last()
            .expect("k >= 1 and n > k")
            .distance
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::generators::uniform;
    use hdoutlier_data::Dataset;

    #[test]
    fn brute_knn_simple_geometry() {
        let ds = Dataset::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![5.0, 5.0],
        ])
        .unwrap();
        let nn = knn_brute(&ds, 0, 2, Metric::Euclidean);
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].row, 1);
        assert!((nn[0].distance - 1.0).abs() < 1e-12);
        assert_eq!(nn[1].row, 2);
        assert!((nn[1].distance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn brute_knn_clamps_k() {
        let ds = Dataset::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
        let nn = knn_brute(&ds, 0, 10, Metric::Euclidean);
        assert_eq!(nn.len(), 1);
    }

    #[test]
    fn kth_nn_distances_validation() {
        let ds = uniform(10, 2, 1);
        assert!(kth_nn_distances(&ds, 0, Metric::Euclidean, 1).is_err());
        assert!(kth_nn_distances(&ds, 10, Metric::Euclidean, 1).is_err());
        assert_eq!(
            kth_nn_distances(&ds, 3, Metric::Euclidean, 1)
                .unwrap()
                .len(),
            10
        );
        let missing = Dataset::from_rows(vec![vec![1.0], vec![f64::NAN]]).unwrap();
        assert_eq!(
            kth_nn_distances(&missing, 1, Metric::Euclidean, 1),
            Err(BaselineError::MissingValues)
        );
    }

    #[test]
    fn neighbor_ordering_is_total() {
        let a = Neighbor {
            distance: 1.0,
            row: 2,
        };
        let b = Neighbor {
            distance: 1.0,
            row: 3,
        };
        assert!(a < b);
        let c = Neighbor {
            distance: 0.5,
            row: 9,
        };
        assert!(c < a);
    }
}
