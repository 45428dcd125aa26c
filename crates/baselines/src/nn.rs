//! k-nearest-neighbor search: a brute-force scanner and a vantage-point
//! tree.
//!
//! The VP-tree (Yianilos 1993) gives `O(log n)`-ish queries in low
//! dimension; in high dimension it degrades toward a full scan — the very
//! dimensionality-curse the paper is about, and the index ablation bench
//! measures exactly that degradation.

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
/// outlier score. `O(n²·d)`.
pub fn kth_nn_distances(
    dataset: &Dataset,
    k: usize,
    metric: Metric,
) -> Result<Vec<f64>, BaselineError> {
    kth_nn_distances_threaded(dataset, k, metric, 1)
}

/// [`kth_nn_distances`] fanned out over pool workers. Each row's score is an
/// independent scan, and the pool's ordered reduction keeps the output in
/// row order, so the result is bit-identical at any thread count.
pub fn kth_nn_distances_threaded(
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
    let kth = |row: usize| {
        knn_brute(dataset, row, k, metric)
            .last()
            .expect("k >= 1 and n > k")
            .distance
    };
    if threads > 1 {
        let rows: Vec<usize> = (0..dataset.n_rows()).collect();
        Ok(hdoutlier_pool::map(threads, &rows, |_, &row| kth(row)))
    } else {
        Ok((0..dataset.n_rows()).map(kth).collect())
    }
}

/// A vantage-point tree over the rows of a dataset.
pub struct VpTree<'a> {
    dataset: &'a Dataset,
    metric: Metric,
    nodes: Vec<Node>,
    root: Option<usize>,
}

struct Node {
    row: usize,
    /// Median distance: the inside child holds points with `d <= radius`.
    radius: f64,
    inside: Option<usize>,
    outside: Option<usize>,
}

impl<'a> VpTree<'a> {
    /// Builds the tree. Deterministic: the vantage point of each subtree is
    /// its first element (the dataset order is the tiebreak everywhere).
    ///
    /// # Errors
    /// [`BaselineError::MissingValues`] if the dataset is incomplete.
    pub fn build(dataset: &'a Dataset, metric: Metric) -> Result<Self, BaselineError> {
        crate::ensure_complete(dataset)?;
        let mut tree = Self {
            dataset,
            metric,
            nodes: Vec::with_capacity(dataset.n_rows()),
            root: None,
        };
        let mut rows: Vec<usize> = (0..dataset.n_rows()).collect();
        tree.root = tree.build_node(&mut rows);
        Ok(tree)
    }

    fn build_node(&mut self, rows: &mut [usize]) -> Option<usize> {
        let (&vantage, rest) = rows.split_first()?;
        if rest.is_empty() {
            let id = self.nodes.len();
            self.nodes.push(Node {
                row: vantage,
                radius: 0.0,
                inside: None,
                outside: None,
            });
            return Some(id);
        }
        let v = self.dataset.row(vantage);
        let mut with_d: Vec<(f64, usize)> = rest
            .iter()
            .map(|&r| (self.metric.distance(v, self.dataset.row(r)), r))
            .collect();
        with_d.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let mid = with_d.len() / 2;
        let radius = with_d[mid].0;
        // inside: d <= radius (first mid+1 after sort includes ties at the
        // median); outside: the rest.
        let split = with_d.partition_point(|&(d, _)| d <= radius);
        let mut inside_rows: Vec<usize> = with_d[..split].iter().map(|&(_, r)| r).collect();
        let mut outside_rows: Vec<usize> = with_d[split..].iter().map(|&(_, r)| r).collect();
        let id = self.nodes.len();
        self.nodes.push(Node {
            row: vantage,
            radius,
            inside: None,
            outside: None,
        });
        let inside = self.build_node(&mut inside_rows);
        let outside = self.build_node(&mut outside_rows);
        self.nodes[id].inside = inside;
        self.nodes[id].outside = outside;
        Some(id)
    }

    /// k nearest neighbors of an arbitrary query vector (rows equal to the
    /// query are *not* excluded — exclude by row with
    /// [`VpTree::knn_of_row`]).
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        self.search(query, k, None)
    }

    /// k nearest neighbors of dataset row `row`, excluding itself.
    pub fn knn_of_row(&self, row: usize, k: usize) -> Vec<Neighbor> {
        self.search(self.dataset.row(row), k, Some(row))
    }

    fn search(&self, query: &[f64], k: usize, exclude: Option<usize>) -> Vec<Neighbor> {
        let mut heap: BinaryHeap<Neighbor> = BinaryHeap::with_capacity(k + 1);
        if k > 0 {
            self.search_node(self.root, query, k, exclude, &mut heap);
        }
        let mut out: Vec<Neighbor> = heap.into_vec();
        out.sort();
        out
    }

    fn search_node(
        &self,
        node: Option<usize>,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
        heap: &mut BinaryHeap<Neighbor>,
    ) {
        let Some(id) = node else { return };
        let n = &self.nodes[id];
        let d = self.metric.distance(query, self.dataset.row(n.row));
        if exclude != Some(n.row) {
            if heap.len() < k {
                heap.push(Neighbor {
                    distance: d,
                    row: n.row,
                });
            } else if let Some(top) = heap.peek() {
                if d < top.distance || (d == top.distance && n.row < top.row) {
                    heap.pop();
                    heap.push(Neighbor {
                        distance: d,
                        row: n.row,
                    });
                }
            }
        }
        let (first, second) = if d <= n.radius {
            (n.inside, n.outside)
        } else {
            (n.outside, n.inside)
        };
        self.search_node(first, query, k, exclude, heap);
        // Pruning bound after the nearer subtree tightened the heap: the
        // k-th best distance so far (∞ until the heap fills). The farther
        // side can hold closer points only if the query ball of radius tau
        // crosses the splitting shell.
        let tau = if heap.len() < k {
            f64::INFINITY
        } else {
            heap.peek().expect("heap full").distance
        };
        if (d - n.radius).abs() <= tau {
            self.search_node(second, query, k, exclude, heap);
        }
    }
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
        assert!(kth_nn_distances(&ds, 0, Metric::Euclidean).is_err());
        assert!(kth_nn_distances(&ds, 10, Metric::Euclidean).is_err());
        assert_eq!(
            kth_nn_distances(&ds, 3, Metric::Euclidean).unwrap().len(),
            10
        );
        let missing = Dataset::from_rows(vec![vec![1.0], vec![f64::NAN]]).unwrap();
        assert_eq!(
            kth_nn_distances(&missing, 1, Metric::Euclidean),
            Err(BaselineError::MissingValues)
        );
    }

    #[test]
    fn vp_tree_matches_brute_force() {
        let check = |ds: &Dataset, queries: &[usize], ks: &[usize]| {
            let tree = VpTree::build(ds, Metric::Euclidean).unwrap();
            for &query in queries {
                for &k in ks {
                    let brute = knn_brute(ds, query, k, Metric::Euclidean);
                    let vp = tree.knn_of_row(query, k);
                    assert_eq!(brute.len(), vp.len(), "query {query} k {k}");
                    for (b, v) in brute.iter().zip(&vp) {
                        assert!(
                            (b.distance - v.distance).abs() < 1e-12,
                            "query {query} k {k}: {b:?} vs {v:?}"
                        );
                    }
                }
            }
        };
        check(&uniform(300, 4, 17), &[0, 17, 123, 299], &[1, 3, 10]);
        // Small random datasets in ±100, every row queried.
        hdoutlier_rng::for_each_case(0xba5e_0003, 64, |rng| {
            use hdoutlier_rng::Rng;
            let (n, d) = (rng.gen_range(4..40), rng.gen_range(1..5));
            let values = (0..n * d).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let ds = Dataset::new(values, n, d).unwrap();
            let k = rng.gen_range(1..5usize).min(n - 1);
            check(&ds, &(0..n).collect::<Vec<_>>(), &[k]);
        });
    }

    #[test]
    fn vp_tree_arbitrary_query_vector() {
        let ds =
            Dataset::from_rows(vec![vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]]).unwrap();
        let tree = VpTree::build(&ds, Metric::Euclidean).unwrap();
        let nn = tree.knn(&[1.0, 1.0], 1);
        assert_eq!(nn[0].row, 0);
        // k = 0 returns nothing.
        assert!(tree.knn(&[1.0, 1.0], 0).is_empty());
    }

    #[test]
    fn vp_tree_rejects_missing() {
        let ds = Dataset::from_rows(vec![vec![1.0], vec![f64::NAN]]).unwrap();
        assert!(matches!(
            VpTree::build(&ds, Metric::Euclidean),
            Err(BaselineError::MissingValues)
        ));
    }

    #[test]
    fn vp_tree_single_point() {
        let ds = Dataset::from_rows(vec![vec![3.0, 4.0]]).unwrap();
        let tree = VpTree::build(&ds, Metric::Euclidean).unwrap();
        assert_eq!(tree.knn(&[0.0, 0.0], 1)[0].row, 0);
        assert!(tree.knn_of_row(0, 1).is_empty());
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
