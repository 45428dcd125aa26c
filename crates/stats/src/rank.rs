//! Ranking and selection utilities.
//!
//! Rank-roulette selection (paper Fig. 4) weights a solution by `p − r(i)`
//! where `r(i)` is its rank with the most negative sparsity coefficient
//! first; the searches keep "the m most negative" in a [`BoundedBest`].
//! Both live here so the GA and the searches agree on NaN and tie handling.

use std::cmp::Ordering;

/// Indices of `values` sorted ascending (NaNs last, in stable order).
pub fn argsort(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| cmp_nan_last(values[a], values[b]));
    idx
}

/// Ascending ranks (0 = smallest). Ties broken by original position, so the
/// result is a permutation — exactly what roulette-wheel weighting needs.
pub fn ranks(values: &[f64]) -> Vec<usize> {
    let order = argsort(values);
    let mut r = vec![0usize; values.len()];
    for (rank, &i) in order.iter().enumerate() {
        r[i] = rank;
    }
    r
}

fn cmp_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("both non-NaN"),
    }
}

/// A bounded "best m" collection that keeps the items with the *smallest*
/// scores seen so far — the `BestSet` of paper Fig. 3.
///
/// Push is `O(log m)` via a max-heap of the current members; deduplication is
/// the caller's concern (the detector dedups by projection identity before
/// pushing).
#[derive(Debug, Clone)]
pub struct BoundedBest<T> {
    capacity: usize,
    // Max-heap on score: the root is the *worst* member, evicted first.
    heap: std::collections::BinaryHeap<Entry<T>>,
    /// Items inserted so far: the next item's `seq`, so that among tied
    /// members the newest is evicted first.
    inserted: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    score: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on (score, seq); older entries win ties (evict newer).
        cmp_nan_last(self.score, other.score).then(self.seq.cmp(&other.seq))
    }
}

impl<T> BoundedBest<T> {
    /// Creates a collection that retains at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            heap: std::collections::BinaryHeap::with_capacity(capacity + 1),
            inserted: 0,
        }
    }

    /// Offers an item with the given score (smaller is better). Returns
    /// `true` if the item was retained.
    ///
    /// NaN scores are rejected outright.
    pub fn push(&mut self, score: f64, item: T) -> bool {
        if !self.admits(score) {
            return false;
        }
        self.insert(score, item);
        true
    }

    /// Whether [`push`](Self::push) would retain an item with this score:
    /// there is room, or the score beats the worst member (ties with the
    /// worst do not displace it). Lets a caller skip building an item that
    /// would only be dropped.
    pub fn admits(&self, score: f64) -> bool {
        if score.is_nan() || self.capacity == 0 {
            return false;
        }
        match self.heap.peek() {
            Some(worst) if self.heap.len() == self.capacity => score < worst.score,
            _ => true,
        }
    }

    /// [`push`](Self::push) that hands back the item it did not retain:
    /// `item` itself when rejected, the evicted member when `item` displaced
    /// it, `None` when there was room. Lets a caller recycle whatever storage
    /// its items own.
    pub fn replace(&mut self, score: f64, item: T) -> Option<T> {
        if !self.admits(score) {
            return Some(item);
        }
        self.insert(score, item)
    }

    /// Inserts an admitted item, evicting the worst member when full.
    fn insert(&mut self, score: f64, item: T) -> Option<T> {
        let seq = self.inserted;
        self.inserted += 1;
        let evicted = if self.heap.len() == self.capacity {
            self.heap.pop().map(|e| e.item)
        } else {
            None
        };
        self.heap.push(Entry { score, seq, item });
        evicted
    }

    /// Current number of retained items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the collection, returning `(score, item)` pairs sorted
    /// ascending by score (best first), tied items in the order they were
    /// pushed.
    pub fn into_sorted(self) -> Vec<(f64, T)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| (e.score, e.item))
            .collect()
    }

    /// Iterates over retained items in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&f64, &T)> {
        self.heap.iter().map(|e| (&e.score, &e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_basic() {
        assert_eq!(argsort(&[3.0, 1.0, 2.0]), vec![1, 2, 0]);
        assert_eq!(argsort(&[]), Vec::<usize>::new());
    }

    #[test]
    fn argsort_nan_last_stable() {
        let v = [f64::NAN, 1.0, f64::NAN, 0.0];
        assert_eq!(argsort(&v), vec![3, 1, 0, 2]);
    }

    #[test]
    fn ranks_are_a_permutation() {
        let v = [5.0, 5.0, 1.0, 9.0];
        let r = ranks(&v);
        let mut sorted = r.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(r[2], 0); // smallest
        assert_eq!(r[3], 3); // largest
        assert!(r[0] < r[1]); // stable tie-break by position
    }

    #[test]
    fn bounded_best_keeps_smallest() {
        let mut b = BoundedBest::new(3);
        for (i, s) in [5.0, 1.0, 4.0, 0.5, 3.0, 2.0].iter().enumerate() {
            b.push(*s, i);
        }
        let got = b.into_sorted();
        let scores: Vec<f64> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(scores, vec![0.5, 1.0, 2.0]);
        let items: Vec<usize> = got.iter().map(|(_, i)| *i).collect();
        assert_eq!(items, vec![3, 1, 5]);
    }

    #[test]
    fn bounded_best_rejects_when_full_and_worse() {
        let mut b = BoundedBest::new(2);
        assert!(b.push(1.0, "a"));
        assert!(b.push(2.0, "b"));
        assert!(!b.push(2.5, "c"));
        assert!(!b.push(2.0, "d")); // ties with worst do not displace
        assert!(b.push(1.5, "e"));
        assert_eq!(b.len(), 2);
        assert_eq!(b.into_sorted(), vec![(1.0, "a"), (1.5, "e")]);
    }

    #[test]
    fn ties_evict_the_newest_once_full() {
        let mut b = BoundedBest::new(2);
        for (score, item) in [(5.0, "A"), (5.0, "B"), (3.0, "C"), (3.0, "D"), (1.0, "E")] {
            b.push(score, item);
        }
        // D and C tie for worst when E arrives; the newer one, D, goes.
        assert_eq!(b.into_sorted(), vec![(1.0, "E"), (3.0, "C")]);
    }

    #[test]
    fn admits_and_replace_follow_push() {
        let mut b = BoundedBest::new(2);
        assert!(b.admits(5.0));
        assert_eq!(b.replace(2.0, "a"), None);
        assert_eq!(b.replace(1.0, "b"), None);
        // Full: ties with the worst are rejected, exactly as `push` does.
        assert!(!b.admits(2.0));
        assert_eq!(b.replace(2.0, "c"), Some("c"));
        assert!(b.admits(1.5));
        assert_eq!(b.replace(1.5, "d"), Some("a"));
        assert!(!b.admits(f64::NAN));
        assert!(!BoundedBest::<()>::new(0).admits(0.0));
        let items: Vec<&str> = b.into_sorted().into_iter().map(|(_, i)| i).collect();
        assert_eq!(items, vec!["b", "d"]);
    }

    #[test]
    fn bounded_best_edge_cases() {
        let mut b: BoundedBest<&str> = BoundedBest::new(0);
        assert!(!b.push(1.0, "x"));
        assert!(b.is_empty());
        let mut b = BoundedBest::new(2);
        assert!(!b.push(f64::NAN, "nan"));
        assert!(b.is_empty());
    }
}
