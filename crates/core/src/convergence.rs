//! De Jong's convergence criterion (paper §2.1).
//!
//! "Dejong defined convergence of a *gene* as the stage at which 95 % of the
//! population had the same value for that gene. The population is said to
//! have converged when all genes have converged."
//!
//! Genomes are rows of discrete gene values (`u32`) in one flat
//! [`GeneView`]; the generation loop in [`crate::evolutionary`] refills it
//! each generation with every projection string's k constrained slots. A
//! slot's agreement is one sort of its column and a count of the longest
//! run of equal values.

/// A population's genomes as one flat table of gene values, refilled each
/// generation without reallocating.
#[derive(Debug, Default)]
pub struct GeneView {
    /// Every genome's genes, one genome after another.
    genes: Vec<u32>,
    /// `ends[i]`: one past genome `i`'s last gene in `genes`.
    ends: Vec<usize>,
    /// One slot's values across the population, sorted in place.
    column: Vec<u32>,
}

impl GeneView {
    /// Empties the view, keeping its storage.
    pub fn clear(&mut self) {
        self.genes.clear();
        self.ends.clear();
    }

    /// Appends one genome.
    pub fn push(&mut self, genome: impl IntoIterator<Item = u32>) {
        self.genes.extend(genome);
        self.ends.push(self.genes.len());
    }

    /// Genome lengths, in population order.
    fn lengths(&self) -> impl Iterator<Item = usize> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.ends
            .iter()
            .zip(starts)
            .map(|(&end, start)| end - start)
    }

    /// Fraction of the population sharing the most common value of each
    /// gene position. Positions range over the *shortest* genome if lengths
    /// differ (length disagreement means the population certainly has not
    /// converged, and [`GeneView::converged`] treats it so).
    pub fn gene_convergence(&mut self) -> Vec<f64> {
        let shortest = self.lengths().min().unwrap_or(0);
        (0..shortest).map(|slot| self.share(slot)).collect()
    }

    /// De Jong's termination test: whether every gene position has
    /// converged at `threshold` (De Jong used 0.95), returned beside the
    /// smallest per-gene agreement it decided from (1 when there are no
    /// genes). Populations with genomes of unequal length never converge;
    /// empty populations are vacuously converged.
    pub fn converged(&mut self, threshold: f64) -> (bool, f64) {
        let shares = self.gene_convergence();
        let shortest = shares.len();
        let equal_lengths = self.lengths().all(|len| len == shortest);
        let converged = equal_lengths && shares.iter().all(|&f| f >= threshold);
        (converged, shares.into_iter().fold(1.0, f64::min))
    }

    /// Share of the population holding the most common value of `slot`,
    /// which every genome has.
    fn share(&mut self, slot: usize) -> f64 {
        self.column.clear();
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.column.extend(
            starts
                .take(self.ends.len())
                .map(|start| self.genes[start + slot]),
        );
        self.column.sort_unstable();
        let longest_run = self
            .column
            .chunk_by(|a, b| a == b)
            .map(<[u32]>::len)
            .max()
            .unwrap_or(0);
        longest_run as f64 / self.ends.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(population: &[Vec<u32>]) -> GeneView {
        let mut view = GeneView::default();
        for genome in population {
            view.push(genome.iter().copied());
        }
        view
    }

    #[test]
    fn fully_identical_population_is_converged() {
        let mut pop = view(&vec![vec![1, 2, 3]; 20]);
        assert_eq!(pop.converged(0.95), (true, 1.0));
        assert_eq!(pop.gene_convergence(), vec![1.0, 1.0, 1.0]);
        // Any genome, any population size, any threshold.
        hdoutlier_rng::for_each_case(0xc0a7_0001, 256, |rng| {
            use hdoutlier_rng::Rng;
            let len = rng.gen_range(0..8);
            let genome: Vec<u32> = (0..len).map(|_| rng.gen_range(0..9)).collect();
            let pop = vec![genome; rng.gen_range(1..20)];
            let threshold = rng.gen_range(0.05..1.0);
            assert!(view(&pop).converged(threshold).0, "{pop:?} at {threshold}");
        });
    }

    #[test]
    fn exactly_at_threshold_converges() {
        // 19 of 20 share each gene: 0.95 exactly.
        let mut pop = vec![vec![1, 1]; 19];
        pop.push(vec![2, 2]);
        assert_eq!(view(&pop).converged(0.95), (true, 0.95));
        assert!(!view(&pop).converged(0.96).0);
    }

    #[test]
    fn one_diverse_gene_blocks_convergence() {
        // Gene 0 identical; gene 1 split 50/50.
        let mut pop = vec![vec![7, 0]; 10];
        pop.extend(vec![vec![7, 1]; 10]);
        let conv = view(&pop).gene_convergence();
        assert_eq!(conv[0], 1.0);
        assert_eq!(conv[1], 0.5);
        assert_eq!(view(&pop).converged(0.95), (false, 0.5));
    }

    #[test]
    fn unequal_lengths_never_converge() {
        // The shared positions agree fully; the lengths still differ.
        let pop = vec![vec![1, 2], vec![1, 2, 3]];
        assert_eq!(view(&pop).converged(0.5), (false, 1.0));
        assert_eq!(view(&pop).gene_convergence(), vec![1.0, 1.0]);
    }

    #[test]
    fn empty_population_is_vacuously_converged() {
        let mut pop = GeneView::default();
        assert_eq!(pop.converged(0.95), (true, 1.0));
        assert!(pop.gene_convergence().is_empty());
    }

    #[test]
    fn single_member_population_is_converged() {
        assert!(view(&[vec![3, 1, 4]]).converged(0.95).0);
    }

    #[test]
    fn zero_length_genomes_are_converged() {
        assert!(view(&[vec![], vec![]]).converged(0.95).0);
    }

    #[test]
    fn clearing_reuses_the_view() {
        let mut pop = view(&[vec![1, 2], vec![1, 3]]);
        assert_eq!(pop.converged(0.5), (true, 0.5));
        pop.clear();
        pop.push([4, 4]);
        assert_eq!(pop.converged(0.95), (true, 1.0));
    }
}
