//! Seeded property tests for the numeric substrate, on the workspace's one
//! runner ([`hdoutlier_rng::for_each_case`]). A failing case prints the
//! seed that replays it alone.

use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{for_each_case, Rng, RngCore};
use hdoutlier_stats::binomial::Binomial;
use hdoutlier_stats::erf::erfc;
use hdoutlier_stats::normal::standard_cdf;
use hdoutlier_stats::rank::{argsort, ranks, BoundedBest};
use hdoutlier_stats::summary::{quantile, Accumulator};
use hdoutlier_stats::{recommended_k, significance_of, SparsityParams};

/// A vector of uniform floats in `[lo, hi)`, its length drawn from `len`.
fn floats(rng: &mut StdRng, len: std::ops::Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A uniform draw from the closed unit interval, endpoints included now
/// and then.
fn closed_unit(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..16) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen(),
    }
}

#[test]
fn erfc_is_symmetric_about_one() {
    for_each_case(0x57a7_0001, 256, |rng| {
        let x = rng.gen_range(-6.0..6.0);
        assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-13, "x = {x}");
    });
}

#[test]
fn erfc_stays_between_zero_and_two_on_normal_floats() {
    let check = |x: f64| {
        let v = erfc(x);
        assert!((0.0..=2.0).contains(&v), "erfc({x:e}) = {v}");
    };
    // A shrunk failure once recorded for this property, kept as a fixed input.
    check(9.580606977228244e278);
    for_each_case(0x57a7_0002, 256, |rng| {
        let x = loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_normal() {
                break x;
            }
        };
        check(x);
    });
}

#[test]
fn normal_cdf_is_monotone() {
    for_each_case(0x57a7_0003, 256, |rng| {
        let (a, b) = (rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(standard_cdf(lo) <= standard_cdf(hi) + 1e-15, "{lo} vs {hi}");
    });
}

#[test]
fn binomial_pmf_is_nonnegative_and_cdf_monotone_to_one() {
    for_each_case(0x57a7_0004, 256, |rng| {
        let n = rng.gen_range(1u64..200);
        let p = rng.gen_range(0.0..1.0);
        let b = Binomial::new(n, p).unwrap();
        let mut prev = 0.0;
        for k in 0..=n {
            assert!(b.pmf(k) >= 0.0, "pmf({k}) of B({n}, {p})");
            let c = b.cdf(k);
            assert!(c + 1e-12 >= prev, "cdf decreased at k={k} of B({n}, {p})");
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-9, "cdf(n) of B({n}, {p}) = {prev}");
    });
}

#[test]
fn sparsity_is_monotone_in_count() {
    for_each_case(0x57a7_0005, 256, |rng| {
        let p = SparsityParams::new(
            rng.gen_range(10u64..1_000_000),
            rng.gen_range(2u32..20),
            rng.gen_range(1u32..5),
        )
        .unwrap();
        let (c1, c2) = (rng.gen_range(0u64..1000), rng.gen_range(0u64..1000));
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        assert!(p.sparsity(lo) <= p.sparsity(hi), "{p:?}: {lo} vs {hi}");
    });
}

#[test]
fn sparsity_straddles_zero_at_the_expected_count() {
    for_each_case(0x57a7_0006, 256, |rng| {
        let p = SparsityParams::new(
            rng.gen_range(100u64..1_000_000),
            rng.gen_range(2u32..12),
            rng.gen_range(1u32..4),
        )
        .unwrap();
        let e = p.expected_count();
        let (below, above) = (p.sparsity(e.floor() as u64), p.sparsity(e.ceil() as u64));
        assert!(below <= 1e-9 + above, "{p:?}");
        assert!(below <= 1e-9, "{p:?}: S(floor E) = {below}");
        assert!(above >= -1e-9, "{p:?}: S(ceil E) = {above}");
    });
}

/// A Neumaier-compensated running sum: the oracle's only accumulator.
#[derive(Default)]
struct CompensatedSum {
    sum: f64,
    carry: f64,
}

impl CompensatedSum {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        self.carry += if self.sum.abs() >= x.abs() {
            (self.sum - t) + x
        } else {
            (x - t) + self.sum
        };
        self.sum = t;
    }

    fn value(&self) -> f64 {
        self.sum + self.carry
    }
}

/// `P[Binomial(n, p) ≤ k]` by a route that shares nothing with the
/// library's `ln_gamma`: `ln C(n, k)` is the compensated sum of
/// `ln((n−k+i)/i)` over `i ≤ min(k, n−k)`, and the tail on `k`'s side of the
/// mean is a compensated sum of the ratio recurrence, walked until its terms
/// fall below 1e-20 of the total. Above the mean it returns `1 − P[X > k]`.
fn oracle_cdf(n: u64, p: f64, k: u64) -> f64 {
    if k >= n {
        return 1.0;
    }
    let j = k.min(n - k);
    let mut ln_choose = CompensatedSum::default();
    for i in 1..=j {
        ln_choose.add(((n - j + i) as f64 / i as f64).ln());
    }
    let ln_pmf = ln_choose.value() + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p();
    let q = 1.0 - p;
    let mut tail = CompensatedSum::default();
    if k as f64 <= n as f64 * p {
        let (mut term, mut i) = (ln_pmf.exp(), k);
        loop {
            tail.add(term);
            if i == 0 || term < 1e-20 * tail.value() {
                return tail.value();
            }
            term *= i as f64 * q / ((n - i + 1) as f64 * p);
            i -= 1;
        }
    }
    let (mut term, mut i) = (
        ln_pmf.exp() * (n - k) as f64 * p / ((k + 1) as f64 * q),
        k + 1,
    );
    loop {
        tail.add(term);
        if i == n || term < 1e-20 * tail.value() {
            return 1.0 - tail.value();
        }
        term *= (n - i) as f64 * p / ((i + 1) as f64 * q);
        i += 1;
    }
}

/// `p` in `[1e-4, 1)`: log-uniform half the time, so sparse cells are as
/// common as dense ones, uniform otherwise.
fn tail_probability(rng: &mut StdRng) -> f64 {
    if rng.gen() {
        10f64.powf(rng.gen_range(-4.0..0.0))
    } else {
        rng.gen_range(1e-4..1.0)
    }
}

/// `Binomial::cdf` against [`oracle_cdf`] at a count within six standard
/// deviations of the mean, wherever the exact tail is at least 1e-300. The
/// bound is what the boundary term's `ln_choose` allows: its Lanczos values
/// grow like `n ln n`, so the relative error is ~1e-11 at `n ≤ 10⁴` and
/// ~1e-9 near `n = 10⁶`.
#[test]
fn binomial_cdf_matches_an_independent_tail_oracle() {
    for (seed, cases, max_n, bound) in [
        (0x57a7_0011, 256, 10_000u64, 1e-10),
        (0x57a7_0012, 64, 1_000_000, 5e-9),
    ] {
        for_each_case(seed, cases, |rng| {
            let n = rng.gen_range(1..=max_n);
            let p = tail_probability(rng);
            let b = Binomial::new(n, p).unwrap();
            let lo = (b.mean() - 6.0 * b.sd()).max(0.0) as u64;
            let hi = ((b.mean() + 6.0 * b.sd()).ceil() as u64).min(n);
            let k = rng.gen_range(lo..=hi);
            let want = oracle_cdf(n, p, k);
            if want >= 1e-300 {
                let got = b.cdf(k);
                let rel = ((got - want) / want).abs();
                assert!(
                    rel <= bound,
                    "B({n}, {p}) at k={k}: cdf {got} vs oracle {want}, rel {rel:e}"
                );
            }
        });
    }
}

#[test]
fn binomial_cdf_edges_are_exact() {
    for_each_case(0x57a7_0013, 256, |rng| {
        let n = rng.gen_range(0..1_000_000u64);
        let p = tail_probability(rng);
        let k = rng.gen_range(n..=n.saturating_mul(2));
        assert_eq!(Binomial::new(n, p).unwrap().cdf(k), 1.0, "k ≥ n = {n}");
        let below = rng.gen_range(0..=n);
        let zero = Binomial::new(n, 0.0).unwrap();
        assert_eq!(zero.cdf(below), 1.0, "p = 0, n = {n}, k = {below}");
        let one = Binomial::new(n, 1.0).unwrap();
        let want = if below >= n { 1.0 } else { 0.0 };
        assert_eq!(one.cdf(below), want, "p = 1, n = {n}, k = {below}");
    });
}

/// The evaluator sums the lower tail up to the mean and subtracts the upper
/// tail past it; the cdf must not step down where it switches.
#[test]
fn binomial_cdf_is_monotone_where_the_evaluator_switches_sides() {
    for_each_case(0x57a7_0014, 256, |rng| {
        let n = rng.gen_range(2..=1_000_000u64);
        let b = Binomial::new(n, tail_probability(rng)).unwrap();
        let m = b.mean().floor() as u64;
        let ks: Vec<u64> = (m.saturating_sub(2)..=(m + 3).min(n)).collect();
        for w in ks.windows(2) {
            let (lo, hi) = (b.cdf(w[0]), b.cdf(w[1]));
            assert!(
                lo <= hi,
                "B({n}, {}): cdf({}) = {lo} > cdf({}) = {hi}",
                b.p(),
                w[0],
                w[1]
            );
        }
    });
}

/// Eq. 1 against the exact occupancy law `Binomial(N, f^k)`: the exact
/// significance is the binomial lower tail, and the paper's normal reading
/// `Φ(S(c))` is off from it by at most the law's CLT Kolmogorov distance
/// plus the mass at `c` (the continuity correction `Φ` leaves out).
#[test]
fn eq1_significance_tracks_the_exact_binomial_law() {
    for_each_case(0x57a7_0007, 64, |rng| {
        let p = loop {
            let p = SparsityParams::new(
                rng.gen_range(1_000u64..20_000),
                rng.gen_range(2u32..12),
                rng.gen_range(1u32..5),
            )
            .unwrap();
            if p.expected_count() >= 30.0 {
                break p;
            }
        };
        let law = p.occupancy_law();
        let kolmogorov = law.clt_kolmogorov_distance();
        let (mean, sd) = (p.expected_count(), p.count_sd());
        let lo = (mean - 5.0 * sd).max(0.0) as u64;
        let hi = ((mean + 5.0 * sd) as u64).min(p.n_records);
        let mut counts: Vec<u64> = (0..20).map(|_| rng.gen_range(lo..=hi)).collect();
        counts.sort_unstable();
        let (mut lower_tail, mut next) = (0.0, 0u64);
        for c in counts {
            while next <= c {
                lower_tail += law.pmf(next);
                next += 1;
            }
            let exact = p.exact_significance(c);
            assert!(
                (exact - lower_tail).abs() <= 1e-9,
                "{p:?} c={c}: exact_significance {exact} vs pmf sum {lower_tail}"
            );
            let normal = significance_of(p.sparsity(c));
            let bound = kolmogorov + law.pmf(c);
            assert!(
                (normal - exact).abs() <= bound,
                "{p:?} c={c}: |Φ(S) − exact| = {} > {bound}",
                (normal - exact).abs()
            );
        }
    });
}

/// Eq. 2: `k*` never shrinks as the database grows, and once some `k ≥ 1`
/// is significant one stays significant.
#[test]
fn eq2_recommended_k_is_monotone_in_n() {
    for_each_case(0x57a7_0008, 256, |rng| {
        let phi = rng.gen_range(2u32..40);
        let s = -rng.gen_range(0.5f64..8.0);
        let mut ns: Vec<u64> = (0..8)
            .map(|_| 10f64.powf(rng.gen_range(0.0..9.0)) as u64)
            .collect();
        ns.sort_unstable();
        let mut prev: Option<u32> = None;
        for n in ns {
            let k = recommended_k(n, phi, s);
            if let Some(before) = prev {
                let now = k.unwrap_or_else(|| panic!("φ={phi} s={s}: k* lost at N={n}"));
                assert!(now >= before, "φ={phi} s={s}: k* fell to {now} at N={n}");
            }
            prev = k.or(prev);
        }
    });
}

#[test]
fn argsort_sorts_and_permutes() {
    for_each_case(0x57a7_0009, 256, |rng| {
        let values = floats(rng, 0..100, -1e6, 1e6);
        let order = argsort(&values);
        for w in order.windows(2) {
            assert!(values[w[0]] <= values[w[1]], "{values:?}");
        }
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..values.len()).collect::<Vec<_>>());
    });
}

#[test]
fn ranks_invert_argsort() {
    for_each_case(0x57a7_000a, 256, |rng| {
        let values = floats(rng, 1..50, -1e3, 1e3);
        let r = ranks(&values);
        for (rank, &i) in argsort(&values).iter().enumerate() {
            assert_eq!(r[i], rank, "{values:?}");
        }
    });
}

#[test]
fn bounded_best_equals_the_naive_top_m() {
    for_each_case(0x57a7_000c, 256, |rng| {
        let coarse = rng.gen_bool(0.5);
        // Half the cases draw from nine scores, so that ties are common;
        // `+ 0.0` turns −0.0 into 0.0, which the set ties with it but
        // `total_cmp` would not.
        let scores: Vec<f64> = floats(rng, 0..80, -1e3, 1e3)
            .into_iter()
            .map(|s| if coarse { (s / 250.0).round() + 0.0 } else { s })
            .collect();
        let m = rng.gen_range(0usize..20);
        let mut best = BoundedBest::new(m);
        for (i, &s) in scores.iter().enumerate() {
            best.push(s, i);
        }
        // A stable sort keeps the earlier of two tied items first, which
        // is the one the set keeps.
        let mut want: Vec<(f64, usize)> = scores.iter().copied().zip(0..).collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0));
        want.truncate(m);
        assert_eq!(best.into_sorted(), want, "m = {m}");
    });
}

#[test]
fn accumulator_matches_the_two_pass_moments() {
    for_each_case(0x57a7_000e, 256, |rng| {
        let values = floats(rng, 2..200, -1e4, 1e4);
        let acc = Accumulator::from_iter(values.iter().copied());
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((acc.mean().unwrap() - mean).abs() < 1e-7 * mean.abs().max(1.0));
        assert!((acc.variance().unwrap() - var).abs() < 1e-6 * var.max(1.0));
    });
}

#[test]
fn quantile_stays_within_the_sample_range() {
    for_each_case(0x57a7_000f, 256, |rng| {
        let values = floats(rng, 1..100, -1e3, 1e3);
        let p = closed_unit(rng);
        let q = quantile(&values, p).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            q >= lo - 1e-12 && q <= hi + 1e-12,
            "p = {p}: {q} outside [{lo}, {hi}]"
        );
    });
}

#[test]
fn quantile_is_monotone_in_p() {
    for_each_case(0x57a7_0010, 256, |rng| {
        let values = floats(rng, 1..60, -1e3, 1e3);
        let (p1, p2) = (closed_unit(rng), closed_unit(rng));
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(quantile(&values, lo).unwrap() <= quantile(&values, hi).unwrap() + 1e-12);
    });
}
