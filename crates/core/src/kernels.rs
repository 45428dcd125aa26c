//! Brute force's two hot loops, compiled for the CPU the search runs on.
//!
//! - [`and_count`]: the number of bits set in both of two bitmaps, the pair
//!   kernel's count of one leaf;
//! - [`local_postings`]: a depth-(k−2) node's local posting bitmaps of one
//!   later dimension, built from a code column at the node's member
//!   positions.
//!
//! The release build targets baseline x86-64, where `u64::count_ones` is an
//! SSE2 bit-twiddling sequence and SSE2 has no compare into a bit mask. So
//! each loop is one portable `#[inline(always)]` body, and on x86-64 thin
//! `#[target_feature]` wrappers compile that body again for two tiers:
//!
//! - **AVX-512** (`avx512f`, `avx512bw`, `avx512vpopcntdq`): `vpopcntq`
//!   counts eight words at once, and `vpcmpeqw` compares 32 codes into a
//!   mask register;
//! - **AVX2** (`avx2`, `popcnt`): the `vpshufb` nibble-lookup popcount of
//!   Muła, Kurz and Lemire (arXiv:1611.07612), and `vpcmpeqw` on 16 codes.
//!
//! [`tier`] picks the widest tier the CPU reports, once per process, and
//! every call dispatches on it. The dispatch sits here, per call, because a
//! `#[target_feature]` on a caller does not reach a kernel called from a
//! closure it passes on. Any other CPU or architecture runs the portable
//! bodies.
//!
//! The posting build has two bodies. The scatter sets one bit per member
//! in the bitmap of its code; the compare gathers a block of 64 members'
//! codes and writes each code's 64-member word whole, as the mask of one
//! compare against the block. The compare does `φ + 1` times the work and
//! wins only where a compare yields a mask in a few instructions: it is
//! what the vector tiers run, and the portable tier keeps the scatter
//! (EXPERIMENTS.md "Vector kernels").
//!
//! This is the one module of the crate with `unsafe` code: the calls into
//! the `#[target_feature]` wrappers, each behind the feature check that
//! [`tier`] made.

use std::sync::OnceLock;

/// An instruction tier the kernels are compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Every tier this build has, widest first.
const TIERS: &[Tier] = &[
    #[cfg(target_arch = "x86_64")]
    Tier::Avx512,
    #[cfg(target_arch = "x86_64")]
    Tier::Avx2,
    Tier::Portable,
];

impl Tier {
    /// Whether this CPU has the tier's features.
    fn is_supported(self) -> bool {
        match self {
            Tier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vpopcntdq")
            }
        }
    }
}

/// The widest tier this CPU supports, detected on first use.
fn tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| supported_tiers().next().unwrap_or(Tier::Portable))
}

/// The tiers this CPU supports, widest first; the portable tier is always
/// last.
fn supported_tiers() -> impl Iterator<Item = Tier> {
    TIERS.iter().copied().filter(|tier| tier.is_supported())
}

/// The number of bits set in both `a` and `b`, over their common length.
pub(crate) fn and_count(a: &[u64], b: &[u64]) -> u32 {
    // SAFETY: `tier()` is a tier `Tier::is_supported` found with
    // `is_x86_feature_detected!`.
    unsafe { and_count_on(tier(), a, b) }
}

/// Fills `bitmaps` with the local postings of the members `group`, whose
/// codes are `column[position]`: bit `i` of bitmap `c` is set when member
/// `group[i]` has code `c`. `bitmaps` holds one `⌈group.len()/64⌉`-word
/// bitmap per code, code-major, and every member's code has one; bits past
/// the last member are left zero.
pub(crate) fn local_postings(column: &[u16], group: &[u32], bitmaps: &mut [u64]) {
    // SAFETY: `tier()` is a tier `Tier::is_supported` found with
    // `is_x86_feature_detected!`.
    unsafe { local_postings_on(tier(), column, group, bitmaps) }
}

/// [`and_count`] on `tier`.
///
/// # Safety
///
/// The CPU must support `tier`: `tier.is_supported()` holds.
unsafe fn and_count_on(tier: Tier, a: &[u64], b: &[u64]) -> u32 {
    match tier {
        Tier::Portable => and_count_body(a, b),
        // SAFETY: the caller checked `Tier::is_supported`, whose
        // `is_x86_feature_detected!` reports avx2 and popcnt.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { x86::and_count_avx2(a, b) },
        // SAFETY: the caller checked `Tier::is_supported`, whose
        // `is_x86_feature_detected!` reports avx512f, avx512bw and
        // avx512vpopcntdq.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { x86::and_count_avx512(a, b) },
    }
}

/// [`local_postings`] on `tier`.
///
/// # Safety
///
/// The CPU must support `tier`: `tier.is_supported()` holds.
unsafe fn local_postings_on(tier: Tier, column: &[u16], group: &[u32], bitmaps: &mut [u64]) {
    match tier {
        Tier::Portable => scatter_body(column, group, bitmaps),
        // SAFETY: the caller checked `Tier::is_supported`, whose
        // `is_x86_feature_detected!` reports avx2 and popcnt.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { x86::compare_avx2(column, group, bitmaps) },
        // SAFETY: the caller checked `Tier::is_supported`, whose
        // `is_x86_feature_detected!` reports avx512f, avx512bw and
        // avx512vpopcntdq.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { x86::compare_avx512(column, group, bitmaps) },
    }
}

#[inline(always)]
fn and_count_body(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones()).sum()
}

/// The posting build one bit at a time: each member sets its bit in the
/// bitmap of its code.
#[inline(always)]
fn scatter_body(column: &[u16], group: &[u32], bitmaps: &mut [u64]) {
    let w = group.len().div_ceil(64);
    bitmaps.fill(0);
    for (i, &position) in group.iter().enumerate() {
        bitmaps[column[position as usize] as usize * w + i / 64] |= 1 << (i % 64);
    }
}

/// The posting build one word at a time: per block of 64 members, gather
/// their codes, then write each code's word as the mask of the block's
/// members that hold it. A short last block is padded with `u16::MAX`, which
/// no code reaches (φ ≤ 65534), so its bits past the last member stay zero.
#[inline(always)]
fn compare_body(column: &[u16], group: &[u32], bitmaps: &mut [u64]) {
    let w = group.len().div_ceil(64);
    let codes = bitmaps.len().checked_div(w).unwrap_or(0);
    for (word, members) in group.chunks(64).enumerate() {
        let mut block = [u16::MAX; 64];
        for (code, &position) in block.iter_mut().zip(members) {
            *code = column[position as usize];
        }
        for (code, c) in (0..codes).zip(0u16..) {
            bitmaps[code * w + word] =
                (0..64).fold(0, |mask, i| mask | u64::from(block[i] == c) << i);
        }
    }
}

/// The bodies compiled for the vector tiers. Each wrapper is safe to call
/// only on a CPU that has its features.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq")]
    pub(super) fn and_count_avx512(a: &[u64], b: &[u64]) -> u32 {
        super::and_count_body(a, b)
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn and_count_avx2(a: &[u64], b: &[u64]) -> u32 {
        super::and_count_body(a, b)
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq")]
    pub(super) fn compare_avx512(column: &[u16], group: &[u32], bitmaps: &mut [u64]) {
        super::compare_body(column, group, bitmaps);
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn compare_avx2(column: &[u16], group: &[u32], bitmaps: &mut [u64]) {
        super::compare_body(column, group, bitmaps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_rng::{for_each_case, Rng};

    /// A word of one of three kinds: uniform, sparse, or all ones.
    fn word(rng: &mut impl Rng) -> u64 {
        match rng.gen_range(0..3) {
            0 => rng.gen(),
            1 => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
            _ => u64::MAX,
        }
    }

    #[test]
    fn and_count_on_every_tier_matches_the_portable_body() {
        let tiers: Vec<Tier> = supported_tiers().collect();
        for_each_case(0x6b65_0001, 32, |rng| {
            for len in 0..=130 {
                let a: Vec<u64> = (0..len).map(|_| word(rng)).collect();
                let b: Vec<u64> = (0..len).map(|_| word(rng)).collect();
                let want = and_count_body(&a, &b);
                let ones = vec![u64::MAX; len];
                for &tier in &tiers {
                    // SAFETY: `supported_tiers` lists only tiers for which
                    // `is_x86_feature_detected!` reports every feature.
                    let (got, all) =
                        unsafe { (and_count_on(tier, &a, &b), and_count_on(tier, &ones, &ones)) };
                    assert_eq!(got, want, "{tier:?}, {len} words");
                    assert_eq!(all, 64 * len as u32, "{tier:?}");
                }
            }
        });
    }

    #[test]
    fn local_postings_on_every_tier_match_the_scatter() {
        let tiers: Vec<Tier> = supported_tiers().collect();
        for_each_case(0x6b65_0002, 4, |rng| {
            for phi in 2..=12u16 {
                for m in 0..=200usize {
                    // Code φ stands for a missing cell.
                    let n = m + rng.gen_range(0..64usize);
                    let column: Vec<u16> = (0..n).map(|_| rng.gen_range(0..=phi)).collect();
                    let mut group: Vec<u32> = (0..n as u32).collect();
                    while group.len() > m {
                        group.swap_remove(rng.gen_range(0..group.len()));
                    }
                    group.sort_unstable();
                    let w = m.div_ceil(64);
                    let mut want = vec![u64::MAX; (phi as usize + 1) * w];
                    scatter_body(&column, &group, &mut want);
                    for (c, bitmap) in (0..).zip(want.chunks(w.max(1))) {
                        for i in 0..w * 64 {
                            let member = group.get(i).map(|&p| column[p as usize]);
                            let bit = bitmap[i / 64] >> (i % 64) & 1 == 1;
                            assert_eq!(bit, member == Some(c), "φ {phi}, m {m}, code {c}");
                        }
                    }
                    for &tier in &tiers {
                        // Start from set bits: every word must be written.
                        let mut got = vec![u64::MAX; want.len()];
                        // SAFETY: `supported_tiers` lists only tiers for
                        // which `is_x86_feature_detected!` reports every
                        // feature.
                        unsafe { local_postings_on(tier, &column, &group, &mut got) };
                        assert_eq!(got, want, "{tier:?}, φ {phi}, m {m}");
                    }
                }
            }
        });
    }

    /// Read independently of `is_x86_feature_detected!`, the kernel's CPU
    /// flags must select the same tier: a detection that silently fell back
    /// to the portable bodies would fail here.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn the_chosen_tier_is_the_widest_the_cpu_reports() {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").expect("Linux has /proc/cpuinfo");
        let flags: Vec<&str> = cpuinfo
            .lines()
            .find_map(|line| line.strip_prefix("flags"))
            .and_then(|line| line.split_once(':'))
            .map(|(_, flags)| flags.split_whitespace().collect())
            .expect("/proc/cpuinfo lists the CPU flags");
        let has = |flag: &str| flags.contains(&flag);
        let want = if has("avx512f") && has("avx512bw") && has("avx512_vpopcntdq") {
            Tier::Avx512
        } else if has("avx2") && has("popcnt") {
            Tier::Avx2
        } else {
            Tier::Portable
        };
        assert_eq!(tier(), want, "CPU flags: {flags:?}");
    }
}
