//! Runtime-dispatched SIMD merge kernels: the real SSE/AVX bitonic
//! merge networks behind `mctop_sort_sse` (Section 7.2).
//!
//! The paper's headline application win is a mergesort whose merge
//! phases run 128-bit bitonic merge networks. `crate::bitonic` keeps
//! the portable scalar network (the mandatory fallback); this module
//! adds the vector implementations — a 4-wide SSE4.1 network and an
//! 8-wide AVX2 network over `core::arch` intrinsics — and the runtime
//! dispatch that picks the widest network the host supports.
//!
//! # Dispatch contract
//!
//! A sort resolves its kernel **once**, through a [`KernelTable`]:
//! [`auto`] consults `is_x86_feature_detected!` exactly once per
//! process (cached in a `OnceLock`) and returns the widest supported
//! kernel; [`scalar`] always returns the portable network. Per-merge
//! calls then go through a plain function pointer — no per-element or
//! per-job feature checks. On non-x86 hosts, or when the crate is
//! built with `--no-default-features` (dropping the `simd` feature),
//! [`auto`] degrades to [`scalar`] and everything stays pure safe
//! Rust.
//!
//! # Byte-identity guarantee
//!
//! Every kernel merges sorted `u32` runs by value, and the sorted
//! union of two value sequences is unique — so every kernel's output
//! is byte-identical to [`crate::merge::merge_into`] by construction.
//! `tests/simd_kernels.rs` enforces this under proptest for every
//! kernel the host can run, including empty sides, duplicate-heavy
//! runs and non-multiple-of-width tails (which all kernels route
//! through the shared scalar epilogue
//! [`crate::merge::merge3_into`]).

use std::sync::OnceLock;

use crate::bitonic::merge_bitonic;

/// A merge kernel entry point: merges two sorted runs into `out`
/// (which must have the exact combined length).
pub(crate) type MergeFn = fn(&[u32], &[u32], &mut [u32]);

/// One dispatchable merge kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelTable {
    /// Kernel name, as reported in benches (`scalar`, `sse4.1`,
    /// `avx2`).
    pub name: &'static str,
    /// Network width in `u32` lanes per iteration.
    pub width: usize,
    /// The merge entry point.
    pub merge: MergeFn,
}

/// The portable scalar bitonic network ([`crate::bitonic`]): the
/// mandatory fallback every build ships.
pub(crate) const SCALAR: KernelTable = KernelTable {
    name: "scalar",
    width: 4,
    merge: merge_bitonic,
};

/// The scalar kernel table (forced-scalar dispatch).
pub fn scalar() -> &'static KernelTable {
    &SCALAR
}

/// The widest merge kernel this host supports, detected once per
/// process. Scalar when the `simd` feature is off or the host is not
/// x86-64.
///
/// Whatever kernel detection picks, its output is byte-identical to
/// the scalar merge:
///
/// ```
/// use mctop_sort::simd;
///
/// let table = simd::auto();
/// assert!(table.width >= 4);
///
/// let a = vec![1u32, 3, 5, 7, 9, 11, 13, 15];
/// let b = vec![2u32, 4, 6, 8, 10, 12, 14, 16];
/// let mut out = vec![0u32; a.len() + b.len()];
/// (table.merge)(&a, &b, &mut out);
/// assert_eq!(out, (1..=16).collect::<Vec<u32>>());
/// ```
pub fn auto() -> &'static KernelTable {
    static AUTO: OnceLock<&'static KernelTable> = OnceLock::new();
    AUTO.get_or_init(detect)
}

/// Every kernel runnable on this host, widest first (for tests and
/// benches that compare all of them). Always ends with `SCALAR`.
pub fn supported() -> Vec<&'static KernelTable> {
    let mut tables = detected_vector_tables();
    tables.push(&SCALAR);
    tables
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn detected_vector_tables() -> Vec<&'static KernelTable> {
    let mut tables: Vec<&'static KernelTable> = Vec::new();
    if std::arch::is_x86_feature_detected!("avx2") {
        tables.push(&x86::AVX2);
    }
    if std::arch::is_x86_feature_detected!("sse4.1") {
        tables.push(&x86::SSE41);
    }
    tables
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn detected_vector_tables() -> Vec<&'static KernelTable> {
    Vec::new()
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn detect() -> &'static KernelTable {
    if std::arch::is_x86_feature_detected!("avx2") {
        &x86::AVX2
    } else if std::arch::is_x86_feature_detected!("sse4.1") {
        &x86::SSE41
    } else {
        &SCALAR
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn detect() -> &'static KernelTable {
    &SCALAR
}

/// The x86-64 vector networks. Every `unsafe` here is the raw
/// intrinsic layer; the public surface stays safe because the tables
/// are only reachable after `is_x86_feature_detected!` succeeded.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use core::arch::x86_64::*;

    use super::KernelTable;
    use crate::merge::{
        merge3_into,
        merge_into, //
    };

    /// 4-wide SSE4.1 bitonic merge network.
    pub(crate) const SSE41: KernelTable = KernelTable {
        name: "sse4.1",
        width: 4,
        merge: merge_sse41,
    };

    /// 8-wide AVX2 bitonic merge network.
    pub(crate) const AVX2: KernelTable = KernelTable {
        name: "avx2",
        width: 8,
        merge: merge_avx2,
    };

    fn merge_sse41(a: &[u32], b: &[u32], out: &mut [u32]) {
        assert_eq!(out.len(), a.len() + b.len());
        debug_assert!(std::arch::is_x86_feature_detected!("sse4.1"));
        if a.len() < 4 || b.len() < 4 {
            return merge_into(a, b, out);
        }
        // SAFETY: this function is only reachable through `SSE41`,
        // which `detect`/`detected_vector_tables` hand out only after
        // `is_x86_feature_detected!("sse4.1")` succeeded; both runs hold
        // at least 4 elements and `out` has their combined length
        // (checked above).
        unsafe { merge_sse41_inner(a, b, out) }
    }

    fn merge_avx2(a: &[u32], b: &[u32], out: &mut [u32]) {
        assert_eq!(out.len(), a.len() + b.len());
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        if a.len() < 8 || b.len() < 8 {
            return merge_into(a, b, out);
        }
        // SAFETY: this function is only reachable through `AVX2`,
        // which `detect`/`detected_vector_tables` hand out only after
        // `is_x86_feature_detected!("avx2")` succeeded; both runs hold
        // at least 8 elements and `out` has their combined length
        // (checked above).
        unsafe { merge_avx2_inner(a, b, out) }
    }

    /// Sorts a bitonic 4-vector (3 compare-exchange stages).
    ///
    /// # Safety
    ///
    /// The CPU must support SSE4.1 (`_mm_min_epu32`, `_mm_blend_epi16`):
    /// call only from a `#[target_feature(enable = "sse4.1")]` function.
    /// Register-only — no memory is touched.
    #[inline(always)]
    unsafe fn clean4(v: __m128i) -> __m128i {
        // Stride 2: cx(0,2), cx(1,3).
        let w = _mm_shuffle_epi32(v, 0b01_00_11_10);
        let v = _mm_blend_epi16(_mm_min_epu32(v, w), _mm_max_epu32(v, w), 0b1111_0000);
        // Stride 1: cx(0,1), cx(2,3).
        let w = _mm_shuffle_epi32(v, 0b10_11_00_01);
        _mm_blend_epi16(_mm_min_epu32(v, w), _mm_max_epu32(v, w), 0b1100_1100)
    }

    /// Merges two sorted 4-vectors: returns (low half, high half).
    ///
    /// # Safety
    ///
    /// As for [`clean4`]: the CPU must support SSE4.1; register-only.
    #[inline(always)]
    unsafe fn bitonic_4x4(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
        // Concatenate a with reversed b -> bitonic; the stride-4 stage
        // splits into a low and a high bitonic half.
        let rb = _mm_shuffle_epi32(b, 0b00_01_10_11);
        let lo = _mm_min_epu32(a, rb);
        let hi = _mm_max_epu32(a, rb);
        (clean4(lo), clean4(hi))
    }

    /// The 4-wide merge loop behind [`merge_sse41`].
    ///
    /// # Safety
    ///
    /// Needs SSE4.1, `a.len() >= 4`, `b.len() >= 4` (unconditional first
    /// loads) and `out.len() == a.len() + b.len()`: later loads check
    /// `i + 4 <= len`; a store at `o` has `o + 8 == i + j <= out.len()`.
    #[target_feature(enable = "sse4.1")]
    unsafe fn merge_sse41_inner(a: &[u32], b: &[u32], out: &mut [u32]) {
        let load = |s: &[u32], at: usize| -> __m128i {
            _mm_loadu_si128(s.as_ptr().add(at) as *const __m128i)
        };
        let mut i = 4usize;
        let mut j = 4usize;
        let mut o = 0usize;
        let mut low = load(a, 0);
        let mut high = load(b, 0);
        loop {
            let (lo, hi) = bitonic_4x4(low, high);
            _mm_storeu_si128(out.as_mut_ptr().add(o) as *mut __m128i, lo);
            o += 4;
            high = hi;
            // Refill from the run whose next head is smaller (the
            // exact decision sequence of the scalar network).
            let next_from_a = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x <= y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if next_from_a {
                if i + 4 <= a.len() {
                    low = load(a, i);
                    i += 4;
                } else {
                    break;
                }
            } else if j + 4 <= b.len() {
                low = load(b, j);
                j += 4;
            } else {
                break;
            }
        }
        let mut pending = [0u32; 4];
        _mm_storeu_si128(pending.as_mut_ptr() as *mut __m128i, high);
        merge3_into(&pending, &a[i..], &b[j..], &mut out[o..]);
    }

    /// Sorts a bitonic 8-vector (4 compare-exchange stages).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2: call only from a
    /// `#[target_feature(enable = "avx2")]` function. Register-only —
    /// no memory is touched.
    #[inline(always)]
    unsafe fn clean8(v: __m256i) -> __m256i {
        // Stride 4: swap 128-bit halves.
        let w = _mm256_permute2x128_si256(v, v, 0x01);
        let v = _mm256_blend_epi32(_mm256_min_epu32(v, w), _mm256_max_epu32(v, w), 0b1111_0000);
        // Stride 2.
        let w = _mm256_shuffle_epi32(v, 0b01_00_11_10);
        let v = _mm256_blend_epi32(_mm256_min_epu32(v, w), _mm256_max_epu32(v, w), 0b1100_1100);
        // Stride 1.
        let w = _mm256_shuffle_epi32(v, 0b10_11_00_01);
        _mm256_blend_epi32(_mm256_min_epu32(v, w), _mm256_max_epu32(v, w), 0b1010_1010)
    }

    /// Merges two sorted 8-vectors: returns (low half, high half).
    ///
    /// # Safety
    ///
    /// As for [`clean8`]: the CPU must support AVX2; register-only.
    #[inline(always)]
    unsafe fn bitonic_8x8(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let rb = _mm256_permutevar8x32_epi32(b, _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0));
        let lo = _mm256_min_epu32(a, rb);
        let hi = _mm256_max_epu32(a, rb);
        (clean8(lo), clean8(hi))
    }

    /// The 8-wide merge loop behind [`merge_avx2`].
    ///
    /// # Safety
    ///
    /// Needs AVX2, `a.len() >= 8`, `b.len() >= 8` (unconditional first
    /// loads) and `out.len() == a.len() + b.len()`: later loads check
    /// `i + 8 <= len`; a store at `o` has `o + 16 == i + j <= out.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn merge_avx2_inner(a: &[u32], b: &[u32], out: &mut [u32]) {
        let load = |s: &[u32], at: usize| -> __m256i {
            _mm256_loadu_si256(s.as_ptr().add(at) as *const __m256i)
        };
        let mut i = 8usize;
        let mut j = 8usize;
        let mut o = 0usize;
        let mut low = load(a, 0);
        let mut high = load(b, 0);
        loop {
            let (lo, hi) = bitonic_8x8(low, high);
            _mm256_storeu_si256(out.as_mut_ptr().add(o) as *mut __m256i, lo);
            o += 8;
            high = hi;
            let next_from_a = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x <= y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if next_from_a {
                if i + 8 <= a.len() {
                    low = load(a, i);
                    i += 8;
                } else {
                    break;
                }
            } else if j + 8 <= b.len() {
                low = load(b, j);
                j += 8;
            } else {
                break;
            }
        }
        let mut pending = [0u32; 8];
        _mm256_storeu_si256(pending.as_mut_ptr() as *mut __m256i, high);
        merge3_into(&pending, &a[i..], &b[j..], &mut out[o..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{
        Rng,
        SeedableRng, //
    };

    fn sorted(n: usize, cap: u32, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut v: Vec<u32> = (0..n).map(|_| rng.gen_range(0..cap.max(1))).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn every_supported_kernel_matches_scalar_merge() {
        for table in supported() {
            for (na, nb, cap) in [
                (0usize, 0usize, 10u32),
                (0, 17, 10),
                (3, 3, 5),
                (4, 4, 1_000),
                (8, 8, 1_000),
                (9, 23, 4),
                (100, 7, 1_000_000),
                (1000, 1000, 50),
                (997, 1003, 1_000_000),
                (4096, 4096, 1_000_000),
            ] {
                let a = sorted(na, cap, na as u64 ^ 1);
                let b = sorted(nb, cap, nb as u64 ^ 2);
                let mut expected = vec![0u32; na + nb];
                crate::merge::merge_into(&a, &b, &mut expected);
                let mut got = vec![0u32; na + nb];
                (table.merge)(&a, &b, &mut got);
                assert_eq!(got, expected, "kernel={} na={na} nb={nb}", table.name);
            }
        }
    }

    #[test]
    fn auto_is_among_supported_and_cached() {
        let auto1 = auto();
        let auto2 = auto();
        assert!(std::ptr::eq(auto1, auto2), "auto() must cache");
        assert!(supported().iter().any(|t| t.name == auto1.name));
        // The fallback is always available.
        assert_eq!(scalar().name, "scalar");
    }
}
