//! A bitonic merge network: the portable stand-in for the SSE merge
//! kernel of `mctop_sort_sse` (Section 7.2).
//!
//! "Using 128-bit instructions, we can create a bitonic merge network
//! that merges 8 elements at a time." This module implements the
//! classic 4+4 bitonic merger over fixed-size arrays of `u32` — the
//! exact data-flow a 128-bit SIMD implementation executes — written so
//! the compiler can keep the values in vector registers. The merging
//! loop consumes whichever input run's head is smaller, four elements
//! at a time, exactly like the SIMD mergesort literature the paper
//! cites (Chhugani et al., Inoue & Taura).

/// Merges two sorted 4-element arrays into a sorted 8-element array
/// (one pass of the bitonic network: reverse + 3 compare-exchange
/// stages).
#[inline(always)]
pub(crate) fn bitonic_merge_4x4(a: [u32; 4], b: [u32; 4]) -> [u32; 8] {
    // Stage 0: concatenate a with reversed b -> bitonic sequence.
    let mut v = [a[0], a[1], a[2], a[3], b[3], b[2], b[1], b[0]];
    // Stage 1: compare-exchange with stride 4.
    for i in 0..4 {
        cx(&mut v, i, i + 4);
    }
    // Stage 2: stride 2.
    cx(&mut v, 0, 2);
    cx(&mut v, 1, 3);
    cx(&mut v, 4, 6);
    cx(&mut v, 5, 7);
    // Stage 3: stride 1.
    cx(&mut v, 0, 1);
    cx(&mut v, 2, 3);
    cx(&mut v, 4, 5);
    cx(&mut v, 6, 7);
    v
}

#[inline(always)]
fn cx(v: &mut [u32; 8], i: usize, j: usize) {
    let (lo, hi) = (v[i].min(v[j]), v[i].max(v[j]));
    v[i] = lo;
    v[j] = hi;
}

/// Merges two sorted runs into `out` using the 4-wide bitonic kernel
/// for the bulk and a scalar tail. Semantically identical to
/// [`crate::merge::merge_into`].
pub(crate) fn merge_bitonic(a: &[u32], b: &[u32], out: &mut [u32]) {
    assert_eq!(out.len(), a.len() + b.len());
    let mut i = 0usize; // Consumed from a.
    let mut j = 0usize;
    let mut o = 0usize;
    // Register of 4 pending smallest elements.
    if a.len() >= 4 && b.len() >= 4 {
        let mut low: [u32; 4];
        let mut high: [u32; 4] = take4(b, 0);
        low = take4(a, 0);
        i = 4;
        j = 4;
        loop {
            let m = bitonic_merge_4x4(low, high);
            out[o..o + 4].copy_from_slice(&m[..4]);
            o += 4;
            high = [m[4], m[5], m[6], m[7]];
            // Refill from the run whose next head is smaller.
            let next_from_a = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x <= y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if next_from_a {
                if i + 4 <= a.len() {
                    low = take4(a, i);
                    i += 4;
                } else {
                    break;
                }
            } else if j + 4 <= b.len() {
                low = take4(b, j);
                j += 4;
            } else {
                break;
            }
        }
        // Flush the pending register against the input tails through
        // the shared scalar epilogue: `high` holds 4 sorted elements
        // merged as a third tiny run, with no scratch allocation. Every
        // kernel width (4-wide scalar/SSE, 8-wide AVX2) funnels its
        // non-multiple-of-width remainder through this same path.
        crate::merge::merge3_into(&high, &a[i..], &b[j..], &mut out[o..]);
        return;
    }
    // Short inputs: scalar.
    let _ = (i, j, o);
    crate::merge::merge_into(a, b, out);
}

#[inline(always)]
fn take4(s: &[u32], at: usize) -> [u32; 4] {
    [s[at], s[at + 1], s[at + 2], s[at + 3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{
        Rng,
        SeedableRng, //
    };

    #[test]
    fn network_merges_4x4() {
        let out = bitonic_merge_4x4([1, 3, 5, 7], [2, 4, 6, 8]);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
        let out = bitonic_merge_4x4([5, 6, 7, 8], [1, 2, 3, 4]);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
        let out = bitonic_merge_4x4([1, 1, 9, 9], [1, 2, 9, 10]);
        assert_eq!(out, [1, 1, 1, 2, 9, 9, 9, 10]);
    }

    #[test]
    fn merge_bitonic_equals_scalar_merge() {
        let mut rng = SmallRng::seed_from_u64(9);
        for (na, nb) in [
            (0usize, 10usize),
            (3, 3),
            (4, 4),
            (100, 7),
            (1000, 1000),
            (997, 1003),
        ] {
            let mut a: Vec<u32> = (0..na).map(|_| rng.gen_range(0..10_000)).collect();
            let mut b: Vec<u32> = (0..nb).map(|_| rng.gen_range(0..10_000)).collect();
            a.sort_unstable();
            b.sort_unstable();
            let mut expected = vec![0; na + nb];
            crate::merge::merge_into(&a, &b, &mut expected);
            let mut out = vec![0; na + nb];
            merge_bitonic(&a, &b, &mut out);
            assert_eq!(out, expected, "na={na} nb={nb}");
        }
    }

    #[test]
    fn network_output_always_sorted_exhaustive_small() {
        // All 0/1 patterns (the 0-1 principle: a comparison network
        // that sorts all 0/1 inputs sorts everything).
        for ma in 0u32..16 {
            for mb in 0u32..16 {
                let mut a = [0u32; 4];
                let mut b = [0u32; 4];
                for k in 0..4 {
                    a[k] = (ma >> k) & 1;
                    b[k] = (mb >> k) & 1;
                }
                a.sort_unstable();
                b.sort_unstable();
                let out = bitonic_merge_4x4(a, b);
                assert!(
                    out.windows(2).all(|w| w[0] <= w[1]),
                    "a={a:?} b={b:?} out={out:?}"
                );
            }
        }
    }
}
