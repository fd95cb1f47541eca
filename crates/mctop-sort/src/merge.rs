//! Merging: scalar two-way merge, the merge-path split that lets `k`
//! threads merge one pair of runs cooperatively, and the cooperative
//! parallel merge itself.

/// Merges two sorted slices into `out` (must have the exact combined
/// length), stably: on ties the element of `a` comes first, so the
/// result is the stable sort of `a ++ b` for any `T: Ord + Copy`.
///
/// While both sides have elements, each step selects its output with
/// `<=` and advances one side by the comparison's value, without a
/// branch on it (the data-dependent branch of a two-way merge
/// mispredicts about every other element on random keys); then the one
/// tail left is copied in a block.
pub fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(out.len(), a.len() + b.len(), "output size mismatch");
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let take_a = x <= y;
        out[i + j] = if take_a { x } else { y };
        i += usize::from(take_a);
        j += usize::from(!take_a);
    }
    let (rest_a, rest_b) = out[i + j..].split_at_mut(a.len() - i);
    rest_a.copy_from_slice(&a[i..]);
    rest_b.copy_from_slice(&b[j..]);
}

/// Merges three sorted slices into `out` (must have the exact combined
/// length) — the shared scalar epilogue of every bitonic merge kernel:
/// `p` is the pending high register flushed out of the network, `a` and
/// `b` are the unconsumed input tails. No scratch allocation: one
/// three-way head comparison per output element.
pub fn merge3_into<T: Ord + Copy>(p: &[T], a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(
        out.len(),
        p.len() + a.len() + b.len(),
        "output size mismatch"
    );
    let (mut ip, mut ia, mut ib) = (0usize, 0usize, 0usize);
    for slot in out.iter_mut() {
        // Smallest head wins; ties prefer p, then a (for plain values
        // the output sequence is the same either way).
        let min_ab = match (a.get(ia), b.get(ib)) {
            (Some(x), Some(y)) => Some(if x <= y { x } else { y }),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (None, None) => None,
        };
        match (p.get(ip), min_ab) {
            (Some(x), None) => {
                *slot = *x;
                ip += 1;
            }
            (Some(x), Some(m)) if x <= m => {
                *slot = *x;
                ip += 1;
            }
            (_, Some(_)) => match (a.get(ia), b.get(ib)) {
                (Some(x), Some(y)) if x <= y => {
                    *slot = *x;
                    ia += 1;
                }
                (Some(x), None) => {
                    *slot = *x;
                    ia += 1;
                }
                (_, Some(y)) => {
                    *slot = *y;
                    ib += 1;
                }
                (_, None) => unreachable!("min_ab was Some"),
            },
            (None, None) => unreachable!("output exactly fits"),
        }
    }
}

/// Co-ranks for the merge path: returns `(i, j)` with `i + j == d` such
/// that merging `a[..i]` and `b[..j]` produces exactly the first `d`
/// output elements.
pub(crate) fn co_rank<T: Ord + Copy>(d: usize, a: &[T], b: &[T]) -> (usize, usize) {
    assert!(d <= a.len() + b.len());
    let mut lo = d.saturating_sub(b.len());
    let mut hi = d.min(a.len());
    loop {
        let i = lo + (hi - lo) / 2;
        let j = d - i;
        if i < a.len() && j > 0 && b[j - 1] > a[i] {
            // Too few elements taken from a.
            lo = i + 1;
        } else if i > 0 && j < b.len() && a[i - 1] > b[j] {
            // Too many elements taken from a.
            hi = i - 1;
        } else {
            return (i, j);
        }
        debug_assert!(lo <= hi, "co_rank invariant violated");
    }
}

/// Splits the merge of `a` and `b` into `k` balanced independent
/// segments `(a_range, b_range, out_offset)`.
pub(crate) fn split_merge<T: Ord + Copy>(
    a: &[T],
    b: &[T],
    k: usize,
) -> Vec<(std::ops::Range<usize>, std::ops::Range<usize>, usize)> {
    assert!(k >= 1);
    let total = a.len() + b.len();
    let mut cuts = Vec::with_capacity(k + 1);
    for s in 0..=k {
        let d = total * s / k;
        cuts.push((d, co_rank(d, a, b)));
    }
    cuts.windows(2)
        .map(|w| {
            let (d0, (i0, j0)) = w[0];
            let (_, (i1, j1)) = w[1];
            (i0..i1, j0..j1, d0)
        })
        .collect()
}

/// One independent slice of a cooperative merge: two sorted inputs
/// and the disjoint output window they merge into.
pub(crate) type MergeJob<'a, T> = (&'a [T], &'a [T], &'a mut [T]);

/// Splits the merge of `a` and `b` into at most `k` independent jobs
/// over disjoint windows of `out`. Small merges (or `k <= 1`) come
/// back as a single job. The split depends only on the data and `k` —
/// never on who executes the jobs — so any schedule produces the same
/// bytes.
pub(crate) fn merge_jobs<'a, T: Ord + Copy>(
    a: &'a [T],
    b: &'a [T],
    out: &'a mut [T],
    k: usize,
) -> Vec<MergeJob<'a, T>> {
    assert_eq!(out.len(), a.len() + b.len(), "output size mismatch");
    if k <= 1 || out.len() < 4096 {
        return vec![(a, b, out)];
    }
    let segments = split_merge(a, b, k);
    // Carve `out` into disjoint mutable windows matching the segments.
    let mut jobs = Vec::with_capacity(segments.len());
    let mut rest = out;
    let mut taken = 0usize;
    for (ra, rb, off) in segments {
        let len = (ra.end - ra.start) + (rb.end - rb.start);
        let (window, tail) = rest.split_at_mut(off - taken + len);
        let window = &mut window[off - taken..];
        taken = off + len;
        rest = tail;
        jobs.push((&a[ra], &b[rb], window));
    }
    jobs
}

/// Merges two sorted runs into `out` using `k` real threads, each
/// merging an independent merge-path segment. (The topology-agnostic
/// baseline path; `mctop_sort` submits [`merge_jobs`] to the
/// persistent executor instead.)
pub(crate) fn parallel_merge<T: Ord + Copy + Send + Sync>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    k: usize,
) {
    let mut jobs = merge_jobs(a, b, out, k);
    if jobs.len() == 1 {
        let (sa, sb, window) = jobs.pop().expect("one job");
        merge_into(sa, sb, window);
        return;
    }
    std::thread::scope(|scope| {
        for (sa, sb, window) in jobs {
            scope.spawn(move || merge_into(sa, sb, window));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{
        Rng,
        SeedableRng, //
    };

    fn sorted(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut v: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merge_into_basic() {
        let a = vec![1, 3, 5];
        let b = vec![2, 4, 6, 7];
        let mut out = vec![0; 7];
        merge_into(&a, &b, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn merge_handles_empty_sides() {
        let a: Vec<u32> = vec![];
        let b = vec![1, 2];
        let mut out = vec![0; 2];
        merge_into(&a, &b, &mut out);
        assert_eq!(out, vec![1, 2]);
        let mut out2 = vec![0; 2];
        merge_into(&b, &a, &mut out2);
        assert_eq!(out2, vec![1, 2]);
    }

    /// A key with a tag the order ignores.
    #[derive(Debug, Clone, Copy)]
    struct Tagged {
        key: u8,
        tag: u32,
    }

    impl PartialEq for Tagged {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }

    impl Eq for Tagged {}

    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    #[test]
    fn merge_into_takes_ties_from_a_first() {
        let mut rng = SmallRng::seed_from_u64(8);
        for (na, nb) in [(0usize, 5usize), (5, 0), (1, 1), (100, 137), (1000, 1000)] {
            let mut tagged = |tags: std::ops::Range<usize>| {
                let mut v: Vec<Tagged> = tags
                    .map(|tag| Tagged {
                        key: rng.gen_range(0..8),
                        tag: tag as u32,
                    })
                    .collect();
                v.sort();
                v
            };
            let (a, b) = (tagged(0..na), tagged(na..na + nb));
            let mut expected = a.clone();
            expected.extend_from_slice(&b);
            expected.sort();
            let mut out = vec![Tagged { key: 0, tag: 0 }; na + nb];
            merge_into(&a, &b, &mut out);
            let pairs = |v: &[Tagged]| v.iter().map(|t| (t.key, t.tag)).collect::<Vec<_>>();
            assert_eq!(pairs(&out), pairs(&expected), "na={na} nb={nb}");
        }
    }

    #[test]
    fn co_rank_prefixes_are_consistent() {
        let a = sorted(500, 1);
        let b = sorted(700, 2);
        for d in [0usize, 1, 250, 600, 1199, 1200] {
            let (i, j) = co_rank(d, &a, &b);
            assert_eq!(i + j, d);
            // Every element in the prefix <= every element after it.
            let prefix_max = a[..i].iter().chain(b[..j].iter()).max().copied();
            let suffix_min = a[i..].iter().chain(b[j..].iter()).min().copied();
            if let (Some(pm), Some(sm)) = (prefix_max, suffix_min) {
                assert!(pm <= sm, "d={d}: prefix max {pm} > suffix min {sm}");
            }
        }
    }

    #[test]
    fn split_merge_segments_cover_everything() {
        let a = sorted(1000, 3);
        let b = sorted(900, 4);
        let segs = split_merge(&a, &b, 7);
        assert_eq!(segs.len(), 7);
        assert_eq!(segs[0].0.start, 0);
        assert_eq!(segs[0].1.start, 0);
        assert_eq!(segs.last().unwrap().0.end, a.len());
        assert_eq!(segs.last().unwrap().1.end, b.len());
        for w in segs.windows(2) {
            assert_eq!(w[0].0.end, w[1].0.start);
            assert_eq!(w[0].1.end, w[1].1.start);
        }
    }

    #[test]
    fn parallel_merge_matches_sequential() {
        let a = sorted(30_000, 5);
        let b = sorted(27_001, 6);
        let mut expected = vec![0; a.len() + b.len()];
        merge_into(&a, &b, &mut expected);
        for k in [1usize, 2, 3, 4] {
            let mut out = vec![0; a.len() + b.len()];
            parallel_merge(&a, &b, &mut out, k);
            assert_eq!(out, expected, "k={k}");
        }
    }

    #[test]
    fn parallel_merge_duplicate_heavy() {
        let mut a = vec![5u32; 10_000];
        a.extend(vec![9u32; 10_000]);
        let b = vec![5u32; 15_000];
        let mut out = vec![0; 35_000];
        parallel_merge(&a, &b, &mut out, 4);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }
}
