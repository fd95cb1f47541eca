//! The local sort of phase one. `mctop_sort` and the baseline sort every
//! chunk with `sort_into`, as in the paper, where "the sequential part
//! is the same on both algorithms".
//!
//! `sort_into` is a `u32` radix sort that keeps its passes in cache:
//! one MSD pass on the top byte that varies scatters the keys into at
//! most 256 buckets (≈ 16 KiB each for a 2²⁰-key chunk), and LSD passes
//! over the bits that still vary finish each bucket while it is cached.
//! Sorted and strictly decreasing input is copied in O(n); when a spread
//! sample shows few distinct keys, and for tiny buckets, it hands over
//! to [`quicksort`].
//!
//! [`quicksort`] is the comparison fallback, an introsort with three
//! properties a library kernel needs:
//!
//! - *branch-free partition*: the comparison result is added to the
//!   store index, so random keys cost no mispredicted branch
//!   (Edelkamp & Weiß, *BlockQuicksort*);
//! - *duplicate-safe*: a pivot not greater than the pivot to its left
//!   is a repeated key, so that sub-slice is partitioned by `<=` and the
//!   whole equal run dropped — `k` distinct keys cost O(n·k) (Peters,
//!   *pdqsort*);
//! - *depth-bounded*: recursion takes the smaller side and the loop
//!   keeps the larger, so the stack is at most ⌈log₂ n⌉ frames deep on
//!   any input (all-equal and organ-pipe keys used to overflow a 2 MiB
//!   worker stack or run quadratically), and a budget of 2·⌈log₂ n⌉
//!   partitions falls back to heapsort, so the work is O(n log n).

/// Insertion-sort cutoff.
const CUTOFF: usize = 24;

/// Smallest slice whose pivot is a median of three medians of three.
const NINTHER: usize = 128;

/// Bits of one radix digit.
const DIGIT: u32 = 8;

/// Keys the few-distinct check reads, spread evenly over the input.
const SAMPLE: usize = 256;

/// Most distinct sampled keys for which `quicksort`'s equal-run path
/// beats the radix passes.
const FEW_DISTINCT: usize = 16;

/// Largest input or bucket `quicksort` sorts instead of radix passes.
const SMALL: usize = 64;

/// Sorts `keys` into `out` (ascending), using `keys` as scratch: on
/// return `keys` holds the same keys in no particular order.
///
/// O(n) on non-decreasing and strictly decreasing input, O(n) radix
/// passes otherwise, `quicksort` when a spread sample of the keys holds
/// few distinct values (the sample picks the method, never the result).
///
/// # Panics
///
/// If `keys` and `out` differ in length.
pub(crate) fn sort_into(keys: &mut [u32], out: &mut [u32]) {
    assert_eq!(
        keys.len(),
        out.len(),
        "sort_into: `keys` and `out` must have the same length"
    );
    let n = keys.len();
    if n < 2 {
        out.copy_from_slice(keys);
        return;
    }
    let (run, desc) = leading_run(keys);
    if run == n {
        if desc {
            for (o, &k) in out.iter_mut().zip(keys.iter().rev()) {
                *o = k;
            }
        } else {
            out.copy_from_slice(keys);
        }
        return;
    }
    if n <= SMALL || few_distinct(keys) {
        quicksort(keys);
        out.copy_from_slice(keys);
        return;
    }
    // One MSD pass on the top byte that varies, then each bucket on
    // its own, from `out` with its window of `keys` as scratch.
    let shift = (u32::BITS - varying_bits(keys).leading_zeros()).saturating_sub(DIGIT);
    let ends = radix_pass(keys, out, shift);
    let mut start = 0;
    for end in ends {
        finish_bucket(&mut out[start..end], &mut keys[start..end]);
        start = end;
    }
}

/// Sorts a slice in place (unstable, O(n log n) comparisons, O(log n)
/// stack; O(n) on non-decreasing and strictly decreasing input).
pub fn quicksort<T: Ord + Copy>(a: &mut [T]) {
    let n = a.len();
    if n < 2 {
        return;
    }
    // When the leading run is the whole slice the sort is a no-op or a
    // reversal.
    let (run, desc) = leading_run(a);
    if run == n {
        if desc {
            a.reverse();
        }
        return;
    }
    introsort(a, None, 2 * ceil_log2(n));
}

/// Length of the leading run of `a` (at least two keys), non-decreasing
/// or strictly decreasing, and whether it decreases.
fn leading_run<T: Ord>(a: &[T]) -> (usize, bool) {
    let desc = a[1] < a[0];
    let run = 2 + a[1..]
        .windows(2)
        .take_while(|w| (w[1] < w[0]) == desc)
        .count();
    (run, desc)
}

/// The slots the few-distinct check reads: `SAMPLE` of them, spread
/// evenly over `n` keys.
fn sample_slots(n: usize) -> impl Iterator<Item = usize> {
    (0..SAMPLE).map(move |i| i * n / SAMPLE)
}

/// Whether the sampled keys hold at most `FEW_DISTINCT` values.
fn few_distinct(keys: &[u32]) -> bool {
    let mut seen = [0u32; FEW_DISTINCT];
    let mut len = 0;
    for slot in sample_slots(keys.len()) {
        let k = keys[slot];
        if !seen[..len].contains(&k) {
            if len == FEW_DISTINCT {
                return false;
            }
            seen[len] = k;
            len += 1;
        }
    }
    true
}

/// The bits in which some key of `a` differs from the first one.
fn varying_bits(a: &[u32]) -> u32 {
    let first = a[0];
    a.iter().fold(0, |acc, &k| acc | (k ^ first))
}

fn digit(k: u32, shift: u32) -> usize {
    ((k >> shift) & 0xFF) as usize
}

/// One counting pass: scatters `src` into `dst` (same length), stably,
/// by the digit at `shift`, and returns where each digit's bucket ends.
fn radix_pass(src: &[u32], dst: &mut [u32], shift: u32) -> [usize; 256] {
    let mut next = [0usize; 256];
    for &k in src {
        next[digit(k, shift)] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        (*slot, start) = (start, start + *slot);
    }
    for &k in src {
        let d = digit(k, shift);
        dst[next[d]] = k;
        next[d] += 1;
    }
    next
}

/// Sorts one MSD bucket, which starts and ends in `a`, with `tmp` (same
/// length) as scratch: LSD passes over just the bits that vary in it,
/// at most three since the top byte that varies is already fixed.
fn finish_bucket(a: &mut [u32], tmp: &mut [u32]) {
    if a.len() <= SMALL {
        return quicksort(a);
    }
    let varying = varying_bits(a);
    if varying == 0 {
        return;
    }
    let lowest = varying.trailing_zeros();
    let end = u32::BITS - varying.leading_zeros();
    let (mut src, mut dst) = (a, tmp);
    let mut passes = 0;
    for shift in (lowest..end).step_by(DIGIT as usize) {
        radix_pass(src, dst, shift);
        (src, dst) = (dst, src);
        passes += 1;
    }
    if passes % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Sorts `a`, every element of which is `>= pred` when there is one
/// (the pivot of the partition `a` is the right side of), with at most
/// `budget` more levels of partitioning before heapsort takes over.
fn introsort<T: Ord + Copy>(mut a: &mut [T], mut pred: Option<T>, mut budget: u32) {
    loop {
        let n = a.len();
        if n <= CUTOFF {
            return insertion_sort(a);
        }
        if budget == 0 {
            return heapsort(a);
        }
        let p = choose_pivot(a);
        a.swap(0, p);
        let pivot = a[0];
        if pred.is_some_and(|pred| pred >= pivot) {
            // `pivot` is the smallest key of `a`: everything equal to
            // it is in its final place once moved to the front.
            let equal = partition(a, |x| x <= pivot);
            a = &mut a[equal..];
            continue;
        }
        budget -= 1;
        let less = partition(&mut a[1..], |x| x < pivot);
        a.swap(0, less);
        let (lo, hi) = a.split_at_mut(less);
        let hi = &mut hi[1..];
        if lo.len() < hi.len() {
            introsort(lo, pred, budget);
            (a, pred) = (hi, Some(pivot));
        } else {
            introsort(hi, Some(pivot), budget);
            a = lo;
        }
    }
}

/// Moves the elements `goes_left` holds for to the front and returns
/// how many there are. Every element is swapped with the one at the
/// store index whatever the comparison says; the comparison only
/// advances that index, so the loop has no data-dependent branch.
fn partition<T: Copy>(a: &mut [T], goes_left: impl Fn(T) -> bool) -> usize {
    let mut store = 0;
    for i in 0..a.len() {
        a.swap(i, store);
        store += usize::from(goes_left(a[store]));
    }
    store
}

/// Index of the pivot: the median of three spread samples, of three
/// such medians from `NINTHER` elements on.
fn choose_pivot<T: Ord>(a: &[T]) -> usize {
    let n = a.len();
    let (lo, mid, hi) = (n / 4, n / 2, n / 4 * 3);
    if n < NINTHER {
        return median3(a, lo, mid, hi);
    }
    median3(
        a,
        median3(a, lo - 1, lo, lo + 1),
        median3(a, mid - 1, mid, mid + 1),
        median3(a, hi - 1, hi, hi + 1),
    )
}

fn median3<T: Ord>(a: &[T], i: usize, j: usize, k: usize) -> usize {
    let (i, j) = if a[j] < a[i] { (j, i) } else { (i, j) };
    if a[k] < a[i] {
        i
    } else if a[k] < a[j] {
        k
    } else {
        j
    }
}

fn insertion_sort<T: Ord + Copy>(a: &mut [T]) {
    for i in 1..a.len() {
        let v = a[i];
        let mut j = i;
        while j > 0 && a[j - 1] > v {
            a[j] = a[j - 1];
            j -= 1;
        }
        a[j] = v;
    }
}

/// In-place heapsort: what a spent partition budget falls back to.
fn heapsort<T: Ord + Copy>(a: &mut [T]) {
    for root in (0..a.len() / 2).rev() {
        sift_down(a, root);
    }
    for end in (1..a.len()).rev() {
        a.swap(0, end);
        sift_down(&mut a[..end], 0);
    }
}

fn sift_down<T: Ord + Copy>(a: &mut [T], mut root: usize) {
    loop {
        let mut child = 2 * root + 1;
        if child >= a.len() {
            return;
        }
        if child + 1 < a.len() && a[child] < a[child + 1] {
            child += 1;
        }
        if a[root] >= a[child] {
            return;
        }
        a.swap(root, child);
        root = child;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{
        Rng,
        SeedableRng, //
    };
    use std::cell::Cell;
    use std::cmp::Ordering;

    #[test]
    fn sorts_random_input() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut v: Vec<u32> = (0..10_000).map(|_| rng.gen()).collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        quicksort(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn sorts_adversarial_inputs() {
        // Already sorted, reverse sorted, all equal, tiny.
        let mut a: Vec<u32> = (0..2000).collect();
        quicksort(&mut a);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));

        let mut b: Vec<u32> = (0..2000).rev().collect();
        quicksort(&mut b);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));

        let mut c = vec![7u32; 1000];
        quicksort(&mut c);
        assert!(c.iter().all(|&x| x == 7));

        let mut d: Vec<u32> = vec![];
        quicksort(&mut d);
        let mut e = vec![3u32];
        quicksort(&mut e);
        assert_eq!(e, vec![3]);
    }

    #[test]
    fn sorts_duplicates_heavy() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut v: Vec<u8> = (0..50_000).map(|_| rng.gen_range(0..4)).collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        quicksort(&mut v);
        assert_eq!(v, expected);
    }

    /// A key that counts every comparison it takes part in.
    #[derive(Clone, Copy)]
    struct Counted<'a> {
        key: u32,
        cmps: &'a Cell<u64>,
    }

    impl Ord for Counted<'_> {
        fn cmp(&self, other: &Self) -> Ordering {
            self.cmps.set(self.cmps.get() + 1);
            self.key.cmp(&other.key)
        }
    }

    impl PartialOrd for Counted<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl PartialEq for Counted<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for Counted<'_> {}

    /// Sorts `keys` with `sort` through the counting wrapper, checks
    /// the result against `sort_unstable` and returns the comparisons.
    fn count_comparisons(keys: &[u32], sort: impl Fn(&mut [Counted])) -> u64 {
        let cmps = Cell::new(0);
        let mut v: Vec<Counted> = keys
            .iter()
            .map(|&key| Counted { key, cmps: &cmps })
            .collect();
        sort(&mut v);
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        assert!(v.iter().map(|c| c.key).eq(expected));
        cmps.get()
    }

    fn organ_pipe(n: usize) -> Vec<u32> {
        (0..n).map(|i| i.min(n - 1 - i) as u32).collect()
    }

    /// Musser's median-of-three killer: first/middle/last sampling
    /// finds the two smallest keys left at every level.
    fn median_of_three_killer(n: usize) -> Vec<u32> {
        let k = n / 2;
        let head = (1..=k).map(|i| if i % 2 == 1 { i } else { k + i - 1 });
        let tail = (1..=n - k).map(|i| 2 * i);
        head.chain(tail).map(|x| x as u32).collect()
    }

    #[test]
    fn comparisons_are_linearithmic_on_every_family() {
        type Family = (&'static str, fn(usize, &mut SmallRng) -> Vec<u32>);
        fn few(n: usize, rng: &mut SmallRng, distinct: u32) -> Vec<u32> {
            (0..n).map(|_| rng.gen_range(0..distinct)).collect()
        }
        // The first three are the O(n) families of the entry scan.
        let families: [Family; 11] = [
            ("all-equal", |n, _| vec![7; n]),
            ("sorted", |n, _| (0..n as u32).collect()),
            ("reversed", |n, _| (0..n as u32).rev().collect()),
            ("uniform", |n, rng| (0..n).map(|_| rng.gen()).collect()),
            ("organ-pipe", |n, _| organ_pipe(n)),
            ("saw-tooth", |n, _| {
                (0..n).map(|i| (i % 100) as u32).collect()
            }),
            ("2-distinct", |n, rng| few(n, rng, 2)),
            ("4-distinct", |n, rng| few(n, rng, 4)),
            ("16-distinct", |n, rng| few(n, rng, 16)),
            ("median-of-three killer", |n, _| median_of_three_killer(n)),
            ("killer, reversed", |n, _| {
                let mut v = median_of_three_killer(n);
                v.reverse();
                v
            }),
        ];
        let mut rng = SmallRng::seed_from_u64(3);
        for (row, (name, make)) in families.iter().enumerate() {
            for n in [25, 1_000, 1 << 16] {
                let keys = make(n, &mut rng);
                let cmps = count_comparisons(&keys, |v| quicksort(v));
                let bound = if row < 3 {
                    2 * n as u64
                } else {
                    5 * n as u64 * u64::from(ceil_log2(n))
                };
                assert!(cmps <= bound, "{name}, n = {n}: {cmps} > {bound}");
            }
        }
    }

    #[test]
    fn spent_budget_falls_back_to_heapsort() {
        let mut rng = SmallRng::seed_from_u64(4);
        for n in [25, 1_000, 1 << 16] {
            let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32 / 2)).collect();
            let cmps = count_comparisons(&keys, |v| introsort(v, None, 0));
            let bound = 5 * n as u64 * u64::from(ceil_log2(n));
            assert!(cmps <= bound, "n = {n}: {cmps} > {bound}");
            // One level of budget: a partition, then heapsort on both
            // sides (the right one with a predecessor pivot).
            count_comparisons(&keys, |v| introsort(v, None, 1));
        }
    }

    /// Recursion takes the smaller side, so ⌈log₂ n⌉ frames are the
    /// most any input can stack: 2^18 keys fit a 32 KiB thread stack.
    #[test]
    fn recursion_fits_a_small_stack() {
        let n = 1usize << 18;
        let two_distinct: Vec<u32> = (0..n).map(|i| (i % 3 == 0) as u32).collect();
        for mut v in [organ_pipe(n), two_distinct] {
            std::thread::Builder::new()
                .stack_size(32 << 10)
                .spawn(move || {
                    quicksort(&mut v);
                    assert!(v.windows(2).all(|w| w[0] <= w[1]));
                })
                .expect("thread spawns")
                .join()
                .expect("sort neither panics nor overflows");
        }
    }

    /// Slices of at most `CUTOFF` keys never partition: every word over
    /// a three-letter alphabet up to length 10 (the ties and runs the
    /// entry scan and the insertion sort can meet), and a seeded sample
    /// of the longer ones (3^24 words cannot be enumerated).
    #[test]
    fn sorts_every_small_slice() {
        for n in 0..=10u32 {
            for word in 0..3u32.pow(n) {
                let keys: Vec<u32> = (0..n).map(|i| word / 3u32.pow(i) % 3).collect();
                count_comparisons(&keys, |v| quicksort(v));
            }
        }
        let mut rng = SmallRng::seed_from_u64(5);
        for n in 11..=CUTOFF {
            for _ in 0..2_000 {
                let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
                count_comparisons(&keys, |v| quicksort(v));
            }
        }
    }

    /// Runs `sort_into` with `out` full of garbage and checks it against
    /// `sort_unstable`.
    fn check_sort_into(name: &str, keys: &[u32], rng: &mut SmallRng) {
        let mut scratch = keys.to_vec();
        let mut out: Vec<u32> = (0..keys.len()).map(|_| rng.gen()).collect();
        sort_into(&mut scratch, &mut out);
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        assert!(out == expected, "{name}, n = {}", keys.len());
    }

    /// Keys whose `SAMPLE` spread slots hold only four values while
    /// every other slot is distinct: the sample picks `quicksort`, and
    /// the output must not care.
    fn fools_the_sample(n: usize) -> Vec<u32> {
        let mut keys: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for (i, slot) in sample_slots(n).enumerate() {
            if let Some(k) = keys.get_mut(slot) {
                *k = i as u32 % 4;
            }
        }
        keys
    }

    #[test]
    fn sort_into_equals_the_oracle_on_every_family() {
        type Family = (&'static str, fn(usize, &mut SmallRng) -> Vec<u32>);
        /// `n` draws from `distinct` random values.
        fn few(n: usize, rng: &mut SmallRng, distinct: usize) -> Vec<u32> {
            let values: Vec<u32> = (0..distinct).map(|_| rng.gen()).collect();
            (0..n).map(|_| values[rng.gen_range(0..distinct)]).collect()
        }
        /// Uniform keys with every bit outside `varying` set to a fixed
        /// pattern.
        fn only(n: usize, rng: &mut SmallRng, varying: u32) -> Vec<u32> {
            (0..n)
                .map(|_| (rng.gen::<u32>() & varying) | (0x5A5A_5A5A & !varying))
                .collect()
        }
        let families: [Family; 16] = [
            ("uniform", |n, rng| (0..n).map(|_| rng.gen()).collect()),
            ("all-equal", |n, _| vec![7; n]),
            ("sorted", |n, _| (0..n as u32).collect()),
            ("reversed", |n, _| (0..n as u32).rev().collect()),
            ("organ-pipe", |n, _| organ_pipe(n)),
            ("saw-tooth", |n, _| {
                (0..n).map(|i| (i % 100) as u32).collect()
            }),
            ("2-distinct", |n, rng| few(n, rng, 2)),
            ("4-distinct", |n, rng| few(n, rng, 4)),
            ("16-distinct", |n, rng| few(n, rng, 16)),
            ("17-distinct", |n, rng| few(n, rng, 17)),
            ("bit 31 only", |n, rng| only(n, rng, 1 << 31)),
            ("top byte only", |n, rng| only(n, rng, 0xFF00_0000)),
            ("low byte only", |n, rng| only(n, rng, 0xFF)),
            ("top byte and bit 0", |n, rng| only(n, rng, 0xFF00_0001)),
            ("near u32::MAX", |n, rng| {
                (0..n)
                    .map(|_| u32::MAX - rng.gen_range(0..1_000u32))
                    .collect()
            }),
            ("fools the sample", |n, _| fools_the_sample(n)),
        ];
        let mut rng = SmallRng::seed_from_u64(6);
        let lengths = (0..=300).chain((9..=17).map(|log2| 1 << log2));
        for n in lengths {
            for (name, make) in &families {
                let keys = make(n, &mut rng);
                check_sort_into(name, &keys, &mut rng);
            }
        }
        // The sample did see four values only, so the inputs built to
        // fool it reached the `quicksort` path.
        assert!(few_distinct(&fools_the_sample(1 << 12)));
        assert!(!few_distinct(&few(1 << 12, &mut rng, 17)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary keys with arbitrary bits held fixed, so the bits
        /// that vary start and end anywhere in the word.
        #[test]
        fn sort_into_equals_the_oracle_under_any_mask(
            keys in prop::collection::vec(any::<u32>(), 0..5_000),
            mask in any::<u32>(),
            fixed in any::<u32>(),
        ) {
            let keys: Vec<u32> = keys.iter().map(|&k| (k & mask) | (fixed & !mask)).collect();
            let mut rng = SmallRng::seed_from_u64(7);
            check_sort_into("masked", &keys, &mut rng);
        }
    }

    #[test]
    #[should_panic(expected = "`keys` and `out` must have the same length")]
    fn sort_into_refuses_an_out_of_another_length() {
        sort_into(&mut [3, 1, 2], &mut [0; 2]);
    }
}
