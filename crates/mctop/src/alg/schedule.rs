//! The order collection measures pairs in (Section 3.5).
//!
//! Latency measurements between disjoint context pairs are independent.
//! The classic round-robin tournament ("circle method") partitions the
//! strict upper triangle of an N-context machine into rounds of
//! mutually disjoint pairs: fix context 0 (or a bye slot when N is
//! odd), rotate the rest one position per round, and pair opposite
//! positions. Every round is a perfect matching (no context appears
//! twice), every unordered pair appears in exactly one round, and there
//! are N-1 rounds for even N (N rounds with one idle context each for
//! odd N).
//!
//! Collection runs on one prober, so only the order of the rounds is
//! left of them: it decides which pair a failing run names first. The
//! pairs of a round are generated when they are measured
//! ([`round`], [`round_robin_pairs`]), and a given pair set is put in
//! first-fit round order ([`first_fit_order`]), without a list per
//! round.

/// Number of rounds of the circle-method schedule over `n` contexts.
pub(crate) fn rounds(n: usize) -> usize {
    match n {
        0 | 1 => 0,
        _ => n + n % 2 - 1,
    }
}

/// The pairs `(a, b)`, `a < b`, of round `r` (below [`rounds`]) of the
/// circle-method schedule over `n` contexts, in schedule order.
///
/// Slot 0 is pinned and the ring `1, 2, ..` (with a bye slot `n` when
/// `n` is odd) has turned right `r` times: its position `i` holds
/// `(i - r) mod (slots - 1) + 1`. Slot 0 pairs with the ring's last
/// position, and position `i` with position `slots - 3 - i`; a pair
/// with the bye sits out.
pub(crate) fn round(n: usize, r: usize) -> impl Iterator<Item = (usize, usize)> {
    let slots = n + n % 2;
    let ring = slots - 1;
    let at = move |i: usize| (i + ring - r % ring) % ring + 1;
    std::iter::once((0, at(slots - 2)))
        .chain((0..slots / 2 - 1).map(move |i| (at(i), at(slots - 3 - i))))
        .filter(move |&(x, y)| x < n && y < n)
        .map(|(x, y)| (x.min(y), x.max(y)))
}

/// Every pair over `n` contexts, round after round of the circle-method
/// schedule.
pub(crate) fn round_robin_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rounds(n)).flat_map(move |r| round(n, r))
}

/// The round-robin (circle method) schedule over `n` contexts as a list
/// of rounds, each a list of disjoint `(a, b)` pairs with `a < b`: the
/// oracle for [`round`].
#[cfg(test)]
pub(crate) fn round_robin(n: usize) -> Vec<Vec<(usize, usize)>> {
    if n < 2 {
        return Vec::new();
    }
    // Work over an even number of slots; slot `n` (only present for odd
    // `n`) is the bye — its "pair" each round simply sits out.
    let slots = if n.is_multiple_of(2) { n } else { n + 1 };
    let bye = slots; // out-of-range sentinel: real contexts are < n
    let mut ring: Vec<usize> = (1..slots).map(|i| if i < n { i } else { bye }).collect();
    let mut rounds = Vec::with_capacity(slots - 1);
    for _ in 0..slots - 1 {
        let mut round = Vec::with_capacity(slots / 2);
        // Slot 0 is pinned; pair it with the rotating head.
        let pairs = std::iter::once((0, ring[slots - 2]))
            .chain((0..slots / 2 - 1).map(|i| (ring[i], ring[slots - 3 - i])));
        for (x, y) in pairs {
            if x == bye || y == bye {
                continue;
            }
            round.push((x.min(y), x.max(y)));
        }
        if !round.is_empty() {
            rounds.push(round);
        }
        ring.rotate_right(1);
    }
    rounds
}

/// Number of unordered context pairs over `n` contexts.
pub(crate) fn num_pairs(n: usize) -> usize {
    n * (n - 1) / 2
}

/// The indices of `pairs` (each `a < b < n`) in first-fit round order:
/// each pair, in the given order, takes the earliest round where
/// neither of its contexts is taken yet, and the rounds are read out
/// one after another, each in the order its pairs came.
///
/// A pair's round is below the number of earlier pairs that share a
/// context with it, so one bitmap row of twice the largest degree per
/// context holds every round a context can be taken in.
pub(crate) fn first_fit_order(n: usize, pairs: &[(usize, usize)]) -> Vec<usize> {
    let mut degree = vec![0usize; n];
    for &(a, b) in pairs {
        debug_assert!(a < b && b < n, "pair ({a},{b}) malformed for n={n}");
        degree[a] += 1;
        degree[b] += 1;
    }
    let words = (2 * degree.iter().max().copied().unwrap_or(0))
        .div_ceil(64)
        .max(1);
    // `busy[c * words + w]`: bit `r % 64` of word `r / 64` is set once
    // context `c` is taken in round `r`.
    let mut busy = vec![0u64; n * words];
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(pairs.len());
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let (w, taken) = (0..words)
            .map(|w| (w, busy[a * words + w] | busy[b * words + w]))
            .find(|&(_, taken)| taken != u64::MAX)
            .expect("a free round within the bound");
        let bit = (!taken).trailing_zeros() as usize;
        busy[a * words + w] |= 1 << bit;
        busy[b * words + w] |= 1 << bit;
        order.push((w * 64 + bit, i));
    }
    order.sort_unstable();
    order.into_iter().map(|(_, i)| i).collect()
}

/// Partitions an arbitrary pair set over `n` contexts into rounds of
/// mutually disjoint pairs, first fit: the oracle for
/// [`first_fit_order`].
#[cfg(test)]
pub(crate) fn rounds_for(n: usize, pairs: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
    // `busy[c]`: bit `r` is set once context `c` is taken in round `r`
    // (a missing word is all free).
    let mut busy: Vec<Vec<u64>> = vec![Vec::new(); n];
    let word = |bits: &Vec<u64>, w: usize| bits.get(w).copied().unwrap_or(0);
    for &(a, b) in pairs {
        debug_assert!(a < b && b < n, "pair ({a},{b}) malformed for n={n}");
        // The first round free for both: the first zero bit of the
        // union, at most one past the last round.
        let mut w = 0;
        let slot = loop {
            let taken = word(&busy[a], w) | word(&busy[b], w);
            if taken != u64::MAX {
                break w * 64 + (!taken).trailing_zeros() as usize;
            }
            w += 1;
        };
        if slot == rounds.len() {
            rounds.push(Vec::new());
        }
        for c in [a, b] {
            if busy[c].len() <= slot / 64 {
                busy[c].resize(slot / 64 + 1, 0);
            }
            busy[c][slot / 64] |= 1 << (slot % 64);
        }
        rounds[slot].push((a, b));
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every round is a perfect disjoint matching (⌊n/2⌋ pairs, no
    /// context twice), and the rounds together cover every unordered
    /// pair exactly once: exhaustive collection, which measures the
    /// rounds one after another, measures every pair once.
    #[test]
    fn rounds_are_perfect_matchings_covering_all_pairs_once() {
        for n in 2..=33 {
            let rounds = round_robin(n);
            let expected_rounds = if n % 2 == 0 { n - 1 } else { n };
            assert_eq!(rounds.len(), expected_rounds, "n={n}");
            let mut seen = HashSet::new();
            for (r, round) in rounds.iter().enumerate() {
                assert_eq!(round.len(), n / 2, "n={n} round {r} is not maximal");
                let mut used = HashSet::new();
                for &(a, b) in round {
                    assert!(a < b, "n={n}: pair ({a},{b}) not normalized");
                    assert!(b < n, "n={n}: context {b} out of range");
                    assert!(used.insert(a), "n={n} round {r}: context {a} twice");
                    assert!(used.insert(b), "n={n} round {r}: context {b} twice");
                    assert!(seen.insert((a, b)), "n={n}: pair ({a},{b}) repeated");
                }
            }
            assert_eq!(seen.len(), num_pairs(n), "n={n}: pairs missing");
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert!(round_robin(0).is_empty());
        assert!(round_robin(1).is_empty());
        assert_eq!(round_robin(2), vec![vec![(0, 1)]]);
    }

    #[test]
    fn rounds_for_preserves_pairs_and_disjointness() {
        // A pruned-plan-shaped set: a neighbourhood ball plus strides.
        let n = 64;
        let mut pairs = Vec::new();
        for d in [1usize, 2, 3, 8, 16, 32] {
            for a in 0..n {
                let b = (a + d) % n;
                let p = (a.min(b), a.max(b));
                if !pairs.contains(&p) {
                    pairs.push(p);
                }
            }
        }
        let rounds = rounds_for(n, &pairs);
        let mut seen = HashSet::new();
        for round in &rounds {
            let mut used = HashSet::new();
            for &(a, b) in round {
                assert!(a < b && b < n);
                assert!(used.insert(a) && used.insert(b), "context reused in round");
                assert!(seen.insert((a, b)), "pair scheduled twice");
            }
        }
        assert_eq!(seen.len(), pairs.len(), "pairs dropped by the scheduler");
        // Deterministic: same input, same schedule.
        assert_eq!(rounds, rounds_for(n, &pairs));
    }

    /// `rounds_for` as it was: one `bool` row per round, rescanned for
    /// every pair.
    fn rounds_for_reference(n: usize, pairs: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
        let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut busy: Vec<Vec<bool>> = Vec::new();
        for &(a, b) in pairs {
            let slot = match busy.iter().position(|r| !r[a] && !r[b]) {
                Some(s) => s,
                None => {
                    rounds.push(Vec::new());
                    busy.push(vec![false; n]);
                    busy.len() - 1
                }
            };
            busy[slot][a] = true;
            busy[slot][b] = true;
            rounds[slot].push((a, b));
        }
        rounds
    }

    #[test]
    fn rounds_for_equals_the_rescan_on_pruned_plans() {
        use crate::alg::probe::{
            pruned_pairs,
            PruneCfg, //
        };
        let mut most = 0;
        for spec in mcsim::presets::all_mesh_scale() {
            let n = spec.total_hwcs();
            let pc = PruneCfg::for_machine(n / spec.sockets, spec.sockets);
            let pairs = pruned_pairs(n, &pc).unwrap();
            let rounds = rounds_for(n, &pairs);
            most = most.max(rounds.len());
            assert_eq!(rounds, rounds_for_reference(n, &pairs), "{}", spec.name);
        }
        assert!(most > 64, "no plan needs a second word of rounds");
    }

    #[test]
    fn rounds_for_equals_the_rescan_on_random_pair_sets() {
        let mut next = crate::alg::splitmix(36);
        for _ in 0..300 {
            let n = 2 + (next() % 40) as usize;
            let count = (next() % (4 * n as u64)) as usize;
            let pairs: Vec<(usize, usize)> = (0..count)
                .filter_map(|_| {
                    let (a, b) = ((next() % n as u64) as usize, (next() % n as u64) as usize);
                    (a != b).then(|| (a.min(b), a.max(b)))
                })
                .collect();
            assert_eq!(rounds_for(n, &pairs), rounds_for_reference(n, &pairs));
        }
        // A star: every pair shares context 0, so each takes a round of
        // its own, past the first 64-bit word.
        let star: Vec<(usize, usize)> = (1..150).map(|b| (0, b)).collect();
        assert_eq!(rounds_for(150, &star).len(), 149);
        assert_eq!(rounds_for(150, &star), rounds_for_reference(150, &star));
    }

    /// `first_fit_order`'s pairs, and the rounds of `rounds_for` read
    /// out one after another.
    fn assert_first_fit_is_the_rounds(n: usize, pairs: &[(usize, usize)]) {
        let order: Vec<(usize, usize)> = first_fit_order(n, pairs)
            .into_iter()
            .map(|i| pairs[i])
            .collect();
        assert_eq!(order, rounds_for(n, pairs).concat(), "n={n}");
    }

    #[test]
    fn round_equals_the_listed_rounds() {
        for n in (0..=33).chain([255, 256, 512]) {
            let listed = round_robin(n);
            assert_eq!(rounds(n), listed.len(), "n={n}");
            for (r, want) in listed.iter().enumerate() {
                assert_eq!(round(n, r).collect::<Vec<_>>(), *want, "n={n} round {r}");
            }
            let pairs: Vec<(usize, usize)> = round_robin_pairs(n).collect();
            assert_eq!(pairs, listed.concat(), "n={n}");
        }
    }

    #[test]
    fn first_fit_order_is_the_rounds_read_out() {
        for spec in mcsim::presets::all_mesh_scale() {
            let n = spec.total_hwcs();
            let pc = crate::alg::probe::PruneCfg::for_machine(n / spec.sockets, spec.sockets);
            assert_first_fit_is_the_rounds(n, &crate::alg::probe::pruned_pairs(n, &pc).unwrap());
        }
        let mut next = crate::alg::splitmix(47);
        for _ in 0..300 {
            let n = 2 + (next() % 40) as usize;
            let count = (next() % (4 * n as u64)) as usize;
            let pairs: Vec<(usize, usize)> = (0..count)
                .filter_map(|_| {
                    let (a, b) = ((next() % n as u64) as usize, (next() % n as u64) as usize);
                    (a != b).then(|| (a.min(b), a.max(b)))
                })
                .collect();
            assert_first_fit_is_the_rounds(n, &pairs);
        }
        // A star takes a round per pair, past the first word; no pairs
        // take none.
        let star: Vec<(usize, usize)> = (1..150).map(|b| (0, b)).collect();
        assert_first_fit_is_the_rounds(150, &star);
        assert!(first_fit_order(5, &[]).is_empty());
    }

    #[test]
    fn large_even_schedule_shape() {
        // Twice the 256-context SPARC preset: 511 rounds of 256 pairs.
        let rounds = round_robin(512);
        assert_eq!(rounds.len(), 511);
        assert!(rounds.iter().all(|r| r.len() == 256));
        let total: usize = rounds.iter().map(Vec::len).sum();
        assert_eq!(total, num_pairs(512));
    }
}
