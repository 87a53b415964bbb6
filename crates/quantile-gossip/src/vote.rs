//! The final vote of Algorithm 2, line 8 (Lemma 2.17): every node outputs
//! the median `sorted[c / 2]` of the `c ≤ K` vote samples it received, or
//! keeps its converged value when no sample arrived (`c = 0`).
//!
//! One kernel serves both callers: the solo [`crate::three_tournament::run`]
//! (one value per sample) and the [`crate::service::QuantileService`] (one
//! q-wide lane row per sample). The samples of a node are gathered as `c`
//! contiguous rows of equal width, and the median is selected **row-wise**
//! by a branch-free compare-exchange network: each comparator `(a, b)`
//! replaces rows `a` and `b` by their lane-wise minimum and maximum. A
//! data-dependent `select_nth_unstable` on 15 values is branch-mispredict
//! bound; the network's work is fixed by `c` alone.
//!
//! The network for `c` samples is Batcher's odd–even merge sort on the next
//! power of two, with every comparator touching an index `≥ c` dropped —
//! exactly the network run on `c` values padded with `+∞`, whose padding
//! never moves — pruned to the comparators that can still reach position
//! `c / 2`. Its output at `c / 2` is therefore the sorted order's element at
//! `c / 2`, equal under [`Ord`] to `sort_unstable()` followed by `[c / 2]`.

/// The per-`c` median-selection networks for a vote of at most `K` samples,
/// built once per vote.
#[derive(Debug, Clone)]
pub(crate) struct VoteKernel {
    /// `networks[c]`: the comparators selecting `sorted[c / 2]` of `c` rows,
    /// in execution order (`networks[0]` is empty).
    networks: Vec<Vec<(u16, u16)>>,
}

impl VoteKernel {
    /// Builds the networks for every sample count `c ≤ k`.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k <= u16::MAX as usize, "at most {} vote samples", u16::MAX);
        VoteKernel {
            networks: (0..=k).map(median_network).collect(),
        }
    }

    /// The largest sample count the kernel handles (`K`).
    pub(crate) fn samples(&self) -> usize {
        self.networks.len() - 1
    }

    /// Writes the lane-wise `sorted[c / 2]` of the first `c` rows of `rows`
    /// (row-major, each `out.len()` wide) into `out`; with `c = 0`, `out`
    /// keeps the converged value it already holds. The network sorts `rows`
    /// in place, so their contents are scrambled afterwards.
    pub(crate) fn vote_into<V: Ord + Copy>(&self, rows: &mut [V], c: usize, out: &mut [V]) {
        if c == 0 {
            return;
        }
        let w = out.len();
        let rows = &mut rows[..c * w];
        if w == 1 {
            for &(a, b) in &self.networks[c] {
                let (a, b) = (a as usize, b as usize);
                let (x, y) = (rows[a], rows[b]);
                rows[a] = x.min(y);
                rows[b] = x.max(y);
            }
        } else {
            for &(a, b) in &self.networks[c] {
                let (lo, hi) = rows.split_at_mut(b as usize * w);
                let ra = &mut lo[a as usize * w..][..w];
                for (x, y) in ra.iter_mut().zip(&mut hi[..w]) {
                    let (p, q) = (*x, *y);
                    *x = p.min(q);
                    *y = p.max(q);
                }
            }
        }
        let m = c / 2;
        out.copy_from_slice(&rows[m * w..][..w]);
    }
}

/// The comparators of Batcher's odd–even merge sort on `c` inputs (padded
/// to a power of two, comparators at index `≥ c` dropped), pruned to those
/// that can influence output position `c / 2`. Every pair is `(low, high)`
/// with the minimum going to `low`.
fn median_network(c: usize) -> Vec<(u16, u16)> {
    if c < 2 {
        return Vec::new();
    }
    let size = c.next_power_of_two();
    let mut full = Vec::new();
    let mut p = 1;
    while p < size {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < size {
                for i in 0..k.min(size - j - k) {
                    let (a, b) = (i + j, i + j + k);
                    if a / (2 * p) == b / (2 * p) && b < c {
                        full.push((a as u16, b as u16));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    // Walk backwards from the output position, keeping each comparator that
    // touches a position the output still depends on.
    let mut needed = vec![false; c];
    needed[c / 2] = true;
    let mut kept: Vec<(u16, u16)> = full
        .into_iter()
        .rev()
        .filter(|&(a, b)| {
            let (a, b) = (a as usize, b as usize);
            let keep = needed[a] || needed[b];
            if keep {
                needed[a] = true;
                needed[b] = true;
            }
            keep
        })
        .collect();
    kept.reverse();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The formula the kernel replaces.
    fn reference(mut values: Vec<u64>) -> u64 {
        values.sort_unstable();
        values[values.len() / 2]
    }

    /// Value generators: random, duplicate-heavy, all equal.
    fn draw(kind: usize, rng: &mut SmallRng) -> u64 {
        match kind {
            0 => rng.gen(),
            1 => rng.gen_range(0..3),
            _ => 42,
        }
    }

    #[test]
    fn kernel_matches_sort_then_middle_for_every_sample_count() {
        const WIDTH: usize = 5;
        let mut rng = SmallRng::seed_from_u64(17);
        for k in [1usize, 2, 15, 16, 33] {
            let kernel = VoteKernel::new(k);
            assert_eq!(kernel.samples(), k);
            for c in 0..=k {
                for kind in 0..3 {
                    for _ in 0..20 {
                        let rows: Vec<u64> = (0..c * WIDTH).map(|_| draw(kind, &mut rng)).collect();
                        let converged: Vec<u64> = (0..WIDTH as u64).map(|l| 1_000 + l).collect();
                        // Lane-wise over a wide row, and one lane at a time
                        // through the scalar path.
                        let mut out = converged.clone();
                        kernel.vote_into(&mut rows.clone(), c, &mut out);
                        for lane in 0..WIDTH {
                            let column: Vec<u64> = (0..c).map(|r| rows[r * WIDTH + lane]).collect();
                            let expect = if c == 0 {
                                converged[lane]
                            } else {
                                reference(column.clone())
                            };
                            assert_eq!(out[lane], expect, "k={k} c={c} kind={kind} lane={lane}");
                            let mut single = [converged[lane]];
                            kernel.vote_into(&mut column.clone(), c, &mut single);
                            assert_eq!(single[0], expect, "scalar k={k} c={c} kind={kind}");
                        }
                    }
                }
            }
        }
    }

    /// By the 0–1 principle a comparator network selects `sorted[c / 2]`
    /// of every input iff it does so on every 0/1 input.
    #[test]
    fn networks_select_the_middle_of_every_binary_input() {
        let kernel = VoteKernel::new(16);
        for c in 1..=16usize {
            for mask in 0u32..1 << c {
                let rows: Vec<u64> = (0..c).map(|r| u64::from(mask >> r & 1)).collect();
                let mut out = [7];
                kernel.vote_into(&mut rows.clone(), c, &mut out);
                assert_eq!(out[0], reference(rows), "c={c} mask={mask:b}");
            }
        }
    }

    #[test]
    fn networks_stay_inside_the_sample_count() {
        for c in 0..=64 {
            let net = median_network(c);
            assert!(net.iter().all(|&(a, b)| a < b && (b as usize) < c));
        }
        // Pruning to the middle output beats the full sort of 15 values.
        assert!(median_network(15).len() < 56);
    }
}
