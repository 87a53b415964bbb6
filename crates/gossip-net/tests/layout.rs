//! Bit-identity of the PR 8 memory-layout machinery: the cache-blocked
//! back-buffer refresh, the batched target gather with software prefetch,
//! the flat column-major sample matrix, and the run-batched copy-on-write
//! commit are *mechanical* rewrites of the per-slot paths — for every block
//! size, prefetch distance, active-set shape, and failure model they must
//! produce exactly the states, metrics, and sample values of the reference
//! code (kept in-tree as [`Engine::pull_round_reference`] and behind
//! `set_batch_commit(false)`).
//!
//! Property tests draw those knobs arbitrarily (proptest); every test runs
//! at `par::num_threads()` workers, so CI's 1/2/3/8-thread matrix exercises
//! the blocked paths at each thread count.

use gossip_net::{par, soa, ActiveSet, Engine, EngineConfig, FailureModel, Metrics};
use proptest::prelude::*;

fn fold_hash(state: u64, msg: u64) -> u64 {
    (state.rotate_left(7) ^ msg).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn engine(n: usize, seed: u64, failure: FailureModel) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).failure(failure);
    let mut e = Engine::from_states((0..n as u64).map(|v| v.wrapping_mul(31)).collect(), config);
    e.set_threads(par::num_threads());
    e
}

fn failure_for(p: f64) -> FailureModel {
    if p <= 0.0 {
        FailureModel::None
    } else {
        FailureModel::uniform(p).expect("valid probability")
    }
}

fn pull_rounds(e: &mut Engine<u64>, rounds: usize, reference: bool) -> (Vec<u64>, Metrics) {
    let serve = |_: usize, &s: &u64| s;
    let apply = |_: usize, st: &mut u64, pulled: Option<u64>| {
        if let Some(p) = pulled {
            *st = fold_hash(*st, p);
        }
    };
    for _ in 0..rounds {
        if reference {
            e.pull_round_reference(serve, apply);
        } else {
            e.pull_round(serve, apply);
        }
    }
    (e.states().to_vec(), e.metrics())
}

proptest! {
    /// The blocked + prefetched pull round is bit-identical to the verbatim
    /// pre-PR-8 loop for arbitrary sizes, block sizes, prefetch distances,
    /// and failure rates.
    fn blocked_pull_matches_reference(
        size in (16usize..600, 0u64..1_000_000),
        knobs in (1usize..512, 0usize..64),
        fail_p in proptest::f64_range(0.0, 0.4),
    ) {
        let (n, seed) = size;
        let (block, dist) = knobs;
        let reference = pull_rounds(&mut engine(n, seed, failure_for(fail_p)), 4, true);
        let mut e = engine(n, seed, failure_for(fail_p));
        e.set_copy_block(block).set_prefetch_dist(dist);
        let blocked = pull_rounds(&mut e, 4, false);
        prop_assert_eq!(reference, blocked);
    }

    /// Push and push–pull rounds are invariant under the layout knobs (their
    /// delivery pass uses neither; this keeps it that way).
    fn dense_push_rounds_are_knob_invariant(
        size in (16usize..600, 0u64..1_000_000),
        knobs in (1usize..512, 0usize..64),
        fail_p in proptest::f64_range(0.0, 0.4),
    ) {
        let (n, seed) = size;
        let run = |block_dist: Option<(usize, usize)>| {
            let mut e = engine(n, seed, failure_for(fail_p));
            if let Some((b, d)) = block_dist {
                e.set_copy_block(b).set_prefetch_dist(d);
            }
            for _ in 0..3 {
                e.push_round(
                    |v, &s| if v % 3 == 0 { None } else { Some(s) },
                    |_, st, msg| *st = fold_hash(*st, msg),
                    |_, st, delivered| {
                        if !delivered {
                            *st = st.wrapping_add(1);
                        }
                    },
                );
                e.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
            }
            (e.states().to_vec(), e.metrics())
        };
        prop_assert_eq!(run(None), run(Some(knobs)));
    }

    /// The run-batched copy-on-write commit equals the per-slot swap for
    /// arbitrary active-set shapes (density sweeps from a handful of nodes to
    /// nearly all of them, producing every run structure from singletons to
    /// long dense stretches).
    fn batched_commit_matches_per_slot(
        size in (16usize..600, 0u64..1_000_000),
        shape in (1u64..100, 0usize..64),
        fail_p in proptest::f64_range(0.0, 0.4),
    ) {
        let (n, seed) = size;
        let (density, dist) = shape;
        let run = |batch: bool| {
            let mut e = engine(n, seed, failure_for(fail_p));
            e.set_batch_commit(batch).set_prefetch_dist(dist);
            let active = ActiveSet::from_fn(n, |v| {
                (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed) % 100 < density
            });
            for _ in 0..3 {
                e.pull_round_on(
                    &active,
                    |_, &s| s,
                    |_, st, pulled| {
                        if let Some(p) = pulled {
                            *st = fold_hash(*st, p);
                        }
                    },
                );
                e.push_round_on(
                    &active,
                    |_, &s| Some(s),
                    |_, st, msg| *st = fold_hash(*st, msg),
                    |_, _, _| {},
                );
                e.push_pull_round_on(&active, |_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
            }
            (e.states().to_vec(), e.metrics())
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// `swap_runs` itself, against the per-slot reference, for arbitrary
    /// sorted id sets over an arbitrary chunk base.
    fn swap_runs_matches_per_slot_swap(
        shape in (1usize..200, 0usize..50),
        picks in proptest::collection::vec(0usize..200, 0..100),
    ) {
        let (len, base) = shape;
        let mut ids: Vec<u32> = picks.into_iter().filter(|&i| i < len).map(|i| (i + base) as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut a: Vec<u64> = (0..len as u64).collect();
        let mut b: Vec<u64> = (0..len as u64).map(|v| v.wrapping_mul(97).wrapping_add(13)).collect();
        let (mut a_ref, mut b_ref) = (a.clone(), b.clone());
        for &id in &ids {
            let i = id as usize - base;
            std::mem::swap(&mut a_ref[i], &mut b_ref[i]);
        }
        soa::swap_runs(&ids, base, &mut a, &mut b);
        prop_assert_eq!(a, a_ref);
        prop_assert_eq!(b, b_ref);
    }

    /// The flat column-major sample matrix holds exactly the samples of the
    /// nested `collect_samples` layout — same values, same round order, same
    /// metrics — under arbitrary failure rates.
    fn flat_sample_matrix_matches_nested_collection(
        size in (16usize..600, 0u64..1_000_000),
        k in 1usize..6,
        fail_p in proptest::f64_range(0.0, 0.4),
    ) {
        let (n, seed) = size;
        let mut nested_engine = engine(n, seed, failure_for(fail_p));
        let nested = nested_engine.collect_samples(k, |_, &s| s);
        let mut flat_engine = engine(n, seed, failure_for(fail_p));
        let flat = flat_engine.collect_samples_flat(k, |_, &s| s);
        prop_assert_eq!(nested_engine.metrics(), flat_engine.metrics());
        for (v, nested_row) in nested.iter().enumerate() {
            let row: Vec<u64> = flat.row(v).copied().collect();
            prop_assert_eq!(nested_row, &row, "node {}", v);
            prop_assert_eq!(flat.count(v), nested_row.len());
        }
    }
}

/// The block loop's edge cases — block ≥ chunk, block = 1, and a block that
/// straddles the parallel chunk boundary — pinned explicitly on top of the
/// random sweep.
#[test]
fn pull_block_edge_cases_match_reference() {
    for block in [1, 7, 1 << 14, usize::MAX / 2] {
        let reference = pull_rounds(&mut engine(300, 5, FailureModel::None), 4, true);
        let mut e = engine(300, 5, FailureModel::None);
        e.set_copy_block(block);
        let blocked = pull_rounds(&mut e, 4, false);
        assert_eq!(reference, blocked, "block = {block}");
    }
}

/// A prefetch distance beyond every batch and pair list is a no-op hint, not
/// an out-of-bounds access.
#[test]
fn oversized_prefetch_distance_is_harmless() {
    let reference = pull_rounds(&mut engine(200, 9, FailureModel::None), 4, true);
    let mut e = engine(200, 9, FailureModel::None);
    e.set_prefetch_dist(1 << 20);
    let far = pull_rounds(&mut e, 4, false);
    assert_eq!(reference, far);
}
