//! Sparse/dense equivalence pins and active-set round properties.
//!
//! Two layers of evidence that the sparse execution paths are faithful:
//!
//! 1. **Equivalence pins** — every `*_on` primitive, run over
//!    [`ActiveSet::full`], reproduces the *same* golden fingerprints pinned in
//!    `tests/data/goldens.txt` for the dense engine (the scenarios are
//!    identical, so both suites read the same keys; regenerate with
//!    `cargo run -p gossip-net --example regen_goldens -- --write`).
//! 2. **Property tests** — over partial active sets: inactive nodes are
//!    untouched (pull), push receivers are exactly the reported set, sparse
//!    and dense runs agree wherever dense activity is emulated with silent
//!    senders, and metrics count participants instead of `n`.
//!
//! Every test runs at `par::num_threads()` workers, so CI's 1/2/3/8-thread
//! matrix exercises the sparse dispatch at each thread count.

#[path = "support/goldens.rs"]
mod support;

use gossip_net::{
    par, ActiveSet, ChurnModel, Engine, EngineConfig, FailureModel, FaultPlan, LossModel,
    RoundKind, StragglerModel,
};
use proptest::prelude::*;
use rand::Rng;
use support::{
    chaos_plan, engine, fingerprint, fold_hash, metrics_line, pinned, sample_fp,
    sparse_pull_rounds, sparse_push_pull_rounds, sparse_push_rounds,
};

// ---------------------------------------------------------------------------
// Equivalence pins: sparse over the FULL set == the dense golden constants.
// ---------------------------------------------------------------------------

#[test]
fn full_set_pull_matches_dense_golden_pin() {
    let mut e = engine(512, 101, FailureModel::None);
    sparse_pull_rounds(&mut e, &ActiveSet::full(512), 8);
    assert_eq!(metrics_line(&e), pinned("pull.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull.fp"));
}

#[test]
fn full_set_pull_with_failures_matches_dense_golden_pin() {
    let mut e = engine(512, 101, FailureModel::uniform(0.3).unwrap());
    sparse_pull_rounds(&mut e, &ActiveSet::full(512), 8);
    assert_eq!(metrics_line(&e), pinned("pull_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull_failures.fp"));
}

#[test]
fn full_set_push_matches_dense_golden_pin() {
    let mut e = engine(512, 202, FailureModel::None);
    sparse_push_rounds(&mut e, &ActiveSet::full(512), 8);
    assert_eq!(metrics_line(&e), pinned("push.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push.fp"));
}

#[test]
fn full_set_push_with_failures_matches_dense_golden_pin() {
    let mut e = engine(512, 202, FailureModel::uniform(0.3).unwrap());
    sparse_push_rounds(&mut e, &ActiveSet::full(512), 8);
    assert_eq!(metrics_line(&e), pinned("push_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push_failures.fp"));
}

#[test]
fn full_set_push_pull_matches_dense_golden_pin() {
    let mut e = engine(512, 303, FailureModel::None);
    sparse_push_pull_rounds(&mut e, &ActiveSet::full(512), 8);
    assert_eq!(metrics_line(&e), pinned("push_pull.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push_pull.fp"));
}

#[test]
fn full_set_push_pull_with_failures_matches_dense_golden_pin() {
    let mut e = engine(512, 303, FailureModel::uniform(0.3).unwrap());
    sparse_push_pull_rounds(&mut e, &ActiveSet::full(512), 8);
    assert_eq!(metrics_line(&e), pinned("push_pull_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push_pull_failures.fp"));
}

#[test]
fn full_set_collect_samples_matches_dense_golden_pin() {
    let mut e = engine(512, 404, FailureModel::None);
    let samples = e.collect_samples_on(&ActiveSet::full(512), 3, |_, &s| s);
    assert_eq!(metrics_line(&e), pinned("collect.metrics"));
    assert_eq!(sample_fp(&samples), pinned("collect.sample_fp"));
}

#[test]
fn full_set_collect_samples_with_failures_matches_dense_golden_pin() {
    let mut e = engine(512, 404, FailureModel::uniform(0.4).unwrap());
    let samples = e.collect_samples_on(&ActiveSet::full(512), 3, |_, &s| s);
    assert_eq!(metrics_line(&e), pinned("collect_failures.metrics"));
    assert_eq!(sample_fp(&samples), pinned("collect_failures.sample_fp"));
}

#[test]
fn full_set_local_step_matches_dense_golden_pin() {
    let mut e = engine(512, 505, FailureModel::None);
    let full = ActiveSet::full(512);
    for _ in 0..4 {
        e.local_step_on(&full, |v, st, rng| {
            *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
            if rng.gen::<f64>() < 0.25 {
                *st = st.rotate_right(3);
            }
        });
    }
    assert_eq!(metrics_line(&e), pinned("local_step.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("local_step.fp"));
}

#[test]
fn full_set_large_n_matches_dense_golden_pin() {
    // The 20k scenario of golden.rs: at multi-thread runs of the CI matrix,
    // the *dense* engine splits push deliveries by owner range here; the sparse full-set
    // run must land on the identical trajectory through its pair-sort
    // bucketing.
    let mut e = engine(20_000, 707, FailureModel::None);
    let full = ActiveSet::full(20_000);
    sparse_pull_rounds(&mut e, &full, 2);
    sparse_push_rounds(&mut e, &full, 2);
    sparse_push_pull_rounds(&mut e, &full, 2);
    assert_eq!(metrics_line(&e), pinned("large.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("large.fp"));
}

// ---------------------------------------------------------------------------
// Property tests over partial active sets.
//
// Generated by the `proptest` harness (seeded, shrink-on-failure): network
// size, seed and active-set shape are drawn per case instead of being fixed
// constants, so the invariants are exercised across many subset geometries.
// Override the generator seed with `PROPTEST_SEED`.
// ---------------------------------------------------------------------------

proptest! {
    /// A dense run in which inactive nodes are *explicitly* idle must match
    /// the sparse run over the active subset exactly: dense push with
    /// `make -> None` for inactive nodes draws nothing for them, which is
    /// precisely what the sparse path skips.
    fn sparse_push_matches_dense_with_silent_inactive_senders(
        n in 16usize..600,
        seed in 0u64..1_000_000,
        m in 2usize..8,
    ) {
        let active = ActiveSet::from_fn(n, |v| v % m == 0);
        let is_active = |v: usize| v % m == 0;

        let mut dense = engine(n, seed, FailureModel::uniform(0.2).unwrap());
        for _ in 0..3 {
            dense.push_round(
                |v, &s| if is_active(v) { Some(s) } else { None },
                |_, st, msg| *st = fold_hash(*st, msg),
                |v, st, delivered| {
                    if is_active(v) && !delivered {
                        *st = st.wrapping_add(1);
                    }
                },
            );
        }

        let mut sparse = engine(n, seed, FailureModel::uniform(0.2).unwrap());
        for _ in 0..3 {
            sparse.push_round_on(
                &active,
                |_, &s| Some(s),
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if !delivered {
                        *st = st.wrapping_add(1);
                    }
                },
            );
        }

        prop_assert_eq!(dense.states(), sparse.states());
        let (dm, sm) = (dense.metrics(), sparse.metrics());
        prop_assert_eq!(dm.pushes_attempted, sm.pushes_attempted);
        prop_assert_eq!(dm.messages_delivered, sm.messages_delivered);
        prop_assert_eq!(dm.failed_operations, sm.failed_operations);
        // The *activity* accounting differs by design: dense rounds count n
        // participants, sparse rounds count the active-set size.
        prop_assert_eq!(dm.active_nodes_total, 3 * n as u64);
        prop_assert_eq!(sm.active_nodes_total, 3 * active.len() as u64);
        prop_assert_eq!(sm.max_active, active.len() as u64);
    }

    fn sparse_pull_leaves_inactive_nodes_untouched(
        n in 16usize..600,
        seed in 0u64..1_000_000,
        m in 2usize..9,
    ) {
        let active = ActiveSet::from_members(n, (0..n).filter(|v| v % m == 1)).unwrap();
        let mut e = engine(n, seed, FailureModel::None);
        let before = e.states().to_vec();
        for _ in 0..3 {
            e.pull_round_on(
                &active,
                |_, &s| s,
                |_, st, p| {
                    if let Some(p) = p {
                        *st = fold_hash(*st, p);
                    }
                },
            );
        }
        let mut changed = 0;
        for (v, (&b, &a)) in before.iter().zip(e.states()).enumerate() {
            if active.contains(v) {
                changed += usize::from(a != b);
            } else {
                prop_assert_eq!(a, b, "inactive node {} was written", v);
            }
        }
        // Pulling folds a hash; active nodes all change with overwhelming
        // probability.
        prop_assert_eq!(changed, active.len());
        prop_assert_eq!(e.metrics().active_of(RoundKind::Pull), 3 * active.len() as u64);
    }

    fn sparse_push_reports_exactly_the_changed_receivers(
        n in 32usize..800,
        seed in 0u64..1_000_000,
        stride in 1usize..20,
    ) {
        let active = ActiveSet::from_members(n, (0..n).step_by(stride)).unwrap();
        let mut e = Engine::from_states(vec![0u64; n], EngineConfig::with_seed(seed));
        e.set_threads(par::num_threads());
        let before = e.states().to_vec();
        let out = e.push_round_on(
            &active,
            |v, _| Some(v as u64 + 1),
            |_, st, msg| *st += msg,
            |_, _, _| {},
        );
        prop_assert_eq!(out.failed, 0);
        // Receivers are sorted, unique, and exactly the nodes whose state
        // moved.
        prop_assert!(out.receivers.windows(2).all(|w| w[0] < w[1]));
        for (v, (&b, &a)) in before.iter().zip(e.states()).enumerate() {
            prop_assert_eq!(a != b, out.receivers.contains(&v), "node {}", v);
        }
        // Conservation: every active sender's message landed somewhere.
        let total: u64 = e.states().iter().sum();
        let expected: u64 = active.iter().map(|v| v as u64 + 1).sum();
        prop_assert_eq!(total, expected);
    }

    fn sparse_push_pull_only_actives_pull_but_anyone_receives(
        n in 16usize..400,
        seed in 0u64..1_000_000,
        stride in 1usize..12,
    ) {
        let active = ActiveSet::from_members(n, (0..n).step_by(stride)).unwrap();
        let mut e = Engine::from_states(vec![Vec::<u64>::new(); n], EngineConfig::with_seed(seed));
        e.set_threads(par::num_threads());
        let out = e.push_pull_round_on(&active, |t, _| t as u64, |_, st, msg| st.push(msg));
        prop_assert_eq!(out.failed, 0);
        // Each active node merges exactly its one pulled message; every push
        // lands on some node (possibly colliding), so the merge count is
        // conserved at two per active node.
        let merges: usize = e.states().iter().map(Vec::len).sum();
        prop_assert_eq!(merges, 2 * active.len());
        for (v, st) in e.states().iter().enumerate() {
            let pulled = usize::from(active.contains(v));
            let pushed = usize::from(out.receivers.contains(&v));
            prop_assert!(
                st.len() >= pulled + pushed,
                "node {}: expected at least pull={} push={} merges, got {}",
                v, pulled, pushed, st.len()
            );
            if !active.contains(v) && !out.receivers.contains(&v) {
                prop_assert!(st.is_empty(), "idle node {} was written", v);
            }
        }
        let m = e.metrics();
        prop_assert_eq!(m.pulls_attempted, active.len() as u64);
        prop_assert_eq!(m.pushes_attempted, active.len() as u64);
        prop_assert_eq!(m.active_of(RoundKind::PushPull), active.len() as u64);
    }

    fn collect_samples_on_returns_compact_buckets(
        dims in (8usize..300, 0u64..1_000_000),
        k in 1usize..5,
        raw in collection::vec(0u64..100_000, 1..12),
    ) {
        let (n, seed) = dims;
        let active = ActiveSet::from_members(n, raw.iter().map(|&r| r as usize % n)).unwrap();
        let mut e = engine(n, seed, FailureModel::None);
        let initial = e.states().to_vec();
        let samples = e.collect_samples_on(&active, k, |_, &s| s);
        prop_assert_eq!(samples.len(), active.len());
        prop_assert!(samples.iter().all(|b| b.len() == k));
        prop_assert_eq!(e.metrics().rounds, k as u64);
        prop_assert_eq!(e.metrics().active_nodes_total, (k * active.len()) as u64);
        // Rank lookup maps node ids into the compact layout.
        for (r, v) in active.iter().enumerate() {
            prop_assert_eq!(active.rank(v), Some(r));
        }
        // States untouched.
        prop_assert_eq!(e.states(), initial.as_slice());
    }

    fn local_step_on_runs_only_the_members(
        n in 16usize..256,
        seed in 0u64..1_000_000,
        cut in 1usize..16,
    ) {
        let active = ActiveSet::from_fn(n, |v| v < cut);
        let mut e = engine(n, seed, FailureModel::None);
        let before = e.states().to_vec();
        e.local_step_on(&active, |v, st, _| *st = v as u64);
        for (v, &b) in before.iter().enumerate() {
            if v < cut {
                prop_assert_eq!(e.states()[v], v as u64);
            } else {
                prop_assert_eq!(e.states()[v], b);
            }
        }
    }

    fn empty_active_set_rounds_are_no_ops_that_still_count_rounds(
        n in 2usize..128,
        seed in 0u64..1_000_000,
    ) {
        let empty = ActiveSet::from_members(n, std::iter::empty()).unwrap();
        let mut e = engine(n, seed, FailureModel::None);
        let before = e.states().to_vec();
        let failed = e.pull_round_on(&empty, |_, &s| s, |_, _, _| {});
        prop_assert_eq!(failed, 0);
        let out = e.push_round_on(&empty, |_, &s| Some(s), |_, _, _| {}, |_, _, _| {});
        prop_assert!(out.receivers.is_empty());
        prop_assert_eq!(e.states(), before.as_slice());
        prop_assert_eq!(e.round(), 2);
        prop_assert_eq!(e.metrics().rounds, 2);
        prop_assert_eq!(e.metrics().active_nodes_total, 0);
        prop_assert_eq!(e.metrics().max_active, 0);
    }

    /// The copy-on-write commit must leave the front buffer fully current, so
    /// a dense round after a sparse one (and vice versa) sees every node's
    /// latest value. Compare against an all-dense emulation.
    fn sparse_and_dense_rounds_interleave_freely(
        n in 16usize..500,
        seed in 0u64..1_000_000,
        m in 2usize..8,
    ) {
        let active = ActiveSet::from_fn(n, |v| v % m == 0);
        let is_active = |v: usize| v % m == 0;

        let run_mixed = |sparse: bool| {
            let mut e = engine(n, seed, FailureModel::uniform(0.1).unwrap());
            for _ in 0..2 {
                // Dense pull (all nodes).
                e.pull_round(
                    |_, &s| s,
                    |_, st, p| {
                        if let Some(p) = p {
                            *st = fold_hash(*st, p);
                        }
                    },
                );
                // Sparse push from the subset vs dense push with silent
                // others.
                if sparse {
                    e.push_round_on(
                        &active,
                        |_, &s| Some(s),
                        |_, st, msg| *st = fold_hash(*st, msg),
                        |_, _, _| {},
                    );
                } else {
                    e.push_round(
                        |v, &s| if is_active(v) { Some(s) } else { None },
                        |_, st, msg| *st = fold_hash(*st, msg),
                        |_, _, _| {},
                    );
                }
            }
            e.into_states()
        };
        prop_assert_eq!(run_mixed(true), run_mixed(false));
    }
}

// ---------------------------------------------------------------------------
// ActiveSet algebra: union_sorted / rank against the dense bitmap oracle.
// ---------------------------------------------------------------------------

/// Reduces a raw draw to a strictly increasing member list in `0..n`.
fn sorted_members(n: usize, raw: &[u64]) -> Vec<usize> {
    let mut m: Vec<usize> = raw.iter().map(|&r| r as usize % n).collect();
    m.sort_unstable();
    m.dedup();
    m
}

proptest! {
    fn union_sorted_matches_from_members_and_is_idempotent(
        n in 1usize..512,
        raw in collection::vec(0u64..100_000, 0..64),
    ) {
        let members = sorted_members(n, &raw);
        let expect = ActiveSet::from_members(n, members.iter().copied()).unwrap();
        let mut set = ActiveSet::from_members(n, std::iter::empty()).unwrap();
        set.union_sorted(&members);
        prop_assert_eq!(&set, &expect);
        // Unioning the same list again changes nothing.
        set.union_sorted(&members);
        prop_assert_eq!(&set, &expect);
    }

    fn union_sorted_commutes_and_agrees_with_the_dense_bitmap(
        n in 1usize..512,
        raw_a in collection::vec(0u64..100_000, 0..48),
        raw_b in collection::vec(0u64..100_000, 0..48),
    ) {
        let a = sorted_members(n, &raw_a);
        let b = sorted_members(n, &raw_b);
        let mut ab = ActiveSet::from_members(n, a.iter().copied()).unwrap();
        ab.union_sorted(&b);
        let mut ba = ActiveSet::from_members(n, b.iter().copied()).unwrap();
        ba.union_sorted(&a);
        prop_assert_eq!(&ab, &ba);
        let dense = ActiveSet::from_fn(n, |v| {
            a.binary_search(&v).is_ok() || b.binary_search(&v).is_ok()
        });
        prop_assert_eq!(&ab, &dense);
    }

    fn rank_is_the_position_in_indices(
        n in 1usize..400,
        raw in collection::vec(0u64..100_000, 0..64),
    ) {
        let members = sorted_members(n, &raw);
        let set = ActiveSet::from_members(n, members.iter().copied()).unwrap();
        for (r, v) in set.iter().enumerate() {
            prop_assert_eq!(set.rank(v), Some(r));
        }
        for v in 0..n {
            if !set.contains(v) {
                prop_assert_eq!(set.rank(v), None);
            }
        }
        // `indices()` and `iter()` agree and are strictly increasing.
        let ids = set.indices();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(ids.len(), members.len());
    }
}

// ---------------------------------------------------------------------------
// Fault-active scenarios: the sparse faulty paths against the dense ones.
// ---------------------------------------------------------------------------

fn fault_engine(n: usize, seed: u64) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).fault(chaos_plan());
    let mut e = Engine::from_states((0..n as u64).map(|v| v.wrapping_mul(31)).collect(), config);
    e.set_threads(par::num_threads());
    e
}

/// Sparse rounds over the FULL active set take the same per-contact fault
/// decisions (same counter-keyed coins) as the dense engine, so the two
/// trajectories must be bit-identical — including the straggler buffers.
#[test]
fn full_set_fault_rounds_match_dense_fault_rounds() {
    full_vs_dense_fault_case(1000, 77).unwrap();
}

proptest! {
    /// The same full-set/dense equivalence, over generated sizes and seeds.
    fn full_set_fault_rounds_match_dense_fault_rounds_generated(
        n in 200usize..1000,
        seed in 0u64..1_000_000,
    ) {
        full_vs_dense_fault_case(n, seed)?;
    }
}

fn full_vs_dense_fault_case(n: usize, seed: u64) -> proptest::TestCaseResult {
    let full = ActiveSet::full(n);

    let mut dense = fault_engine(n, seed);
    let mut sparse = fault_engine(n, seed);
    for _ in 0..4 {
        dense.pull_round(
            |_, &s| s,
            |_, st, p| {
                if let Some(p) = p {
                    *st = fold_hash(*st, p);
                }
            },
        );
        sparse.pull_round_on(
            &full,
            |_, &s| s,
            |_, st, p| {
                if let Some(p) = p {
                    *st = fold_hash(*st, p);
                }
            },
        );
        dense.push_round(
            |v, &s| if v % 5 == 0 { None } else { Some(s) },
            |_, st, msg| *st = fold_hash(*st, msg),
            |_, st, delivered| {
                if !delivered {
                    *st = st.wrapping_add(1);
                }
            },
        );
        sparse.push_round_on(
            &full,
            |v, &s| if v % 5 == 0 { None } else { Some(s) },
            |_, st, msg| *st = fold_hash(*st, msg),
            |_, st, delivered| {
                if !delivered {
                    *st = st.wrapping_add(1);
                }
            },
        );
        dense.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
        sparse.push_pull_round_on(&full, |_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
    }

    prop_assert_eq!(dense.states(), sparse.states());
    prop_assert_eq!(dense.crashed_nodes(), sparse.crashed_nodes());
    prop_assert_eq!(dense.delayed_in_flight(), sparse.delayed_in_flight());
    let (dm, sm) = (dense.metrics(), sparse.metrics());
    prop_assert!(dm.crashed_operations > 0, "churn did not fire");
    prop_assert!(dm.messages_dropped > 0, "loss did not fire");
    prop_assert!(dm.messages_delayed > 0, "stragglers did not fire");
    prop_assert_eq!(dm.crashed_operations, sm.crashed_operations);
    prop_assert_eq!(dm.messages_dropped, sm.messages_dropped);
    prop_assert_eq!(dm.messages_delayed, sm.messages_delayed);
    prop_assert_eq!(dm.messages_delivered, sm.messages_delivered);
    prop_assert_eq!(dm.failed_operations, sm.failed_operations);
    Ok(())
}

proptest! {
    /// Under stragglers, a sparse push round's reported receivers include the
    /// late arrivals drained that round — still sorted, unique, and exactly
    /// the nodes whose state changed.
    fn sparse_push_receivers_include_drained_stragglers(
        n in 90usize..600,
        seed in 0u64..1_000_000,
    ) {
        let active = ActiveSet::from_fn(n, |v| v % 3 == 0);
        let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.5, 1).unwrap());
        let mut e = Engine::from_states(vec![0u64; n], EngineConfig::with_seed(seed).fault(plan));
        e.set_threads(par::num_threads());
        let mut total_received = 0u64;
        for _ in 0..4 {
            let before = e.states().to_vec();
            let out = e.push_round_on(
                &active,
                |_, _| Some(1u64),
                |_, st, msg| *st += msg,
                |_, _, _| {},
            );
            prop_assert!(out.receivers.windows(2).all(|w| w[0] < w[1]));
            for (v, (&b, &a)) in before.iter().zip(e.states()).enumerate() {
                prop_assert_eq!(a != b, out.receivers.contains(&v), "node {}", v);
            }
            total_received = e.states().iter().sum();
        }
        // Every delivery (in-round or drained) incremented exactly one
        // counter.
        prop_assert_eq!(total_received, e.metrics().messages_delivered);
        // With delay 1 and four rounds, something straggled and something
        // drained.
        prop_assert!(e.metrics().messages_delayed > 0);
        prop_assert!(total_received > 0);
    }

    /// Sparse collect_samples under churn and loss: buckets stay within `k`,
    /// states untouched, and the crashed set is visible mid-protocol.
    fn collect_samples_on_under_faults_thins_buckets(
        n in 100usize..500,
        seed in 0u64..1_000_000,
    ) {
        let active = ActiveSet::from_fn(n, |v| v % 2 == 0);
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::with_rejoin(0.2, 1).unwrap())
            .with_loss(LossModel::uniform(0.3).unwrap());
        let mut e = Engine::from_states(
            (0..n as u64).collect(),
            EngineConfig::with_seed(seed).fault(plan),
        );
        e.set_threads(par::num_threads());
        let initial = e.states().to_vec();
        let samples = e.collect_samples_on(&active, 4, |_, &s| s);
        prop_assert_eq!(samples.len(), active.len());
        prop_assert!(samples.iter().all(|b| b.len() <= 4));
        let total: usize = samples.iter().map(Vec::len).sum();
        prop_assert!(total < 4 * active.len());
        prop_assert!(total > 0);
        prop_assert_eq!(e.states(), initial.as_slice());
        prop_assert!(e.metrics().messages_dropped > 0);
    }
}

#[test]
#[should_panic(expected = "ActiveSet was built for a")]
fn mismatched_active_set_size_panics() {
    let mut e = engine(64, 1, FailureModel::None);
    let wrong = ActiveSet::full(65);
    e.pull_round_on(&wrong, |_, &s| s, |_, _, _| {});
}
