//! Program-replay equivalence: the golden trajectories of `tests/golden.rs`,
//! re-executed through [`RoundProgram`] / [`Engine::fused`], must reproduce
//! the **same pinned fingerprints** — fusing a schedule into one resident
//! pool dispatch is a scheduling change, never a semantic one.
//!
//! On top of the pins, the suite checks the composition laws that make fused
//! execution safe to adopt incrementally: a program split at any cut point
//! into two sequential fused runs equals both the unsplit program and the
//! plain loop, and a whole program costs a single pool dispatch where the
//! loop pays one per round.
//!
//! Every test runs at `par::num_threads()`, so CI's `GOSSIP_NUM_THREADS`
//! matrix (crossed with `GOSSIP_SPIN_US` for the spin-vs-park barrier paths)
//! checks each pin at 1/2/3/8 threads.

#[path = "support/goldens.rs"]
mod support;

use gossip_net::{Engine, EngineConfig, FailureModel, Metrics, RoundProgram, StepKind};
use rand::Rng;
use support::{
    chaos_plan, engine, fault_metrics_line, fingerprint, fold_hash, initial_states, metrics_line,
    mixed_iteration, pinned,
};

/// Records `rounds` copies of the golden pull-round body.
fn record_pulls(p: &mut RoundProgram<'_, u64>, rounds: usize) {
    for _ in 0..rounds {
        p.pull(
            |_, &s| s,
            |_, st, pulled| {
                if let Some(pl) = pulled {
                    *st = fold_hash(*st, pl);
                }
            },
        );
    }
}

/// Records `rounds` copies of the golden push-round body.
fn record_pushes(p: &mut RoundProgram<'_, u64>, rounds: usize) {
    for _ in 0..rounds {
        p.push(
            |v, &s| if v % 5 == 0 { None } else { Some(s) },
            |_, st, msg| *st = fold_hash(*st, msg),
            |_, st, delivered| {
                if !delivered {
                    *st = st.wrapping_add(1);
                }
            },
        );
    }
}

/// Records `rounds` copies of the golden push–pull-round body.
fn record_push_pulls(p: &mut RoundProgram<'_, u64>, rounds: usize) {
    for _ in 0..rounds {
        p.push_pull(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
    }
}

#[test]
fn golden_pull_replays_through_a_program() {
    let mut e = engine(512, 101, FailureModel::None);
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_pulls(&mut p, 8);
    e.run_program(&mut p);
    assert_eq!(metrics_line(&e), pinned("pull.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull.fp"));
}

#[test]
fn golden_pull_with_failures_replays_through_a_program() {
    let mut e = engine(512, 101, FailureModel::uniform(0.3).unwrap());
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_pulls(&mut p, 8);
    e.run_program(&mut p);
    assert_eq!(metrics_line(&e), pinned("pull_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull_failures.fp"));
}

#[test]
fn golden_push_replays_through_a_program() {
    let mut e = engine(512, 202, FailureModel::None);
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_pushes(&mut p, 8);
    e.run_program(&mut p);
    assert_eq!(metrics_line(&e), pinned("push.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push.fp"));
}

#[test]
fn golden_push_pull_replays_through_a_program() {
    let mut e = engine(512, 303, FailureModel::None);
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_push_pulls(&mut p, 8);
    e.run_program(&mut p);
    assert_eq!(metrics_line(&e), pinned("push_pull.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push_pull.fp"));
}

#[test]
fn golden_mixed_sequence_replays_through_fused() {
    // The broadest pinned trajectory — all five primitives, failure
    // injection on — executed inside one fused session. `mixed_iteration`'s
    // collect feeds the same iteration's local step, so this also covers
    // sequential session-thread work between resident phases.
    let mut e = engine(600, 606, FailureModel::uniform(0.2).unwrap());
    e.fused(|e| {
        for _ in 0..3 {
            mixed_iteration(e);
        }
    });
    assert_eq!(metrics_line(&e), pinned("mixed.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("mixed.fp"));
}

#[test]
fn golden_faulted_mixed_replays_through_fused() {
    // The full chaos plan (churn, loss, stragglers, failures) under a fused
    // session: the fault-injection randomness contract must survive
    // residency exactly as it survives thread counts.
    let config = EngineConfig::with_seed(909).fault(chaos_plan());
    let mut e = Engine::from_states(initial_states(600), config);
    e.set_threads(gossip_net::par::num_threads());
    e.fused(|e| {
        for _ in 0..3 {
            mixed_iteration(e);
        }
    });
    assert_eq!(metrics_line(&e), pinned("faulted_mixed.metrics"));
    assert_eq!(fault_metrics_line(&e), pinned("faulted_mixed.faults"));
    assert_eq!(fingerprint(e.states()), pinned("faulted_mixed.fp"));
}

#[test]
fn golden_large_n_replays_through_a_program() {
    // Large enough that multi-thread CI matrix entries take the owner-range
    // push delivery *inside resident phases*.
    let mut e = engine(20_000, 707, FailureModel::None);
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_pulls(&mut p, 2);
    record_pushes(&mut p, 2);
    record_push_pulls(&mut p, 2);
    e.run_program(&mut p);
    assert_eq!(metrics_line(&e), pinned("large.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("large.fp"));
}

// --- cut-point splits -------------------------------------------------------

/// The step alphabet of the split tests; a schedule is a word over it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Pull,
    Push,
    PushPull,
    Local,
    Collect,
}

const OPS: [Op; 5] = [Op::Pull, Op::Push, Op::PushPull, Op::Local, Op::Collect];

/// Executes one op directly — the loop baseline.
fn run_op(e: &mut Engine<u64>, op: Op) {
    match op {
        Op::Pull => {
            e.pull_round(
                |_, &s| s,
                |_, st, pulled| {
                    if let Some(p) = pulled {
                        *st = fold_hash(*st, p);
                    }
                },
            );
        }
        Op::Push => {
            e.push_round(
                |v, &s| if v % 3 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if !delivered {
                        *st = st.wrapping_add(1);
                    }
                },
            );
        }
        Op::PushPull => {
            e.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
        }
        Op::Local => {
            e.local_step(|v, st, rng| {
                *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
            });
        }
        Op::Collect => {
            let samples = e.collect_samples_flat(2, |_, &s| s);
            e.local_step(|v, st, _| {
                if let Some(s) = samples.sample(v, 0) {
                    *st = fold_hash(*st, s);
                }
                if let Some(s) = samples.sample(v, 1) {
                    *st = fold_hash(*st, s);
                }
            });
        }
    }
}

/// Records the same op into a program.
fn record_op(p: &mut RoundProgram<'_, u64>, op: Op) {
    match op {
        Op::Pull => {
            p.pull(
                |_, &s| s,
                |_, st, pulled| {
                    if let Some(pl) = pulled {
                        *st = fold_hash(*st, pl);
                    }
                },
            );
        }
        Op::Push => {
            p.push(
                |v, &s| if v % 3 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if !delivered {
                        *st = st.wrapping_add(1);
                    }
                },
            );
        }
        Op::PushPull => {
            p.push_pull(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
        }
        Op::Local => {
            p.local_step(|v, st, rng| {
                *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
            });
        }
        Op::Collect => {
            p.collect_local(
                2,
                |_, &s| s,
                |v, st, _, samples| {
                    if let Some(s) = samples.sample(v, 0) {
                        *st = fold_hash(*st, s);
                    }
                    if let Some(s) = samples.sample(v, 1) {
                        *st = fold_hash(*st, s);
                    }
                },
            );
        }
    }
}

fn run_ops_as_split_programs(n: usize, seed: u64, ops: &[Op], cut: usize) -> (Vec<u64>, Metrics) {
    let mut e = engine(n, seed, FailureModel::uniform(0.2).unwrap());
    let mut head: RoundProgram<'_, u64> = RoundProgram::new();
    for &op in &ops[..cut] {
        record_op(&mut head, op);
    }
    let mut tail: RoundProgram<'_, u64> = RoundProgram::new();
    for &op in &ops[cut..] {
        record_op(&mut tail, op);
    }
    e.run_program(&mut head);
    e.run_program(&mut tail);
    let metrics = e.metrics();
    (e.into_states(), metrics)
}

#[test]
fn programs_split_at_any_cut_point_match_the_loop() {
    // Property-style schedule generation without a proptest dependency: the
    // op word and the exercised cut points are drawn from the same splitmix
    // finalizer the fingerprints use, so the cases are reproducible yet
    // arbitrary. Every split of the word into two sequentially fused
    // programs must equal the hand-rolled loop bit for bit — fusion has no
    // memory across session boundaries.
    let n = 500;
    let seed = 4242;
    let ops: Vec<Op> = (0..12)
        .map(|i| OPS[(support::mix64(seed ^ i) % OPS.len() as u64) as usize])
        .collect();

    let mut looped = engine(n, seed, FailureModel::uniform(0.2).unwrap());
    for &op in &ops {
        run_op(&mut looped, op);
    }
    let loop_metrics = looped.metrics();
    let baseline = (looped.into_states(), loop_metrics);

    // Both degenerate cuts (empty head / empty tail), plus pseudo-random
    // interior ones.
    let mut cuts = vec![0, ops.len()];
    cuts.extend((0..4).map(|i| (support::mix64(seed.wrapping_add(100 + i)) as usize) % ops.len()));
    for cut in cuts {
        let split = run_ops_as_split_programs(n, seed, &ops, cut);
        assert_eq!(
            split,
            baseline,
            "split at {cut}/{} diverged from the loop",
            ops.len()
        );
    }
}

// --- scheduling-counter contract --------------------------------------------

#[test]
fn a_program_costs_one_dispatch_where_the_loop_pays_per_round() {
    // The point of the whole layer, asserted on the engine's own metrics: a
    // 16-round recorded schedule is one pool dispatch; the identical loop
    // pays at least one per round. (Workers are required — the inline
    // single-thread path has no hand-off to count.)
    let rounds = 16;
    let run = |fuse: bool| {
        let mut e = engine(512, 1313, FailureModel::None);
        e.set_threads(2);
        let before = e.metrics().pool_dispatches;
        let mut p: RoundProgram<'_, u64> = RoundProgram::new();
        record_pulls(&mut p, rounds);
        if fuse {
            e.run_program(&mut p);
        } else {
            for _ in 0..rounds {
                run_op(&mut e, Op::Pull);
            }
        }
        let m = e.metrics();
        (m.pool_dispatches - before, e.into_states())
    };
    let (program_dispatches, program_states) = run(true);
    let (loop_dispatches, loop_states) = run(false);
    assert_eq!(program_states, loop_states);
    assert_eq!(program_dispatches, 1, "a session is one hand-off");
    assert!(
        loop_dispatches >= rounds as u64,
        "looped dispatches {loop_dispatches} < {rounds} rounds"
    );
}

#[test]
fn scheduling_counters_do_not_affect_metrics_equality() {
    // The determinism suites compare `Metrics` across runs whose scheduling
    // differs (fused vs looped, 1 vs 8 threads); the == contract must ignore
    // the dispatch/wakeup counters or every such comparison would be flaky.
    let run = |fuse: bool| {
        let mut e = engine(256, 77, FailureModel::None);
        e.set_threads(2);
        let mut p: RoundProgram<'_, u64> = RoundProgram::new();
        record_pulls(&mut p, 4);
        if fuse {
            e.run_program(&mut p);
        } else {
            for _ in 0..4 {
                run_op(&mut e, Op::Pull);
            }
        }
        e.metrics()
    };
    let fused = run(true);
    let looped = run(false);
    assert_eq!(fused, looped);
    assert_ne!(fused.pool_dispatches, looped.pool_dispatches);
}

#[test]
fn step_kinds_describe_the_recorded_schedule() {
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_op(&mut p, Op::Pull);
    record_op(&mut p, Op::Collect);
    p.step(StepKind::Custom, |_| {});
    let kinds: Vec<String> = p.kinds().map(|k| k.to_string()).collect();
    assert_eq!(kinds, ["pull", "collect", "custom"]);
}
