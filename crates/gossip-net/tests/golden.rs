//! Golden-trajectory pins: exact fingerprints of engine executions.
//!
//! The determinism suite (`tests/determinism.rs`) proves runs are identical
//! *across thread counts*; this suite pins them to fixed hex values, so a perf
//! refactor of the round internals (pass fusion, buffer reuse, RNG keying
//! shortcuts) can *prove* it is bit-identical to the previous engine rather
//! than only self-consistent.
//!
//! The pinned constants live in `tests/data/goldens.txt`, shared with the
//! sparse full-set equivalence pins of `tests/sparse.rs`. If a change
//! legitimately alters the randomness contract, regenerate the file —
//! deliberately, in the same commit, with a CHANGES.md note — with
//!
//! ```text
//! cargo run -p gossip-net --example regen_goldens -- --write
//! ```
//!
//! (without `--write` the example recomputes everything, prints the drift and
//! exits non-zero, so it doubles as a standalone check).
//!
//! Every scenario runs at `par::num_threads()` worker threads, so CI's
//! `GOSSIP_NUM_THREADS=1/2/3/8` matrix checks each pin at all four thread
//! counts (including, at the large sizes, the push rounds' owner-range split:
//! one range at 1 thread, several — uneven at 3 — otherwise).

#[path = "support/goldens.rs"]
mod support;

use gossip_net::FailureModel;
use support::{
    engine, fault_metrics_line, faulted_mixed, fingerprint, hash_local_steps, initial_states,
    large_faulted, metrics_line, mixed_iteration, pinned, pull_rounds, push_pull_rounds,
    push_rounds, sample_fp,
};

#[test]
fn golden_pull() {
    let mut e = engine(512, 101, FailureModel::None);
    pull_rounds(&mut e, 8);
    assert_eq!(metrics_line(&e), pinned("pull.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull.fp"));
}

#[test]
fn golden_pull_with_failures() {
    let mut e = engine(512, 101, FailureModel::uniform(0.3).unwrap());
    pull_rounds(&mut e, 8);
    assert_eq!(metrics_line(&e), pinned("pull_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull_failures.fp"));
}

#[test]
fn golden_push() {
    let mut e = engine(512, 202, FailureModel::None);
    push_rounds(&mut e, 8);
    assert_eq!(metrics_line(&e), pinned("push.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push.fp"));
}

#[test]
fn golden_push_with_failures() {
    let mut e = engine(512, 202, FailureModel::uniform(0.3).unwrap());
    push_rounds(&mut e, 8);
    assert_eq!(metrics_line(&e), pinned("push_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push_failures.fp"));
}

#[test]
fn golden_push_pull() {
    let mut e = engine(512, 303, FailureModel::None);
    push_pull_rounds(&mut e, 8);
    assert_eq!(metrics_line(&e), pinned("push_pull.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push_pull.fp"));
}

#[test]
fn golden_push_pull_with_failures() {
    let mut e = engine(512, 303, FailureModel::uniform(0.3).unwrap());
    push_pull_rounds(&mut e, 8);
    assert_eq!(metrics_line(&e), pinned("push_pull_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push_pull_failures.fp"));
}

#[test]
fn golden_collect_samples() {
    let mut e = engine(512, 404, FailureModel::None);
    let samples = e.collect_samples(3, |_, &s| s);
    assert_eq!(metrics_line(&e), pinned("collect.metrics"));
    assert_eq!(sample_fp(&samples), pinned("collect.sample_fp"));
    // Sampling leaves the node states untouched.
    assert_eq!(fingerprint(e.states()), fingerprint(&initial_states(512)));
}

#[test]
fn golden_collect_samples_with_failures() {
    let mut e = engine(512, 404, FailureModel::uniform(0.4).unwrap());
    let samples = e.collect_samples(3, |_, &s| s);
    assert_eq!(metrics_line(&e), pinned("collect_failures.metrics"));
    assert_eq!(sample_fp(&samples), pinned("collect_failures.sample_fp"));
}

#[test]
fn golden_faulted_mixed_sequence() {
    // One pin over all five primitives with the full fault plan active —
    // churn, loss, stragglers and failures together. This freezes the
    // fault-injection randomness contract: the per-contact coin streams,
    // the straggler buffering order, and the churn scan.
    let e = faulted_mixed(600, 909);
    assert_eq!(metrics_line(&e), pinned("faulted_mixed.metrics"));
    assert_eq!(fault_metrics_line(&e), pinned("faulted_mixed.faults"));
    assert_eq!(fingerprint(e.states()), pinned("faulted_mixed.fp"));
}

#[test]
fn golden_local_step() {
    let mut e = engine(512, 505, FailureModel::None);
    hash_local_steps(&mut e, 4);
    assert_eq!(metrics_line(&e), pinned("local_step.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("local_step.fp"));
}

#[test]
fn golden_mixed_sequence() {
    // One pin over an interleaving of all five primitives, failure injection
    // on — the broadest single trajectory.
    let mut e = engine(600, 606, FailureModel::uniform(0.2).unwrap());
    for _ in 0..3 {
        mixed_iteration(&mut e);
    }
    assert_eq!(metrics_line(&e), pinned("mixed.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("mixed.fp"));
}

#[test]
fn golden_large_n_covers_parallel_paths() {
    // Big enough that multi-thread runs of the CI matrix take the chunked
    // round paths, where push deliveries are split by owner range and folded
    // range by range; the pins must match the one-range values bit for bit.
    let mut e = engine(20_000, 707, FailureModel::None);
    pull_rounds(&mut e, 2);
    push_rounds(&mut e, 2);
    push_pull_rounds(&mut e, 2);
    assert_eq!(metrics_line(&e), pinned("large.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("large.fp"));
}

#[test]
fn golden_large_n_with_failures() {
    let mut e = engine(20_000, 808, FailureModel::uniform(0.25).unwrap());
    pull_rounds(&mut e, 2);
    push_rounds(&mut e, 2);
    push_pull_rounds(&mut e, 2);
    assert_eq!(metrics_line(&e), pinned("large_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("large_failures.fp"));
}

#[test]
fn golden_large_n_under_the_full_fault_plan() {
    // The faulty push and push–pull bodies at a size where multi-thread runs
    // take the parallel paths, with straggled pushes arriving late.
    let e = large_faulted(20_000, 1010);
    assert!(e.metrics().messages_delayed > 0);
    assert_eq!(metrics_line(&e), pinned("large_faulted.metrics"));
    assert_eq!(fault_metrics_line(&e), pinned("large_faulted.faults"));
    assert_eq!(fingerprint(e.states()), pinned("large_faulted.fp"));
}

/// The constants the test suites read and the values `compute_all` (which the
/// regen example writes) produce must agree key-for-key, so the file can
/// never silently miss a scenario.
#[test]
fn pin_file_covers_exactly_the_computed_keys() {
    let mut file_keys: Vec<&str> = support::GOLDENS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('=').map(|(k, _)| k.trim()))
        .collect();
    // `compute_all` is expensive (it replays every scenario), so compare key
    // sets only — the values themselves are checked by the pins above.
    let expected = [
        "pull",
        "pull_failures",
        "push",
        "push_failures",
        "push_pull",
        "push_pull_failures",
        "collect",
        "collect_failures",
        "local_step",
        "mixed",
        "faulted_mixed",
        "large",
        "large_failures",
        "large_faulted",
    ];
    let mut want: Vec<String> = Vec::new();
    for name in expected {
        want.push(format!("{name}.metrics"));
        match name {
            "collect" | "collect_failures" => want.push(format!("{name}.sample_fp")),
            _ => want.push(format!("{name}.fp")),
        }
        if name == "faulted_mixed" || name == "large_faulted" {
            want.insert(want.len() - 1, format!("{name}.faults"));
        }
    }
    file_keys.sort_unstable();
    let mut want: Vec<&str> = want.iter().map(String::as_str).collect();
    want.sort_unstable();
    assert_eq!(file_keys, want);
}
