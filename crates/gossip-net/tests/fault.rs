//! Integration tests of the fault-injection subsystem (`gossip_net::fault`).
//!
//! The engine-level unit tests pin the per-combinator mechanics; this suite
//! checks the cross-cutting contracts:
//!
//! * the message **ledger** stays conserved under every combinator mix
//!   (attempted = delivered + dropped + delayed-in-flight + failed, with
//!   crashed nodes attempting nothing);
//! * straggled pushes are **re-derived from the sender's state at arrival**,
//!   not frozen at send time;
//! * straggled contacts survive intervening pull rounds and drain on the
//!   next push-capable round;
//! * `ProtocolRunner::step_reporting` surfaces per-round crash sets and
//!   fault deltas mid-protocol;
//! * fault injection composes with restricted topologies.
//!
//! Every test runs at `par::num_threads()` workers, so CI's 1/2/3/8-thread
//! matrix exercises the faulty dispatch at each thread count.

use gossip_net::{
    par, ChurnModel, Engine, EngineConfig, FailureModel, FaultPlan, LossModel, StragglerModel,
    Topology,
};

fn engine_with_plan(n: usize, seed: u64, plan: FaultPlan) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).fault(plan);
    let mut e = Engine::from_states((0..n as u64).collect(), config);
    e.set_threads(par::num_threads());
    e
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap())
        .with_loss(LossModel::uniform(0.15).unwrap())
        .with_stragglers(StragglerModel::uniform(0.2, 2).unwrap())
        .with_failure(FailureModel::uniform(0.1).unwrap())
}

/// Every attempted push is accounted for exactly once: delivered in-round,
/// dropped (loss, crashed receiver), delayed (straggling, counted at send),
/// or failed (the Section 5 model). Crashed senders attempt nothing.
#[test]
fn push_ledger_is_conserved_under_the_full_chaos_plan() {
    let n = 2000u64;
    let mut e = engine_with_plan(n as usize, 3, chaos_plan());
    for _ in 0..6 {
        e.push_round(
            |v, _| Some(v),
            |_, st, _| *st = st.wrapping_add(1),
            |_, _, _| {},
        );
    }
    let m = e.metrics();
    assert_eq!(
        m.pushes_attempted + m.crashed_operations,
        6 * n,
        "every node per round either attempts or is crashed"
    );
    // Straggled sends are counted `delayed` at send and then *also* counted
    // delivered (or dropped, if the receiver crashed meanwhile) at arrival,
    // so the exact ledger is over the terminal outcomes plus the in-flight
    // buffer:
    assert_eq!(
        m.messages_delivered
            + m.messages_dropped
            + m.failed_operations
            + e.delayed_in_flight() as u64,
        m.pushes_attempted,
        "ledger mismatch: {m:?}"
    );
    assert!(m.messages_delayed > 0);
    assert!(m.messages_dropped > 0);
    assert!(m.crashed_operations > 0);
    assert!(m.failed_operations > 0);
}

/// A straggled message is re-derived from the sender's state *at arrival*:
/// mutate every state between send and drain, and no receiver may observe a
/// stale value.
#[test]
fn straggled_messages_carry_the_senders_state_at_arrival() {
    let n = 500;
    let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.9, 1).unwrap());
    let mut e = Engine::from_states(vec![100u64; n], EngineConfig::with_seed(8).fault(plan));
    e.set_threads(par::num_threads());

    // Round 1: push the current state (100). ~90% of contacts straggle.
    e.push_round(
        |_, &s| Some(s),
        |_, st, msg| {
            assert_eq!(msg, 100, "round-1 in-round delivery");
            *st = st.wrapping_add(msg << 32);
        },
        |_, _, _| {},
    );
    let delivered_in_round_1 = e.metrics().messages_delivered;
    let in_flight = e.delayed_in_flight();
    assert!(in_flight > 300, "p=0.9 on 500 pushes, got {in_flight}");

    // Rewrite every sender's low half to 200 before the drain round.
    e.local_step(|_, st, _| *st = (*st & !0xFFFF_FFFF) | 200);

    // Round 2 drains the round-1 stragglers. The low 32 bits a receiver
    // folds must be 200 — the sender's *current* value — never the stale
    // 100 from send time.
    e.push_round(
        |_, &s| Some(s & 0xFFFF_FFFF),
        |_, st, msg| {
            assert_eq!(msg, 200, "a drained straggler carried a stale payload");
            *st = st.wrapping_add(1);
        },
        |_, _, _| {},
    );
    let m = e.metrics();
    assert!(
        m.messages_delivered > delivered_in_round_1 + 100,
        "the round-1 stragglers did not drain"
    );
}

/// Straggled pushes survive intervening pull rounds (which are not
/// push-capable) and drain on the next push round.
#[test]
fn stragglers_wait_out_pull_rounds() {
    let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.8, 1).unwrap());
    let mut e = engine_with_plan(400, 15, plan);
    e.push_round(
        |v, _| Some(v as u64),
        |_, st, _| *st = st.wrapping_add(1),
        |_, _, _| {},
    );
    let in_flight = e.delayed_in_flight();
    assert!(in_flight > 200);
    // Three pull rounds pass; the buffer must not drain (pull rounds carry
    // no push deliveries), even though the contacts are long overdue.
    for _ in 0..3 {
        e.pull_round(|_, &s| s, |_, _, _| {});
    }
    assert_eq!(e.delayed_in_flight(), in_flight);
    // The next push round folds them in.
    let delivered_before = e.metrics().messages_delivered;
    e.push_round(
        |v, _| Some(v as u64),
        |_, st, _| *st = st.wrapping_add(1),
        |_, _, _| {},
    );
    // No loss or churn in this plan: every overdue contact delivers.
    assert!(e.metrics().messages_delivered >= delivered_before + in_flight as u64);
}

/// Crash-stop churn visibly freezes a node: its state stops changing while
/// down, and with rejoin disabled it never changes again.
#[test]
fn crashed_nodes_states_are_frozen() {
    let plan = FaultPlan::none().with_churn(ChurnModel::crash_stop(0.15).unwrap());
    let mut e = engine_with_plan(500, 42, plan);
    let mut frozen: Vec<(usize, u64)> = Vec::new();
    for _ in 0..8 {
        e.pull_round(
            |_, &s| s,
            |_, st, p| {
                if let Some(p) = p {
                    *st = st.wrapping_mul(31).wrapping_add(p);
                }
            },
        );
        for &(v, expected) in &frozen {
            assert_eq!(e.states()[v], expected, "crashed node {v} changed state");
        }
        frozen = e
            .crashed_nodes()
            .into_iter()
            .map(|v| (v, e.states()[v]))
            .collect();
    }
    assert!(!frozen.is_empty());
}

/// `ProtocolRunner::step_reporting` exposes the crash set and fault deltas
/// of each round while a protocol runs.
#[test]
fn protocol_runner_reports_faults_per_round() {
    use gossip_net::{NodeProtocol, ProtocolRunner};

    #[derive(Clone)]
    struct Max(u64);
    impl NodeProtocol for Max {
        type Message = u64;
        type Output = u64;
        fn serve(&self) -> u64 {
            self.0
        }
        fn on_pull(&mut self, _round: u64, pulled: Option<u64>) {
            if let Some(m) = pulled {
                self.0 = self.0.max(m);
            }
        }
        fn on_push(&mut self, _round: u64, pushed: u64) {
            self.0 = self.0.max(pushed);
        }
        fn output(&self) -> u64 {
            self.0
        }
    }

    let nodes: Vec<Max> = (0..300).map(Max).collect();
    let config = EngineConfig::with_seed(99).fault(chaos_plan());
    let mut runner = ProtocolRunner::new(nodes, config);
    let mut saw_crash = false;
    let mut saw_disruption = false;
    for _ in 0..10 {
        let report = runner.step_reporting();
        assert_eq!(report.crashed.len() as u64, report.delta.crashed_operations);
        assert!(report.crashed.windows(2).all(|w| w[0] < w[1]));
        saw_crash |= !report.crashed.is_empty();
        saw_disruption |= report.delta.messages_dropped > 0;
        assert_eq!(report.delta.rounds, 1);
    }
    assert!(saw_crash, "churn never fired in 10 rounds");
    assert!(saw_disruption, "loss never fired in 10 rounds");
}

/// Fault injection composes with restricted topologies: the per-contact
/// coins are keyed by ids, not by the sampling structure.
#[test]
fn faults_compose_with_restricted_topologies() {
    for topology in [Topology::ring(3), Topology::Torus2D] {
        let config = EngineConfig::with_seed(7)
            .fault(chaos_plan())
            .topology(topology);
        let mut e = Engine::from_states((0..900u64).collect(), config);
        e.set_threads(par::num_threads());
        for _ in 0..5 {
            e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
        }
        let m = e.metrics();
        assert!(m.crashed_operations > 0, "{topology}: churn silent");
        assert!(m.messages_dropped > 0, "{topology}: loss silent");
        assert!(m.messages_delayed > 0, "{topology}: stragglers silent");
        assert!(m.failed_operations > 0, "{topology}: failures silent");
    }
}

/// `FaultPlan::mu_upper_bound` feeds the adaptive schedules: the union
/// bound must dominate the observed per-round disturbance rate.
#[test]
fn mu_upper_bound_dominates_observed_disturbance() {
    let plan = FaultPlan::none()
        .with_loss(LossModel::uniform(0.2).unwrap())
        .with_failure(FailureModel::uniform(0.1).unwrap());
    let mu = plan.mu_upper_bound().expect("bound derivable");
    let mut e = engine_with_plan(5000, 77, plan);
    for _ in 0..5 {
        e.pull_round(|_, &s| s, |_, _, _| {});
    }
    let observed = e.metrics().disturbance_rate();
    assert!(observed > 0.0);
    assert!(
        observed <= mu + 0.05,
        "observed {observed} exceeds the union bound {mu}"
    );
}
