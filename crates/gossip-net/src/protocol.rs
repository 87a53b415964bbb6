//! Per-node protocol abstraction.
//!
//! Most algorithms in this repository are expressed directly against
//! [`Engine`] rounds, which is both faithful to the model and
//! fast at millions of nodes. For users who want to plug in their own gossip
//! dynamics — and for the engine-fidelity ablation (`engine_ablation` bench) —
//! this module provides a small per-node state-machine interface: a
//! [`NodeProtocol`] describes what a single node serves and how it reacts to
//! pulled (or pushed) values, and [`ProtocolRunner`] drives one instance per
//! node through synchronous rounds — pull rounds by default, push rounds via
//! [`ProtocolRunner::step_push`] / [`ProtocolRunner::run_push`].
//!
//! The runner inherits everything from its [`EngineConfig`], including the
//! communication [`Topology`]: a protocol written once runs
//! unchanged on the complete graph, an expander, a ring or a torus.

use crate::active::ActiveSet;
use crate::engine::{Engine, EngineConfig, SparsePushOutcome};
use crate::message::MessageSize;
use crate::metrics::Metrics;
use crate::topology::Topology;

/// The behaviour of a single node in a gossip protocol.
///
/// One instance exists per node. In every pull round, the runner asks each
/// node what it [serves](NodeProtocol::serve), delivers to each non-failed
/// node the message served by a uniformly random neighbour, and then asks
/// whether the node considers itself [finished](NodeProtocol::is_finished).
/// In a push round (see [`ProtocolRunner::step_push`]) the direction flips:
/// each node's served message is delivered to a uniformly random neighbour,
/// which receives it through [`on_push`](NodeProtocol::on_push).
///
/// Because rounds execute data-parallel (see the
/// [engine docs](crate::engine)), protocol instances must be
/// `Clone + Send + Sync` to be driven by [`ProtocolRunner`], and
/// [`serve`](NodeProtocol::serve) must be a pure function of the node's state.
pub trait NodeProtocol {
    /// The message type exchanged by the protocol.
    type Message: MessageSize + Clone;
    /// The value a node outputs once the protocol has finished.
    type Output;

    /// The message this node would serve to anyone contacting it this round
    /// (and the message it pushes in a push round).
    fn serve(&self) -> Self::Message;

    /// Handles the message pulled this round; `None` means this node's pull
    /// failed (see [`FailureModel`](crate::FailureModel)).
    fn on_pull(&mut self, round: u64, pulled: Option<Self::Message>);

    /// Handles one message pushed to this node this round (invoked once per
    /// delivered message, in ascending sender order).
    ///
    /// The default ignores pushed messages; override it when driving the
    /// protocol with [`ProtocolRunner::step_push`] / [`run_push`]
    /// (a protocol that ignores pushes never converges under them).
    ///
    /// [`run_push`]: ProtocolRunner::run_push
    fn on_push(&mut self, round: u64, pushed: Self::Message) {
        let _ = (round, pushed);
    }

    /// Whether this node has converged. The runner stops once every node has.
    fn is_finished(&self) -> bool {
        false
    }

    /// The node's final output.
    fn output(&self) -> Self::Output;
}

/// The result of driving a protocol to completion.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome<O> {
    /// Output of every node, indexed by node id.
    pub outputs: Vec<O>,
    /// Rounds actually executed.
    pub rounds: u64,
    /// Communication metrics of the run.
    pub metrics: Metrics,
    /// Whether every node reported `is_finished` before the round budget ran out.
    pub converged: bool,
}

/// What one `step_*_reporting` round did under the engine's fault plan: which
/// nodes sat the round out crashed, and the round's metrics delta (fault
/// counters included) — enough for a driver loop to implement retry or
/// budget-inflation logic per round instead of per run.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Nodes that were down (crashed under the fault plan's churn model)
    /// during the round, in ascending id order. Empty without churn.
    pub crashed: Vec<crate::NodeId>,
    /// The round's metrics delta: attempts, deliveries, and the
    /// [`Metrics::failed_operations`] / [`Metrics::crashed_operations`] /
    /// [`Metrics::messages_dropped`] / [`Metrics::messages_delayed`] fault
    /// counters it incurred.
    pub delta: Metrics,
}

/// Drives one [`NodeProtocol`] instance per node through synchronous rounds.
#[derive(Debug)]
pub struct ProtocolRunner<P> {
    engine: Engine<P>,
}

impl<P: NodeProtocol + Clone + Send + Sync> ProtocolRunner<P> {
    /// Creates a runner over the given per-node protocol instances.
    ///
    /// The configuration's [`Topology`] decides which neighbours nodes
    /// contact; the default is the complete graph.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two instances are supplied or the configured
    /// topology cannot be realised on this network size; use
    /// [`ProtocolRunner::try_new`] for a fallible constructor.
    pub fn new(nodes: Vec<P>, config: EngineConfig) -> Self {
        ProtocolRunner {
            engine: Engine::from_states(nodes, config),
        }
    }

    /// Fallible variant of [`ProtocolRunner::new`].
    ///
    /// # Errors
    ///
    /// Propagates the [`Engine::try_from_states`] errors (too few nodes,
    /// unrealisable topology).
    pub fn try_new(nodes: Vec<P>, config: EngineConfig) -> crate::Result<Self> {
        Ok(ProtocolRunner {
            engine: Engine::try_from_states(nodes, config)?,
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.engine.n()
    }

    /// The communication topology the runner's rounds sample peers from.
    pub fn topology(&self) -> &Topology {
        self.engine.topology()
    }

    /// Communication metrics accumulated **so far** — readable mid-run, so a
    /// driver loop can meter round/message budgets while the protocol is
    /// still converging (the final snapshot is also on the
    /// [`ProtocolOutcome`]).
    pub fn metrics(&self) -> Metrics {
        self.engine.metrics()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.engine.round()
    }

    /// Runs one synchronous pull round.
    pub fn step(&mut self) {
        let round = self.engine.round() + 1;
        self.engine.pull_round(
            |_, node| node.serve(),
            |_, node, pulled| node.on_pull(round, pulled),
        );
    }

    /// Runs one synchronous push round: every node's served message is
    /// delivered to a uniformly random neighbour, which folds it in through
    /// [`NodeProtocol::on_push`] (ascending sender order).
    pub fn step_push(&mut self) {
        let round = self.engine.round() + 1;
        self.engine.push_round(
            |_, node| Some(node.serve()),
            |_, node, pushed| node.on_push(round, pushed),
            |_, _, _| {},
        );
    }

    /// [`ProtocolRunner::step`] with a per-round fault report: which nodes
    /// were crashed during the round, and the round's metrics delta. Use this
    /// from driver loops that need to react to faults round-by-round (retry
    /// a round's worth of work, inflate a budget, exclude churned nodes).
    pub fn step_reporting(&mut self) -> StepReport {
        let before = self.engine.metrics();
        self.step();
        StepReport {
            crashed: self.engine.crashed_nodes(),
            delta: self.engine.metrics().snapshot_delta(&before),
        }
    }

    /// [`ProtocolRunner::step_push`] with a per-round fault report (see
    /// [`ProtocolRunner::step_reporting`]).
    pub fn step_push_reporting(&mut self) -> StepReport {
        let before = self.engine.metrics();
        self.step_push();
        StepReport {
            crashed: self.engine.crashed_nodes(),
            delta: self.engine.metrics().snapshot_delta(&before),
        }
    }

    /// Runs one **sparse** push round: only the members of `active` push
    /// (their served messages are delivered through
    /// [`NodeProtocol::on_push`]); engine cost is proportional to the
    /// active-set size, not `n`. Returns the round's
    /// [`SparsePushOutcome`], whose `receivers` list lets a driver loop grow
    /// its active set the way single-rumor spreading does
    /// ([`ActiveSet::union_sorted`]).
    ///
    /// # Panics
    ///
    /// Panics if `active` was built for a different network size.
    pub fn step_push_on(&mut self, active: &ActiveSet) -> SparsePushOutcome {
        let round = self.engine.round() + 1;
        self.engine.push_round_on(
            active,
            |_, node| Some(node.serve()),
            |_, node, pushed| node.on_push(round, pushed),
            |_, _, _| {},
        )
    }

    /// Runs pull rounds until every node is finished or `max_rounds` have
    /// elapsed.
    pub fn run(self, max_rounds: u64) -> ProtocolOutcome<P::Output> {
        self.run_with(max_rounds, ProtocolRunner::step)
    }

    /// Runs **push** rounds until every node is finished or `max_rounds`
    /// have elapsed.
    pub fn run_push(self, max_rounds: u64) -> ProtocolOutcome<P::Output> {
        self.run_with(max_rounds, ProtocolRunner::step_push)
    }

    fn run_with(mut self, max_rounds: u64, step: impl Fn(&mut Self)) -> ProtocolOutcome<P::Output> {
        let mut converged = self.all_finished();
        while !converged && self.engine.round() < max_rounds {
            step(&mut self);
            converged = self.all_finished();
        }
        let rounds = self.engine.round();
        let metrics = self.engine.metrics();
        let outputs = self
            .engine
            .into_states()
            .iter()
            .map(NodeProtocol::output)
            .collect();
        ProtocolOutcome {
            outputs,
            rounds,
            metrics,
            converged,
        }
    }

    fn all_finished(&self) -> bool {
        self.engine.states().iter().all(NodeProtocol::is_finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: every node tracks the maximum value it has seen.
    #[derive(Debug, Clone)]
    struct MaxSpread {
        current: u64,
        target: u64,
    }

    impl NodeProtocol for MaxSpread {
        type Message = u64;
        type Output = u64;

        fn serve(&self) -> u64 {
            self.current
        }

        fn on_pull(&mut self, _round: u64, pulled: Option<u64>) {
            if let Some(p) = pulled {
                self.current = self.current.max(p);
            }
        }

        fn on_push(&mut self, _round: u64, pushed: u64) {
            self.current = self.current.max(pushed);
        }

        fn is_finished(&self) -> bool {
            self.current == self.target
        }

        fn output(&self) -> u64 {
            self.current
        }
    }

    fn max_spread_nodes(n: usize) -> Vec<MaxSpread> {
        (0..n)
            .map(|v| MaxSpread {
                current: v as u64,
                target: (n - 1) as u64,
            })
            .collect()
    }

    #[test]
    fn protocol_runner_spreads_max_to_all_nodes() {
        let n = 512;
        let runner = ProtocolRunner::new(max_spread_nodes(n), EngineConfig::with_seed(13));
        let outcome = runner.run(200);
        assert!(outcome.converged);
        assert!(outcome.outputs.iter().all(|&v| v == (n - 1) as u64));
        // Pull-only spreading of a single rumor takes O(log n) rounds.
        assert!(outcome.rounds <= 60, "rounds = {}", outcome.rounds);
        assert_eq!(outcome.metrics.rounds, outcome.rounds);
    }

    #[test]
    fn push_rounds_also_spread_the_max() {
        let n = 512;
        let runner = ProtocolRunner::new(max_spread_nodes(n), EngineConfig::with_seed(29));
        let outcome = runner.run_push(200);
        assert!(outcome.converged);
        assert!(outcome.outputs.iter().all(|&v| v == (n - 1) as u64));
        // Push-only single-rumor spreading is Θ(log n) too (coupon phase).
        assert!(outcome.rounds <= 80, "rounds = {}", outcome.rounds);
        assert_eq!(outcome.metrics.push_rounds, outcome.rounds);
        assert_eq!(outcome.metrics.pull_rounds, 0);
    }

    #[test]
    fn sparse_push_steps_spread_a_rumor_from_one_source() {
        // Single-rumor spreading through the runner's sparse driver: the
        // informed set is the active set, grown per round from the reported
        // receivers. Engine activity tracks the informed curve, not n.
        let n = 512;
        let nodes: Vec<MaxSpread> = (0..n)
            .map(|v| MaxSpread {
                current: u64::from(v == 0),
                target: 1,
            })
            .collect();
        let mut runner = ProtocolRunner::new(nodes, EngineConfig::with_seed(41));
        let mut informed = ActiveSet::from_members(n, [0]).unwrap();
        let mut rounds = 0;
        while informed.len() < n && rounds < 200 {
            let out = runner.step_push_on(&informed);
            informed.union_sorted(&out.receivers);
            rounds += 1;
        }
        assert_eq!(informed.len(), n, "rumor did not spread");
        assert!(rounds <= 80, "rounds = {rounds}");
        let m = runner.metrics();
        assert_eq!(m.push_rounds, rounds);
        // Total activity is the area under the informed curve — well below
        // the dense cost of rounds × n.
        assert!(m.active_push_nodes < rounds * n as u64 * 3 / 4);
    }

    #[test]
    fn metrics_are_readable_mid_run() {
        let mut runner = ProtocolRunner::new(max_spread_nodes(64), EngineConfig::with_seed(3));
        assert_eq!(runner.metrics().rounds, 0);
        runner.step();
        runner.step_push();
        let mid = runner.metrics();
        assert_eq!(mid.rounds, 2);
        assert_eq!(mid.pull_rounds, 1);
        assert_eq!(mid.push_rounds, 1);
        assert_eq!(runner.rounds(), 2);
        assert_eq!(mid.pulls_attempted, 64);
        assert_eq!(mid.pushes_attempted, 64);
    }

    #[test]
    fn reporting_steps_surface_crashes_and_fault_deltas() {
        use crate::fault::{ChurnModel, FaultPlan, LossModel};
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::with_rejoin(0.2, 2).unwrap())
            .with_loss(LossModel::uniform(0.3).unwrap());
        let config = EngineConfig::with_seed(17).fault(plan);
        let mut runner = ProtocolRunner::new(max_spread_nodes(256), config);
        let mut saw_crash = false;
        let mut saw_drop = false;
        for i in 0..12 {
            let report = if i % 2 == 0 {
                runner.step_reporting()
            } else {
                runner.step_push_reporting()
            };
            assert_eq!(report.delta.rounds, 1);
            assert_eq!(report.crashed.len() as u64, report.delta.crashed_operations);
            assert!(report.crashed.windows(2).all(|w| w[0] < w[1]));
            // Crashed nodes make no attempts.
            assert_eq!(
                report.delta.pulls_attempted + report.delta.pushes_attempted,
                256 - report.delta.crashed_operations
            );
            saw_crash |= !report.crashed.is_empty();
            saw_drop |= report.delta.messages_dropped > 0;
        }
        assert!(saw_crash, "20% churn over 12 rounds produced no crash");
        assert!(saw_drop, "30% loss over 12 rounds dropped nothing");
        // The mid-run cumulative metrics carry the fault counters too.
        let m = runner.metrics();
        assert!(m.crashed_operations > 0);
        assert!(m.messages_dropped > 0);
    }

    #[test]
    fn reporting_steps_without_faults_report_nothing() {
        let mut runner = ProtocolRunner::new(max_spread_nodes(64), EngineConfig::with_seed(5));
        let report = runner.step_reporting();
        assert!(report.crashed.is_empty());
        assert_eq!(report.delta.crashed_operations, 0);
        assert_eq!(report.delta.messages_dropped, 0);
        assert_eq!(report.delta.messages_delayed, 0);
        assert_eq!(report.delta.pulls_attempted, 64);
    }

    #[test]
    fn runner_honours_the_configured_topology() {
        use crate::Topology;
        let n = 64;
        let config = EngineConfig::with_seed(7).topology(Topology::ring(1));
        let runner = ProtocolRunner::new(max_spread_nodes(n), config);
        assert_eq!(runner.topology(), &Topology::ring(1));
        let outcome = runner.run(3 * n as u64);
        // On a k=1 ring information moves one hop per round: the max needs
        // ≥ n/2 rounds to reach everyone — far above the complete graph's
        // O(log n) — but it does converge within the diameter-bound budget.
        assert!(outcome.converged);
        assert!(
            outcome.rounds >= (n / 2) as u64,
            "ring spread faster than its diameter: {}",
            outcome.rounds
        );
        // And the unrealisable case fails cleanly through try_new.
        let bad = EngineConfig::with_seed(7).topology(Topology::ring(40));
        assert!(ProtocolRunner::try_new(max_spread_nodes(16), bad).is_err());
    }

    #[test]
    fn protocol_runner_respects_round_budget() {
        let nodes: Vec<MaxSpread> = (0..16)
            .map(|v| MaxSpread {
                current: v as u64,
                target: u64::MAX,
            })
            .collect();
        let outcome = ProtocolRunner::new(nodes, EngineConfig::with_seed(1)).run(5);
        assert!(!outcome.converged);
        assert_eq!(outcome.rounds, 5);
    }

    #[test]
    fn already_finished_protocol_runs_zero_rounds() {
        let nodes: Vec<MaxSpread> = (0..4)
            .map(|_| MaxSpread {
                current: 9,
                target: 9,
            })
            .collect();
        let outcome = ProtocolRunner::new(nodes, EngineConfig::with_seed(1)).run(100);
        assert!(outcome.converged);
        assert_eq!(outcome.rounds, 0);
    }
}
