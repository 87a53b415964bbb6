//! Batched multi-query quantile service with incremental recompute.
//!
//! [`QuantileService`] answers a *vector* of `(φ, ε)` queries over the same
//! `n` holders through **shared** tournament rounds: every gossip contact
//! carries one comparison value per query ("lane"), so `q` queries cost one
//! engine round sequence of length `max_i(2·t1ᵢ) + max_i(3·t2ᵢ + K)` instead
//! of `Σᵢ (2·t1ᵢ + 3·t2ᵢ + K)` — a `~q×` round amortisation over running
//! [`crate::approx::tournament_quantile`] once per query (Theorems 1.2/1.3:
//! the per-query amortised round cost drops from `O(log log n + log 1/ε)` to
//! `O((log log n + log 1/ε)/q)` as long as the `O(q log n)`-bit payload is
//! acceptable; [`Metrics::mean_bits_per_node_round`] reports exactly that
//! payload cost).
//!
//! **Bit-identity.** Both tournament phases key every draw purely by
//! `(seed, round, node)` on dedicated RNG streams, and each solo iteration
//! occupies a fixed window of rounds (two in Phase I, three in Phase II, `K`
//! vote rounds after convergence). Lane `i` of the batched run therefore
//! replays query `i`'s solo trajectory *exactly*: the service derives the two
//! phase engines from the same [`SeedSequence`] protocol as
//! [`crate::approx::tournament_quantile`], executes the union of every lane's
//! round schedule, and applies each lane's own update rule to its component
//! of the shared state vector. The answers are bit-identical to `q`
//! independent runs on the same [`EngineConfig`] seed — the conformance
//! suite in `tests/service.rs` pins this on every topology and under a
//! disruptive [`gossip_net::FaultPlan`].
//!
//! **Incremental recompute.** Holders ingest new values between epochs
//! ([`QuantileService::ingest`]), summarised per holder by the
//! [`CompactorSketch`] of Appendix A (the holder gossips its sketch median).
//! Contact patterns are epoch-invariant — every draw (targets, participation
//! coins, fault outcomes) is keyed purely by `(seed, round, node)` — so the
//! full recompute records the *realised* pull source of every node in every
//! round alongside the per-iteration state snapshots. An incremental
//! [`QuantileService::epoch`] then needs no engine at all: it replays the
//! cached trajectory as a pure dataflow over that realised contact graph,
//! touching per round only the nodes whose own state or realised source is
//! dirty and pruning nodes whose recomputed state matches the cache. The
//! epoch reports the cached logical round and traffic cost (the network
//! cost of the trajectory is unchanged). Its wall-clock follows the dirty
//! closure, which is wide: at n = 50k, q = 64, 1 % dirty holders leave
//! 62–69 % of lane components dirty and re-derive every node's vote, so
//! such an epoch costs the replay plus a full vote. When the dirty fraction
//! exceeds [`ServiceConfig::dirty_threshold`] the service recomputes from
//! scratch instead, refreshing the cache. Either way the answers equal a
//! from-scratch [`recompute_full`] (`tests/service.rs` pins exact
//! equality).
//!
//! **The vote.** Every lane ends with the `K`-sample vote of Algorithm 2,
//! line 8, derived after Phase II from the recorded trajectory. It runs
//! node-major: lanes are grouped by vote window (`3·t2`), every lane of a
//! node shares each vote round's realised source, so a node gathers one
//! contiguous snapshot row per delivered round and group, and the
//! branch-free compare-exchange network of the crate's vote kernel (shared
//! with the solo [`crate::three_tournament::run`]) selects each lane's
//! `sorted[c / 2]` row-wise across the lanes. The incremental patch runs the
//! same kernel on the nodes whose own row or some vote-source row holds a
//! dirty lane.
//!
//! [`recompute_full`]: QuantileService::recompute_full

use crate::approx::MAX_TOURNAMENT_EPSILON;
use crate::schedule::{ShrinkSide, ThreeTournamentSchedule, TwoTournamentSchedule};
use crate::three_tournament::{median3, FinalVote};
use crate::two_tournament::extremum;
use crate::vote::VoteKernel;
use baselines::CompactorSketch;
use gossip_net::{
    par, ActiveSet, Engine, EngineConfig, GossipError, LaneMatrix, MessageSize, Metrics, NodeRng,
    NodeValue, Result, SeedSequence, WorkerPool,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One `(φ, ε)` quantile query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileQuery {
    /// The target quantile `φ ∈ [0, 1]`.
    pub phi: f64,
    /// The rank accuracy `ε > 0` (clamped to [`MAX_TOURNAMENT_EPSILON`] like
    /// [`crate::approx::tournament_quantile`]).
    pub epsilon: f64,
}

impl QuantileQuery {
    /// Convenience constructor.
    pub fn new(phi: f64, epsilon: f64) -> Self {
        QuantileQuery { phi, epsilon }
    }
}

/// Configuration of a [`QuantileService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// The final `K`-sample vote shared by every lane (Algorithm 2, line 8).
    pub final_vote: FinalVote,
    /// Dirty-holder fraction above which [`QuantileService::epoch`] abandons
    /// incremental replay and recomputes from scratch.
    pub dirty_threshold: f64,
    /// Capacity of each holder's ingestion [`CompactorSketch`].
    pub sketch_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            final_vote: FinalVote::default(),
            dirty_threshold: 0.25,
            sketch_capacity: 32,
        }
    }
}

/// Per-query round accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// Phase I iterations of this query's solo schedule (`t` of Lemma 2.2).
    pub phase1_iterations: usize,
    /// Phase II iterations of this query's solo schedule (`t` of Lemma 2.12).
    pub phase2_iterations: usize,
    /// Rounds a solo [`crate::approx::tournament_quantile`] run would spend on
    /// this query: `2·t1 + 3·t2 + K`.
    pub solo_rounds: u64,
}

/// How an epoch was answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpochMode {
    /// Full recompute of every lane from the current inputs.
    Full,
    /// Sparse replay of the cached trajectory on the dirty closure only.
    Incremental {
        /// Holders whose effective value changed since the cached epoch.
        dirty_nodes: usize,
        /// `dirty_nodes / n`.
        dirty_fraction: f64,
    },
}

/// Wall-clock breakdown of one epoch, by pipeline stage.
///
/// Full epochs fill the collect / apply / record / vote stages; incremental
/// epochs fill replay (the engine-free dataflow over the cached trajectory)
/// and vote (the output patch). Purely observational — timings are never
/// part of answer equality, and the unfilled stages of a mode stay `0.0`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochTimings {
    /// Seconds collecting lane samples (engine pull rounds, including
    /// participation coins and δ-cut active sets).
    pub collect_secs: f64,
    /// Seconds applying lane steps to the shared state vector.
    pub apply_secs: f64,
    /// Seconds recording the replay cache (state snapshots and realised
    /// sources).
    pub record_secs: f64,
    /// Seconds deriving (full epochs) or patching (incremental epochs) the
    /// vote outputs: per node, one gathered snapshot row per delivered vote
    /// round and vote window, reduced lane-wise by the branch-free median
    /// network; the patch first tests each node's own and vote-source rows
    /// for a dirty lane and re-derives only the touched nodes.
    pub vote_secs: f64,
    /// Seconds replaying the cached dataflow (incremental epochs only).
    pub replay_secs: f64,
}

/// Result of one [`QuantileService::epoch`].
#[derive(Debug, Clone)]
pub struct ServiceOutcome<V> {
    /// `answers[i][v]`: node `v`'s answer to query `i` — bit-identical to the
    /// output of a solo [`crate::approx::tournament_quantile`] run for query
    /// `i` on the same seed.
    pub answers: Vec<Vec<V>>,
    /// Engine rounds executed this epoch (both phases plus the vote).
    pub rounds: u64,
    /// Aggregated communication metrics of this epoch
    /// ([`Metrics::mean_bits_per_node_round`] gives the payload cost of
    /// batching).
    pub metrics: Metrics,
    /// Per-query solo-run costs, for amortisation accounting.
    pub per_query: Vec<QueryCost>,
    /// Whether this epoch ran fully or incrementally.
    pub mode: EpochMode,
    /// Wall-clock breakdown of the epoch's pipeline stages.
    pub timings: EpochTimings,
}

impl<V> ServiceOutcome<V> {
    /// Round amortisation of batching: `Σᵢ solo_rounds(i) / rounds`. With `q`
    /// similar queries this approaches `q`.
    pub fn amortisation(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        let solo: u64 = self.per_query.iter().map(|c| c.solo_rounds).sum();
        solo as f64 / self.rounds as f64
    }
}

/// The per-query schedules (computed once at construction).
#[derive(Debug, Clone)]
struct LanePlan {
    schedule1: TwoTournamentSchedule,
    schedule2: ThreeTournamentSchedule,
}

impl LanePlan {
    fn t1(&self) -> usize {
        self.schedule1.len()
    }
    fn t2(&self) -> usize {
        self.schedule2.len()
    }
}

/// The service's final vote (Algorithm 2, line 8) for every lane at once,
/// node-major: lanes are grouped by vote window — lane `i` votes in Phase II
/// rounds `3·t2ᵢ .. 3·t2ᵢ + K` — and all lanes of a node share each round's
/// realised source, so a node's vote gathers one contiguous snapshot row per
/// delivered round and group, then runs the branch-free [`VoteKernel`]
/// lane-wise over the gathered rows.
#[derive(Debug, Clone)]
struct LaneVote {
    kernel: VoteKernel,
    /// Number of lanes, `q`.
    lanes: usize,
    groups: Vec<VoteGroup>,
    /// Every Phase II round some group votes in.
    rounds: Range<usize>,
}

/// The lanes sharing one vote window.
#[derive(Debug, Clone)]
struct VoteGroup {
    /// First vote round, `3·t2`.
    first: usize,
    /// The group's lanes as maximal runs of adjacent lane indices — one run
    /// covering every lane when all queries share `t2`.
    runs: Vec<Range<usize>>,
}

impl LaneVote {
    fn new(plans: &[LanePlan], k: usize) -> Self {
        let mut t2s: Vec<usize> = plans.iter().map(LanePlan::t2).collect();
        t2s.sort_unstable();
        t2s.dedup();
        let groups = t2s
            .iter()
            .map(|&t2| {
                let mut runs: Vec<Range<usize>> = Vec::new();
                for (i, _) in plans.iter().enumerate().filter(|(_, p)| p.t2() == t2) {
                    match runs.last_mut() {
                        Some(run) if run.end == i => run.end = i + 1,
                        _ => runs.push(i..i + 1),
                    }
                }
                VoteGroup {
                    first: 3 * t2,
                    runs,
                }
            })
            .collect();
        LaneVote {
            kernel: VoteKernel::new(k),
            lanes: plans.len(),
            groups,
            rounds: 3 * t2s[0]..3 * t2s[t2s.len() - 1] + k,
        }
    }

    /// Writes every lane's vote output into `outputs` (`n × q`, node-major),
    /// on every node — or, given `dirty_rows`, only on the nodes whose own
    /// row or some vote-source row holds a dirty lane; every other node's
    /// vote inputs are unchanged, so its cached output stands.
    ///
    /// `conv` is the converged Phase II state `snap2[t2max]`. Every vote
    /// round of lane `i` lies at or after its convergence iteration `t2ᵢ`,
    /// from which on the lane's component is frozen, so `conv` holds exactly
    /// the lane values served in any of its vote rounds.
    fn run<V: NodeValue>(
        &self,
        pool: &WorkerPool,
        threads: usize,
        conv: &[V],
        sources2: &[u32],
        outputs: &mut [V],
        dirty_rows: Option<&[bool]>,
    ) {
        let (q, k) = (self.lanes, self.kernel.samples());
        let n = outputs.len() / q;
        par::for_rows(
            pool,
            outputs,
            q,
            threads,
            (),
            |start, chunk| {
                let (mut rows, mut med) = (Vec::with_capacity(k * q), Vec::with_capacity(q));
                for (v, out) in (start..).zip(chunk.chunks_exact_mut(q)) {
                    let touched = dirty_rows.map_or(true, |dr| {
                        dr[v]
                            || self.rounds.clone().any(|rr| {
                                let src = sources2[rr * n + v];
                                src != u32::MAX && dr[src as usize]
                            })
                    });
                    if !touched {
                        continue;
                    }
                    // The fallback for an empty vote: the converged value.
                    let own = &conv[v * q..][..q];
                    for g in &self.groups {
                        med.clear();
                        for run in &g.runs {
                            med.extend_from_slice(&own[run.clone()]);
                        }
                        rows.clear();
                        let mut c = 0;
                        for rr in g.first..g.first + k {
                            let src = sources2[rr * n + v];
                            if src != u32::MAX {
                                let row = &conv[src as usize * q..][..q];
                                for run in &g.runs {
                                    rows.extend_from_slice(&row[run.clone()]);
                                }
                                c += 1;
                            }
                        }
                        self.kernel.vote_into(&mut rows, c, &mut med);
                        let mut at = 0;
                        for run in &g.runs {
                            out[run.clone()].copy_from_slice(&med[at..at + run.len()]);
                            at += run.len();
                        }
                    }
                }
            },
            |(), ()| (),
        );
    }
}

/// The cached trajectory of the last full epoch, the raw material of
/// incremental replay. `snap1[j][v * q + i]` is node `v`'s lane-`i` value at
/// the start of Phase I iteration `j` (`snap1[0]` holds the inputs);
/// likewise `snap2` for Phase II; `outputs[v * q + i]` is the final vote
/// output.
///
/// `sources1`/`sources2` record the realised contact graph: the node each
/// holder actually received a pull from in every round (`u32::MAX` when
/// nothing was delivered — a failed target, a lost or straggling message, a
/// crashed node, or a round the holder sat out). Draws are keyed purely by
/// `(seed, round, node)`, so these sources are epoch-invariant: a re-run on
/// new inputs realises exactly the same graph, which is what makes the
/// engine-free incremental replay exact, faults included. `sources1` is
/// `2·t1max` rows of `n` (slots A and B of each Phase I iteration);
/// `sources2` is `3·t2max + K` rows of `n` (Phase II rounds and votes).
/// `rounds`/`metrics` are the logical cost of the cached trajectory,
/// reported verbatim by incremental epochs.
/// Snapshots are stored lane-major and flat — `snap1[j][v * q + i]` — so an
/// incremental source read touches one cache line covering every lane of the
/// source node instead of chasing a per-node `Vec` pointer.
#[derive(Debug, Clone)]
struct Trajectory<V> {
    snap1: Vec<Vec<V>>,
    snap2: Vec<Vec<V>>,
    outputs: Vec<V>,
    sources1: Vec<u32>,
    sources2: Vec<u32>,
    rounds: u64,
    metrics: Metrics,
}

impl<V> Trajectory<V> {
    /// An unsized trajectory for the first full epoch to grow into —
    /// subsequent full epochs refill the previous epoch's buffers in place.
    fn empty() -> Self {
        Trajectory {
            snap1: Vec::new(),
            snap2: Vec::new(),
            outputs: Vec::new(),
            sources1: Vec::new(),
            sources2: Vec::new(),
            rounds: 0,
            metrics: Metrics::new(),
        }
    }
}

/// A lane-vector message tagged with its realised source id — the *logical*
/// message shape of the service's replay cache. The tag is observer-side
/// metadata: [`MessageSize`] delegates to the payload alone, so the traffic
/// metrics equal serving the bare lane vector.
///
/// The epoch hot path no longer constructs these (it fills a flat
/// [`LaneMatrix`] — one reused buffer instead of one heap `Vec` per node per
/// round); the type remains the reference semantics of what a recorded
/// sample *is*, and the conformance suite pins the lane-matrix collector
/// against an engine run that serves `Sourced` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sourced<V> {
    /// The realised pull source (the node whose lane row was served).
    pub source: u32,
    /// The served lane values, one per query.
    pub values: Vec<V>,
}

impl<V: NodeValue> Sourced<V> {
    /// Tags `values` with the node that served them.
    pub fn new(source: usize, values: Vec<V>) -> Self {
        Sourced {
            source: source as u32,
            values,
        }
    }
}

impl<V: NodeValue> MessageSize for Sourced<V> {
    fn message_bits(&self) -> u64 {
        self.values.message_bits()
    }
}

/// Reused epoch working memory: everything a steady-state epoch touches per
/// round is allocated here once (or by the first epoch) and only ever
/// *filled* afterwards — the buffer-reuse half of the service's "no
/// per-round size-`n` allocations" guarantee (the debug fingerprint in
/// [`QuantileService::recompute_full`] asserts the other half).
#[derive(Debug)]
struct EpochScratch<V> {
    /// Three lane matrices: Phase I uses slots 0–1, a Phase II window 0–2.
    slots: Vec<LaneMatrix<V>>,
    /// The live lane-major state vector (`n × q`).
    states: Vec<V>,
    /// Participation coins of the current iteration.
    coins: Vec<f64>,
    /// Reusable δ-cut participant set.
    active: ActiveSet,
    /// Incremental replay: whether each node's row holds a dirty lane
    /// component (`n`; always the row-wise "any" of `comp_dirty`).
    dirty_map: Vec<bool>,
    /// Incremental replay: whether each lane component is dirty (`n × q`).
    comp_dirty: Vec<bool>,
    /// Incremental replay: the current iteration's frontier flags (`n`).
    frontier: Vec<bool>,
    /// Incremental replay: the current iteration's frontier ids.
    cand: Vec<u32>,
    /// Whether a full epoch has already sized every buffer.
    warmed: bool,
}

impl<V> Default for EpochScratch<V> {
    fn default() -> Self {
        EpochScratch {
            slots: Vec::new(),
            states: Vec::new(),
            coins: Vec::new(),
            active: ActiveSet::from_fn(0, |_| false),
            dirty_map: Vec::new(),
            comp_dirty: Vec::new(),
            frontier: Vec::new(),
            cand: Vec::new(),
            warmed: false,
        }
    }
}

impl<V: NodeValue> EpochScratch<V> {
    /// Sizes every reusable buffer for an `n × q` epoch — the incremental
    /// replay's too, since a full epoch always precedes it. Returns whether
    /// any buffer had to grow — which must never happen once `warmed`.
    fn prepare(&mut self, n: usize, q: usize, fill: V) -> bool {
        let mut grew = false;
        if self.slots.len() != 3 || self.slots.iter().any(|m| m.n() != n || m.lanes() != q) {
            self.slots = (0..3).map(|_| LaneMatrix::empty(n, q, fill)).collect();
            grew = true;
        }
        if self.states.len() != n * q {
            self.states.clear();
            self.states.resize(n * q, fill);
            grew = true;
        }
        if self.coins.len() != n {
            self.coins.clear();
            self.coins.resize(n, 0.0);
            grew = true;
        }
        if self.active.n() != n {
            self.active = ActiveSet::from_fn(n, |_| false);
            grew = true;
        }
        for (buf, len) in [
            (&mut self.dirty_map, n),
            (&mut self.comp_dirty, n * q),
            (&mut self.frontier, n),
        ] {
            if buf.len() != len {
                buf.clear();
                buf.resize(len, false);
                grew = true;
            }
        }
        if self.cand.capacity() < n {
            self.cand.reserve_exact(n);
            grew = true;
        }
        grew
    }
}

/// A multi-query quantile service over `n` value holders.
///
/// See the [module docs](self) for the design. Typical use:
///
/// ```
/// use gossip_net::EngineConfig;
/// use quantile_gossip::service::{QuantileQuery, QuantileService, ServiceConfig};
///
/// # fn main() -> gossip_net::Result<()> {
/// let readings: Vec<u64> = (0..256).map(|i| (i * 7919) % 65_536).collect();
/// let queries = [QuantileQuery::new(0.5, 0.125), QuantileQuery::new(0.9, 0.1)];
/// let mut svc = QuantileService::new(
///     &readings,
///     &queries,
///     ServiceConfig::default(),
///     EngineConfig::with_seed(7),
/// )?;
///
/// // First epoch: full batched run, one shared round sequence for both queries.
/// let out = svc.epoch()?;
/// assert_eq!(out.answers.len(), 2);
///
/// // A handful of holders observe new values; the next epoch replays only
/// // the affected part of the trajectory.
/// svc.ingest(3, 123)?;
/// svc.ingest(200, 45_000)?;
/// let out2 = svc.epoch()?;
/// assert_eq!(out2.answers.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QuantileService<V: NodeValue> {
    queries: Vec<QuantileQuery>,
    plans: Vec<LanePlan>,
    vote: LaneVote,
    per_query: Vec<QueryCost>,
    config: ServiceConfig,
    engine_config: EngineConfig,
    n: usize,
    sketches: Vec<CompactorSketch<V>>,
    inputs: Vec<V>,
    dirty: Vec<bool>,
    cache: Option<Trajectory<V>>,
    /// Worker-thread override for epoch execution (`None` = engine default).
    threads: Option<usize>,
    scratch: EpochScratch<V>,
}

impl<V: NodeValue> QuantileService<V> {
    /// Creates a service over `values` answering `queries` each epoch.
    ///
    /// # Errors
    ///
    /// [`GossipError::TooFewNodes`] with fewer than two holders;
    /// [`GossipError::InvalidParameter`] for an empty query vector, a query
    /// with `φ ∉ [0, 1]` or `ε ≤ 0` (mirroring
    /// [`crate::approx::tournament_quantile`]), a zero-sample vote, a
    /// `dirty_threshold` outside `[0, 1]`, or a zero sketch capacity.
    pub fn new(
        values: &[V],
        queries: &[QuantileQuery],
        config: ServiceConfig,
        engine_config: EngineConfig,
    ) -> Result<Self> {
        let n = values.len();
        if n < 2 {
            return Err(GossipError::TooFewNodes { requested: n });
        }
        if queries.is_empty() {
            return Err(GossipError::InvalidParameter {
                name: "queries",
                reason: "the service needs at least one query".to_string(),
            });
        }
        if config.final_vote.samples == 0 {
            return Err(GossipError::InvalidParameter {
                name: "vote.samples",
                reason: "the final vote needs at least one sample".to_string(),
            });
        }
        if config.final_vote.samples > u16::MAX as usize {
            return Err(GossipError::InvalidParameter {
                name: "vote.samples",
                reason: format!("at most {} vote samples supported", u16::MAX),
            });
        }
        if !(config.dirty_threshold >= 0.0 && config.dirty_threshold <= 1.0) {
            return Err(GossipError::InvalidParameter {
                name: "dirty_threshold",
                reason: format!("must be in [0, 1], got {}", config.dirty_threshold),
            });
        }
        if config.sketch_capacity == 0 {
            return Err(GossipError::InvalidParameter {
                name: "sketch_capacity",
                reason: "holder sketches need a positive capacity".to_string(),
            });
        }
        let mut plans = Vec::with_capacity(queries.len());
        let mut per_query = Vec::with_capacity(queries.len());
        for query in queries {
            // Mirror tournament_quantile's validation and clamping exactly so
            // each lane's schedules equal the solo run's.
            if !(0.0..=1.0).contains(&query.phi) {
                return Err(GossipError::InvalidParameter {
                    name: "phi",
                    reason: format!("must be in [0, 1], got {}", query.phi),
                });
            }
            if query.epsilon <= 0.0 {
                return Err(GossipError::InvalidParameter {
                    name: "epsilon",
                    reason: format!("must be positive, got {}", query.epsilon),
                });
            }
            let eps = query.epsilon.min(MAX_TOURNAMENT_EPSILON);
            let schedule1 = TwoTournamentSchedule::compute(query.phi, eps)?;
            let schedule2 = ThreeTournamentSchedule::compute(eps / 4.0, n)?;
            per_query.push(QueryCost {
                phase1_iterations: schedule1.len(),
                phase2_iterations: schedule2.len(),
                solo_rounds: 2 * schedule1.len() as u64
                    + 3 * schedule2.len() as u64
                    + config.final_vote.samples as u64,
            });
            plans.push(LanePlan {
                schedule1,
                schedule2,
            });
        }
        let mut engine_config = engine_config;
        engine_config.ensure_pool_for(n);
        if engine_config.pool.is_none() {
            // Below the engine's parallel threshold `ensure_pool_for` is a
            // no-op, but both phase engines and the incremental replay
            // still share one pool — a 1-thread pool runs every dispatch
            // inline, so results and small-n wall-clock are unaffected.
            engine_config.pool = Some(Arc::new(WorkerPool::new(1)));
        }
        Ok(QuantileService {
            queries: queries.to_vec(),
            vote: LaneVote::new(&plans, config.final_vote.samples),
            plans,
            per_query,
            config,
            engine_config,
            n,
            sketches: values
                .iter()
                .map(|&v| CompactorSketch::singleton(v, config.sketch_capacity))
                .collect(),
            inputs: values.to_vec(),
            dirty: vec![false; n],
            cache: None,
            threads: None,
            scratch: EpochScratch::default(),
        })
    }

    /// Overrides the worker-thread count epochs run on (clamped to at least
    /// 1). Answers never depend on this — only wall-clock does — which the
    /// conformance suite pins by running identical services at 1, 2 and 8
    /// threads. Grows the shared pool if the override exceeds it, so the
    /// phase engines keep sharing one pool.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        let t = threads.max(1);
        self.threads = Some(t);
        if !self
            .engine_config
            .pool
            .as_ref()
            .is_some_and(|p| p.threads() >= t)
        {
            self.engine_config.pool = Some(Arc::new(WorkerPool::new(t)));
        }
        self
    }

    /// Number of holders.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The query vector.
    pub fn queries(&self) -> &[QuantileQuery] {
        &self.queries
    }

    /// Per-query solo-run round costs.
    pub fn per_query(&self) -> &[QueryCost] {
        &self.per_query
    }

    /// Holders whose effective value changed since the last epoch.
    pub fn dirty_nodes(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// [`dirty_nodes`](Self::dirty_nodes) as a fraction of `n`.
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_nodes() as f64 / self.n as f64
    }

    /// Whether a cached trajectory from a previous epoch exists.
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// The effective (gossiped) value of each holder: its sketch median.
    pub fn effective_values(&self) -> &[V] {
        &self.inputs
    }

    /// Holder `node` observes `value`: the ingestion sketch absorbs it (one
    /// [`CompactorSketch::insert`], i.e. a singleton merge per Appendix A)
    /// and the holder's effective value becomes the sketch median. The holder
    /// is marked dirty only if that median actually moved.
    ///
    /// # Errors
    ///
    /// [`GossipError::InvalidParameter`] if `node >= n`.
    pub fn ingest(&mut self, node: usize, value: V) -> Result<()> {
        self.check_node(node)?;
        self.sketches[node].insert(value);
        let effective = self.sketches[node]
            .quantile(0.5)
            .expect("a holder sketch is never empty");
        if effective != self.inputs[node] {
            self.inputs[node] = effective;
            self.dirty[node] = true;
        }
        Ok(())
    }

    /// Replaces holder `node`'s stream outright: the sketch is reset to a
    /// singleton of `value`. Useful for deterministic dirty-set experiments.
    ///
    /// # Errors
    ///
    /// [`GossipError::InvalidParameter`] if `node >= n`.
    pub fn set_value(&mut self, node: usize, value: V) -> Result<()> {
        self.check_node(node)?;
        self.sketches[node] = CompactorSketch::singleton(value, self.config.sketch_capacity);
        if value != self.inputs[node] {
            self.inputs[node] = value;
            self.dirty[node] = true;
        }
        Ok(())
    }

    fn check_node(&self, node: usize) -> Result<()> {
        if node >= self.n {
            return Err(GossipError::InvalidParameter {
                name: "node",
                reason: format!("holder {node} out of range for {} holders", self.n),
            });
        }
        Ok(())
    }

    /// Answers every query on the current inputs: incrementally when a cached
    /// trajectory exists and the dirty fraction is at most
    /// [`ServiceConfig::dirty_threshold`], from scratch otherwise. Both paths
    /// produce identical answers.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (none under a well-formed configuration).
    pub fn epoch(&mut self) -> Result<ServiceOutcome<V>> {
        if self.cache.is_some() && self.dirty_fraction() <= self.config.dirty_threshold {
            self.recompute_incremental()
        } else {
            self.recompute_full()
        }
    }

    /// The two phase engines, derived exactly like
    /// [`crate::approx::tournament_quantile`] derives its sub-engines: one
    /// [`SeedSequence`] over the configured seed, first sub-seed to Phase I,
    /// second to Phase II. The engines carry `()` state — they are pure
    /// round/draw/metrics machines; the service owns the lane-major values
    /// and serves them from the sampling closures.
    fn engines(&self) -> (Engine<()>, Engine<()>) {
        let mut seeds = SeedSequence::new(self.engine_config.seed);
        let e1 = Engine::from_states(vec![(); self.n], self.engine_config.sub(seeds.next_seed()));
        let e2 = Engine::from_states(vec![(); self.n], self.engine_config.sub(seeds.next_seed()));
        (e1, e2)
    }

    /// The two phase seeds of [`engines`](Self::engines), without paying for
    /// engine construction — incremental replay needs only the coin streams.
    fn phase_seeds(&self) -> (u64, u64) {
        let mut seeds = SeedSequence::new(self.engine_config.seed);
        (seeds.next_seed(), seeds.next_seed())
    }

    fn t1max(&self) -> usize {
        self.plans.iter().map(LanePlan::t1).max().unwrap_or(0)
    }

    fn t2max(&self) -> usize {
        self.plans.iter().map(LanePlan::t2).max().unwrap_or(0)
    }

    /// Runs every lane from scratch through one shared round sequence and
    /// caches the trajectory for later incremental epochs.
    ///
    /// The pipeline: flat lane-major sample collection
    /// ([`Engine::collect_lanes`]), pool-parallel lane-step application, and
    /// end-of-epoch vote derivation from the recorded trajectory.
    ///
    /// Steady-state epochs are **allocation-free per round**: every round
    /// buffer (lane matrices, states, coins, active set, snapshots, source
    /// rows, outputs) is reused from the service's epoch scratch and the
    /// previous trajectory; a debug fingerprint asserts no buffer moved.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (none under a well-formed configuration).
    pub fn recompute_full(&mut self) -> Result<ServiceOutcome<V>> {
        let (n, q, k) = (self.n, self.queries.len(), self.config.final_vote.samples);
        let (t1max, t2max) = (self.t1max(), self.t2max());
        let (mut e1, mut e2) = self.engines();
        if let Some(t) = self.threads {
            // `set_threads` pre-sized the shared pool, so these never swap
            // pools — the epoch stays on one worker set.
            e1.set_threads(t);
            e2.set_threads(t);
        }
        let threads = e1.threads();
        let pool = Arc::clone(e1.pool());
        let (seed1, seed2) = (e1.seed(), e2.seed());
        let plans = &self.plans;
        let mut timings = EpochTimings::default();

        // ---- Buffer preparation (reuse everything from last epoch) -----
        let fill = self.inputs[0];
        let mut scratch = std::mem::take(&mut self.scratch);
        let grew = scratch.prepare(n, q, fill);
        debug_assert!(
            !(scratch.warmed && grew),
            "steady-state epoch grew a scratch buffer"
        );
        let mut traj = self.cache.take().unwrap_or_else(Trajectory::empty);
        let r2max = 3 * t2max + k;
        traj.sources1.clear();
        traj.sources1.resize(2 * t1max * n, u32::MAX);
        traj.sources2.clear();
        traj.sources2.resize(r2max * n, u32::MAX);
        traj.snap1.resize_with(t1max + 1, Vec::new);
        traj.snap2.resize_with(t2max + 1, Vec::new);
        let mut states = std::mem::take(&mut scratch.states);
        #[cfg(debug_assertions)]
        let warmed_ptrs = scratch
            .warmed
            .then(|| epoch_buffer_ptrs(&traj, &states, &scratch.coins));
        {
            let inputs = &self.inputs;
            par::for_chunks(
                &pool,
                &mut states[..],
                threads,
                (),
                |start, chunk| {
                    let mut v = start / q;
                    let mut i = start % q;
                    for slot in chunk.iter_mut() {
                        *slot = inputs[v];
                        i += 1;
                        if i == q {
                            i = 0;
                            v += 1;
                        }
                    }
                },
                |(), ()| (),
            );
        }

        // ---- Phase I: shared 2-TOURNAMENT rounds -----------------------
        let t0 = Instant::now();
        copy_into(&pool, threads, &mut traj.snap1[0], &states);
        timings.record_secs += t0.elapsed().as_secs_f64();
        for j in 0..t1max {
            let cls = p1_class(plans, j);
            let EpochScratch {
                slots,
                coins,
                active,
                ..
            } = &mut scratch;
            // Slot A is dense for every lane (both branches of Algorithm 1
            // take a first fresh sample); slot B is dense unless *every* lane
            // active at `j` is in its δ-truncated step, in which case the
            // union of the lanes' participant sets suffices — participant
            // sets are nested (shared coins, per-lane thresholds), so the
            // union is just the δ_max cut.
            let t0 = Instant::now();
            if cls.needs_coins {
                participation_coins_into(&pool, threads, seed1, j as u64, coins);
            }
            let (slot_a, rest) = slots.split_at_mut(1);
            let (sa_m, sb_m) = (&mut slot_a[0], &mut rest[0]);
            e1.collect_lanes(&states, sa_m);
            if cls.any_dense_b {
                e1.collect_lanes(&states, sb_m);
            } else {
                let cref = &coins[..];
                active.reset_from_fn(|v| cref[v] < cls.delta_max);
                e1.collect_lanes_on(active, &states, sb_m);
            }
            timings.collect_secs += t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let (row_a, row_b) = (2 * j * n, (2 * j + 1) * n);
            traj.sources1[row_a..row_a + n].copy_from_slice(sa_m.sources());
            traj.sources1[row_b..row_b + n].copy_from_slice(sb_m.sources());
            timings.record_secs += t0.elapsed().as_secs_f64();

            // Element-parallel lane step, in place over the flat state
            // vector. A node with no delivery in either slot hits the
            // `(None, None)` arm of every step rule, which returns the
            // current value — so no sample-presence pre-filter is needed.
            let t0 = Instant::now();
            let (a_vals, a_srcs) = (sa_m.values(), sa_m.sources());
            let (b_vals, b_srcs) = (sb_m.values(), sb_m.sources());
            let cref = &coins[..];
            par::for_chunks(
                &pool,
                &mut states[..],
                threads,
                (),
                |start, chunk| {
                    let mut v = start / q;
                    let mut i = start % q;
                    for slot in chunk.iter_mut() {
                        let steps = &plans[i].schedule1.steps;
                        if j < steps.len() {
                            let cur = *slot;
                            let s0 = (a_srcs[v] != u32::MAX).then(|| a_vals[v * q + i]);
                            let s1 = (b_srcs[v] != u32::MAX).then(|| b_vals[v * q + i]);
                            let side = plans[i].schedule1.side;
                            let delta = steps[j].delta;
                            *slot = if delta >= 1.0 {
                                lane_step_two(side, s0, s1, cur)
                            } else {
                                lane_step_two_delta(side, cref[v] < delta, s0, s1, cur)
                            };
                        }
                        i += 1;
                        if i == q {
                            i = 0;
                            v += 1;
                        }
                    }
                },
                |(), ()| (),
            );
            timings.apply_secs += t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            copy_into(&pool, threads, &mut traj.snap1[j + 1], &states);
            timings.record_secs += t0.elapsed().as_secs_f64();
        }

        // ---- Phase II: shared 3-TOURNAMENT rounds ----------------------
        let t0 = Instant::now();
        copy_into(&pool, threads, &mut traj.snap2[0], &states);
        timings.record_secs += t0.elapsed().as_secs_f64();
        let mut coins_for = usize::MAX;
        for r in 0..r2max {
            let (j, s) = (r / 3, r % 3);
            let cls = p2_round_class(plans, k, r);
            let EpochScratch {
                slots,
                coins,
                active,
                ..
            } = &mut scratch;
            let t0 = Instant::now();
            {
                let slot_m = &mut slots[s];
                if cls.any_dense {
                    e2.collect_lanes(&states, slot_m);
                } else {
                    if coins_for != j {
                        participation_coins_into(&pool, threads, seed2, j as u64, coins);
                        coins_for = j;
                    }
                    let cref = &coins[..];
                    active.reset_from_fn(|v| cref[v] < cls.delta_max);
                    e2.collect_lanes_on(active, &states, slot_m);
                }
            }
            timings.collect_secs += t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let row = r * n;
            traj.sources2[row..row + n].copy_from_slice(slots[s].sources());
            timings.record_secs += t0.elapsed().as_secs_f64();

            if s == 2 && plans.iter().any(|p| p.t2() > j) {
                let any_delta = plans
                    .iter()
                    .any(|p| p.t2() == j + 1 && p.schedule2.final_delta < 1.0);
                if any_delta && coins_for != j {
                    participation_coins_into(&pool, threads, seed2, j as u64, coins);
                    coins_for = j;
                }
                let t0 = Instant::now();
                let (s0_v, s0_s) = (slots[0].values(), slots[0].sources());
                let (s1_v, s1_s) = (slots[1].values(), slots[1].sources());
                let (s2_v, s2_s) = (slots[2].values(), slots[2].sources());
                let cref = &coins[..];
                par::for_chunks(
                    &pool,
                    &mut states[..],
                    threads,
                    (),
                    |start, chunk| {
                        let mut v = start / q;
                        let mut i = start % q;
                        for slot in chunk.iter_mut() {
                            let t2 = plans[i].t2();
                            if t2 > j {
                                let cur = *slot;
                                let s0 = (s0_s[v] != u32::MAX).then(|| s0_v[v * q + i]);
                                let s1 = (s1_s[v] != u32::MAX).then(|| s1_v[v * q + i]);
                                let s2 = (s2_s[v] != u32::MAX).then(|| s2_v[v * q + i]);
                                let fd = plans[i].schedule2.final_delta;
                                *slot = if t2 == j + 1 && fd < 1.0 {
                                    lane_step_three_delta(cref[v] < fd, s0, s1, s2, cur)
                                } else {
                                    lane_step_three(s0, s1, s2, cur)
                                };
                            }
                            i += 1;
                            if i == q {
                                i = 0;
                                v += 1;
                            }
                        }
                    },
                    |(), ()| (),
                );
                timings.apply_secs += t0.elapsed().as_secs_f64();
                if j < t2max {
                    let t0 = Instant::now();
                    copy_into(&pool, threads, &mut traj.snap2[j + 1], &states);
                    timings.record_secs += t0.elapsed().as_secs_f64();
                }
            }
        }

        // ---- Vote ------------------------------------------------------
        // Derived entirely from the recorded trajectory instead of
        // accumulated per vote round: lane `i`'s sample at vote round `rr`
        // is the value its realised source served. The states served during
        // Phase II round `rr` are `snap2[min(rr/3, t2max)]` (collection
        // precedes the window-end apply), and a lane votes only after its
        // component has frozen, so its vote reads the converged
        // `snap2[t2max]`.
        let t0 = Instant::now();
        {
            let Trajectory {
                outputs,
                snap2,
                sources2,
                ..
            } = &mut traj;
            if outputs.len() != n * q {
                outputs.clear();
                outputs.resize(n * q, fill);
            }
            self.vote
                .run(&pool, threads, &snap2[t2max], sources2, outputs, None);
        }
        timings.vote_secs += t0.elapsed().as_secs_f64();

        let metrics = e1.metrics() + e2.metrics();
        let rounds = metrics.rounds;
        traj.rounds = rounds;
        traj.metrics = metrics;
        #[cfg(debug_assertions)]
        if let Some(before) = warmed_ptrs {
            debug_assert_eq!(
                before,
                epoch_buffer_ptrs(&traj, &states, &scratch.coins),
                "steady-state epoch reallocated a round buffer"
            );
        }
        scratch.states = states;
        scratch.warmed = true;
        self.scratch = scratch;
        self.cache = Some(traj);
        self.dirty.iter_mut().for_each(|d| *d = false);
        Ok(self.outcome_from_cache(rounds, metrics, EpochMode::Full, timings))
    }

    /// Replays the cached trajectory as a pure dataflow over the realised
    /// contact graph recorded by the last full recompute: no engine rounds
    /// run at all. Each Phase I/II iteration touches only the nodes whose
    /// own state or realised pull source is dirty, recomputed states are
    /// compared against the cache and pruned on equality, and the vote
    /// outputs are re-derived for the nodes whose own row or realised vote
    /// sources carry a dirty component. All other nodes keep their cached
    /// trajectory untouched. The reported rounds/metrics are the cached
    /// logical cost of the trajectory (the network would spend the same
    /// either way — only the service-side wall-clock shrinks).
    ///
    /// Steady-state incremental epochs reuse every replay buffer from
    /// [`EpochScratch`]; a debug fingerprint asserts no buffer moved.
    ///
    /// The per-round dirty frontier is carved into disjoint node chunks and
    /// recomputed on the shared pool.
    fn recompute_incremental(&mut self) -> Result<ServiceOutcome<V>> {
        let mut cache = self
            .cache
            .take()
            .expect("incremental replay needs a cached trajectory");
        let (n, q) = (self.n, self.queries.len());
        let (t1max, t2max) = (self.t1max(), self.t2max());
        let (seed1, seed2) = self.phase_seeds();
        let pool = Arc::clone(
            self.engine_config
                .pool
                .as_ref()
                .expect("the service constructor always installs a pool"),
        );
        let threads = self.threads.unwrap_or(if n >= Engine::<()>::PAR_MIN_NODES {
            par::num_threads()
        } else {
            1
        });
        let mut timings = EpochTimings::default();
        let t_replay = Instant::now();

        // ---- Buffer preparation (the full epoch sized every buffer) -----
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(scratch.warmed, "a full epoch precedes every replay");
        #[cfg(debug_assertions)]
        let before = replay_buffer_ptrs(&cache, &scratch);
        let EpochScratch {
            coins,
            dirty_map,
            comp_dirty,
            frontier,
            cand,
            ..
        } = &mut scratch;
        dirty_map.fill(false);
        comp_dirty.fill(false);

        // Seed the dirty set, pruning holders whose value bounced back.
        let mut dirty_nodes = 0usize;
        for v in 0..n {
            if self.dirty[v] && self.inputs[v] != cache.snap1[0][v * q] {
                dirty_map[v] = true;
                dirty_nodes += 1;
                for i in 0..q {
                    comp_dirty[v * q + i] = true;
                    cache.snap1[0][v * q + i] = self.inputs[v];
                }
            }
        }
        let dirty_fraction = dirty_nodes as f64 / n as f64;
        if dirty_nodes == 0 {
            // Every marked holder bounced back to its cached value: the
            // cached trajectory is already current.
            let (rounds, metrics) = (cache.rounds, cache.metrics);
            self.cache = Some(cache);
            self.scratch = scratch;
            self.dirty.iter_mut().for_each(|d| *d = false);
            timings.replay_secs = t_replay.elapsed().as_secs_f64();
            return Ok(self.outcome_from_cache(
                rounds,
                metrics,
                EpochMode::Incremental {
                    dirty_nodes,
                    dirty_fraction,
                },
                timings,
            ));
        }
        let plans = &self.plans;

        // ---- Phase I replay --------------------------------------------
        for j in 0..t1max {
            let cls = p1_class(plans, j);
            if cls.needs_coins {
                participation_coins_into(&pool, threads, seed1, j as u64, coins);
            }
            // A node's iteration-`j` state can change only if its own state
            // or one of its realised pull sources this iteration is dirty.
            let sa_row = &cache.sources1[2 * j * n..(2 * j + 1) * n];
            let sb_row = &cache.sources1[(2 * j + 1) * n..(2 * j + 2) * n];
            mark_frontier(&pool, threads, dirty_map, &[sa_row, sb_row], frontier, cand);
            let (head, tail) = cache.snap1.split_at_mut(j + 1);
            let (snap, next) = (&head[j][..], &mut tail[0]);
            let cref = &coins[..];
            // The candidates are disjoint rows of both the next snapshot
            // and the component-dirty map, so the frontier recompute carves
            // them into per-thread chunks.
            par::for_sparse_rows2(
                &pool,
                &mut next[..],
                q,
                &mut comp_dirty[..],
                q,
                cand,
                threads,
                (),
                |ids, base, sub_next, sub_cd| {
                    for &vu in ids {
                        let v = vu as usize;
                        let rel = (v - base) * q;
                        let sa = (sa_row[v] != u32::MAX).then(|| sa_row[v] as usize * q);
                        let sb = (sb_row[v] != u32::MAX).then(|| sb_row[v] as usize * q);
                        for (i, plan) in plans.iter().enumerate() {
                            let steps = &plan.schedule1.steps;
                            let cur = snap[v * q + i];
                            let new = if j >= steps.len() {
                                cur
                            } else {
                                let side = plan.schedule1.side;
                                let delta = steps[j].delta;
                                let s0 = sa.map(|o| snap[o + i]);
                                let s1 = sb.map(|o| snap[o + i]);
                                if delta >= 1.0 {
                                    lane_step_two(side, s0, s1, cur)
                                } else {
                                    lane_step_two_delta(side, cref[v] < delta, s0, s1, cur)
                                }
                            };
                            sub_cd[rel + i] = new != sub_next[rel + i];
                            sub_next[rel + i] = new;
                        }
                    }
                },
                |(), ()| (),
            );
            settle_dirty(&pool, threads, dirty_map, frontier, comp_dirty, q);
        }
        for (v, &dirty) in dirty_map.iter().enumerate() {
            if dirty {
                let (src, dst) = (&cache.snap1[t1max][v * q..(v + 1) * q], v * q);
                cache.snap2[0][dst..dst + q].copy_from_slice(src);
            }
        }

        // ---- Phase II replay -------------------------------------------
        for j in 0..t2max {
            let any_delta = plans
                .iter()
                .any(|p| p.t2() == j + 1 && p.schedule2.final_delta < 1.0);
            if any_delta {
                participation_coins_into(&pool, threads, seed2, j as u64, coins);
            }
            // The three rounds of window `j` all serve the pre-window
            // snapshot, so replay reduces to one pass per window. Sparse
            // rounds need no membership test: a sat-out round is a
            // `u32::MAX` source.
            let rows: [&[u32]; 3] = [
                &cache.sources2[3 * j * n..(3 * j + 1) * n],
                &cache.sources2[(3 * j + 1) * n..(3 * j + 2) * n],
                &cache.sources2[(3 * j + 2) * n..(3 * j + 3) * n],
            ];
            mark_frontier(&pool, threads, dirty_map, &rows, frontier, cand);
            let (head, tail) = cache.snap2.split_at_mut(j + 1);
            let (snapj, next) = (&head[j][..], &mut tail[0]);
            let cref = &coins[..];
            par::for_sparse_rows2(
                &pool,
                &mut next[..],
                q,
                &mut comp_dirty[..],
                q,
                cand,
                threads,
                (),
                |ids, base, sub_next, sub_cd| {
                    for &vu in ids {
                        let v = vu as usize;
                        let rel = (v - base) * q;
                        let offset = |slot: usize| {
                            let src = rows[slot][v];
                            (src != u32::MAX).then(|| src as usize * q)
                        };
                        let (s0o, s1o, s2o) = (offset(0), offset(1), offset(2));
                        for (i, plan) in plans.iter().enumerate() {
                            let t2 = plan.t2();
                            let cur = snapj[v * q + i];
                            let new = if t2 <= j {
                                cur
                            } else {
                                let s0 = s0o.map(|o| snapj[o + i]);
                                let s1 = s1o.map(|o| snapj[o + i]);
                                let s2 = s2o.map(|o| snapj[o + i]);
                                let fd = plan.schedule2.final_delta;
                                if t2 == j + 1 && fd < 1.0 {
                                    lane_step_three_delta(cref[v] < fd, s0, s1, s2, cur)
                                } else {
                                    lane_step_three(s0, s1, s2, cur)
                                }
                            };
                            sub_cd[rel + i] = new != sub_next[rel + i];
                            sub_next[rel + i] = new;
                        }
                    }
                },
                |(), ()| (),
            );
            settle_dirty(&pool, threads, dirty_map, frontier, comp_dirty, q);
        }
        timings.replay_secs = t_replay.elapsed().as_secs_f64();

        // ---- Patch the vote outputs ------------------------------------
        // A lane's components freeze once it converges, so after the window
        // loop `comp_dirty`, and with it the row flags `dirty_map`, is final
        // for every lane: a node's vote output can change only if its own
        // row or one of its realised vote-source rows holds a dirty lane
        // (the own-row test also covers the empty-vote fallback to the
        // converged value). Those nodes re-run the full epoch's vote kernel.
        let t0 = Instant::now();
        self.vote.run(
            &pool,
            threads,
            &cache.snap2[t2max],
            &cache.sources2,
            &mut cache.outputs,
            Some(dirty_map),
        );
        timings.vote_secs = t0.elapsed().as_secs_f64();

        #[cfg(debug_assertions)]
        debug_assert_eq!(
            before,
            replay_buffer_ptrs(&cache, &scratch),
            "steady-state incremental epoch reallocated a round buffer"
        );
        self.scratch = scratch;
        let rounds = cache.rounds;
        let metrics = cache.metrics;
        self.cache = Some(cache);
        self.dirty.iter_mut().for_each(|d| *d = false);
        Ok(self.outcome_from_cache(
            rounds,
            metrics,
            EpochMode::Incremental {
                dirty_nodes,
                dirty_fraction,
            },
            timings,
        ))
    }

    fn outcome_from_cache(
        &self,
        rounds: u64,
        metrics: Metrics,
        mode: EpochMode,
        timings: EpochTimings,
    ) -> ServiceOutcome<V> {
        let outputs = &self.cache.as_ref().expect("cache just written").outputs;
        let q = self.queries.len();
        let answers = (0..q)
            .map(|i| outputs.chunks_exact(q).map(|row| row[i]).collect())
            .collect();
        ServiceOutcome {
            answers,
            rounds,
            metrics,
            per_query: self.per_query.clone(),
            mode,
            timings,
        }
    }
}

/// Classification of Phase I iteration `j` across lanes.
struct P1Class {
    /// Some lane runs a full (δ = 1) step at `j`, forcing slot B dense.
    any_dense_b: bool,
    /// Some lane runs a δ-truncated step at `j` (participation coins needed).
    needs_coins: bool,
    /// Largest δ among truncated lanes (their participant sets are nested
    /// under the shared coins, so this is the union's cut).
    delta_max: f64,
}

fn p1_class(plans: &[LanePlan], j: usize) -> P1Class {
    let mut cls = P1Class {
        any_dense_b: false,
        needs_coins: false,
        delta_max: 0.0,
    };
    for plan in plans {
        let steps = &plan.schedule1.steps;
        if j < steps.len() {
            let d = steps[j].delta;
            if d >= 1.0 {
                cls.any_dense_b = true;
            } else {
                cls.needs_coins = true;
                if d > cls.delta_max {
                    cls.delta_max = d;
                }
            }
        }
    }
    cls
}

/// Classification of Phase II round `r` (0-based within the phase). Vote
/// rounds need no lane list here — the vote outputs are derived after the
/// phase from the recorded snapshots and realised sources — but a voting
/// lane still forces the round dense.
struct P2Round {
    /// Some lane needs the round dense (first slot of an iteration, a full
    /// tournament step, or a vote round).
    any_dense: bool,
    /// Largest final δ among truncated lanes when the round can run sparse.
    delta_max: f64,
}

fn p2_round_class(plans: &[LanePlan], k: usize, r: usize) -> P2Round {
    let (j, s) = (r / 3, r % 3);
    let mut cls = P2Round {
        any_dense: false,
        delta_max: 0.0,
    };
    for plan in plans {
        let t2 = plan.t2();
        if r < 3 * t2 {
            if s == 0 {
                cls.any_dense = true;
            } else if t2 == j + 1 && plan.schedule2.final_delta < 1.0 {
                if plan.schedule2.final_delta > cls.delta_max {
                    cls.delta_max = plan.schedule2.final_delta;
                }
            } else {
                cls.any_dense = true;
            }
        } else if r < 3 * t2 + k {
            cls.any_dense = true;
        }
    }
    cls
}

/// The participation coins of one iteration, drawn exactly as the solo
/// tournaments draw them (`STREAM_PARTICIPATION`, keyed by iteration), into
/// a reused buffer in parallel — each coin depends only on `(seed,
/// iteration, node)`, so chunking is invisible in the values.
fn participation_coins_into(
    pool: &WorkerPool,
    threads: usize,
    seed: u64,
    iteration: u64,
    out: &mut [f64],
) {
    let prefix = NodeRng::key_prefix(seed, iteration, NodeRng::STREAM_PARTICIPATION);
    par::for_chunks(
        pool,
        out,
        threads,
        (),
        |start, chunk| {
            for (j, c) in chunk.iter_mut().enumerate() {
                *c = prefix.node((start + j) as u64).next_f64();
            }
        },
        |(), ()| (),
    );
}

/// Marks one replay iteration's frontier — every node whose own state or
/// some realised source in `rows` is dirty — into `frontier`, and lists it
/// in ascending order in `cand`.
fn mark_frontier(
    pool: &WorkerPool,
    threads: usize,
    dirty: &[bool],
    rows: &[&[u32]],
    frontier: &mut [bool],
    cand: &mut Vec<u32>,
) {
    par::for_chunks(
        pool,
        frontier,
        threads,
        (),
        |start, chunk| {
            for (f, v) in chunk.iter_mut().zip(start..) {
                *f = dirty[v]
                    || rows
                        .iter()
                        .any(|row| row[v] != u32::MAX && dirty[row[v] as usize]);
            }
        },
        |(), ()| (),
    );
    cand.clear();
    cand.extend((0..frontier.len() as u32).filter(|&v| frontier[v as usize]));
}

/// After a replay iteration's recompute, a frontier node stays dirty iff one
/// of its components changed; nodes off the frontier keep their flag (their
/// components did not change either). The frontier recompute reads no dirty
/// flag, so this update runs after it.
fn settle_dirty(
    pool: &WorkerPool,
    threads: usize,
    dirty: &mut [bool],
    frontier: &[bool],
    comp_dirty: &[bool],
    q: usize,
) {
    par::for_chunks(
        pool,
        dirty,
        threads,
        (),
        |start, chunk| {
            for (d, v) in chunk.iter_mut().zip(start..) {
                if frontier[v] {
                    *d = comp_dirty[v * q..][..q].contains(&true);
                }
            }
        },
        |(), ()| (),
    );
}

/// Pool-parallel `dst.copy_from_slice(src)`, (re)sizing `dst` only on a
/// length mismatch — the snapshot-recording primitive of the full epoch
/// (steady-state epochs always hit the matched-length path and stay
/// allocation-free).
fn copy_into<V: NodeValue>(pool: &WorkerPool, threads: usize, dst: &mut Vec<V>, src: &[V]) {
    if src.is_empty() {
        dst.clear();
        return;
    }
    if dst.len() != src.len() {
        dst.clear();
        dst.resize(src.len(), src[0]);
    }
    par::for_chunks(
        pool,
        &mut dst[..],
        threads,
        (),
        |start, chunk| {
            chunk.copy_from_slice(&src[start..start + chunk.len()]);
        },
        |(), ()| (),
    );
}

/// The backing-store pointers of every per-epoch buffer, used by the debug
/// steady-state assertion in `full_epoch_body`: if any pointer moved between
/// two warmed epochs, a round buffer was reallocated.
#[cfg(debug_assertions)]
fn epoch_buffer_ptrs<V>(traj: &Trajectory<V>, states: &[V], coins: &[f64]) -> Vec<usize> {
    let mut ptrs = vec![
        states.as_ptr() as usize,
        coins.as_ptr() as usize,
        traj.sources1.as_ptr() as usize,
        traj.sources2.as_ptr() as usize,
        traj.outputs.as_ptr() as usize,
    ];
    ptrs.extend(traj.snap1.iter().map(|s| s.as_ptr() as usize));
    ptrs.extend(traj.snap2.iter().map(|s| s.as_ptr() as usize));
    ptrs
}

/// [`epoch_buffer_ptrs`] plus the incremental replay's own buffers, for the
/// same steady-state assertion in `incremental_epoch_body`.
#[cfg(debug_assertions)]
fn replay_buffer_ptrs<V>(traj: &Trajectory<V>, scratch: &EpochScratch<V>) -> Vec<usize> {
    let mut ptrs = epoch_buffer_ptrs(traj, &scratch.states, &scratch.coins);
    ptrs.extend([
        scratch.dirty_map.as_ptr() as usize,
        scratch.comp_dirty.as_ptr() as usize,
        scratch.frontier.as_ptr() as usize,
        scratch.cand.as_ptr() as usize,
    ]);
    ptrs
}

/// One lane's update in a full (δ = 1) Phase I iteration — the exact arms of
/// [`crate::two_tournament::run`]'s dense `local_step`.
fn lane_step_two<V: NodeValue>(side: ShrinkSide, s0: Option<V>, s1: Option<V>, cur: V) -> V {
    match (s0, s1) {
        (Some(a), Some(b)) => extremum(side, a, b),
        (Some(a), None) => extremum(side, a, cur),
        (None, Some(b)) => extremum(side, b, cur),
        (None, None) => cur,
    }
}

/// One lane's update in a δ-truncated Phase I iteration.
fn lane_step_two_delta<V: NodeValue>(
    side: ShrinkSide,
    participant: bool,
    s0: Option<V>,
    s1: Option<V>,
    cur: V,
) -> V {
    let s1 = if participant { s1 } else { None };
    match (s0, s1) {
        (Some(a), Some(b)) => extremum(side, a, b),
        (Some(a), None) if !participant => a,
        (Some(a), None) => extremum(side, a, cur),
        (None, Some(b)) => extremum(side, b, cur),
        (None, None) => cur,
    }
}

/// One lane's update in a full Phase II iteration — the samples present, in
/// round order, fed through the dense arms of [`crate::three_tournament::run`].
fn lane_step_three<V: NodeValue>(s0: Option<V>, s1: Option<V>, s2: Option<V>, cur: V) -> V {
    let mut got = [cur; 3];
    let mut c = 0;
    for x in [s0, s1, s2].into_iter().flatten() {
        got[c] = x;
        c += 1;
    }
    match c {
        3 => median3(got[0], got[1], got[2]),
        2 => median3(got[0], got[1], cur),
        1 => median3(got[0], cur, cur),
        _ => cur,
    }
}

/// One lane's update in the δ-truncated final Phase II iteration.
fn lane_step_three_delta<V: NodeValue>(
    participant: bool,
    s0: Option<V>,
    s1: Option<V>,
    s2: Option<V>,
    cur: V,
) -> V {
    if !participant {
        return match s0 {
            Some(a) => a,
            None => cur,
        };
    }
    let mut extra = [cur; 2];
    let mut c = 0;
    for x in [s1, s2].into_iter().flatten() {
        extra[c] = x;
        c += 1;
    }
    match (s0, c) {
        (Some(a), 2) => median3(a, extra[0], extra[1]),
        (Some(a), 1) => median3(a, extra[0], cur),
        (Some(a), _) => median3(a, cur, cur),
        (None, 2) => median3(extra[0], extra[1], cur),
        (None, 1) => median3(extra[0], cur, cur),
        _ => cur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{tournament_quantile, TournamentConfig};

    fn inputs(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 7919) % 100_000).collect()
    }

    #[test]
    fn batched_answers_match_solo_runs_bit_for_bit() {
        let values = inputs(256);
        let queries = [
            QuantileQuery::new(0.5, 0.125),
            QuantileQuery::new(0.9, 0.1),
            QuantileQuery::new(0.1, 0.125),
        ];
        let mut svc = QuantileService::new(
            &values,
            &queries,
            ServiceConfig::default(),
            EngineConfig::with_seed(99),
        )
        .unwrap();
        let out = svc.epoch().unwrap();
        assert_eq!(out.mode, EpochMode::Full);
        for (i, query) in queries.iter().enumerate() {
            let solo = tournament_quantile(
                &values,
                query.phi,
                query.epsilon,
                &TournamentConfig::default(),
                EngineConfig::with_seed(99),
            )
            .unwrap();
            assert_eq!(out.answers[i], solo.outputs, "query {i} diverged");
        }
        // Sharing rounds across 3 queries beats the summed solo cost.
        assert!(
            out.amortisation() > 1.0,
            "amortisation {}",
            out.amortisation()
        );
    }

    #[test]
    fn incremental_epoch_equals_full_recompute() {
        let values = inputs(300);
        let queries = [QuantileQuery::new(0.5, 0.125), QuantileQuery::new(0.8, 0.1)];
        let cfg = ServiceConfig::default();
        let mut inc =
            QuantileService::new(&values, &queries, cfg, EngineConfig::with_seed(5)).unwrap();
        inc.epoch().unwrap();
        for (node, val) in [(7usize, 1u64), (123, 99_999), (250, 17)] {
            inc.set_value(node, val).unwrap();
        }
        let out = inc.epoch().unwrap();
        assert!(matches!(
            out.mode,
            EpochMode::Incremental { dirty_nodes: 3, .. }
        ));

        let mut updated = values;
        for (node, val) in [(7usize, 1u64), (123, 99_999), (250, 17)] {
            updated[node] = val;
        }
        let mut full =
            QuantileService::new(&updated, &queries, cfg, EngineConfig::with_seed(5)).unwrap();
        let fout = full.epoch().unwrap();
        assert_eq!(out.answers, fout.answers);
        assert_eq!(out.rounds, fout.rounds);
    }

    #[test]
    fn clean_incremental_epoch_reuses_the_cache() {
        let values = inputs(128);
        let queries = [QuantileQuery::new(0.5, 0.125)];
        let mut svc = QuantileService::new(
            &values,
            &queries,
            ServiceConfig::default(),
            EngineConfig::with_seed(1),
        )
        .unwrap();
        let first = svc.epoch().unwrap();
        let second = svc.epoch().unwrap();
        assert!(matches!(
            second.mode,
            EpochMode::Incremental { dirty_nodes: 0, .. }
        ));
        assert_eq!(first.answers, second.answers);
    }

    #[test]
    fn dirty_threshold_falls_back_to_full() {
        let values = inputs(64);
        let queries = [QuantileQuery::new(0.5, 0.125)];
        let cfg = ServiceConfig {
            dirty_threshold: 0.05,
            ..ServiceConfig::default()
        };
        let mut svc =
            QuantileService::new(&values, &queries, cfg, EngineConfig::with_seed(2)).unwrap();
        svc.epoch().unwrap();
        for v in 0..10 {
            svc.set_value(v, 1_000_000 + v as u64).unwrap();
        }
        let out = svc.epoch().unwrap();
        assert_eq!(out.mode, EpochMode::Full);
    }

    #[test]
    fn ingest_marks_dirty_only_when_the_sketch_median_moves() {
        let values = inputs(64);
        let queries = [QuantileQuery::new(0.5, 0.125)];
        let mut svc = QuantileService::new(
            &values,
            &queries,
            ServiceConfig::default(),
            EngineConfig::with_seed(3),
        )
        .unwrap();
        svc.epoch().unwrap();
        assert_eq!(svc.dirty_nodes(), 0);
        // The initial singleton median shifts on the first divergent insert.
        svc.ingest(0, 55).unwrap();
        assert!(svc.dirty_nodes() <= 1);
        // Re-ingesting the current effective value never dirties.
        let eff = svc.effective_values()[1];
        svc.ingest(1, eff).unwrap();
        assert_eq!(svc.effective_values()[1], eff);
    }

    #[test]
    fn constructor_rejects_bad_parameters() {
        let values = inputs(16);
        let q = [QuantileQuery::new(0.5, 0.1)];
        let ec = EngineConfig::with_seed(0);
        assert!(
            QuantileService::new(&values[..1], &q, ServiceConfig::default(), ec.clone()).is_err()
        );
        assert!(QuantileService::new(&values, &[], ServiceConfig::default(), ec.clone()).is_err());
        assert!(QuantileService::new(
            &values,
            &[QuantileQuery::new(1.5, 0.1)],
            ServiceConfig::default(),
            ec.clone()
        )
        .is_err());
        assert!(QuantileService::new(
            &values,
            &[QuantileQuery::new(0.5, 0.0)],
            ServiceConfig::default(),
            ec.clone()
        )
        .is_err());
        let bad = ServiceConfig {
            dirty_threshold: f64::NAN,
            ..ServiceConfig::default()
        };
        assert!(QuantileService::new(&values, &q, bad, ec.clone()).is_err());
        let bad = ServiceConfig {
            sketch_capacity: 0,
            ..ServiceConfig::default()
        };
        assert!(QuantileService::new(&values, &q, bad, ec).is_err());
    }

    #[test]
    fn per_query_costs_match_the_solo_round_formula() {
        let values = inputs(512);
        let queries = [
            QuantileQuery::new(0.3, 0.125),
            QuantileQuery::new(0.5, 0.06),
        ];
        let svc = QuantileService::new(
            &values,
            &queries,
            ServiceConfig::default(),
            EngineConfig::with_seed(4),
        )
        .unwrap();
        for (query, cost) in queries.iter().zip(svc.per_query()) {
            let solo = tournament_quantile(
                &values,
                query.phi,
                query.epsilon,
                &TournamentConfig::default(),
                EngineConfig::with_seed(4),
            )
            .unwrap();
            assert_eq!(cost.solo_rounds, solo.rounds);
        }
    }
}
