//! The four workloads: one closed-loop caller each, issuing the next call to
//! a paper entry point only after the previous one returned.
//!
//! A workload owns its generated inputs (from the `--seed` argument only)
//! and a [`RankOracle`] over them. Every timed call is verified against the
//! oracle after its timed window closes, by the workload's own rule.

use crate::stats::Digest;
use crate::trace::Tracer;
use analysis::{RankOracle, Workload};
use gossip_net::{
    par, ChurnModel, EngineConfig, FaultPlan, LossModel, Metrics, PoolStats, SeedSequence,
    WorkerPool,
};
use quantile_gossip::schedule::{ThreeTournamentSchedule, TwoTournamentSchedule};
use quantile_gossip::{
    exact_quantile, robust_approximate_quantile, three_tournament, tournament_quantile,
    two_tournament, ApproxOutcome, EpochMode, MethodUsed, NarrowingConfig, QuantileQuery,
    QuantileService, RobustConfig, ServiceConfig, ServiceOutcome, TournamentConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["approx-250k", "exact-32k", "faulty-100k", "service-50k-q64"];

// Sizes. Each keeps its workload's regime (beyond L2 for `approx`, per-round
// costs for `exact`) while a call stays short enough that one run holds many
// of them: on a shared host, working sets of hundreds of MB and calls of
// several seconds made run-to-run medians move by more than 25 %.
/// Nodes of `approx-250k`.
pub const APPROX_N: usize = 250_000;
/// Nodes of `exact-32k`.
pub const EXACT_N: usize = 32_768;
/// Nodes of `faulty-100k`.
pub const FAULTY_N: usize = 100_000;
/// Holders of `service-50k-q64`.
pub const SERVICE_N: usize = 50_000;
/// Queries of `service-50k-q64`.
pub const SERVICE_Q: usize = 64;

/// φ rotation of the single-query workloads.
const PHIS: [f64; 3] = [0.1, 0.5, 0.9];
/// ε of every approximate workload.
const EPSILON: f64 = 0.05;

/// What a timed step is, for the metrics that select by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One call of a single-query entry point.
    Query,
    /// A full service epoch (`recompute_full`, or `epoch` without a cache).
    FullEpoch,
    /// An incremental service epoch.
    IncrementalEpoch,
}

/// One timed step of a closed loop and what verifying it found.
#[derive(Debug, Clone)]
pub struct Step {
    /// What the step was.
    pub kind: Kind,
    /// Wall seconds of the entry-point call (the timed window).
    pub secs: f64,
    /// Queries the call answered.
    pub queries: usize,
    /// Communication metrics of the call.
    pub metrics: Metrics,
    /// Worst |rank/n − φ| over all outputs (and lanes).
    pub rank_error: f64,
    /// Whether the call returned `Ok` and kept its guarantee.
    pub ok: bool,
    /// Digest of every answer.
    pub digest: u64,
    /// Wall seconds spent verifying, outside the timed window.
    pub verify_secs: f64,
    /// Wall seconds of the write batch before the call (service only).
    pub ingest_secs: f64,
    /// `ingest` calls in that batch (service only).
    pub ingests: usize,
    /// Worker-pool scheduling counters consumed by the call.
    pub pool: PoolStats,
    /// Layer values read from the call's outcome, by per-layer metric name.
    pub layers: Vec<(&'static str, f64)>,
}

impl Step {
    fn new(kind: Kind, secs: f64, queries: usize) -> Self {
        Step {
            kind,
            secs,
            queries,
            metrics: Metrics::new(),
            rank_error: 0.0,
            ok: false,
            digest: 0,
            verify_secs: 0.0,
            ingest_secs: 0.0,
            ingests: 0,
            pool: PoolStats::default(),
            layers: Vec::new(),
        }
    }
}

/// What set-up produced besides its time.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Digest of the warm-up answers (0 without warm-up).
    pub digest: u64,
    /// Whether every warm-up answer kept its guarantee.
    pub ok: bool,
    /// Wall seconds spent verifying warm-up answers, which set-up time
    /// leaves out.
    pub verify_secs: f64,
    /// Layer values measured during set-up.
    pub layers: Vec<(&'static str, f64)>,
}

impl Setup {
    /// A set-up without warm-up calls.
    fn cold() -> Self {
        Setup {
            ok: true,
            ..Setup::default()
        }
    }

    /// A set-up whose warm-up was the single call `warm`.
    fn warmed(warm: &Step) -> Self {
        Setup {
            digest: warm.digest,
            ok: warm.ok,
            verify_secs: warm.verify_secs,
            layers: Vec::new(),
        }
    }
}

/// A workload's closed loop.
pub trait Bench {
    /// Builds what the timed loop reuses (worker pool, engine configuration,
    /// service) and, with `warm_up`, runs the warm-up calls, so lazy buffer
    /// sizing lands here and not in the timed steps. Each call starts afresh.
    fn setup(&mut self, warm_up: bool, tr: &mut Tracer) -> Setup;
    /// Runs timed step `index` and verifies it.
    fn step(&mut self, index: usize, tr: &mut Tracer) -> Step;
    /// Steps of one cycle (a φ rotation, or writes and epochs up to the
    /// next full recompute). The loop ends only at a cycle boundary, so every
    /// run covers whole cycles and the answer digest of the first cycle is
    /// comparable between runs.
    fn cycle(&self) -> usize;
    /// Whether a step can be run twice with identical results (the traced
    /// run then pairs an untraced and a traced run of each step).
    fn replayable(&self) -> bool;
    /// Steps the traced run makes when this workload is not the one named
    /// on the command line, so its layers still report.
    fn sweep_steps(&self) -> usize {
        1
    }
    /// Sizing, for the report.
    fn describe(&self) -> String;
}

/// Builds the named workload over inputs generated from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Bench>> {
    Some(match name {
        "approx-250k" => Box::new(Approx::new(APPROX_N, seed)),
        "exact-32k" => Box::new(Exact::new(EXACT_N, seed)),
        "faulty-100k" => Box::new(Faulty::new(FAULTY_N, seed)),
        "service-50k-q64" => Box::new(Service::new(SERVICE_N, SERVICE_Q, seed)),
        _ => return None,
    })
}

/// A pool sized by the engine's default thread policy.
fn default_pool() -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(par::num_threads()))
}

fn pool_delta(pool: &WorkerPool, before: PoolStats) -> PoolStats {
    let after = pool.stats();
    PoolStats {
        dispatches: after.dispatches - before.dispatches,
        wakeups: after.wakeups - before.wakeups,
    }
}

fn digest_of(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::default();
    values.into_iter().for_each(|v| d.word(v));
    d.value()
}

/// Checks ε-approximate outputs against the oracle: whether every output has
/// a rank within `±ε·n` of `⌈φ·n⌉`, and the worst absolute quantile error.
/// Outputs concentrate on a few values, so each distinct value is checked
/// once.
fn check_approx(
    oracle: &RankOracle<u64>,
    outputs: impl IntoIterator<Item = u64>,
    phi: f64,
    epsilon: f64,
) -> (bool, f64) {
    let mut seen: HashMap<u64, (bool, f64)> = HashMap::new();
    let (mut ok, mut worst) = (true, 0.0f64);
    for v in outputs {
        let (within, err) = *seen.entry(v).or_insert_with(|| {
            (
                oracle.within_epsilon(&v, phi, epsilon),
                oracle.quantile_error(&v, phi).abs(),
            )
        });
        ok &= within;
        worst = worst.max(err);
    }
    (ok, worst)
}

/// Inputs and oracle shared by the single-query workloads.
struct Inputs {
    values: Vec<u64>,
    oracle: RankOracle<u64>,
    /// Engine seeds of the timed calls (`seed_at(i)` for step `i`).
    calls: SeedSequence,
    /// Engine seeds of the warm-up calls.
    warm: SeedSequence,
}

impl Inputs {
    fn new(n: usize, seed: u64) -> Self {
        let values = Workload::UniformDistinct.generate(n, seed);
        let oracle = RankOracle::new(&values);
        let seeds = SeedSequence::new(seed);
        Inputs {
            values,
            oracle,
            calls: seeds.fork(1),
            warm: seeds.fork(2),
        }
    }
}

/// `approx-250k`: `tournament_quantile` (Theorem 2.1) at n = 250k.
pub struct Approx {
    inputs: Inputs,
    pool: Arc<WorkerPool>,
}

impl Approx {
    fn new(n: usize, seed: u64) -> Self {
        Approx {
            inputs: Inputs::new(n, seed),
            pool: default_pool(),
        }
    }

    fn config(&self, seed: u64) -> EngineConfig {
        EngineConfig::with_seed(seed).pool(Arc::clone(&self.pool))
    }

    /// `tournament_quantile` rebuilt from its public pieces, one span per
    /// piece: the same sub-seeds, schedules and phase runs, in the same order.
    /// `config` already carries the shared pool, which is what
    /// `tournament_quantile`'s `ensure_pool_for` would otherwise install.
    fn decomposed(
        &self,
        phi: f64,
        config: EngineConfig,
        tr: &mut Tracer,
        layers: &mut Vec<(&'static str, f64)>,
    ) -> gossip_net::Result<ApproxOutcome<u64>> {
        let values = &self.inputs.values;
        let eps = EPSILON.min(quantile_gossip::approx::MAX_TOURNAMENT_EPSILON);
        let mut seeds = SeedSequence::new(config.seed);
        let sub = |seeds: &mut SeedSequence| config.sub(seeds.next_seed());
        let schedule1 = tr.span("schedule.two_tournament", |_| {
            TwoTournamentSchedule::compute(phi, eps)
        })?;
        let phase1 = tr.span("two_tournament.run", |_| {
            two_tournament::run(values, &schedule1, sub(&mut seeds))
        })?;
        let schedule2 = tr.span("schedule.three_tournament", |_| {
            ThreeTournamentSchedule::compute(eps / 4.0, values.len())
        })?;
        let phase2 = tr.span("three_tournament.run", |_| {
            three_tournament::run(
                &phase1.values,
                &schedule2,
                TournamentConfig::default().final_vote,
                sub(&mut seeds),
            )
        })?;
        layers.extend([
            ("two_tournament.rounds", phase1.rounds as f64),
            ("two_tournament.iterations", phase1.iterations as f64),
            ("three_tournament.rounds", phase2.rounds as f64),
            ("three_tournament.iterations", phase2.iterations as f64),
        ]);
        let metrics = phase1.metrics + phase2.metrics;
        Ok(ApproxOutcome {
            outputs: phase2.outputs,
            rounds: metrics.rounds,
            metrics,
            method: MethodUsed::Tournament {
                phase1_iterations: phase1.iterations,
                phase2_iterations: phase2.iterations,
            },
        })
    }

    fn run(&self, phi: f64, seed: u64, tr: &mut Tracer) -> Step {
        let before = self.pool.stats();
        let mut layers = Vec::new();
        let start = Instant::now();
        let out = if tr.enabled() {
            tr.call("tournament_quantile", |tr| {
                self.decomposed(phi, self.config(seed), tr, &mut layers)
            })
        } else {
            tournament_quantile(
                &self.inputs.values,
                phi,
                EPSILON,
                &TournamentConfig::default(),
                self.config(seed),
            )
        };
        let mut step = Step::new(Kind::Query, start.elapsed().as_secs_f64(), 1);
        step.pool = pool_delta(&self.pool, before);
        step.layers = layers;
        let verify = Instant::now();
        if let Ok(out) = out {
            let (ok, err) = tr.span("rank.verify", |_| {
                check_approx(
                    &self.inputs.oracle,
                    out.outputs.iter().copied(),
                    phi,
                    EPSILON,
                )
            });
            step.ok = ok;
            step.rank_error = err;
            step.metrics = out.metrics;
            step.digest = digest_of(out.outputs);
        }
        step.verify_secs = verify.elapsed().as_secs_f64();
        step
    }
}

impl Bench for Approx {
    fn setup(&mut self, warm_up: bool, tr: &mut Tracer) -> Setup {
        self.pool = default_pool();
        if !warm_up {
            return Setup::cold();
        }
        Setup::warmed(&self.run(0.5, self.inputs.warm.seed_at(0), tr))
    }

    fn step(&mut self, index: usize, tr: &mut Tracer) -> Step {
        self.run(
            PHIS[index % PHIS.len()],
            self.inputs.calls.seed_at(index as u64),
            tr,
        )
    }

    fn cycle(&self) -> usize {
        PHIS.len()
    }

    fn replayable(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!(
            "tournament_quantile n={} uniform-distinct phi=0.1/0.5/0.9 eps={EPSILON} threads={}",
            self.inputs.values.len(),
            self.pool.threads()
        )
    }
}

/// `exact-32k`: `exact_quantile` (Theorem 1.1) at n = 32 768.
pub struct Exact {
    inputs: Inputs,
    pool: Arc<WorkerPool>,
}

impl Exact {
    fn new(n: usize, seed: u64) -> Self {
        Exact {
            inputs: Inputs::new(n, seed),
            pool: default_pool(),
        }
    }

    fn run(&self, phi: f64, seed: u64, tr: &mut Tracer) -> Step {
        let before = self.pool.stats();
        let config = EngineConfig::with_seed(seed).pool(Arc::clone(&self.pool));
        let start = Instant::now();
        let out = tr.call("exact_quantile", |_| {
            exact_quantile(
                &self.inputs.values,
                phi,
                &NarrowingConfig::default(),
                config,
            )
        });
        let mut step = Step::new(Kind::Query, start.elapsed().as_secs_f64(), 1);
        step.pool = pool_delta(&self.pool, before);
        let verify = Instant::now();
        if let Ok(out) = out {
            let truth = tr.span("rank.verify", |_| self.inputs.oracle.quantile(phi));
            step.ok = out.answer == truth;
            step.rank_error = self.inputs.oracle.quantile_error(&out.answer, phi).abs();
            step.digest = digest_of([out.answer, out.rounds]);
            step.layers = vec![
                ("exact.iterations", out.iterations as f64),
                ("exact.pull_rounds", out.metrics.pull_rounds as f64),
                ("exact.push_rounds", out.metrics.push_rounds as f64),
                (
                    "exact.push_pull_rounds",
                    out.metrics.push_pull_rounds as f64,
                ),
            ];
            step.metrics = out.metrics;
        }
        step.verify_secs = verify.elapsed().as_secs_f64();
        step
    }
}

impl Bench for Exact {
    fn setup(&mut self, warm_up: bool, tr: &mut Tracer) -> Setup {
        self.pool = default_pool();
        if !warm_up {
            return Setup::cold();
        }
        Setup::warmed(&self.run(0.5, self.inputs.warm.seed_at(0), tr))
    }

    fn step(&mut self, index: usize, tr: &mut Tracer) -> Step {
        self.run(
            PHIS[index % PHIS.len()],
            self.inputs.calls.seed_at(index as u64),
            tr,
        )
    }

    fn cycle(&self) -> usize {
        PHIS.len()
    }

    fn replayable(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!(
            "exact_quantile n={} uniform-distinct phi=0.1/0.5/0.9 threads={}",
            self.inputs.values.len(),
            self.pool.threads()
        )
    }
}

/// The fault plan of `faulty-100k`: message loss 0.2 plus churn 0.05 with
/// rejoin after 2 rounds.
pub fn faulty_plan() -> FaultPlan {
    FaultPlan::none()
        .with_loss(LossModel::uniform(0.2).expect("0.2 is a probability"))
        .with_churn(ChurnModel::with_rejoin(0.05, 2).expect("0.05 is a probability"))
}

/// `faulty-100k`: `robust_approximate_quantile` (Theorem 1.4) at n = 100k
/// under [`faulty_plan`].
pub struct Faulty {
    inputs: Inputs,
    pool: Arc<WorkerPool>,
}

impl Faulty {
    const PHI: f64 = 0.5;

    fn new(n: usize, seed: u64) -> Self {
        Faulty {
            inputs: Inputs::new(n, seed),
            pool: default_pool(),
        }
    }

    fn run(&self, seed: u64, tr: &mut Tracer) -> Step {
        let before = self.pool.stats();
        let config = EngineConfig::with_seed(seed)
            .pool(Arc::clone(&self.pool))
            .fault(faulty_plan());
        let robust = RobustConfig {
            adaptive: true,
            ..RobustConfig::default()
        };
        let start = Instant::now();
        let out = tr.call("robust_approximate_quantile", |_| {
            robust_approximate_quantile(&self.inputs.values, Self::PHI, EPSILON, &robust, config)
        });
        let mut step = Step::new(Kind::Query, start.elapsed().as_secs_f64(), 1);
        step.pool = pool_delta(&self.pool, before);
        let verify = Instant::now();
        if let Ok(out) = out {
            // The guarantee covers every node: an unanswered node breaks it.
            let answered = out.outputs.iter().all(Option::is_some);
            let (ok, err) = tr.span("rank.verify", |_| {
                check_approx(
                    &self.inputs.oracle,
                    out.outputs.iter().flatten().copied(),
                    Self::PHI,
                    EPSILON,
                )
            });
            step.ok = ok && answered;
            step.rank_error = err;
            step.digest = digest_of(out.outputs.iter().map(|o| o.map_or(u64::MAX, |v| v)));
            let m = &out.metrics;
            let attempted = (m.pulls_attempted + m.pushes_attempted).max(1) as f64;
            step.layers = vec![
                ("robust.good_fraction", out.good_fraction),
                ("robust.estimated_mu", out.estimated_mu),
                (
                    "fault.dropped_frac",
                    m.messages_dropped as f64 / m.pulls_attempted.max(1) as f64,
                ),
                ("fault.crashed_ops", m.crashed_operations as f64),
                (
                    "fault.delivered_frac",
                    m.messages_delivered as f64 / attempted,
                ),
            ];
            step.metrics = out.metrics;
        }
        step.verify_secs = verify.elapsed().as_secs_f64();
        step
    }
}

impl Bench for Faulty {
    fn setup(&mut self, warm_up: bool, tr: &mut Tracer) -> Setup {
        self.pool = default_pool();
        if !warm_up {
            return Setup::cold();
        }
        Setup::warmed(&self.run(self.inputs.warm.seed_at(0), tr))
    }

    fn step(&mut self, index: usize, tr: &mut Tracer) -> Step {
        self.run(self.inputs.calls.seed_at(index as u64), tr)
    }

    fn cycle(&self) -> usize {
        PHIS.len()
    }

    fn replayable(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!(
            "robust_approximate_quantile n={} phi={} eps={EPSILON} adaptive loss=0.2 churn=0.05/rejoin 2 threads={}",
            self.inputs.values.len(),
            Self::PHI,
            self.pool.threads()
        )
    }
}

/// `service-50k-q64`: a `QuantileService` answering 64 queries over 50k
/// holders, as a stream of write batches each followed by an epoch.
pub struct Service {
    values: Vec<u64>,
    queries: Vec<QuantileQuery>,
    seed: u64,
    service: Option<QuantileService<u64>>,
    /// The pool the service runs its epochs on.
    pool: Arc<WorkerPool>,
    /// Writes of the timed steps, drawn from the seed.
    writes: SmallRng,
}

impl Service {
    /// Holders written per batch, as a fraction of `n`.
    const WRITE_HOLDERS: f64 = 0.01;
    /// `ingest` calls per written holder: more than the 32-entry sketch
    /// holds, so sketches compact.
    const WRITES_PER_HOLDER: usize = 50;
    /// Every this-many-th step recomputes in full instead of `epoch()`.
    const FULL_EVERY: usize = 4;

    fn new(n: usize, q: usize, seed: u64) -> Self {
        let queries = (0..q)
            .map(|i| QuantileQuery::new(0.25 + 0.5 * i as f64 / (q - 1).max(1) as f64, EPSILON))
            .collect();
        Service {
            values: Workload::UniformDistinct.generate(n, seed),
            queries,
            seed,
            service: None,
            pool: default_pool(),
            writes: SmallRng::seed_from_u64(SeedSequence::new(seed).fork(3).next_seed()),
        }
    }

    /// One write batch, drawn before the timed window.
    fn batch(&mut self) -> Vec<(usize, u64)> {
        let n = self.values.len();
        let holders = ((n as f64 * Self::WRITE_HOLDERS) as usize).max(1);
        let domain = n as u64 * 1000;
        let mut batch = Vec::with_capacity(holders * Self::WRITES_PER_HOLDER);
        for _ in 0..holders {
            let node = self.writes.gen_range(0..n);
            for _ in 0..Self::WRITES_PER_HOLDER {
                batch.push((node, self.writes.gen_range(0..domain)));
            }
        }
        batch
    }

    /// A write batch followed by one epoch (full when `full`), verified.
    fn run(&mut self, full: bool, tr: &mut Tracer) -> Step {
        let batch = self.batch();
        let service = self
            .service
            .as_mut()
            .expect("set-up builds the service before any step");
        let ingest = Instant::now();
        let ingested = tr.call("service.write_batch", |_| {
            batch
                .iter()
                .all(|&(node, v)| service.ingest(node, v).is_ok())
        });
        let ingest_secs = ingest.elapsed().as_secs_f64();
        let dirty = service.dirty_nodes();
        let before = self.pool.stats();
        let start = Instant::now();
        let out = if full {
            tr.span("service.recompute_full", |_| service.recompute_full())
        } else {
            tr.span("service.epoch", |_| service.epoch())
        };
        let secs = start.elapsed().as_secs_f64();
        let kind = match &out {
            Ok(o) if o.mode == EpochMode::Full => Kind::FullEpoch,
            _ if full => Kind::FullEpoch,
            _ => Kind::IncrementalEpoch,
        };
        let mut step = Step::new(kind, secs, self.queries.len());
        step.pool = pool_delta(&self.pool, before);
        step.ingest_secs = ingest_secs;
        step.ingests = batch.len();
        step.layers.push((
            "service.ingest_ns",
            ingest_secs * 1e9 / batch.len().max(1) as f64,
        ));
        let verify = Instant::now();
        if let Ok(out) = out {
            let (ok, err) = tr.span("rank.verify", |_| self.verify(&out));
            step.ok = ok && ingested;
            step.rank_error = err;
            step.digest = digest_of(out.answers.iter().flatten().copied());
            let t = out.timings;
            match kind {
                Kind::FullEpoch => step.layers.extend([
                    ("service.recompute_full_s", secs),
                    ("service.collect_s", t.collect_secs),
                    ("service.apply_s", t.apply_secs),
                    ("service.record_s", t.record_secs),
                    ("service.vote_s", t.vote_secs),
                ]),
                _ => step.layers.extend([
                    ("service.epoch_incr_s", secs),
                    ("service.replay_s", t.replay_secs),
                    ("service.vote_patch_s", t.vote_secs),
                    ("service.dirty_nodes", dirty as f64),
                ]),
            }
            step.metrics = out.metrics;
        }
        step.verify_secs = verify.elapsed().as_secs_f64();
        step
    }

    /// Every lane's answers against an oracle over the holders' effective
    /// values, which are what the epoch gossiped.
    fn verify(&self, out: &ServiceOutcome<u64>) -> (bool, f64) {
        let service = self.service.as_ref().expect("verified after an epoch");
        let oracle = RankOracle::new(service.effective_values());
        let (mut ok, mut worst) = (out.answers.len() == self.queries.len(), 0.0f64);
        for (query, answers) in self.queries.iter().zip(&out.answers) {
            let (lane_ok, err) =
                check_approx(&oracle, answers.iter().copied(), query.phi, query.epsilon);
            ok &= lane_ok && answers.len() == service.n();
            worst = worst.max(err);
        }
        (ok, worst)
    }
}

impl Bench for Service {
    fn setup(&mut self, warm_up: bool, tr: &mut Tracer) -> Setup {
        // Drop the previous service first, so two never coexist in memory.
        self.service = None;
        self.writes = SmallRng::seed_from_u64(SeedSequence::new(self.seed).fork(3).next_seed());
        self.pool = default_pool();
        let config = EngineConfig::with_seed(SeedSequence::new(self.seed).fork(1).next_seed())
            .pool(Arc::clone(&self.pool));
        let start = Instant::now();
        let built = tr.call("service.new", |_| {
            QuantileService::new(
                &self.values,
                &self.queries,
                ServiceConfig::default(),
                config,
            )
        });
        let new_s = start.elapsed().as_secs_f64();
        let Ok(service) = built else {
            return Setup::default();
        };
        self.service = Some(service);
        let mut setup = Setup {
            ok: true,
            layers: vec![("service.new_s", new_s)],
            ..Setup::default()
        };
        if warm_up {
            // A full epoch builds the trajectory cache and sizes the epoch
            // scratch; an incremental one sizes the replay buffers.
            let mut d = Digest::default();
            for full in [true, false] {
                let warm = self.run(full, tr);
                setup.ok &= warm.ok;
                setup.verify_secs += warm.verify_secs;
                d.word(warm.digest);
            }
            setup.digest = d.value();
        }
        setup
    }

    fn step(&mut self, index: usize, tr: &mut Tracer) -> Step {
        let full = index % Self::FULL_EVERY == Self::FULL_EVERY - 1;
        self.run(full, tr)
    }

    fn cycle(&self) -> usize {
        Self::FULL_EVERY
    }

    fn replayable(&self) -> bool {
        false
    }

    fn sweep_steps(&self) -> usize {
        // Without a cache the first epoch is full; the second is incremental.
        2
    }

    fn describe(&self) -> String {
        let n = self.values.len();
        format!(
            "QuantileService n={n} q={} phi=0.25..0.75 eps={EPSILON}; step = {} ingests on {} holders + epoch, every {}th step recompute_full",
            self.queries.len(),
            (n as f64 * Self::WRITE_HOLDERS) as usize * Self::WRITES_PER_HOLDER,
            (n as f64 * Self::WRITE_HOLDERS) as usize,
            Self::FULL_EVERY
        )
    }
}
