//! Standalone timed calls of the engine, pool, compactor and counting
//! primitives, at the sizes and value types of the workloads that use them.
//!
//! A probe is not part of any entry-point call: each runs under its own
//! probe span, so the trace never reads it as a child of a workload call.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{faulty_plan, APPROX_N, EXACT_N, FAULTY_N, SERVICE_N, SERVICE_Q};
use analysis::Workload;
use baselines::push_sum::{self, PushSumConfig};
use baselines::CompactorSketch;
use gossip_net::{par, ActiveSet, Engine, EngineConfig, LaneMatrix, WorkerPool};
use quantile_gossip::{tournament_quantile, NarrowingConfig, TournamentConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Round primitives are timed over this many calls; the median is kept.
const ROUNDS: usize = 9;

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| secs(&mut f)).collect();
    median(&samples).expect("at least one repetition")
}

fn engine(values: &[u64], seed: u64, pool: &Arc<WorkerPool>) -> Engine<u64> {
    Engine::from_states(
        values.to_vec(),
        EngineConfig::with_seed(seed).pool(Arc::clone(pool)),
    )
}

/// Median nanoseconds per node of one pull round that keeps the minimum.
fn pull_round_ns(engine: &mut Engine<u64>) -> f64 {
    let n = engine.n() as f64;
    median_secs(ROUNDS, || {
        engine.pull_round(
            |_, s| *s,
            |_, s, m| {
                if let Some(m) = m {
                    *s = (*s).min(m);
                }
            },
        );
    }) * 1e9
        / n
}

/// Pull rounds per second at 2 threads over 1 thread, on `values`.
fn scaling_2t(values: &[u64], seed: u64) -> f64 {
    let rounds_per_s = |threads: usize| {
        let pool = Arc::new(WorkerPool::new(threads));
        let mut e = engine(values, seed, &pool);
        e.set_threads(threads);
        1e9 / (pull_round_ns(&mut e) * e.n() as f64)
    };
    rounds_per_s(2) / rounds_per_s(1)
}

/// Runs every probe and returns its per-layer values.
pub fn run(seed: u64, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let pool = Arc::new(WorkerPool::new(par::num_threads()));
    let threads = pool.threads();
    let mut out = Vec::new();

    let values_approx = Workload::UniformDistinct.generate(APPROX_N, seed);
    let values_faulty = Workload::UniformDistinct.generate(FAULTY_N, seed);
    let values_exact = Workload::UniformDistinct.generate(EXACT_N, seed);
    let values_service = Workload::UniformDistinct.generate(SERVICE_N, seed);

    out.push((
        "engine.collect_samples_ns",
        tr.probe("probe.engine.collect_samples", |_| {
            let mut e = engine(&values_approx, seed, &pool);
            median_secs(3, || {
                black_box(e.collect_samples(1, |_, s| *s));
            }) * 1e9
                / values_approx.len() as f64
        }),
    ));
    out.push((
        "engine.pull_round_ns",
        tr.probe("probe.engine.pull_round", |_| {
            pull_round_ns(&mut engine(&values_faulty, seed, &pool))
        }),
    ));
    out.push((
        "engine.pull_round_faulty_ns",
        tr.probe("probe.engine.pull_round_faulty", |_| {
            let config = EngineConfig::with_seed(seed)
                .pool(Arc::clone(&pool))
                .fault(faulty_plan());
            pull_round_ns(&mut Engine::from_states(values_faulty.clone(), config))
        }),
    ));
    out.push((
        "engine.push_pull_round_ns",
        tr.probe("probe.engine.push_pull_round", |_| {
            let mut e = engine(&values_exact, seed, &pool);
            median_secs(ROUNDS, || {
                e.push_pull_round(|_, s| *s, |_, s, m| *s = (*s).max(m));
            }) * 1e9
                / values_exact.len() as f64
        }),
    ));
    out.push((
        "engine.push_round_on_ns",
        tr.probe("probe.engine.push_round_on", |_| {
            // A sparse token scatter: one active node in 64, as in the
            // narrowing loop's late iterations. Reported per active node.
            let n = values_exact.len();
            let active = ActiveSet::from_fn(n, |v| v % 64 == 0);
            let mut e = engine(&values_exact, seed, &pool);
            median_secs(ROUNDS, || {
                e.push_round_on(
                    &active,
                    |_, s| Some(*s),
                    |_, s, m| *s = (*s).max(m),
                    |_, _, _| (),
                );
            }) * 1e9
                / active.len() as f64
        }),
    ));
    out.push((
        "engine.collect_lanes_ns",
        tr.probe("probe.engine.collect_lanes", |_| {
            let (n, lanes) = (values_service.len(), SERVICE_Q);
            let sheet: Vec<u64> = (0..n * lanes)
                .map(|i| values_service[i / lanes] + i as u64 % 64)
                .collect();
            let mut matrix = LaneMatrix::empty(n, lanes, 0u64);
            let mut e = Engine::from_states(
                vec![(); n],
                EngineConfig::with_seed(seed).pool(Arc::clone(&pool)),
            );
            median_secs(5, || e.collect_lanes(&sheet, &mut matrix)) * 1e9 / (n * lanes) as f64
        }),
    ));

    out.push((
        "pool.dispatch_us",
        tr.probe("probe.pool.run", |_| {
            let task = |i: usize| {
                black_box(i);
            };
            median_secs(2000, || pool.run(threads, &task)) * 1e6
        }),
    ));
    out.push((
        "pool.program_us",
        tr.probe("probe.pool.run_program", |_| {
            const PHASES: usize = 16;
            let task = |i: usize| {
                black_box(i);
            };
            median_secs(200, || {
                pool.run_program(|| {
                    for _ in 0..PHASES {
                        pool.run(threads, &task);
                    }
                })
            }) * 1e6
        }),
    ));
    out.push((
        "pool.scaling_2t_approx",
        tr.probe("probe.pool.scaling_approx", |_| {
            scaling_2t(&values_approx, seed)
        }),
    ));
    out.push((
        "pool.scaling_2t_exact",
        tr.probe("probe.pool.scaling_exact", |_| {
            scaling_2t(&values_exact, seed)
        }),
    ));

    out.push((
        "exact.tournament_probe_s",
        tr.probe("probe.exact.tournament", |_| {
            let eps = NarrowingConfig::default().iteration_epsilon_for(values_exact.len());
            median_secs(3, || {
                let config = EngineConfig::with_seed(seed).pool(Arc::clone(&pool));
                black_box(
                    tournament_quantile(
                        &values_exact,
                        0.5,
                        eps,
                        &TournamentConfig::default(),
                        config,
                    )
                    .expect("valid tournament parameters"),
                );
            })
        }),
    ));
    out.push((
        "push_sum.count_matching_s",
        tr.probe("probe.push_sum.count_matching", |_| {
            let n = values_exact.len();
            let cut = n as u64 * 500;
            let indicators: Vec<bool> = values_exact.iter().map(|&v| v < cut).collect();
            let config = PushSumConfig {
                rounds: None,
                target_accuracy: 0.25 / n as f64,
            };
            median_secs(3, || {
                let engine = EngineConfig::with_seed(seed).pool(Arc::clone(&pool));
                black_box(
                    push_sum::count_matching(&indicators, &config, engine)
                        .expect("enough nodes to count"),
                );
            })
        }),
    ));
    out.push((
        "compactor.insert_ns",
        tr.probe("probe.compactor.insert", |_| {
            median_secs(5, || {
                let mut sketch = CompactorSketch::empty(32);
                for &v in &values_approx {
                    sketch.insert(v);
                }
                black_box(sketch);
            }) * 1e9
                / values_approx.len() as f64
        }),
    ));
    out
}
