//! Three ablations of the engine's round machinery:
//!
//! 1. **Per-pass round costs** (`engine_rounds`): the steady-state cost of one
//!    round of each primitive — pull (a single fused double-buffer dispatch),
//!    push and push–pull (a draw pass that splits deliveries by owner range,
//!    then a delivery pass per receiver range), and `local_step` — with and
//!    without failure injection, so a change to any pass (snapshot fusion,
//!    delivery order, RNG keying, failure specialisation) is visible per
//!    primitive instead of only through whole benchmarks.
//! 2. **Sparse vs dense rounds** (`active_set`): one pull round over the
//!    whole network vs `pull_round_on` over active fractions
//!    {100 %, 10 %, 1 %} at n ∈ {100k, 1M} — the copy-on-write/active-set
//!    payoff. Rows are recorded into the `active_set` section of
//!    `BENCH_engine.json` (one row per `(n, active_frac)`, median-of-5 with
//!    `std_*`, same conventions as the `results` section).
//! 3. **Dispatch overhead** (`engine_ablation`): the per-node `ProtocolRunner`
//!    path vs the direct `Engine` rounds used by the algorithms, on the same
//!    rumor-spreading task — demonstrating that the faster path does not
//!    change the dynamics while quantifying its overhead difference.
//!
//! Set `ENGINE_ABLATION_QUICK=1` (CI's bench smoke step does) to shrink the
//! sizes and sample counts so a run finishes in seconds — enough to catch
//! bit-rot, not enough for stable numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_net::{
    par, ActiveSet, Engine, EngineConfig, FailureModel, NodeProtocol, ProtocolRunner,
};
use std::time::Instant;

fn quick() -> bool {
    std::env::var_os("ENGINE_ABLATION_QUICK").is_some_and(|v| v != "0")
}

fn round_engine(n: usize, failure: FailureModel) -> Engine<u64> {
    let config = EngineConfig::with_seed(7).failure(failure);
    Engine::from_states((0..n as u64).collect(), config)
}

fn bench_round_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_rounds");
    group.sample_size(if quick() { 3 } else { 10 });
    let sizes: &[usize] = if quick() {
        &[1 << 12]
    } else {
        &[1 << 12, 1 << 14, 1 << 17]
    };
    for &n in sizes {
        for (label, failure) in [
            ("", FailureModel::None),
            ("_mu0.2", FailureModel::uniform(0.2).expect("valid p")),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("pull_round{label}"), n),
                &n,
                |b, _| {
                    let mut e = round_engine(n, failure.clone());
                    b.iter(|| {
                        e.pull_round(
                            |_, &s| s,
                            |_, st, p| {
                                if let Some(p) = p {
                                    *st = (*st).max(p);
                                }
                            },
                        )
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("push_round{label}"), n),
                &n,
                |b, _| {
                    let mut e = round_engine(n, failure.clone());
                    b.iter(|| {
                        e.push_round(|_, &s| Some(s), |_, st, m| *st = (*st).max(m), |_, _, _| {})
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("push_pull_round{label}"), n),
                &n,
                |b, _| {
                    let mut e = round_engine(n, failure.clone());
                    b.iter(|| e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m)));
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("local_step", n), &n, |b, _| {
            let mut e = round_engine(n, FailureModel::None);
            b.iter(|| {
                e.local_step(|v, st, _| *st = st.wrapping_add(v as u64));
            });
        });
    }
    group.finish();
}

/// One max-spread pull round, dense or over an active subset; returns
/// rounds/sec over `rounds` repetitions.
fn measure_pull(n: usize, active: Option<&ActiveSet>, rounds: u64) -> f64 {
    let mut e = round_engine(n, FailureModel::None);
    e.set_threads(par::num_threads());
    let apply = |_: usize, st: &mut u64, p: Option<u64>| {
        if let Some(p) = p {
            *st = (*st).max(p);
        }
    };
    // Pay the lazy back-buffer allocation before timing.
    e.pull_round(|_, &s| s, apply);
    let start = Instant::now();
    for _ in 0..rounds {
        match active {
            Some(a) => {
                e.pull_round_on(a, |_, &s| s, apply);
            }
            None => {
                e.pull_round(|_, &s| s, apply);
            }
        }
    }
    rounds as f64 / start.elapsed().as_secs_f64()
}

/// Median ± std dev of five warmed measurements (the JSON-row convention of
/// engine_scaling).
fn summarize_pull(n: usize, active: Option<&ActiveSet>, rounds: u64) -> criterion::stats::Summary {
    let _warmup = measure_pull(n, active, rounds);
    let samples: Vec<f64> = (0..5).map(|_| measure_pull(n, active, rounds)).collect();
    criterion::stats::summary(&samples).expect("five samples")
}

fn bench_active_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("active_set");
    group.sample_size(if quick() { 3 } else { 10 });
    let sizes: &[usize] = if quick() {
        &[1 << 14]
    } else {
        &[100_000, 1_000_000]
    };
    // Rounds per measurement, scaled to the *dense* cost at n.
    let rounds_for = |n: usize| -> u64 {
        match n {
            0..=20_000 => 50,
            20_001..=200_000 => 20,
            _ => 5,
        }
    };
    let threads = par::num_threads();
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rows = Vec::new();
    for &n in sizes {
        let rounds = rounds_for(n);
        group.bench_with_input(BenchmarkId::new("dense_pull", n), &n, |b, &n| {
            let mut e = round_engine(n, FailureModel::None);
            e.set_threads(par::num_threads());
            b.iter(|| {
                e.pull_round(
                    |_, &s| s,
                    |_, st, p| {
                        if let Some(p) = p {
                            *st = (*st).max(p);
                        }
                    },
                )
            });
        });
        let dense = summarize_pull(n, None, rounds);
        for &(label, stride) in &[("100pct", 1usize), ("10pct", 10), ("1pct", 100)] {
            let active = ActiveSet::from_fn(n, |v| v % stride == 0);
            let frac = active.len() as f64 / n as f64;
            group.bench_with_input(
                BenchmarkId::new(format!("sparse_pull_{label}"), n),
                &n,
                |b, &n| {
                    let mut e = round_engine(n, FailureModel::None);
                    e.set_threads(par::num_threads());
                    b.iter(|| {
                        e.pull_round_on(
                            &active,
                            |_, &s| s,
                            |_, st, p| {
                                if let Some(p) = p {
                                    *st = (*st).max(p);
                                }
                            },
                        )
                    });
                },
            );
            let sparse = summarize_pull(n, Some(&active), rounds);
            let speedup = sparse.median / dense.median;
            println!(
                "active_set n={n} frac={frac:.2}: dense {:.2}±{:.2} rounds/s, \
                 sparse {:.2}±{:.2} rounds/s (speedup {speedup:.2}x)",
                dense.median, dense.std_dev, sparse.median, sparse.std_dev
            );
            rows.push(format!(
                "    {{\"n\": {n}, \"active_frac\": {frac:.4}, \"threads\": {threads}, \
                 \"host_cores\": {host_cores}, \
                 \"rounds_per_sec_dense\": {:.3}, \"std_dense\": {:.3}, \
                 \"rounds_per_sec_sparse\": {:.3}, \"std_sparse\": {:.3}, \
                 \"speedup\": {speedup:.3}}}",
                dense.median, dense.std_dev, sparse.median, sparse.std_dev
            ));
        }
    }
    group.finish();
    bench::report_json::write_section("active_set", &rows);
}

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
    fn is_finished(&self) -> bool {
        self.current == self.target
    }
    fn output(&self) -> u64 {
        self.current
    }
}

fn bench_engine_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_ablation");
    group.sample_size(if quick() { 3 } else { 10 });
    let sizes: &[usize] = if quick() {
        &[1 << 12]
    } else {
        &[1 << 12, 1 << 14]
    };
    for &n in sizes {
        group.bench_with_input(BenchmarkId::new("direct_engine", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut e =
                    Engine::from_states((0..n as u64).collect(), EngineConfig::with_seed(seed));
                while e.states().iter().any(|&v| v != (n - 1) as u64) {
                    e.pull_round(
                        |_, &s| s,
                        |_, st, p| {
                            if let Some(p) = p {
                                *st = (*st).max(p);
                            }
                        },
                    );
                }
                e.round()
            })
        });
        group.bench_with_input(BenchmarkId::new("protocol_runner", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let nodes: Vec<MaxSpread> = (0..n)
                    .map(|v| MaxSpread {
                        current: v as u64,
                        target: (n - 1) as u64,
                    })
                    .collect();
                ProtocolRunner::new(nodes, EngineConfig::with_seed(seed))
                    .run(10_000)
                    .rounds
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round_primitives,
    bench_active_set,
    bench_engine_ablation
);
criterion_main!(benches);
