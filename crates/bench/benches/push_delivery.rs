//! Same-host A/B of dense push delivery, measured across two builds.
//!
//! Times the two push workloads the exact algorithm (Thm 1.1) spends its
//! non-tournament rounds in, through the public round API only, so the same
//! source compiles against any engine revision:
//!
//! * `push_sum` — one Kempe et al. push-sum round (the half-split
//!   `local_step` plus the `push_round` that ships the outbox), on the
//!   4 × f64 state of `baselines::push_sum`;
//! * `push_pull_u64` — one `push_pull_round` with an order-sensitive `u64`
//!   fold, so any change in delivery order changes the fingerprint.
//!
//! Each `(kind, n, threads)` cell is timed over 7 runs of a fixed round
//! count, each on a fresh engine, and reports the median per-round time and
//! its σ. Every run fingerprints the final states.
//!
//! For a same-host A/B, build this bench on the baseline revision too and
//! point `PUSH_DELIVERY_BASELINE` at that executable (the path `cargo bench
//! --no-run` prints). Each run then becomes a pair: the baseline executable
//! times the same cell in a child process (`PUSH_DELIVERY_CELL`), and the
//! two sides alternate which goes first. The run writes the `push_delivery`
//! section of `BENCH_engine.json` (old = baseline build, new = this build,
//! `new_faster_pairs` out of `runs`) and fails unless every fingerprint of
//! both builds is identical.
//!
//! ```text
//! PUSH_DELIVERY_BASELINE=/path/to/baseline/push_delivery-<hash> \
//!     cargo bench -p bench --bench push_delivery
//! ```
//!
//! `PUSH_DELIVERY_QUICK=1` shrinks the grid to a bit-rot check and writes
//! nothing.

use gossip_net::{Engine, EngineConfig};
use std::time::Instant;

const RUNS: usize = 7;

fn quick() -> bool {
    std::env::var_os("PUSH_DELIVERY_QUICK").is_some_and(|v| v != "0")
}

#[derive(Clone, Copy)]
struct PushSum {
    s: f64,
    w: f64,
    out_s: f64,
    out_w: f64,
}

fn mix(h: u64, x: u64) -> u64 {
    let mut z = (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 32)
}

fn fold_hash(state: u64, msg: u64) -> u64 {
    (state.rotate_left(7) ^ msg).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn push_sum_round(e: &mut Engine<PushSum>) {
    e.local_step(|_, st, _| {
        st.out_s = st.s / 2.0;
        st.out_w = st.w / 2.0;
        st.s -= st.out_s;
        st.w -= st.out_w;
    });
    e.push_round(
        |_, st| Some((st.out_s, st.out_w)),
        |_, st, (ms, mw)| {
            st.s += ms;
            st.w += mw;
        },
        |_, st, delivered| {
            if !delivered {
                st.s += st.out_s;
                st.w += st.out_w;
            }
            st.out_s = 0.0;
            st.out_w = 0.0;
        },
    );
}

/// Times `rounds` rounds after a short warm-up; returns µs per round and the
/// final-state fingerprint.
fn time_rounds<S>(
    mut e: Engine<S>,
    rounds: usize,
    round: impl Fn(&mut Engine<S>),
    fp: impl Fn(&[S]) -> u64,
) -> (f64, u64) {
    for _ in 0..2 {
        round(&mut e);
    }
    let t = Instant::now();
    for _ in 0..rounds {
        round(&mut e);
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    (us, fp(e.states()))
}

fn run(kind: &str, n: usize, threads: usize, rounds: usize) -> (f64, u64) {
    let config = || EngineConfig::with_seed(0xA11CE ^ n as u64);
    match kind {
        "push_sum" => {
            let states = (0..n)
                .map(|v| PushSum {
                    s: (v % 2) as f64,
                    w: 1.0,
                    out_s: 0.0,
                    out_w: 0.0,
                })
                .collect();
            let mut e = Engine::from_states(states, config());
            e.set_threads(threads);
            time_rounds(e, rounds, push_sum_round, |st| {
                st.iter()
                    .fold(0, |h, p| mix(mix(h, p.s.to_bits()), p.w.to_bits()))
            })
        }
        "push_pull_u64" => {
            let mut e = Engine::from_states((0..n as u64).collect(), config());
            e.set_threads(threads);
            let round = |e: &mut Engine<u64>| {
                e.push_pull_round(|_, &s| s, |_, st, m| *st = fold_hash(*st, m));
            };
            time_rounds(e, rounds, round, |st| st.iter().fold(0, |h, &s| mix(h, s)))
        }
        _ => unreachable!("unknown kind {kind}"),
    }
}

fn median_std(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    let median = if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    };
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1).max(1) as f64;
    (median, var.sqrt())
}

/// One run of a cell in the baseline build: `PUSH_DELIVERY_CELL` makes the
/// baseline binary time that cell once and print `<µs> <fingerprint>`.
fn baseline_run(
    bin: &std::ffi::OsStr,
    kind: &str,
    n: usize,
    threads: usize,
    rounds: usize,
) -> (f64, u64) {
    let out = std::process::Command::new(bin)
        .env(
            "PUSH_DELIVERY_CELL",
            format!("{kind} {n} {threads} {rounds}"),
        )
        .output()
        .expect("running the baseline bench binary");
    assert!(out.status.success(), "baseline run failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("baseline output is UTF-8");
    let mut fields = text.split_whitespace();
    let us = fields.next().and_then(|f| f.parse().ok());
    let fp = fields.next().and_then(|f| u64::from_str_radix(f, 16).ok());
    (us.expect("baseline µs"), fp.expect("baseline fingerprint"))
}

fn main() {
    if let Ok(cell) = std::env::var("PUSH_DELIVERY_CELL") {
        let f: Vec<&str> = cell.split_whitespace().collect();
        let parse = |i: usize| f[i].parse::<usize>().expect("PUSH_DELIVERY_CELL field");
        let (us, fp) = run(f[0], parse(1), parse(2), parse(3));
        println!("{us} {fp:016x}");
        return;
    }
    let baseline = std::env::var_os("PUSH_DELIVERY_BASELINE");
    let grid: &[(usize, usize)] = if quick() {
        &[(1 << 12, 20)]
    } else {
        &[(32_768, 400), (250_000, 60), (1_000_000, 16)]
    };
    let runs = if quick() { 2 } else { RUNS };
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rows = Vec::new();
    for kind in ["push_sum", "push_pull_u64"] {
        for &(n, rounds) in grid {
            for threads in [1, 2] {
                let (mut new, mut old, mut wins) = (Vec::new(), Vec::new(), 0);
                let mut fps = Vec::new();
                for r in 0..runs {
                    // Alternate which build runs first, so host drift hits
                    // both sides alike.
                    let mut pair = [None, None];
                    for side in [r % 2, 1 - r % 2] {
                        pair[side] = match (side, &baseline) {
                            (0, _) => Some(run(kind, n, threads, rounds)),
                            (_, Some(bin)) => Some(baseline_run(bin, kind, n, threads, rounds)),
                            (_, None) => None,
                        };
                    }
                    let (us, fp) = pair[0].expect("own run");
                    new.push(us);
                    fps.push(fp);
                    if let Some((base_us, base_fp)) = pair[1] {
                        old.push(base_us);
                        fps.push(base_fp);
                        wins += usize::from(us < base_us);
                    }
                }
                let identical = fps.iter().all(|&f| f == fps[0]);
                assert!(
                    identical,
                    "{kind} n={n} threads={threads}: final states differ"
                );
                let (new_us, new_std) = median_std(new);
                let cell = format!("{kind} n={n} threads={threads}");
                println!("push_delivery {cell}: {new_us:.1} ± {new_std:.1} µs/round");
                if old.is_empty() {
                    continue;
                }
                let (old_us, old_std) = median_std(old);
                println!(
                    "  baseline: {old_us:.1} ± {old_std:.1} µs/round, \
                     new faster in {wins}/{runs} pairs"
                );
                rows.push(format!(
                    "    {{\"change\": \"push_scatter\", \"kind\": \"{kind}\", \"n\": {n}, \
                     \"threads\": {threads}, \"host_cores\": {host_cores}, \"runs\": {runs}, \
                     \"round_us_old\": {old_us:.3}, \"std_old\": {old_std:.3}, \
                     \"round_us_new\": {new_us:.3}, \"std_new\": {new_std:.3}, \
                     \"speedup\": {:.3}, \"new_faster_pairs\": {wins}, \
                     \"identical_states\": {identical}}}",
                    old_us / new_us
                ));
            }
        }
    }
    if !rows.is_empty() && !quick() {
        bench::report_json::write_section("push_delivery", &rows);
    }
}
