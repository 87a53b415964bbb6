//! Benchmark of the gossip quantile entry points.
//!
//! ```text
//! qbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it splits the run over several processes, one after
//! another. Each sets the workload up once (construction plus warm-up
//! calls), then runs one closed-loop caller for its share of `--seconds`,
//! verifying every timed call against the rank oracle outside its timed
//! window; the end-to-end metrics pool what the processes measured. With
//! `--trace 1` it records spans around every call into a layer, runs the other workloads' layers
//! once and the standalone primitive probes, writes the spans to
//! `out/trace-<workload>-<seed>.jsonl` under the package directory, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 0 only if every answer was correct.

mod calib;
mod probes;
mod stats;
mod trace;
mod workloads;

use calib::Calibration;
use stats::{high_percentile, mean, median, peak_rss_mb, Digest};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{Bench, Kind, Step, NAMES};

/// Processes an untraced run is split over, one after another. Each sets up
/// once in a fresh process, so `setup_s` is the median of this many cold
/// set-ups, and runs `1/PARTS` of the loop; the metrics pool their steps. On
/// a shared host one process can run 20 % slower than the next for its whole
/// life, so pooling several steadies a run's medians.
const PARTS: usize = 4;

/// Per-layer metrics of the traced run, with their units.
const PER_LAYER: [(&str, &str); 45] = [
    ("engine.collect_samples_ns", "ns"),
    ("engine.pull_round_ns", "ns"),
    ("engine.pull_round_faulty_ns", "ns"),
    ("engine.push_pull_round_ns", "ns"),
    ("engine.push_round_on_ns", "ns"),
    ("engine.collect_lanes_ns", "ns"),
    ("engine.messages_delivered", "count"),
    ("engine.bits_delivered", "bits"),
    ("pool.dispatch_us", "us"),
    ("pool.program_us", "us"),
    ("pool.dispatches_per_query", "count"),
    ("pool.wakeups_per_query", "count"),
    ("pool.scaling_2t_approx", "ratio"),
    ("pool.scaling_2t_exact", "ratio"),
    ("fault.dropped_frac", "fraction"),
    ("fault.crashed_ops", "count"),
    ("fault.delivered_frac", "fraction"),
    ("two_tournament.run_s", "s"),
    ("two_tournament.rounds", "rounds"),
    ("two_tournament.iterations", "count"),
    ("three_tournament.run_s", "s"),
    ("three_tournament.rounds", "rounds"),
    ("three_tournament.iterations", "count"),
    ("exact.iterations", "count"),
    ("exact.pull_rounds", "rounds"),
    ("exact.push_rounds", "rounds"),
    ("exact.push_pull_rounds", "rounds"),
    ("exact.tournament_probe_s", "s"),
    ("push_sum.count_matching_s", "s"),
    ("robust.good_fraction", "fraction"),
    ("robust.estimated_mu", "fraction"),
    ("service.new_s", "s"),
    ("service.recompute_full_s", "s"),
    ("service.collect_s", "s"),
    ("service.apply_s", "s"),
    ("service.record_s", "s"),
    ("service.vote_s", "s"),
    ("service.epoch_incr_s", "s"),
    ("service.replay_s", "s"),
    ("service.vote_patch_s", "s"),
    ("service.dirty_nodes", "count"),
    ("service.ingest_ns", "ns"),
    ("compactor.insert_ns", "ns"),
    ("rank.verify_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Per-layer metrics read from span durations: metric, span name.
const FROM_SPANS: [(&str, &str); 2] = [
    ("two_tournament.run_s", "two_tournament.run"),
    ("three_tournament.run_s", "three_tournament.run"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Runs as one part of an untraced run, printing `#` records.
    part: bool,
}

const USAGE: &str =
    "usage: qbench --workload <approx-250k|exact-32k|faulty-100k|service-50k-q64|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        part: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--part" => args.part = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The result line's contents.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Metric name → (value, unit).
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN; a missing reading already makes `correct` false.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if !NAMES.contains(&args.workload.as_str()) {
        eprintln!("qbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    let outcome = if args.trace || args.part {
        let mut bench = workloads::build(&args.workload, args.seed).expect("listed workload");
        println!(
            "workload {} seed={} seconds={} trace={}: {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            bench.describe()
        );
        if args.part {
            part(bench.as_mut(), &args);
            return ExitCode::SUCCESS;
        }
        traced(bench.as_mut(), &args)
    } else {
        untraced(&args)
    };
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the closed loop: the next step starts when the previous one (and
/// its verification) finished, until `seconds` passed and a cycle ended.
fn closed_loop<T>(
    bench: &mut dyn Bench,
    seconds: f64,
    mut step: impl FnMut(&mut dyn Bench, usize) -> Vec<T>,
) -> Vec<T> {
    let start = Instant::now();
    let mut steps = Vec::new();
    let mut index = 0;
    while index == 0 || index % bench.cycle() != 0 || start.elapsed().as_secs_f64() < seconds {
        steps.extend(step(bench, index));
        index += 1;
    }
    steps
}

fn print_step(index: usize, tag: &str, s: &Step) {
    println!(
        "  step {index:>3} {tag:<8} {:<17} {:>10.6} s  rounds={:<6} rank_error={:.5} verify={:.4} s ok={} digest={:016x}",
        format!("{:?}", s.kind),
        s.secs,
        s.metrics.rounds,
        s.rank_error,
        s.verify_secs,
        s.ok,
        s.digest
    );
}

/// Prints one end-to-end metric line with its sample count.
fn print_metric(name: &str, value: f64, unit: &str, samples: usize) {
    println!("  {name:<28} {value:>18.6} {unit:<8} (n={samples})");
}

/// A timed step as one part of an untraced run reports it.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    kind: Kind,
    secs: f64,
    ingest_secs: f64,
    queries: usize,
    ingests: usize,
    rounds: f64,
    bits_per_node_round: f64,
    rank_error: f64,
    verify_secs: f64,
    ok: bool,
    digest: u64,
    /// Host-speed factor around the step ([`calib::scale`]).
    scale: f64,
}

impl Record {
    fn of(s: &Step, scale: f64) -> Self {
        Record {
            kind: s.kind,
            secs: s.secs,
            ingest_secs: s.ingest_secs,
            queries: s.queries,
            ingests: s.ingests,
            rounds: s.metrics.rounds as f64,
            bits_per_node_round: s.metrics.mean_bits_per_node_round(),
            rank_error: s.rank_error,
            verify_secs: s.verify_secs,
            ok: s.ok,
            digest: s.digest,
            scale,
        }
    }

    /// The record's line, after `#step `; `{:?}` keeps every digit of a float.
    fn line(&self) -> String {
        format!(
            "{:?} {:?} {:?} {} {} {:?} {:?} {:?} {:?} {} {:016x} {:?}",
            self.kind,
            self.secs,
            self.ingest_secs,
            self.queries,
            self.ingests,
            self.rounds,
            self.bits_per_node_round,
            self.rank_error,
            self.verify_secs,
            self.ok,
            self.digest,
            self.scale
        )
    }

    fn parse(line: &str) -> Option<Self> {
        let f: Vec<&str> = line.split(' ').collect();
        let [kind, secs, ingest_secs, queries, ingests, rounds, bits, err, verify, ok, digest, scale] =
            f[..]
        else {
            return None;
        };
        let kind = [Kind::Query, Kind::FullEpoch, Kind::IncrementalEpoch]
            .into_iter()
            .find(|k| format!("{k:?}") == kind)?;
        Some(Record {
            kind,
            secs: secs.parse().ok()?,
            ingest_secs: ingest_secs.parse().ok()?,
            queries: queries.parse().ok()?,
            ingests: ingests.parse().ok()?,
            rounds: rounds.parse().ok()?,
            bits_per_node_round: bits.parse().ok()?,
            rank_error: err.parse().ok()?,
            verify_secs: verify.parse().ok()?,
            ok: ok.parse().ok()?,
            digest: u64::from_str_radix(digest, 16).ok()?,
            scale: scale.parse().ok()?,
        })
    }
}

/// One part of an untraced run: a timed set-up, then the closed loop for
/// `--seconds`, each between two passes of the calibration kernel. Prints
/// `#setup <secs> <scale> <ok> <digest>`, `#cycle <steps>`, one
/// `#step <record>` per step and `#rss <MB>` for the parent to pool.
fn part(bench: &mut dyn Bench, args: &Args) {
    let mut tr = Tracer::new(false);
    let cal = Calibration::new();
    let before = cal.time();
    let start = Instant::now();
    let setup = bench.setup(true, &mut tr);
    let secs = start.elapsed().as_secs_f64() - setup.verify_secs;
    let mut last = cal.time();
    println!(
        "#setup {secs:?} {:?} {} {:016x}",
        calib::scale(before, last),
        setup.ok,
        setup.digest
    );
    println!("#cycle {}", bench.cycle());
    closed_loop(bench, args.seconds, |b, i| {
        let s = b.step(i, &mut tr);
        let after = cal.time();
        let record = Record::of(&s, calib::scale(last, after));
        last = after;
        println!("#step {}", record.line());
        Vec::<()>::new()
    });
    let rss = peak_rss_mb().map_or(f64::NAN, |mb| mb - calib::TABLE_MB);
    println!("#rss {rss:?}");
}

/// What one part of an untraced run reported.
#[derive(Debug, Default)]
struct Part {
    setup_secs: f64,
    setup_scale: f64,
    setup_ok: bool,
    setup_digest: u64,
    cycle: usize,
    steps: Vec<Record>,
    rss_mb: f64,
    /// Whether the process exited with 0 and every record parsed.
    complete: bool,
}

/// Runs one part of the untraced run in its own process and waits for it.
fn run_part(args: &Args, seconds: f64) -> Part {
    let mut part = Part::default();
    let out = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                "0",
                "--part",
                "1",
            ])
            .stderr(Stdio::inherit())
            .output()
    });
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            eprintln!("qbench: cannot run a part: {e}");
            return part;
        }
    };
    let mut parsed = true;
    let (mut setup_seen, mut rss_seen) = (false, false);
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Some(record) = line.strip_prefix('#') else {
            println!("{line}");
            continue;
        };
        let (tag, rest) = record.split_once(' ').unwrap_or((record, ""));
        let fields: Vec<&str> = rest.split(' ').collect();
        parsed &= match (tag, &fields[..]) {
            ("setup", [secs, scale, ok, digest]) => {
                setup_seen = true;
                part.setup_secs = secs.parse().unwrap_or(f64::NAN);
                part.setup_scale = scale.parse().unwrap_or(f64::NAN);
                part.setup_ok = *ok == "true";
                part.setup_digest = u64::from_str_radix(digest, 16).unwrap_or(0);
                part.setup_secs.is_finite()
            }
            ("cycle", [steps]) => {
                part.cycle = steps.parse().unwrap_or(0);
                part.cycle > 0
            }
            ("step", _) => Record::parse(rest).map(|r| part.steps.push(r)).is_some(),
            ("rss", [mb]) => {
                rss_seen = true;
                part.rss_mb = mb.parse().unwrap_or(f64::NAN);
                true
            }
            _ => false,
        };
    }
    part.complete = out.status.success() && parsed && setup_seen && rss_seen;
    part
}

fn print_record(index: usize, r: &Record) {
    println!(
        "  step {index:>3} {:<17} {:>10.6} s  rounds={:<6} rank_error={:.5} verify={:.4} s ok={} digest={:016x}",
        format!("{:?}", r.kind),
        r.secs,
        r.rounds,
        r.rank_error,
        r.verify_secs,
        r.ok,
        r.digest
    );
}

fn secs_of(steps: &[Record], kind: Kind) -> Vec<f64> {
    steps
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.secs)
        .collect()
}

fn untraced(args: &Args) -> Outcome {
    let mut parts = Vec::new();
    for p in 0..PARTS {
        println!("part {p}:");
        let part = run_part(args, args.seconds / PARTS as f64);
        println!("  set-up                {:>10.6} s", part.setup_secs);
        for (i, r) in part.steps.iter().enumerate() {
            print_record(i, r);
        }
        parts.push(part);
    }
    // Every part runs the same warm-up calls and then the same first cycle
    // of steps, so their answers must agree.
    let first_cycle =
        |p: &Part| -> Vec<u64> { p.steps.iter().take(p.cycle).map(|r| r.digest).collect() };
    let complete = parts.iter().all(|p| p.complete);
    let parts_agree = parts.windows(2).all(|w| {
        w[0].setup_digest == w[1].setup_digest && first_cycle(&w[0]) == first_cycle(&w[1])
    });
    let setup_ok = parts.iter().all(|p| p.setup_ok);

    let mut digest = Digest::default();
    digest.word(parts[0].setup_digest);
    first_cycle(&parts[0])
        .into_iter()
        .for_each(|d| digest.word(d));
    let measured: Vec<Record> = parts.iter().flat_map(|p| p.steps.clone()).collect();
    // Every time below is scaled to the nominal host speed (see `calib`),
    // except the `*_measured_*` lines.
    let steps: Vec<Record> = measured
        .iter()
        .map(|r| Record {
            secs: r.secs * r.scale,
            ingest_secs: r.ingest_secs * r.scale,
            ..r.clone()
        })
        .collect();
    let failed = steps.iter().filter(|s| !s.ok).count();
    let latency: Vec<f64> = steps.iter().map(|s| s.secs).collect();
    let busy = |steps: &[Record]| steps.iter().map(|s| s.secs + s.ingest_secs).sum::<f64>();
    let queries: usize = steps.iter().map(|s| s.queries).sum();
    let per_step = |f: &dyn Fn(&Record) -> f64| {
        mean(&steps.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let setup_secs: Vec<f64> = parts.iter().map(|p| p.setup_secs).collect();
    let setup_scaled: Vec<f64> = parts.iter().map(|p| p.setup_secs * p.setup_scale).collect();

    let nan = f64::NAN;
    let n = steps.len();
    // The gated metrics, as the result line reports them.
    let gated: Vec<(&str, f64, &'static str, usize)> = vec![
        ("setup_s", median(&setup_scaled).unwrap_or(nan), "s", PARTS),
        ("query_p50_s", median(&latency).unwrap_or(nan), "s", n),
        ("queries_per_s", queries as f64 / busy(&steps), "1/s", n),
        ("rounds_per_query", per_step(&|s| s.rounds), "rounds", n),
        (
            "bits_per_node_round",
            per_step(&|s| s.bits_per_node_round),
            "bits",
            n,
        ),
    ];
    let mut shown = gated.clone();
    if let Some((label, v)) = high_percentile(&latency) {
        shown.insert(2, (label, v, "s", n));
    }
    let verify: Vec<f64> = steps.iter().map(|s| s.verify_secs).collect();
    let raw_latency: Vec<f64> = measured.iter().map(|s| s.secs).collect();
    let scales: Vec<f64> = measured.iter().map(|s| s.scale).collect();
    shown.extend([
        (
            "setup_measured_s",
            median(&setup_secs).unwrap_or(nan),
            "s",
            PARTS,
        ),
        (
            "query_p50_measured_s",
            median(&raw_latency).unwrap_or(nan),
            "s",
            n,
        ),
        (
            "queries_per_measured_s",
            queries as f64 / busy(&measured),
            "1/s",
            n,
        ),
        ("host_scale_p50", median(&scales).unwrap_or(nan), "ratio", n),
        (
            "rank_error_max",
            steps.iter().map(|s| s.rank_error).fold(0.0, f64::max),
            "fraction",
            n,
        ),
        ("failed_frac", failed as f64 / n as f64, "fraction", n),
        (
            "peak_rss_mb",
            parts.iter().map(|p| p.rss_mb).fold(f64::NAN, f64::max),
            "MB",
            PARTS,
        ),
        ("rank.verify_s", median(&verify).unwrap_or(nan), "s", n),
    ]);
    let (full, incr) = (
        secs_of(&steps, Kind::FullEpoch),
        secs_of(&steps, Kind::IncrementalEpoch),
    );
    if !incr.is_empty() {
        let ingests: usize = steps.iter().map(|s| s.ingests).sum();
        let ingest_secs: f64 = steps.iter().map(|s| s.ingest_secs).sum();
        shown.extend([
            (
                "epoch_full_p50_s",
                median(&full).unwrap_or(nan),
                "s",
                full.len(),
            ),
            (
                "epoch_incr_p50_s",
                median(&incr).unwrap_or(nan),
                "s",
                incr.len(),
            ),
            ("ingest_per_s", ingests as f64 / ingest_secs, "1/s", n),
        ]);
    }
    println!("end-to-end ({}, {PARTS} processes):", args.workload);
    for (name, value, unit, samples) in &shown {
        print_metric(name, *value, unit, *samples);
    }
    println!(
        "digest {} seed={} warm-up+{} steps: {:016x}",
        args.workload,
        args.seed,
        parts[0].cycle,
        digest.value()
    );
    if !complete {
        println!("a part failed or printed incomplete records");
    }
    if !parts_agree {
        println!("parts disagree on the warm-up or first-cycle answers");
    }

    Outcome {
        correct: failed == 0 && n > 0 && setup_ok && complete && parts_agree,
        attempted: n.max(1),
        failed: if n == 0 { 1 } else { failed },
        metrics: gated
            .into_iter()
            .map(|(name, value, unit, _)| (name.to_string(), value, unit))
            .collect(),
    }
}

fn traced(bench: &mut dyn Bench, args: &Args) -> Outcome {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let setup = bench.setup(true, &mut tr);
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut record = |ls: &[(&'static str, f64)]| {
        for &(name, v) in ls {
            layers.entry(name).or_default().push(v);
        }
    };
    record(&setup.layers);

    // The workload's own loop: replayable steps run untraced and traced on
    // the same inputs (the answers must be identical); the others alternate.
    let replayable = bench.replayable();
    let mut identical = true;
    let pairs = closed_loop(bench, args.seconds, |b, i| {
        let mut out = Vec::new();
        if replayable || i % 2 == 0 {
            let s = b.step(i, &mut off);
            print_step(i, "untraced", &s);
            out.push((false, s));
        }
        if replayable || i % 2 == 1 {
            let s = b.step(i, &mut tr);
            print_step(i, "traced", &s);
            out.push((true, s));
        }
        if let [(_, a), (_, b)] = &out[..] {
            identical &= a.digest == b.digest && a.metrics == b.metrics;
        }
        out
    });
    // Tracing overhead: traced minus untraced median, over the first step
    // kind both sides have samples of.
    let median_of = |traced: bool, kind: Kind| {
        let secs: Vec<f64> = pairs
            .iter()
            .filter(|(t, s)| *t == traced && s.kind == kind)
            .map(|(_, s)| s.secs)
            .collect();
        median(&secs)
    };
    let overhead = [Kind::Query, Kind::IncrementalEpoch]
        .into_iter()
        .find_map(|k| {
            let (t, u) = (median_of(true, k)?, median_of(false, k)?);
            Some((t - u) / u)
        })
        .unwrap_or(f64::NAN);
    let steps: Vec<Step> = pairs.into_iter().map(|(_, s)| s).collect();
    for s in &steps {
        record(&s.layers);
    }
    let mean_of = |f: &dyn Fn(&Step) -> f64| mean(&steps.iter().map(f).collect::<Vec<_>>());
    let verify: Vec<f64> = steps.iter().map(|s| s.verify_secs).collect();
    for (name, value) in [
        (
            "engine.messages_delivered",
            mean_of(&|s| s.metrics.messages_delivered as f64),
        ),
        (
            "engine.bits_delivered",
            mean_of(&|s| s.metrics.bits_delivered as f64),
        ),
        (
            "pool.dispatches_per_query",
            mean_of(&|s| s.pool.dispatches as f64),
        ),
        (
            "pool.wakeups_per_query",
            mean_of(&|s| s.pool.wakeups as f64),
        ),
        ("rank.verify_s", median(&verify)),
        ("trace.overhead_frac", Some(overhead)),
    ] {
        record(&[(name, value.unwrap_or(f64::NAN))]);
    }
    let own_failed = steps.iter().filter(|s| !s.ok).count();
    let mut sweep_ok = true;

    // The other workloads' layers, one short set-up-free pass each.
    for name in NAMES.iter().filter(|&&w| w != args.workload) {
        let mut other = workloads::build(name, args.seed).expect("listed workload");
        let s = other.setup(false, &mut tr);
        sweep_ok &= s.ok;
        record(&s.layers);
        for i in 0..other.sweep_steps() {
            let step = other.step(i, &mut tr);
            print_step(i, name, &step);
            sweep_ok &= step.ok;
            record(&step.layers);
        }
    }

    for (name, v) in probes::run(args.seed, &mut tr) {
        record(&[(name, v)]);
    }
    let stats = tr.stats();
    for (metric, span) in FROM_SPANS {
        if let Some(s) = stats.get(span) {
            record(&[(metric, median(&s.durations).unwrap_or(f64::NAN))]);
        }
    }

    println!("spans (self time = duration minus child spans):");
    for (name, s) in &stats {
        println!(
            "  {name:<34} n={:<4} p50={:>12.6} s  self={:>12.6} s",
            s.count,
            median(&s.durations).unwrap_or(f64::NAN),
            s.self_secs
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, tr.to_json_lines())) {
        Ok(()) => println!("trace written to {}", file.display()),
        Err(e) => eprintln!("qbench: could not write {}: {e}", file.display()),
    }

    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    println!("per-layer ({}):", args.workload);
    for (name, unit) in PER_LAYER {
        match layers
            .get(name)
            .and_then(|v| median(v))
            .filter(|v| v.is_finite())
        {
            Some(v) => {
                print_metric(name, v, unit, layers[name].len());
                metrics.push((name.to_string(), v, unit));
            }
            None => missing.push(name),
        }
    }
    if !missing.is_empty() {
        println!("per-layer metrics without a value: {missing:?}");
    }
    if !identical {
        println!("untraced and traced runs of the same step disagree");
    }
    Outcome {
        correct: own_failed == 0 && setup.ok && sweep_ok && identical && missing.is_empty(),
        attempted: steps.len(),
        failed: own_failed,
        metrics,
    }
}

/// Runs every workload in its own process (so peak memory is measured per
/// workload) and sums their results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("qbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for name in NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(out) = out else {
            total.correct = false;
            continue;
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        total.correct &= out.status.success();
        let last = stdout.lines().last().unwrap_or_default();
        let field = |key: &str| -> usize {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        total.attempted += field("attempted");
        total.failed += field("failed");
    }
    println!("{}", total.json());
    if total.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lines_round_trip() {
        let r = Record {
            kind: Kind::IncrementalEpoch,
            secs: 0.1 + 0.2,
            ingest_secs: 1e-3 / 3.0,
            queries: 64,
            ingests: 25_000,
            rounds: 52.0,
            bits_per_node_round: 4128.0,
            rank_error: 0.023_3,
            verify_secs: f64::NAN,
            ok: true,
            digest: 0x00c0_ffee_0000_0001,
            scale: 1.0 / 3.0,
        };
        let back = Record::parse(&r.line()).expect("a record's own line parses");
        assert_eq!(back.secs.to_bits(), r.secs.to_bits());
        assert_eq!(back.ingest_secs.to_bits(), r.ingest_secs.to_bits());
        assert_eq!(back.scale.to_bits(), r.scale.to_bits());
        assert!(back.verify_secs.is_nan());
        assert_eq!(
            Record {
                verify_secs: 0.0,
                ..back
            },
            Record {
                verify_secs: 0.0,
                ..r
            }
        );
        assert_eq!(Record::parse("Query 1.0"), None);
    }
}
