//! The repository benchmark: four closed-loop simulation workloads,
//! host-time end-to-end metrics, and a per-layer trace taken from outside
//! the program.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--expect-digest <16 hex digits>]
//! ```
//!
//! With `--trace 0` the run sets up the workload several times, then
//! repeats untraced passes for `--seconds` and reports the end-to-end
//! metrics. With `--trace 1` it alternates untraced and traced passes (and
//! telemetry-on passes where the workload threads a telemetry handle),
//! runs the layer replay kernels, and reports the per-layer metrics. The
//! last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the run's
//! provenance. A failed correctness check prints `"correct": false` and
//! exits with status 1.

mod kernels;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use telemetry::TelemetryHandle;

use stats::{median, percentile, tail_percentile};
use trace::Layer;
use workloads::{Counters, PassOut, TracedOut, Workload};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("unit_ms.p50", "ms"),
    ("unit_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("done_frac", "ratio"),
    ("sim.ecf_over_default", "ratio"),
    ("sim.plt_s.p50", "s"),
    ("sim.ooo_ms.tail", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 50] = [
    ("simnet.events", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.wheel.scheduled", "count"),
    ("simnet.wheel.cascaded", "count"),
    ("simnet.wheel.peak_len", "count"),
    ("simnet.wheel.ff_jumps", "count"),
    ("simnet.wheel.ff_skipped_s", "s"),
    ("simnet.wheel.batch_deliveries", "count"),
    ("simnet.wheel.batch_frac", "ratio"),
    ("simnet.link.pkts", "count"),
    ("simnet.link.drops", "count"),
    ("simnet.link.drop_frac", "ratio"),
    ("tcp.rtos", "count"),
    ("tcp.fast_retx", "count"),
    ("tcp.iw_resets", "count"),
    ("mptcp.penalizations", "count"),
    ("mptcp.segs_sent", "count"),
    ("mptcp.run.self_s", "s"),
    ("mptcp.rx.reorder_peak", "count"),
    ("mptcp.rx.dup_segs", "count"),
    ("sched.decisions", "count"),
    ("sched.wait_frac", "ratio"),
    ("sched.self_s", "s"),
    ("sched.ns_per_decision", "ns"),
    ("quic.events", "count"),
    ("quic.run.self_s", "s"),
    ("quic.rx.held_peak", "count"),
    ("app.calls", "count"),
    ("app.self_s", "s"),
    ("sharding.shards", "count"),
    ("sharding.partition_s", "s"),
    ("sharding.shard_s.sum", "s"),
    ("sharding.driver_s", "s"),
    ("sharding.shard_imbalance", "ratio"),
    ("sharding.self_s", "s"),
    ("cosim.rounds", "count"),
    ("cosim.round_ms.p50", "ms"),
    ("cosim.round_ms.tail", "ms"),
    ("cosim.boundary_msgs", "count"),
    ("cosim.stall_s", "s"),
    ("cosim.self_s", "s"),
    ("telemetry.on_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("kernel.wheel.ns_per_op", "ns"),
    ("kernel.link.ns_per_op", "ns"),
    ("kernel.mptcp_rx.ns_per_op", "ns"),
    ("kernel.quic_rx.ns_per_op", "ns"),
];

/// Set-ups per run; `setup_s` is their median. A set-up lasts about a
/// tenth of a second, so it takes many to keep the median steady.
const SETUP_REPS: usize = 15;
/// Set-ups timed after each pass until there are `SETUP_REPS`.
const SETUPS_PER_PASS: usize = 2;
/// Passes per run at the least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect_digest: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut expect) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--expect-digest" => {
                expect = Some(u64::from_str_radix(&value, 16).map_err(|_| bad("expected hex"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        expect_digest: expect,
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (an empty ratio) read as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Median of `xs` (already per-pass values).
fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&mut xs.into_iter().collect::<Vec<_>>())
}

/// Index of the sample whose value is the median of `xs`.
fn median_index(xs: &[f64]) -> usize {
    let m = med(xs.iter().copied());
    xs.iter().position(|&x| x == m).expect("median is a sample")
}

struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Every untraced pass must reproduce the first one exactly.
fn check_repeats(checks: &mut Checks, passes: &[PassOut]) {
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        checks.require(p.digest == first.digest && p.sim == first.sim, || {
            format!(
                "pass {i} digest {:016x} != first pass {:016x}",
                p.digest, first.digest
            )
        });
    }
}

/// Each unit's fastest host time across the passes, ns. Every pass runs
/// the same units, so a unit's spread across passes is host interference,
/// which only ever slows a unit down; on a shared host it moves a pass's
/// wall time by ±20% from one second to the next, and a pass median by as
/// much between runs, while the per-unit floor repeats within a few
/// percent.
fn unit_floor(passes: &[PassOut]) -> Vec<f64> {
    let n = passes[0].unit_ns.len();
    assert!(
        passes.iter().all(|p| p.unit_ns.len() == n),
        "passes differ in unit count"
    );
    (0..n)
        .map(|u| {
            passes
                .iter()
                .map(|p| p.unit_ns[u])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Host seconds for one pass: every unit at its fastest, plus the median
/// time the passes spent between units.
fn pass_seconds(passes: &[PassOut]) -> f64 {
    let floor: f64 = unit_floor(passes).iter().sum();
    let between = med(passes
        .iter()
        .map(|p| p.wall_ns as f64 - p.unit_ns.iter().sum::<f64>()));
    (floor + between.max(0.0)) / 1e9
}

/// Median and tail of the per-unit floor, ms, with the tail percentile and
/// the number of units it is taken over.
fn unit_quantiles(passes: &[PassOut]) -> (f64, f64, f64, usize) {
    let mut floor = unit_floor(passes);
    let tail = tail_percentile(floor.len());
    (
        median(&mut floor) / 1e6,
        percentile(&mut floor, tail) / 1e6,
        tail,
        floor.len(),
    )
}

fn end_to_end(passes: &[PassOut], setup_s: f64) -> Counters {
    let (p50, pt, _, _) = unit_quantiles(passes);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let done: u64 = passes.iter().map(|p| p.done).sum();
    let sim = passes[0].sim;
    Counters::from([
        ("wall_s", pass_seconds(passes)),
        ("unit_ms.p50", p50),
        ("unit_ms.tail", pt),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("done_frac", done as f64 / attempted as f64),
        ("sim.ecf_over_default", sim.ecf_over_default),
        ("sim.plt_s.p50", sim.plt_s_p50),
        ("sim.ooo_ms.tail", sim.ooo_ms_tail),
    ])
}

fn per_layer(
    workload: &str,
    untraced: &[PassOut],
    traced: &[TracedOut],
    tel_on: &[PassOut],
) -> Counters {
    let mut m: Counters = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    let untraced_walls: Vec<f64> = untraced.iter().map(|p| p.wall_ns as f64).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall_ns as f64).collect();
    let base = med(untraced_walls.iter().copied());
    // Self times come from one traced pass (the median one), so they and
    // the residual add up to that pass's wall time exactly.
    let t = &traced[median_index(&traced_walls)];
    let u = &untraced[median_index(&untraced_walls)];
    for (&k, &v) in t.counters.iter().chain(u.extra.iter()) {
        m.insert(k, v);
    }
    let measured = m.clone();
    let c = |k: &str| measured.get(k).copied().unwrap_or(0.0);
    let tot = &t.totals;
    let events = c("simnet.events");
    let engine_ns = (tot.span_ns[Layer::Mptcp as usize] + tot.span_ns[Layer::Quic as usize]) as f64;
    let decisions = tot.calls[Layer::Sched as usize] as f64;
    let wall_s = t.wall_ns as f64 / 1e9;
    let non_harness: f64 = [
        Layer::Sharding,
        Layer::Cosim,
        Layer::Mptcp,
        Layer::Quic,
        Layer::Sched,
        Layer::App,
    ]
    .iter()
    .map(|&l| tot.self_s(l))
    .sum();
    let derived = [
        ("simnet.ns_per_event", engine_ns / events),
        (
            "simnet.wheel.batch_frac",
            c("simnet.wheel.batch_deliveries") / events,
        ),
        (
            "simnet.link.drop_frac",
            c("simnet.link.drops") / (c("simnet.link.pkts") + c("simnet.link.drops")),
        ),
        ("mptcp.run.self_s", tot.self_s(Layer::Mptcp)),
        ("sched.decisions", decisions),
        ("sched.wait_frac", tot.waits as f64 / decisions),
        ("sched.self_s", tot.self_s(Layer::Sched)),
        (
            "sched.ns_per_decision",
            tot.self_ns[Layer::Sched as usize] as f64 / decisions,
        ),
        ("quic.run.self_s", tot.self_s(Layer::Quic)),
        ("app.calls", tot.calls[Layer::App as usize] as f64),
        ("app.self_s", tot.self_s(Layer::App)),
        ("sharding.self_s", tot.self_s(Layer::Sharding)),
        ("cosim.self_s", tot.self_s(Layer::Cosim)),
        (
            "trace.overhead_ratio",
            med(traced_walls.iter().copied()) / base,
        ),
        ("trace.wall_s", wall_s),
        ("trace.residual_s", wall_s - non_harness),
        ("trace.untraced_wall_s", base / 1e9),
    ];
    for (k, v) in derived {
        m.insert(k, if v.is_finite() { v } else { 0.0 });
    }
    if !tel_on.is_empty() {
        m.insert(
            "telemetry.on_ratio",
            pass_seconds(tel_on) / pass_seconds(untraced),
        );
    }
    // Kernels run on the workload whose counters size them.
    match workload {
        "browse_pop" => {
            let depth = c("simnet.wheel.peak_len").max(1.0) as usize;
            m.insert("kernel.wheel.ns_per_op", kernels::wheel(depth));
        }
        "stream_grid" => {
            let per_session = c("simnet.link.pkts") / untraced[0].attempted as f64;
            m.insert("kernel.link.ns_per_op", kernels::link(per_session as u64));
            let depth = c("mptcp.rx.reorder_peak").max(1.0) as u64;
            m.insert("kernel.mptcp_rx.ns_per_op", kernels::mptcp_rx(depth));
        }
        "quic_web" => {
            m.insert(
                "kernel.quic_rx.ns_per_op",
                kernels::quic_rx(c("quic.rx.held_peak") as u64),
            );
        }
        _ => {}
    }
    m
}

fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Counters,
    units: &[(&str, &str)],
) {
    let mut body = String::new();
    for (i, &(name, unit)) in units.iter().enumerate() {
        let v = metrics.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

fn run(args: &Args) -> Result<bool, String> {
    // Set-up: generate inputs, run the set-up checks and the warm-up. The
    // first set-up is kept; the others are timed between passes, so their
    // median spans the run rather than its first second.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let time_setup = |setups: &mut Vec<f64>| -> Result<Box<dyn Workload>, String> {
        let t = Instant::now();
        let w = workloads::setup(&args.workload, args.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        Ok(w)
    };
    let w = time_setup(&mut setups)?;

    let off = TelemetryHandle::off();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut tel_on = Vec::new();
    // Trace runs make three passes per round, so two rounds suffice there.
    let min_passes = if args.trace { 2 } else { MIN_PASSES };
    loop {
        untraced.push(w.pass(&off));
        if args.trace {
            traced.push(w.traced());
            if w.takes_telemetry() {
                // The ring wraps rather than grows; 1 Ki slots keep it
                // cache-resident, as in the repository's telemetry bench.
                tel_on.push(w.pass(&TelemetryHandle::with_capacity(1 << 10)));
            }
        }
        for _ in 0..SETUPS_PER_PASS {
            if setups.len() < SETUP_REPS {
                drop(time_setup(&mut setups)?);
            }
        }
        if untraced.len() >= min_passes && Instant::now() >= deadline {
            break;
        }
    }
    let setup_s = median(&mut setups);

    let mut checks = Checks {
        failures: Vec::new(),
    };
    check_repeats(&mut checks, &untraced);
    let digest = untraced[0].digest;
    for (i, t) in traced.iter().enumerate() {
        checks.require(t.digest == digest, || {
            format!(
                "traced pass {i} digest {:016x} != untraced {digest:016x}",
                t.digest
            )
        });
    }
    for (i, p) in tel_on.iter().enumerate() {
        checks.require(p.digest == digest, || {
            format!(
                "telemetry pass {i} digest {:016x} != untraced {digest:016x}",
                p.digest
            )
        });
    }
    if let Some(want) = args.expect_digest {
        checks.require(digest == want, || {
            format!(
                "digest {digest:016x} != expected {want:016x} for seed {}",
                args.seed
            )
        });
    }

    let (_, _, tail, samples) = unit_quantiles(&untraced);
    println!(
        "provenance {{\"workload\": {}, \"seed\": {}, \"digest\": \"{digest:016x}\", \"nproc\": {}, \"cpu_model\": {}, \"workers\": 1, \"loop\": \"closed, one simulation thread\", \"tail_percentile\": {tail}, \"unit_samples_per_pass\": {samples}, \"passes\": {}, \"trace\": {}}}",
        json_str(&args.workload),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&cpu_model()),
        untraced.len(),
        u8::from(args.trace),
    );
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let attempted: u64 = untraced.iter().map(|p| p.attempted).sum();
    let failed: u64 = untraced.iter().map(|p| p.attempted - p.done).sum();
    let correct = checks.failures.is_empty();
    if args.trace {
        let m = per_layer(&args.workload, &untraced, &traced, &tel_on);
        print_result(correct, attempted, failed, &m, &PER_LAYER);
    } else {
        print_result(
            correct,
            attempted,
            failed,
            &end_to_end(&untraced, setup_s),
            &END_TO_END,
        );
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
