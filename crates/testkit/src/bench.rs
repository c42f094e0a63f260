//! Criterion-lite benchmark runner.
//!
//! Mirrors the slice of the Criterion API the workspace's bench harnesses
//! use — `Criterion::default()`, `benchmark_group`, `sample_size`,
//! `bench_function`, `Bencher::iter`, and the `criterion_group!` /
//! `criterion_main!` macros — so a bench file ports by swapping its `use`
//! line. Each benchmark is calibrated so one sample runs long enough to be
//! measurable, then reports the median and p95 per-iteration time.
//!
//! Setting `TESTKIT_BENCH_SMOKE=1` collapses every benchmark to a single
//! iteration: `scripts/verify.sh` uses this to prove the harnesses still
//! *run* without paying measurement-grade runtime.
//!
//! Setting `TESTKIT_BENCH_FILTER=<text>` runs only the benchmarks whose
//! full name (`group/id`) contains the text — `scripts/bench_update.sh
//! --filter` uses this for partial BENCH.json regeneration. Bench files
//! with expensive shared setup can consult [`name_enabled`] before building
//! workloads for benchmarks the filter would skip anyway.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Re-export so bench files can use one import path for everything.
pub use std::hint::black_box;

/// Environment variable that turns benches into 1-iteration smoke runs.
pub const ENV_SMOKE: &str = "TESTKIT_BENCH_SMOKE";

/// Environment variable holding a substring; when set (and non-empty),
/// only benchmarks whose full name contains it are run.
pub const ENV_FILTER: &str = "TESTKIT_BENCH_FILTER";

/// Environment variable naming a file to write machine-readable results to.
/// When set, `criterion_main!` writes every benchmark's measurements as a
/// JSON document (see [`write_json_results`]) after all groups have run.
pub const ENV_JSON: &str = "TESTKIT_BENCH_JSON";

/// Workload size of one benchmark iteration, used to derive rates
/// (Criterion-shaped; only the variants the workspace needs).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// One iteration processes this many elements (e.g. simulator events);
    /// results then also report elements per second.
    Elements(u64),
}

/// One benchmark's measurements, as recorded for JSON emission.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark name ("group/id").
    pub name: String,
    /// Median per-iteration wall time, nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration wall time, nanoseconds.
    pub p95_ns: f64,
    /// Number of measured samples.
    pub samples: usize,
    /// Iterations batched per sample.
    pub iters_per_sample: u64,
    /// Elements processed per iteration, when declared via [`Throughput`].
    pub elements_per_iter: Option<u64>,
    /// Derived rate: `elements_per_iter / median`, per second.
    pub elements_per_sec: Option<f64>,
    /// Worker threads the workload ran on, when declared via
    /// [`BenchmarkGroup::workers`] (sharded sweeps record this so a tracked
    /// number is comparable across machines and `TESTKIT_WORKERS` settings).
    pub workers: Option<usize>,
    /// True when the run was a 1-iteration smoke pass (timings are noise).
    pub smoke: bool,
}

fn results() -> &'static Mutex<Vec<BenchResult>> {
    static RESULTS: OnceLock<Mutex<Vec<BenchResult>>> = OnceLock::new();
    RESULTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn record_result(r: BenchResult) {
    results().lock().expect("bench results lock").push(r);
}

/// Snapshot of every result recorded so far in this process.
pub fn recorded_results() -> Vec<BenchResult> {
    results().lock().expect("bench results lock").clone()
}

/// If [`ENV_JSON`] is set, write all recorded results there as JSON.
/// Called by `criterion_main!` once every group has run.
pub fn write_json_if_requested() {
    if let Ok(path) = std::env::var(ENV_JSON) {
        if !path.is_empty() {
            write_json_results(&path).unwrap_or_else(|e| {
                eprintln!("bench: failed to write {path}: {e}");
                std::process::exit(1);
            });
        }
    }
}

/// Serialize the recorded results to `path`.
///
/// Schema (stable; consumed by `BENCH.json` tooling and `scripts/verify.sh`):
///
/// ```json
/// {
///   "schema": 1,
///   "smoke": false,
///   "results": [
///     {"name": "sim_throughput/streaming_0.3_8.6", "median_ns": 1.0,
///      "p95_ns": 1.2, "samples": 30, "iters_per_sample": 1,
///      "elements_per_iter": 100, "elements_per_sec": 1.0e8}
///   ]
/// }
/// ```
pub fn write_json_results(path: &str) -> std::io::Result<()> {
    let all = recorded_results();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"smoke\": {},\n", smoke_mode()));
    out.push_str("  \"results\": [");
    for (i, r) in all.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"name\": {}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \
             \"samples\": {}, \"iters_per_sample\": {}",
            json_string(&r.name),
            r.median_ns,
            r.p95_ns,
            r.samples,
            r.iters_per_sample,
        ));
        if let (Some(n), Some(rate)) = (r.elements_per_iter, r.elements_per_sec) {
            out.push_str(&format!(
                ", \"elements_per_iter\": {n}, \"elements_per_sec\": {rate:.1}"
            ));
        }
        if let Some(w) = r.workers {
            out.push_str(&format!(", \"workers\": {w}"));
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    std::fs::write(path, out)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Target wall-clock time for one measured sample during calibration.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

fn smoke_mode() -> bool {
    std::env::var(ENV_SMOKE).map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

/// The [`ENV_FILTER`] substring (`None` when unset/empty).
fn bench_filter() -> Option<&'static str> {
    static FILTER: OnceLock<String> = OnceLock::new();
    let pat = FILTER.get_or_init(|| std::env::var(ENV_FILTER).unwrap_or_default());
    (!pat.is_empty()).then_some(pat.as_str())
}

/// True when benchmark `name` would run under the current [`ENV_FILTER`].
/// Bench files use this to skip expensive shared setup (workload
/// construction, warm-up runs) for benchmarks the filter excludes.
pub fn name_enabled(name: &str) -> bool {
    bench_filter().is_none_or(|pat| name.contains(pat))
}

/// Top-level bench context (Criterion-shaped).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            throughput: None,
            workers: None,
            _parent: self,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_benchmark(name, self.sample_size, None, None, f);
        self
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    workers: Option<usize>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of measured samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare the per-iteration workload of subsequent benchmarks in this
    /// group, so results also report a rate (e.g. events per second).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Record the worker-thread count of subsequent benchmarks in this
    /// group (emitted alongside the timings in the JSON results).
    pub fn workers(&mut self, w: usize) -> &mut Self {
        self.workers = Some(w);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<S: std::fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        f: F,
    ) -> &mut Self {
        run_benchmark(
            &format!("{}/{}", self.name, id),
            self.sample_size,
            self.throughput,
            self.workers,
            f,
        );
        self
    }

    /// End the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; `iter` measures the workload.
pub struct Bencher {
    iters_per_sample: u64,
    samples: usize,
    /// Measured per-iteration times in nanoseconds, one per sample.
    sample_ns: Vec<f64>,
    calibrating: bool,
}

impl Bencher {
    /// Measure `f`, running it enough times per sample to be timeable.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.calibrating {
            // One timed iteration decides the batch size for real samples.
            let t0 = Instant::now();
            black_box(f());
            let elapsed = t0.elapsed().max(Duration::from_nanos(1));
            let per_iter = elapsed.as_secs_f64();
            let target = TARGET_SAMPLE.as_secs_f64();
            self.iters_per_sample = ((target / per_iter).ceil() as u64).clamp(1, 1_000_000);
            return;
        }
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(f());
            }
            let elapsed = t0.elapsed();
            self.sample_ns.push(elapsed.as_nanos() as f64 / self.iters_per_sample as f64);
        }
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    workers: Option<usize>,
    mut f: F,
) {
    if !name_enabled(name) {
        println!("bench {name}: skipped (filter)");
        return;
    }
    if smoke_mode() {
        let mut b = Bencher {
            iters_per_sample: 1,
            samples: 1,
            sample_ns: Vec::new(),
            calibrating: false,
        };
        f(&mut b);
        let median = b.sample_ns.first().copied().unwrap_or(0.0);
        record_result(make_result(name, median, median, 1, 1, throughput, workers, true));
        println!("bench {name}: ok (smoke, 1 iteration)");
        return;
    }

    // Calibration pass: size the batch so a sample is ~TARGET_SAMPLE long.
    let mut cal = Bencher {
        iters_per_sample: 1,
        samples: 0,
        sample_ns: Vec::new(),
        calibrating: true,
    };
    f(&mut cal);

    let mut b = Bencher {
        iters_per_sample: cal.iters_per_sample,
        samples: sample_size.max(1),
        sample_ns: Vec::new(),
        calibrating: false,
    };
    f(&mut b);

    if b.sample_ns.is_empty() {
        println!("bench {name}: no measurement (closure never called iter)");
        return;
    }
    b.sample_ns.sort_by(|a, x| a.partial_cmp(x).expect("finite timings"));
    let median = percentile(&b.sample_ns, 0.50);
    let p95 = percentile(&b.sample_ns, 0.95);
    let result = make_result(
        name,
        median,
        p95,
        b.sample_ns.len(),
        b.iters_per_sample,
        throughput,
        workers,
        false,
    );
    let rate = match result.elements_per_sec {
        Some(r) => format!(", {r:.3e} elem/s"),
        None => String::new(),
    };
    record_result(result);
    println!(
        "bench {name}: median {}, p95 {} ({} samples x {} iters{rate})",
        fmt_ns(median),
        fmt_ns(p95),
        b.sample_ns.len(),
        b.iters_per_sample,
    );
}

#[allow(clippy::too_many_arguments)]
fn make_result(
    name: &str,
    median_ns: f64,
    p95_ns: f64,
    samples: usize,
    iters_per_sample: u64,
    throughput: Option<Throughput>,
    workers: Option<usize>,
    smoke: bool,
) -> BenchResult {
    let elements_per_iter = throughput.map(|Throughput::Elements(n)| n);
    let elements_per_sec =
        elements_per_iter.map(|n| n as f64 / (median_ns.max(1.0) / 1e9));
    BenchResult {
        name: name.to_string(),
        median_ns,
        p95_ns,
        samples,
        iters_per_sample,
        elements_per_iter,
        elements_per_sec,
        workers,
        smoke,
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((q * sorted.len() as f64).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Define a bench group function, Criterion-style. Both invocation forms are
/// supported:
///
/// ```ignore
/// criterion_group!(benches, bench_a, bench_b);
/// criterion_group! {
///     name = benches;
///     config = Criterion::default();
///     targets = bench_a, bench_b
/// }
/// ```
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::bench::Criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::bench::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Define `main` for a `harness = false` bench target. Ignores the CLI
/// arguments Cargo forwards (`--bench`, filters): every group always runs.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::bench::write_json_if_requested();
        }
    };
}

// Make the macros importable from the module path bench files already use:
// `use testkit::bench::{criterion_group, criterion_main, Criterion};`.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("selftest");
        group.sample_size(3);
        let mut calls = 0u64;
        group.bench_function("noop", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        group.finish();
        if smoke_mode() {
            // `TESTKIT_BENCH_SMOKE=1 scripts/verify.sh` exports the smoke
            // flag into the test phase too: exactly one iteration runs.
            assert_eq!(calls, 1);
        } else {
            // Calibration + 3 samples all invoked the closure.
            assert!(calls > 3);
        }
    }

    #[test]
    fn name_enabled_defaults_to_true() {
        // Only meaningful when the outer harness didn't set the filter env
        // var (the OnceLock makes a set-and-unset dance racy across tests).
        if std::env::var(ENV_FILTER).unwrap_or_default().is_empty() {
            assert!(name_enabled("anything/at_all"));
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.95), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn results_are_recorded_with_throughput() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("jsontest");
        group.sample_size(2);
        group.throughput(Throughput::Elements(1000));
        group.bench_function("spin", |b| b.iter(|| black_box(2 + 2)));
        group.finish();
        let rec = recorded_results();
        let r = rec
            .iter()
            .find(|r| r.name == "jsontest/spin")
            .expect("result recorded");
        assert_eq!(r.elements_per_iter, Some(1000));
        let rate = r.elements_per_sec.expect("rate derived");
        assert!(rate > 0.0 && rate.is_finite());
    }

    #[test]
    fn json_output_is_well_formed() {
        let mut c = Criterion::default();
        c.benchmark_group("jsonfile").sample_size(2).bench_function("noop", |b| {
            b.iter(|| black_box(1))
        });
        let path = std::env::temp_dir().join("testkit-bench-selftest.json");
        let path = path.to_str().expect("utf8 temp path");
        write_json_results(path).expect("write json");
        let text = std::fs::read_to_string(path).expect("read back");
        let value = crate::json::parse(&text).expect("parses as JSON");
        let results = value
            .get("results")
            .and_then(|r| r.as_array())
            .expect("results array");
        assert!(!results.is_empty());
        assert_eq!(
            value.get("schema").and_then(crate::json::Value::as_f64),
            Some(1.0)
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_300.0), "12.30 us");
        assert_eq!(fmt_ns(12_300_000.0), "12.30 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
