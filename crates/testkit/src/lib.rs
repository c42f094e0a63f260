//! # testkit — hermetic test substrate for the workspace
//!
//! Everything the workspace previously pulled from crates.io for testing —
//! `rand`, `proptest`, `criterion` — reimplemented in-tree so the whole
//! repository builds and tests with **no network access**. The hermetic
//! policy (DESIGN.md) is a correctness feature, not a convenience: the
//! reproduction's claims rest on runs being pure functions of
//! (config, seed), which requires owning the PRNG stream, and on a test
//! substrate that cannot drift because a registry dependency changed.
//!
//! Three modules:
//!
//! * [`rng`] — seedable xoshiro256** PRNG (SplitMix64 seeding) with
//!   `gen_range`, `gen_bool`, `f64`, and `shuffle`. Used by the simulator's
//!   stochastic components (link jitter/loss, rate schedules, wild paths,
//!   page models) and by tests.
//! * [`prop`] — property-testing harness: generator combinators, greedy
//!   shrinking, and `TESTKIT_SEED=<n>` replay of a failing case.
//! * [`bench`] — Criterion-lite runner (calibrated batches, median/p95
//!   report, `TESTKIT_BENCH_SMOKE=1` smoke mode) behind the same
//!   `criterion_group!`/`criterion_main!` macro surface. With
//!   `TESTKIT_BENCH_JSON=<path>` set, results are also written as JSON
//!   (the `BENCH.json` perf-trajectory format).
//! * [`json`] — a minimal JSON reader plus a canonical (sorted-key,
//!   whitespace-free, round-tripping) writer used to validate bench
//!   results and to content-address experiment-matrix cache entries.
//! * [`digest`] — streaming FNV-1a 64-bit digests, shared by the golden
//!   regression tests and the experiment matrix's cache keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod digest;
pub mod json;
pub mod prop;
pub mod rng;

pub use rng::Rng;
