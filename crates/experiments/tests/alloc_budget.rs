//! Memory budget for a co-simulated population.
//!
//! Per-flow and per-link rings reserve from the path they serve: a
//! subflow's inflight deque from its share of the window its path
//! sustains, a reverse link's queue from the ACK bursts the forward link
//! can clock into it, a delivery queue from what its link holds between
//! enqueue and arrival. Reserving every ring for the connection-wide worst
//! case instead requests ~1.8 MB per browse unit, most of it never
//! touched. This test sums every byte requested from the allocator while
//! building and running the 24-unit coupled population of
//! `coupled_browse --quick`, and holds it to a per-unit budget, so
//! worst-case reservations cannot creep back unnoticed.
//!
//! It lives in its own integration-test binary, like `tests/alloc.rs`,
//! so no sibling test can add to the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ecf_core::SchedulerKind;
use experiments::{browse_coupled_population, CoupledRun, SweepOptions, COUPLED_BENCH_GROUPS};

struct CountingAlloc;

/// Bytes requested: every `alloc` size plus every `realloc` new size.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Units in the population (the `coupled_browse --quick` size).
const UNITS: usize = 24;

/// Bytes one browse unit (6 connections, a WiFi + LTE path pair) may
/// request over its whole run. Path-sized rings request ~450 KB;
/// worst-case reservations requested ~1.8 MB.
const BUDGET_PER_UNIT: u64 = 640 * 1024;

#[test]
fn coupled_population_stays_within_its_memory_budget() {
    let pop = browse_coupled_population(1, UNITS, 6, 1.0, 50.0, SchedulerKind::Ecf);
    let opts =
        SweepOptions { max_shards: COUPLED_BENCH_GROUPS, workers: Some(1), ..Default::default() };

    let before = REQUESTED.load(Ordering::Relaxed);
    let run = CoupledRun::new(&pop, &opts);
    assert!(run.n_groups() >= 2, "the coupled units must span engine groups");
    let report = run.finish();
    let per_unit = (REQUESTED.load(Ordering::Relaxed) - before) / UNITS as u64;

    assert_eq!(report.units.len(), UNITS);
    assert!(
        report.units.iter().all(|u| u.page_load.is_some()),
        "every unit must load its page within the horizon; workload mis-sized"
    );
    assert!(
        per_unit <= BUDGET_PER_UNIT,
        "building and running a coupled browse unit requested {per_unit} bytes, \
         over its {BUDGET_PER_UNIT}-byte budget"
    );
}
