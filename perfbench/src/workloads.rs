//! The four closed-loop workloads.
//!
//! Each workload is a fixed batch of simulations run back to back on one
//! thread: the next simulation starts when the previous one finishes. The
//! benchmark builds every input from the workload seed and hands the
//! program only configs and populations, through the public APIs of
//! `experiments`, `mptcp`, `quic` and `simnet`.
//!
//! A workload offers an untimed-tracing pass ([`Workload::pass`]) and a
//! traced pass ([`Workload::traced`]) over the same inputs. Both fold the
//! simulated outputs into the same digest, so the traced pass proves the
//! timing shims change no behaviour.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dash::{DashApp, Player, PlayerConfig};
use ecf_core::{Scheduler, SchedulerKind};
use experiments::sharding::{digest_units, ReqSummary};
use experiments::{
    browse_coupled_population, browse_population, partition, plan_shards, run_quic_web,
    run_streaming, run_sweep, CoupledRun, OpenAllApp, Population, StreamingConfig, SweepOptions,
    UnitReport, BW_SET, COUPLED_BENCH_GROUPS, QUIC_WEB_SCHEDULERS,
};
use mptcp::{Api, Application, ConnId, ConnSpec, ReqId, Testbed, TestbedConfig, TransportApp};
use quic::{QuicTestbed, QuicTestbedConfig};
use scenario::Scenario;
use simnet::{EventQueue, PathConfig, Time};
use telemetry::{Counter, TelemetryHandle};
use testkit::digest::Fnv1a;
use webload::{BrowserApp, PageModel};

use crate::stats::{mean, median, mix, percentile};
use crate::trace::{self, span, Layer, TimedApp, TimedSched, TimedTransportApp};

/// Per-layer counters gathered by a pass, keyed by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// The simulated (host-independent) results of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOut {
    /// Mean ECF outcome over mean default outcome (bitrate for streaming;
    /// inverse page-load time for page loads). Above 1 means ECF wins.
    pub ecf_over_default: f64,
    /// Median load time, seconds: page load, or whole-video download.
    pub plt_s_p50: f64,
    /// The [`OOO_TAIL`] percentile of the pooled out-of-order delays, ms.
    pub ooo_ms_tail: f64,
}

/// One untimed-tracing pass.
pub struct PassOut {
    /// Digest of every simulated output of the pass.
    pub digest: u64,
    /// Host time for the pass.
    pub wall_ns: u64,
    /// Host time per unit of work, nanoseconds.
    pub unit_ns: Vec<f64>,
    /// Units attempted.
    pub attempted: u64,
    /// Units that completed within the horizon.
    pub done: u64,
    /// Simulated results.
    pub sim: SimOut,
    /// Per-layer values this pass measures without any tracing (shard and
    /// co-sim round timings the program reports itself).
    pub extra: Counters,
}

/// One traced pass.
pub struct TracedOut {
    /// Must equal the untraced pass's digest.
    pub digest: u64,
    /// Host time for the traced pass.
    pub wall_ns: u64,
    /// Span totals per layer.
    pub totals: trace::Totals,
    /// Per-layer counters.
    pub counters: Counters,
}

/// A workload ready to run: inputs generated, set-up checks passed.
pub trait Workload {
    /// The untimed-tracing pass. `tel` is threaded into every testbed
    /// where the workload supports it (see [`Workload::takes_telemetry`]).
    fn pass(&self, tel: &TelemetryHandle) -> PassOut;
    /// The traced pass.
    fn traced(&self) -> TracedOut;
    /// Whether [`Workload::pass`] threads a telemetry handle into the
    /// testbeds (only then is `telemetry.on_ratio` measured).
    fn takes_telemetry(&self) -> bool {
        false
    }
}

/// Names of the workloads, in the order reports list them.
pub const NAMES: [&str; 4] = ["stream_grid", "browse_pop", "browse_coupled", "quic_web"];

/// Generate the inputs of workload `name` from `seed`, run its set-up
/// checks and a warm-up slice. Errors name the check that failed.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let w: Box<dyn Workload> = match name {
        "stream_grid" => Box::new(StreamGrid::new(seed)?),
        "browse_pop" => Box::new(BrowsePop::new(seed, BROWSE_UNITS)?),
        "browse_coupled" => Box::new(BrowseCoupled::new(seed, COUPLED_UNITS)?),
        "quic_web" => Box::new(QuicWeb::new(seed, QUIC_SEEDS)?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    };
    Ok(w)
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn add(c: &mut Counters, key: &'static str, v: f64) {
    *c.entry(key).or_insert(0.0) += v;
}

fn max_into(c: &mut Counters, key: &'static str, v: f64) {
    let e = c.entry(key).or_insert(0.0);
    *e = e.max(v);
}

/// Percentile of the pooled out-of-order delays reported as their tail.
/// Every pool holds well over 10⁵ delays; the 95th percentile repeats
/// within a few percent across seeds, the 99th does not on the coupled
/// population.
const OOO_TAIL: f64 = 95.0;

fn fold_opt_time(h: &mut Fnv1a, t: Option<Time>) {
    h.write_u64(t.map_or(u64::MAX, Time::as_nanos));
}

fn ooo_tail_ms(pool: &mut [f64]) -> f64 {
    percentile(pool, OOO_TAIL) / 1e3
}

/// Wheel counters of one engine's event queue.
fn queue_counters<E>(c: &mut Counters, q: &EventQueue<E>) {
    add(c, "simnet.wheel.scheduled", q.scheduled_total() as f64);
    add(c, "simnet.wheel.cascaded", q.cascaded_total() as f64);
    max_into(c, "simnet.wheel.peak_len", q.peak_len() as f64);
    add(c, "simnet.wheel.ff_jumps", q.ff_jumps() as f64);
    add(
        c,
        "simnet.wheel.ff_skipped_s",
        q.ff_skipped_ns() as f64 / 1e9,
    );
    add(
        c,
        "simnet.wheel.batch_deliveries",
        q.batch_deliveries() as f64,
    );
}

/// Link counters of a set of paths.
fn link_counters(c: &mut Counters, paths: &[simnet::Path]) {
    for p in paths {
        for s in [p.fwd.stats(), p.rev.stats()] {
            add(c, "simnet.link.pkts", s.delivered_pkts as f64);
            add(
                c,
                "simnet.link.drops",
                (s.dropped_queue + s.dropped_random) as f64,
            );
        }
    }
}

/// Engine, link, TCP, MPTCP sender and receiver counters of one finished
/// MPTCP testbed.
fn mptcp_counters<A: Application>(c: &mut Counters, tb: &Testbed<A>) {
    add(c, "simnet.events", tb.events_processed() as f64);
    queue_counters(c, tb.queue());
    let world = tb.world();
    link_counters(c, &world.paths);
    for conn in 0..world.conn_count() {
        let sender = world.sender(conn);
        for sf in &sender.subflows {
            let cc = sf.cc.stats();
            add(c, "tcp.rtos", cc.rto_events as f64);
            add(c, "tcp.fast_retx", cc.fast_retransmits as f64);
            add(c, "tcp.iw_resets", cc.iw_resets() as f64);
            add(c, "mptcp.segs_sent", sf.stats().segs_sent as f64);
        }
        add(
            c,
            "mptcp.penalizations",
            sender.stats().penalizations as f64,
        );
        let rx = world.receiver(conn).stats();
        max_into(c, "mptcp.rx.reorder_peak", rx.max_meta_buffered as f64);
        add(c, "mptcp.rx.dup_segs", rx.duplicate_segs as f64);
    }
}

/// The built-in scheduler `kind` wrapped in timing, as a custom scheduler.
fn timed(kind: SchedulerKind) -> Box<dyn Scheduler + Send> {
    Box::new(TimedSched(kind.build()))
}

// ---------------------------------------------------------------------------
// stream_grid
// ---------------------------------------------------------------------------

/// Seconds of video per DASH session.
pub const STREAM_VIDEO_SECS: f64 = 180.0;

struct Session {
    wifi: f64,
    lte: f64,
    kind: SchedulerKind,
    seed: u64,
}

/// DASH sessions over the 6×6 `BW_SET` WiFi×LTE grid, once with ECF and
/// once with the default scheduler.
pub struct StreamGrid {
    sessions: Vec<Session>,
}

impl StreamGrid {
    fn new(seed: u64) -> Result<Self, String> {
        let mut sessions = Vec::new();
        for kind in [SchedulerKind::Ecf, SchedulerKind::Default] {
            for &wifi in &BW_SET {
                for &lte in &BW_SET {
                    let i = sessions.len() as u64;
                    sessions.push(Session {
                        wifi,
                        lte,
                        kind,
                        seed: mix(seed, i),
                    });
                }
            }
        }
        let w = StreamGrid { sessions };
        w.check_against_library()?;
        // Warm-up: the 0.3/8.6 and the 0.7/0.7 Mbps ECF cells.
        for s in [&w.sessions[5], &w.sessions[7]] {
            w.plain_session(s, &TelemetryHandle::off());
        }
        Ok(w)
    }

    fn horizon(&self) -> Time {
        Time::from_secs((STREAM_VIDEO_SECS * 30.0) as u64 + 300)
    }

    fn config(
        &self,
        s: &Session,
        custom: Option<Box<dyn Scheduler + Send>>,
        tel: &TelemetryHandle,
    ) -> TestbedConfig {
        let mut conn = match custom {
            Some(sched) => ConnSpec::with_custom(sched, vec![0, 1]),
            None => ConnSpec::new(s.kind, vec![0, 1]),
        };
        conn.cfg.tcp.idle_reset = true;
        conn.cfg.cc = mptcp::CcKind::default();
        TestbedConfig {
            paths: vec![PathConfig::wifi(s.wifi), PathConfig::lte(s.lte)],
            conns: vec![conn],
            seed: s.seed,
            path_seeds: None,
            recorder: mptcp::RecorderConfig::default(),
            scenario: Scenario::default(),
            telemetry: tel.clone(),
        }
    }

    fn player(&self) -> PlayerConfig {
        PlayerConfig {
            video_secs: STREAM_VIDEO_SECS,
            ..PlayerConfig::default()
        }
    }

    /// Run one session with `app` (the plain player, or the player
    /// wrapped in timing when `custom` carries the timed scheduler);
    /// `inspect` sees the finished testbed.
    fn session<A: Application>(
        &self,
        s: &Session,
        custom: Option<Box<dyn Scheduler + Send>>,
        tel: &TelemetryHandle,
        app: A,
        dash: impl Fn(&A) -> &DashApp,
        inspect: impl FnOnce(&Testbed<A>),
    ) -> SessionOut {
        let traced = custom.is_some();
        let mut tb = Testbed::new(self.config(s, custom, tel), app);
        let horizon = self.horizon();
        if traced {
            span(Layer::Mptcp, || tb.run_until(horizon));
        } else {
            tb.run_until(horizon);
        }
        inspect(&tb);
        let app = dash(tb.app());
        SessionOut::new(
            &app.player,
            app.finished_at(),
            &tb.world().recorder.ooo_delays_us,
        )
    }

    fn plain_session(&self, s: &Session, tel: &TelemetryHandle) -> SessionOut {
        self.session(s, None, tel, DashApp::new(self.player(), 0), |a| a, |_| ())
    }

    /// The benchmark assembles its own testbeds; one cell must match the
    /// library's `run_streaming` exactly.
    fn check_against_library(&self) -> Result<(), String> {
        let s = &self.sessions[5];
        let ours = self.plain_session(s, &TelemetryHandle::off());
        let lib = run_streaming(&StreamingConfig {
            video_secs: STREAM_VIDEO_SECS,
            ..StreamingConfig::new(s.wifi, s.lte, s.kind, s.seed)
        });
        let ours_ooo: Vec<f64> = ours.ooo_us.iter().map(|&us| us as f64 / 1e6).collect();
        if ours.bitrate.to_bits() != lib.avg_bitrate.to_bits() || ours_ooo != lib.ooo_delays {
            return Err("stream_grid: benchmark testbed differs from run_streaming".into());
        }
        Ok(())
    }
}

/// The deterministic outputs of one DASH session.
struct SessionOut {
    bitrate: f64,
    finished: Option<Time>,
    ooo_us: Vec<u64>,
    digest: u64,
}

impl SessionOut {
    fn new(player: &Player, finished: Option<Time>, ooo_us: &[u64]) -> Self {
        let mut h = Fnv1a::new();
        h.write_f64(player.avg_bitrate_mbps());
        h.write_u64(player.rebuffer_events);
        for c in &player.history {
            h.write_u64(c.index);
            h.write_u64(c.repr as u64);
            h.write_u64(c.bytes);
            h.write_u64(c.started.as_nanos());
            h.write_u64(c.finished.as_nanos());
        }
        fold_opt_time(&mut h, finished);
        h.write_u64(ooo_us.len() as u64);
        for &us in ooo_us {
            h.write_u64(us);
        }
        SessionOut {
            bitrate: player.avg_bitrate_mbps(),
            finished,
            ooo_us: ooo_us.to_vec(),
            digest: h.finish(),
        }
    }
}

/// Fold session outputs (in input order) into the pass result fields.
fn stream_summary(sessions: &[Session], outs: &[SessionOut]) -> (u64, SimOut, u64) {
    let mut h = Fnv1a::new();
    let (mut ecf, mut dflt) = (Vec::new(), Vec::new());
    let mut loads = Vec::new();
    let mut ooo = Vec::new();
    for (s, o) in sessions.iter().zip(outs) {
        h.write_u64(o.digest);
        match s.kind {
            SchedulerKind::Ecf => ecf.push(o.bitrate),
            _ => dflt.push(o.bitrate),
        }
        if let Some(t) = o.finished {
            loads.push(t.as_secs_f64());
        }
        ooo.extend(o.ooo_us.iter().map(|&us| us as f64));
    }
    let done = loads.len() as u64;
    let sim = SimOut {
        ecf_over_default: mean(&ecf) / mean(&dflt),
        plt_s_p50: median(&mut loads),
        ooo_ms_tail: ooo_tail_ms(&mut ooo),
    };
    (h.finish(), sim, done)
}

impl Workload for StreamGrid {
    fn takes_telemetry(&self) -> bool {
        true
    }

    fn pass(&self, tel: &TelemetryHandle) -> PassOut {
        let start = Instant::now();
        let mut unit_ns = Vec::with_capacity(self.sessions.len());
        let mut outs = Vec::with_capacity(self.sessions.len());
        for s in &self.sessions {
            let t = Instant::now();
            outs.push(self.plain_session(s, tel));
            unit_ns.push(elapsed_ns(t) as f64);
        }
        let wall_ns = elapsed_ns(start);
        let (digest, sim, done) = stream_summary(&self.sessions, &outs);
        PassOut {
            digest,
            wall_ns,
            unit_ns,
            attempted: self.sessions.len() as u64,
            done,
            sim,
            extra: Counters::new(),
        }
    }

    fn traced(&self) -> TracedOut {
        let mut counters = Counters::new();
        let start = Instant::now();
        let outs: Vec<SessionOut> = span(Layer::Harness, || {
            self.sessions
                .iter()
                .map(|s| {
                    let app = TimedApp(DashApp::new(self.player(), 0));
                    let tel = TelemetryHandle::off();
                    self.session(
                        s,
                        Some(timed(s.kind)),
                        &tel,
                        app,
                        |a| &a.0,
                        |tb| mptcp_counters(&mut counters, tb),
                    )
                })
                .collect()
        });
        let wall_ns = elapsed_ns(start);
        let (digest, _, _) = stream_summary(&self.sessions, &outs);
        TracedOut {
            digest,
            wall_ns,
            totals: trace::take(),
            counters,
        }
    }
}

// ---------------------------------------------------------------------------
// browse_pop
// ---------------------------------------------------------------------------

/// Browse units in `browse_pop` (six connections each).
pub const BROWSE_UNITS: usize = 800;
const CONNS_PER_UNIT: usize = 6;

/// Odd units run the default scheduler on the page of the ECF unit before
/// them, so every browse population carries a paired ECF/default
/// comparison.
fn alternate_schedulers(pop: &mut Population) {
    for u in (1..pop.units.len()).step_by(2) {
        pop.units[u].page = pop.units[u - 1].page.clone();
        for c in &mut pop.units[u].conns {
            c.scheduler = SchedulerKind::Default;
        }
    }
}

fn browse_sim(pop: &Population, units: &[UnitReport]) -> (SimOut, u64) {
    let (mut ecf, mut dflt) = (Vec::new(), Vec::new());
    let mut loads = Vec::new();
    let mut ooo = Vec::new();
    for r in units {
        if let Some(t) = r.page_load {
            let s = t.as_secs_f64();
            loads.push(s);
            match pop.units[r.unit].conns[0].scheduler {
                SchedulerKind::Ecf => ecf.push(s),
                _ => dflt.push(s),
            }
        }
        for pool in &r.ooo_us_per_conn {
            ooo.extend(pool.iter().map(|&us| us as f64));
        }
    }
    let done = loads.len() as u64;
    let sim = SimOut {
        ecf_over_default: mean(&dflt) / mean(&ecf),
        plt_s_p50: median(&mut loads),
        ooo_ms_tail: ooo_tail_ms(&mut ooo),
    };
    (sim, done)
}

/// The application of one shard engine: one browser per unit, each on its
/// own range of connections (the composition a sweep shard runs).
struct ShardApp {
    units: Vec<BrowserApp>,
    owner: Vec<usize>,
}

impl Application for ShardApp {
    fn on_start(&mut self, now: Time, api: &mut Api<'_>) {
        for unit in &mut self.units {
            unit.on_start(now, api);
        }
    }
    fn on_response_complete(&mut self, now: Time, conn: ConnId, req: ReqId, api: &mut Api<'_>) {
        self.units[self.owner[conn]].on_response_complete(now, conn, req, api);
    }
}

/// The `browse_10k` shape (1/10 Mbps, six connections per unit) through
/// `run_sweep` with one shard per unit.
pub struct BrowsePop {
    pop: Population,
}

impl BrowsePop {
    fn new(seed: u64, n_units: usize) -> Result<Self, String> {
        let mut pop =
            browse_population(seed, n_units, CONNS_PER_UNIT, 1.0, 10.0, SchedulerKind::Ecf);
        alternate_schedulers(&mut pop);
        if partition(&pop).len() != n_units {
            return Err("browse_pop: units must not share paths".into());
        }
        let w = BrowsePop { pop };
        // Warm-up: a slice of the population through the same driver.
        let mut slice = w.pop.clone();
        slice.units.truncate(n_units / 8);
        run_sweep(&slice, &sweep_options(0, TelemetryHandle::off()));
        Ok(w)
    }

    /// One shard run from outside the program: the same paths, seeds and
    /// connections a sweep shard builds, with timed scheduler and app.
    fn traced_shard(
        &self,
        idxs: &[usize],
        queue: EventQueue<mptcp::Event>,
        counters: &mut Counters,
        reports: &mut [Option<UnitReport>],
    ) -> EventQueue<mptcp::Event> {
        let pop = &self.pop;
        let mut globals: Vec<usize> = idxs
            .iter()
            .flat_map(|&u| {
                pop.units[u]
                    .conns
                    .iter()
                    .flat_map(|c| c.subflow_paths.iter().copied())
            })
            .collect();
        globals.sort_unstable();
        globals.dedup();
        let local = |g: usize| globals.binary_search(&g).expect("path in shard");
        let mut conns = Vec::new();
        let mut apps = Vec::new();
        let mut owner = Vec::new();
        let mut ranges = Vec::new();
        for (slot, &u) in idxs.iter().enumerate() {
            let unit = &pop.units[u];
            let base = conns.len();
            for pc in &unit.conns {
                let mut spec = ConnSpec::with_custom(
                    timed(pc.scheduler),
                    pc.subflow_paths.iter().map(|&g| local(g)).collect(),
                );
                spec.cfg = pc.cfg;
                conns.push(spec);
                owner.push(slot);
            }
            apps.push(BrowserApp::with_conn_base(
                unit.page.clone(),
                unit.conns.len(),
                base,
            ));
            ranges.push((base, unit.conns.len()));
        }
        let cfg = TestbedConfig {
            paths: globals.iter().map(|&g| pop.paths[g].clone()).collect(),
            conns,
            seed: pop.seed,
            path_seeds: Some(
                globals
                    .iter()
                    .map(|&g| simnet::path_seed(pop.seed, g))
                    .collect(),
            ),
            recorder: pop.recorder,
            scenario: Scenario::default(),
            telemetry: TelemetryHandle::off(),
        };
        let mut tb = Testbed::new_with_queue(cfg, TimedApp(ShardApp { units: apps, owner }), queue);
        span(Layer::Mptcp, || tb.run_until(pop.horizon));
        mptcp_counters(counters, &tb);
        let world = tb.world();
        for (slot, (&u, &(base, n))) in idxs.iter().zip(&ranges).enumerate() {
            let app = &tb.app().0.units[slot];
            let requests = world
                .recorder
                .requests
                .iter()
                .filter(|r| (base..base + n).contains(&r.conn))
                .map(|r| ReqSummary {
                    conn: r.conn - base,
                    bytes: r.bytes,
                    segs: r.segs,
                    first_dsn: r.first_dsn,
                    last_dsn: r.last_dsn,
                    issued: r.issued,
                    server_arrival: r.server_arrival,
                    completed: r.completed,
                    last_arrival_per_sub: r.last_arrival_per_sub.clone(),
                    arrivals_per_sub: r.arrivals_per_sub.clone(),
                })
                .collect();
            let ooo_us_per_conn = (base..base + n)
                .map(|c| {
                    world
                        .recorder
                        .ooo_delays_us_per_conn
                        .get(c)
                        .cloned()
                        .unwrap_or_default()
                })
                .collect();
            reports[u] = Some(UnitReport {
                unit: u,
                objects: app.objects.clone(),
                page_load: app.page_load_time,
                requests,
                ooo_us_per_conn,
            });
        }
        tb.into_queue()
    }
}

fn sweep_options(max_shards: usize, telemetry: TelemetryHandle) -> SweepOptions {
    SweepOptions {
        max_shards,
        workers: Some(1),
        telemetry,
    }
}

impl Workload for BrowsePop {
    fn pass(&self, _tel: &TelemetryHandle) -> PassOut {
        let start = Instant::now();
        let report = run_sweep(&self.pop, &sweep_options(0, TelemetryHandle::off()));
        let wall_ns = elapsed_ns(start);
        let (sim, done) = browse_sim(&self.pop, &report.units);
        let shard_ns: Vec<f64> = report.shard_wall_ns.iter().map(|&n| n as f64).collect();
        let sum: f64 = shard_ns.iter().sum();
        let max = shard_ns.iter().copied().fold(0.0, f64::max);
        let mut extra = Counters::new();
        extra.insert("sharding.shard_s.sum", sum / 1e9);
        extra.insert("sharding.driver_s", (wall_ns as f64 - sum) / 1e9);
        extra.insert("sharding.shard_imbalance", max / mean(&shard_ns));
        PassOut {
            digest: report.digest,
            wall_ns,
            unit_ns: shard_ns,
            attempted: self.pop.units.len() as u64,
            done,
            sim,
            extra,
        }
    }

    fn traced(&self) -> TracedOut {
        let mut counters = Counters::new();
        let start = Instant::now();
        let digest = span(Layer::Harness, || {
            let mut reports: Vec<Option<UnitReport>> = vec![None; self.pop.units.len()];
            span(Layer::Sharding, || {
                let t = Instant::now();
                let shards = plan_shards(&self.pop, 0);
                counters.insert("sharding.partition_s", elapsed_ns(t) as f64 / 1e9);
                counters.insert("sharding.shards", shards.len() as f64);
                let mut queue = EventQueue::default();
                for idxs in &shards {
                    queue = self.traced_shard(idxs, queue, &mut counters, &mut reports);
                }
            });
            let units: Vec<UnitReport> = reports
                .into_iter()
                .map(|r| r.expect("every unit simulated"))
                .collect();
            digest_units(&units)
        });
        let wall_ns = elapsed_ns(start);
        TracedOut {
            digest,
            wall_ns,
            totals: trace::take(),
            counters,
        }
    }
}

// ---------------------------------------------------------------------------
// browse_coupled
// ---------------------------------------------------------------------------

/// Browse units in `browse_coupled`.
pub const COUPLED_UNITS: usize = 250;
/// Share of the shared LTE bottleneck per unit, Mbps (150 Mbps for 500
/// units).
const COUPLED_LTE_MBPS_PER_UNIT: f64 = 0.3;
/// Units in the set-up check that co-sim equals the monolith.
const COUPLED_CHECK_UNITS: usize = 24;

fn coupled_population(seed: u64, n_units: usize) -> Population {
    let mut pop = browse_coupled_population(
        seed,
        n_units,
        CONNS_PER_UNIT,
        1.0,
        COUPLED_LTE_MBPS_PER_UNIT * n_units as f64,
        SchedulerKind::Ecf,
    );
    alternate_schedulers(&mut pop);
    pop
}

/// A browse population whose LTE legs share one bottleneck, run as
/// `COUPLED_BENCH_GROUPS` lockstep engine groups.
pub struct BrowseCoupled {
    pop: Population,
}

impl BrowseCoupled {
    fn new(seed: u64, n_units: usize) -> Result<Self, String> {
        // Reduced-scale proof that the co-sim merge equals the monolith;
        // it doubles as the warm-up.
        let small = coupled_population(seed, COUPLED_CHECK_UNITS);
        let groups = run_sweep(
            &small,
            &sweep_options(COUPLED_BENCH_GROUPS, TelemetryHandle::off()),
        );
        let mono = run_sweep(&small, &sweep_options(1, TelemetryHandle::off()));
        if groups.digest != mono.digest {
            return Err(format!(
                "browse_coupled: co-sim digest {:016x} != monolith digest {:016x}",
                groups.digest, mono.digest
            ));
        }
        Ok(BrowseCoupled {
            pop: coupled_population(seed, n_units),
        })
    }
}

impl Workload for BrowseCoupled {
    fn pass(&self, _tel: &TelemetryHandle) -> PassOut {
        let start = Instant::now();
        let mut run = CoupledRun::new(
            &self.pop,
            &sweep_options(COUPLED_BENCH_GROUPS, TelemetryHandle::off()),
        );
        let mut unit_ns = Vec::new();
        loop {
            let t = Instant::now();
            let more = run.step();
            unit_ns.push(elapsed_ns(t) as f64);
            if !more {
                break;
            }
        }
        let report = run.finish();
        let wall_ns = elapsed_ns(start);
        let (sim, done) = browse_sim(&self.pop, &report.units);
        let mut extra = Counters::new();
        extra.insert("cosim.rounds", unit_ns.len() as f64);
        extra.insert("cosim.round_ms.p50", median(&mut unit_ns.clone()) / 1e6);
        let tail = crate::stats::tail_percentile(unit_ns.len());
        extra.insert(
            "cosim.round_ms.tail",
            percentile(&mut unit_ns.clone(), tail) / 1e6,
        );
        PassOut {
            digest: report.digest,
            wall_ns,
            unit_ns,
            attempted: self.pop.units.len() as u64,
            done,
            sim,
            extra,
        }
    }

    fn traced(&self) -> TracedOut {
        let tel = TelemetryHandle::with_capacity(1 << 10);
        let mut counters = Counters::new();
        let start = Instant::now();
        let report = span(Layer::Harness, || {
            let opts = sweep_options(COUPLED_BENCH_GROUPS, tel.clone());
            let mut run = span(Layer::Cosim, || CoupledRun::new(&self.pop, &opts));
            counters.insert("sharding.shards", run.n_groups() as f64);
            while span(Layer::Cosim, || run.step()) {}
            span(Layer::Cosim, || run.finish())
        });
        let wall_ns = elapsed_ns(start);
        let mut totals = trace::take();
        // The engine groups run inside `step`; the program reports their
        // wall time per group, which moves from co-sim self time to the
        // engine.
        let engine_ns: u64 = report.shard_wall_ns.iter().sum();
        let cosim = Layer::Cosim as usize;
        let moved = engine_ns.min(totals.self_ns[cosim]);
        totals.self_ns[cosim] -= moved;
        totals.self_ns[Layer::Mptcp as usize] += moved;
        totals.span_ns[Layer::Mptcp as usize] += moved;
        counters.insert("simnet.events", report.events_total() as f64);
        counters.insert(
            "simnet.wheel.ff_jumps",
            tel.counter(Counter::FfJumps) as f64,
        );
        counters.insert(
            "simnet.wheel.ff_skipped_s",
            tel.counter(Counter::FfSkippedNs) as f64 / 1e9,
        );
        counters.insert(
            "simnet.wheel.batch_deliveries",
            tel.counter(Counter::BatchDeliveries) as f64,
        );
        counters.insert(
            "cosim.boundary_msgs",
            tel.counter(Counter::CosimBoundaryMsgs) as f64,
        );
        counters.insert(
            "cosim.stall_s",
            tel.counter(Counter::CosimStallNs) as f64 / 1e9,
        );
        TracedOut {
            digest: report.digest,
            wall_ns,
            totals,
            counters,
        }
    }
}

// ---------------------------------------------------------------------------
// quic_web
// ---------------------------------------------------------------------------

/// Link seeds per (bandwidth pair, scheduler) cell in `quic_web`.
pub const QUIC_SEEDS: u64 = 6;
/// The page every load fetches (the `quic_web` experiment's page).
const QUIC_PAGE_SEED: u64 = 2014;
/// Simulated time between receiver samples in the traced pass.
const QUIC_SAMPLE_STEP: Duration = Duration::from_millis(5);

struct Load {
    wifi: f64,
    lte: f64,
    kind: SchedulerKind,
    seed: u64,
}

struct LoadOut {
    plt: Option<Time>,
    ooo_us: Vec<u64>,
    /// Peak chunks held out of order (sampled; traced loads only).
    held_peak: u64,
    digest: u64,
}

/// 107-stream MPQUIC page loads over the `BW_SET` grid ×
/// `QUIC_WEB_SCHEDULERS` × link seeds.
pub struct QuicWeb {
    loads: Vec<Load>,
    page: PageModel,
}

impl QuicWeb {
    fn new(seed: u64, n_seeds: u64) -> Result<Self, String> {
        let mut loads = Vec::new();
        for s in 0..n_seeds {
            for kind in QUIC_WEB_SCHEDULERS {
                for &wifi in &BW_SET {
                    for &lte in &BW_SET {
                        let i = loads.len() as u64;
                        loads.push(Load {
                            wifi,
                            lte,
                            kind,
                            seed: mix(seed ^ s, i),
                        });
                    }
                }
            }
        }
        let w = QuicWeb {
            loads,
            page: PageModel::cnn_like(QUIC_PAGE_SEED),
        };
        // The benchmark assembles its own testbeds; one load must match the
        // library's `run_quic_web` exactly.
        let l = &w.loads[5];
        let ours = w.plain_load(l, &TelemetryHandle::off());
        let lib = run_quic_web(l.wifi, l.lte, l.kind, l.seed);
        if ours.plt != lib.app().page_load_time || ours.ooo_us != lib.world().recorder.ooo_delays_us
        {
            return Err("quic_web: benchmark testbed differs from run_quic_web".into());
        }
        // Warm-up: the first eighth of the loads.
        for l in w.loads.iter().take(w.loads.len() / 8) {
            w.plain_load(l, &TelemetryHandle::off());
        }
        Ok(w)
    }

    /// Run one page load with `app` (the plain browser, or the browser
    /// wrapped in timing when `custom` carries the timed scheduler). The
    /// traced load steps the engine to sample the receiver's reorder hold;
    /// the traced digest proves stepping changes nothing.
    fn load<A: TransportApp>(
        &self,
        l: &Load,
        custom: Option<Box<dyn Scheduler + Send>>,
        tel: &TelemetryHandle,
        app: A,
        browser: impl Fn(&A) -> &OpenAllApp,
        inspect: impl FnOnce(QuicTestbed<A>),
    ) -> LoadOut {
        let traced = custom.is_some();
        let cfg = QuicTestbedConfig {
            custom_scheduler: custom,
            telemetry: tel.clone(),
            ..QuicTestbedConfig::wifi_lte(l.wifi, l.lte, l.kind, l.seed)
        };
        let mut tb = QuicTestbed::new(cfg, app);
        let horizon = Time::from_secs(600);
        let mut held_peak = 0;
        if traced {
            let mut t = Time::ZERO;
            while !browser(tb.app()).done() && t < horizon {
                t += QUIC_SAMPLE_STEP;
                span(Layer::Quic, || tb.run_until(t));
                held_peak = held_peak.max(tb.world().receiver.held_chunks());
            }
            span(Layer::Quic, || tb.run_until(horizon));
        } else {
            tb.run_until(horizon);
        }
        let plt = browser(tb.app()).page_load_time;
        let recorder = &tb.world().recorder;
        let mut h = Fnv1a::new();
        fold_opt_time(&mut h, plt);
        for r in recorder.completed_requests() {
            h.write_u64(r.bytes);
            fold_opt_time(&mut h, r.completed);
        }
        h.write_u64(recorder.ooo_delays_us.len() as u64);
        for &us in &recorder.ooo_delays_us {
            h.write_u64(us);
        }
        let out = LoadOut {
            plt,
            ooo_us: recorder.ooo_delays_us.clone(),
            held_peak,
            digest: h.finish(),
        };
        inspect(tb);
        out
    }

    fn plain_load(&self, l: &Load, tel: &TelemetryHandle) -> LoadOut {
        self.load(l, None, tel, OpenAllApp::new(&self.page), |a| a, drop)
    }

    fn summary(&self, outs: &[LoadOut]) -> (u64, SimOut, u64) {
        let mut h = Fnv1a::new();
        let (mut ecf, mut dflt) = (Vec::new(), Vec::new());
        let mut plts = Vec::new();
        let mut ooo = Vec::new();
        for (l, o) in self.loads.iter().zip(outs) {
            h.write_u64(o.digest);
            if let Some(t) = o.plt {
                let s = t.as_secs_f64();
                plts.push(s);
                match l.kind {
                    SchedulerKind::Ecf => ecf.push(s),
                    SchedulerKind::Default => dflt.push(s),
                    _ => {}
                }
            }
            ooo.extend(o.ooo_us.iter().map(|&us| us as f64));
        }
        let done = plts.len() as u64;
        let sim = SimOut {
            ecf_over_default: mean(&dflt) / mean(&ecf),
            plt_s_p50: median(&mut plts),
            ooo_ms_tail: ooo_tail_ms(&mut ooo),
        };
        (h.finish(), sim, done)
    }
}

impl Workload for QuicWeb {
    fn takes_telemetry(&self) -> bool {
        true
    }

    fn pass(&self, tel: &TelemetryHandle) -> PassOut {
        let start = Instant::now();
        let mut unit_ns = Vec::with_capacity(self.loads.len());
        let mut outs = Vec::with_capacity(self.loads.len());
        for l in &self.loads {
            let t = Instant::now();
            outs.push(self.plain_load(l, tel));
            unit_ns.push(elapsed_ns(t) as f64);
        }
        let wall_ns = elapsed_ns(start);
        let (digest, sim, done) = self.summary(&outs);
        PassOut {
            digest,
            wall_ns,
            unit_ns,
            attempted: self.loads.len() as u64,
            done,
            sim,
            extra: Counters::new(),
        }
    }

    fn traced(&self) -> TracedOut {
        let mut counters = Counters::new();
        let start = Instant::now();
        let outs: Vec<LoadOut> = span(Layer::Harness, || {
            self.loads
                .iter()
                .map(|l| {
                    let app = TimedTransportApp(OpenAllApp::new(&self.page));
                    let tel = TelemetryHandle::off();
                    self.load(
                        l,
                        Some(timed(l.kind)),
                        &tel,
                        app,
                        |a| &a.0,
                        |tb| {
                            add(&mut counters, "quic.events", tb.events_processed() as f64);
                            add(&mut counters, "simnet.events", tb.events_processed() as f64);
                            link_counters(&mut counters, &tb.world().paths);
                            queue_counters(&mut counters, &tb.into_queue());
                        },
                    )
                })
                .collect()
        });
        let wall_ns = elapsed_ns(start);
        let held_peak = outs.iter().map(|o| o.held_peak).max().unwrap_or(0);
        counters.insert("quic.rx.held_peak", held_peak as f64);
        let (digest, _, _) = self.summary(&outs);
        TracedOut {
            digest,
            wall_ns,
            totals: trace::take(),
            counters,
        }
    }
}
