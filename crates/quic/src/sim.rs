//! The multipath-QUIC testbed: one connection over `simnet` paths, driven
//! by a transport-agnostic [`TransportApp`].
//!
//! Structure mirrors the MPTCP testbed (`mptcp::Testbed`) deliberately:
//! data rides each path's shaped `fwd` link, requests and ACKs the unshaped
//! `rev` link, per-packet payloads wait in per-link [`DeliveryQueue`]s with
//! one coalesced wakeup per link direction in the heap, and scenario
//! controls chain-schedule. What differs is the transport: *one* connection
//! multiplexes every request as its own stream, the receiver reorders
//! per-stream (no cross-stream head-of-line blocking), and every ACK is
//! immediate per packet (QUIC-style, no delayed-ACK timer).
//!
//! Both testbeds accept the same application trait
//! ([`mptcp::TransportApp`]) and record into the same
//! [`mptcp::Recorder`], so workloads and figure tooling run unchanged on
//! either transport. Stream ids double as request ids: the testbed opens
//! receiver and sender stream state from the request metadata, keeping the
//! wire format down to `(stream, chunk, pn)` triples.

use ecf_core::SchedulerKind;
use mptcp::{segs_for_bytes, Recorder, RecorderConfig, ReqId, TransportApi, TransportApp};
use scenario::{Action, ControlEvent, Scenario};
use simnet::{
    DeliveryQueue, Engine, EventQueue, Model, Path, PathConfig, PathRings, RunOutcome, Time,
    Verdict,
};
use tcp_model::{wire_size, MSS};
use telemetry::{Counter, EventKind, LinkDir, TelemetryHandle};

use crate::connection::{QuicConfig, QuicConn, QuicTx};
use crate::receiver::{DeliveredChunk, QuicReceiver};

/// Wire size of a stream-open request (HTTP/3 GET equivalent).
const REQUEST_WIRE_BYTES: u32 = 300;
/// Wire size of a pure ACK packet.
const ACK_WIRE_BYTES: u32 = 72;

/// Events of the quic testbed model (slim: these ride the engine heap).
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// Kick the application's `on_start` at t=0.
    AppStart,
    /// The head of `paths[path]`'s forward (data) delivery queue arrives.
    FwdDeliver {
        /// Path index.
        path: u32,
    },
    /// The head of `paths[path]`'s reverse (ACK/request) queue arrives.
    RevDeliver {
        /// Path index.
        path: u32,
    },
    /// A path's lazy probe-timeout timer fires.
    Pto {
        /// Path index.
        path: u32,
    },
    /// An application timer fires.
    AppTimer {
        /// Opaque token the application chose.
        token: u64,
    },
    /// A scenario control event fires (index into the compiled table).
    Control {
        /// Index into `QuicWorld::controls`.
        idx: u32,
    },
}

/// A packet parked in a per-link [`DeliveryQueue`].
#[derive(Debug, Clone, Copy)]
enum LinkPayload {
    /// One stream chunk headed for the client.
    Data { stream: u32, chunk: u64, pn: u64 },
    /// A per-packet ACK headed back to the server.
    Ack { pn: u64, rwnd_free: u64 },
    /// A stream-open request headed for the server.
    Request { req: ReqId, chunks: u64 },
}

/// Full testbed specification.
pub struct QuicTestbedConfig {
    /// The physical paths.
    pub paths: Vec<PathConfig>,
    /// Which scheduler places packets.
    pub scheduler: SchedulerKind,
    /// A custom scheduler instance overriding `scheduler`.
    pub custom_scheduler: Option<Box<dyn ecf_core::Scheduler + Send>>,
    /// Connection parameters.
    pub conn: QuicConfig,
    /// Seed for link jitter/loss.
    pub seed: u64,
    /// Explicit per-path RNG seeds overriding the [`simnet::path_seed`]
    /// derivation from `seed` (same contract as the MPTCP testbed).
    pub path_seeds: Option<Vec<u64>>,
    /// What to record.
    pub recorder: RecorderConfig,
    /// Network dynamics for the run.
    pub scenario: Scenario,
    /// Telemetry sink shared by every component.
    pub telemetry: TelemetryHandle,
}

impl QuicTestbedConfig {
    /// A two-path (WiFi + LTE) testbed, the common case.
    pub fn wifi_lte(wifi_mbps: f64, lte_mbps: f64, scheduler: SchedulerKind, seed: u64) -> Self {
        QuicTestbedConfig {
            paths: vec![PathConfig::wifi(wifi_mbps), PathConfig::lte(lte_mbps)],
            scheduler,
            custom_scheduler: None,
            conn: QuicConfig::default(),
            seed,
            path_seeds: None,
            recorder: RecorderConfig::default(),
            scenario: Scenario::default(),
            telemetry: TelemetryHandle::off(),
        }
    }
}

/// Mutable simulation state (everything except the application).
pub struct QuicWorld {
    /// Live paths, indexed as in the config.
    pub paths: Vec<Path>,
    /// The sender (server) side of the one connection.
    pub sender: QuicConn,
    /// The receiver (client) side.
    pub receiver: QuicReceiver,
    /// Collected measurements. One "connection" with a subflow per path,
    /// so per-path arrival stats land like per-subflow stats do on MPTCP.
    pub recorder: Recorder,
    path_up: Vec<bool>,
    fwd_inflight: Vec<DeliveryQueue<LinkPayload>>,
    rev_inflight: Vec<DeliveryQueue<LinkPayload>>,
    controls: Vec<ControlEvent>,
    plan_buf: Vec<QuicTx>,
    delivered_buf: Vec<DeliveredChunk>,
    completed_buf: Vec<ReqId>,
    tel: TelemetryHandle,
}

/// The application's handle into the running world.
pub struct QuicApi<'a> {
    /// Current simulation time.
    pub now: Time,
    world: &'a mut QuicWorld,
    queue: &'a mut EventQueue<Event>,
}

impl TransportApi for QuicApi<'_> {
    /// Open a new stream requesting `bytes` of response payload. The
    /// `conn` argument is ignored: a QUIC client multiplexes everything
    /// onto the one connection, which is exactly the point of comparison
    /// with N-connection MPTCP workloads.
    fn request(&mut self, _conn: usize, bytes: u64) -> ReqId {
        self.world.issue_request(self.now, bytes, self.queue)
    }

    fn set_timer(&mut self, at: Time, token: u64) {
        self.queue.schedule(at, Event::AppTimer { token });
    }
}

impl QuicApi<'_> {
    /// Read-only world access (recorder, receiver state...).
    pub fn world(&self) -> &QuicWorld {
        self.world
    }
}

impl QuicWorld {
    fn build(cfg: &mut QuicTestbedConfig) -> Self {
        if let Some(seeds) = &cfg.path_seeds {
            assert_eq!(seeds.len(), cfg.paths.len(), "one seed per path");
        }
        let paths: Vec<Path> = cfg
            .paths
            .iter()
            .enumerate()
            .map(|(i, pc)| {
                let seed = match &cfg.path_seeds {
                    Some(seeds) => seeds[i],
                    None => simnet::path_seed(cfg.seed, i),
                };
                let mut p = Path::new(pc, seed);
                p.attach_telemetry(&cfg.telemetry, i as u16);
                p
            })
            .collect();
        let handshake_rtts: Vec<std::time::Duration> =
            cfg.paths.iter().map(PathConfig::base_rtt).collect();
        let scheduler: Box<dyn ecf_core::Scheduler> = match cfg.custom_scheduler.take() {
            Some(custom) => custom,
            None => cfg.scheduler.build(),
        };
        let mut sender = QuicConn::new(cfg.conn, scheduler, &handshake_rtts);
        sender.set_telemetry(cfg.telemetry.clone(), 0);
        let n_paths = paths.len();
        let rings: Vec<PathRings> = cfg.paths.iter().map(PathConfig::rings).collect();
        QuicWorld {
            paths,
            sender,
            receiver: QuicReceiver::new(cfg.conn.rwnd_chunks),
            recorder: Recorder::new(cfg.recorder, &[n_paths]),
            path_up: vec![true; n_paths],
            // Sized like `mptcp`'s: what each link direction holds between
            // enqueue and arrival (see `PathRings`).
            fwd_inflight: rings
                .iter()
                .map(|r| DeliveryQueue::with_capacity(r.fwd_delivery))
                .collect(),
            rev_inflight: rings
                .iter()
                .map(|r| DeliveryQueue::with_capacity(r.rev_delivery))
                .collect(),
            controls: cfg.scenario.compile(),
            plan_buf: Vec::with_capacity(64),
            delivered_buf: Vec::with_capacity(64),
            completed_buf: Vec::with_capacity(8),
            tel: cfg.telemetry.clone(),
        }
    }

    fn park_fwd(
        &mut self,
        arrival: Time,
        path: usize,
        payload: LinkPayload,
        q: &mut EventQueue<Event>,
    ) {
        let seq = q.reserve_seq();
        if let Some((at, s)) = self.fwd_inflight[path].push(arrival, seq, payload) {
            q.schedule_reserved(at, s, Event::FwdDeliver { path: path as u32 });
        }
    }

    fn park_rev(
        &mut self,
        arrival: Time,
        path: usize,
        payload: LinkPayload,
        q: &mut EventQueue<Event>,
    ) {
        let seq = q.reserve_seq();
        if let Some((at, s)) = self.rev_inflight[path].push(arrival, seq, payload) {
            q.schedule_reserved(at, s, Event::RevDeliver { path: path as u32 });
        }
    }

    /// True when every opened stream is fully delivered and acked.
    pub fn all_drained(&self) -> bool {
        self.sender.all_acked()
    }

    fn issue_request(&mut self, now: Time, bytes: u64, q: &mut EventQueue<Event>) -> ReqId {
        let chunks = segs_for_bytes(bytes);
        let n_paths = self.paths.len();
        let req = self.recorder.new_request(0, bytes, chunks, now, n_paths);
        // The client computed the stream id; open receive state eagerly so
        // reassembly bounds are known before the first chunk lands.
        self.receiver.open_stream(req as u32, chunks);
        // Stream-opens ride path 0 if up, else any live path.
        let path = if self.path_up[0] {
            0
        } else {
            match (0..n_paths).find(|&p| self.path_up[p]) {
                Some(p) => p,
                // Total blackout: the request is lost.
                None => return req,
            }
        };
        let arrival = match self.paths[path].rev.enqueue(now, REQUEST_WIRE_BYTES) {
            Verdict::Deliver { arrival } => arrival,
            // The reverse link is engineered lossless, but stay robust.
            _ => now + self.paths[path].rev.prop_delay(),
        };
        self.park_rev(arrival, path, LinkPayload::Request { req, chunks }, q);
        req
    }

    fn arm_pto(&mut self, path: usize, q: &mut EventQueue<Event>) {
        let p = &mut self.sender.paths[path];
        if !p.rto_scheduled && p.rto_deadline != Time::MAX {
            p.rto_scheduled = true;
            q.schedule(p.rto_deadline, Event::Pto { path: path as u32 });
        }
    }

    /// Run a send opportunity and put the resulting packets on the wire.
    fn pump_send(&mut self, now: Time, q: &mut EventQueue<Event>) {
        // Cross-layer sample, same contract as the MPTCP testbed:
        // `queued_bytes` expires the queue first, a mutation the next
        // enqueue would perform anyway, so sampling is digest-neutral.
        for i in 0..self.paths.len() {
            let qb = if self.path_up[i] { self.paths[i].fwd.queued_bytes(now) } else { 0 };
            self.sender.paths[i].link_queue_bytes = qb;
        }
        let mut plan = std::mem::take(&mut self.plan_buf);
        plan.clear();
        self.sender.try_send_into(now, &mut plan);
        if !plan.is_empty() {
            for t in &plan {
                // A down path swallows everything; recovery runs through
                // the PTO and pn-gap detection like any tail loss.
                if self.path_up[t.path] {
                    if let Verdict::Deliver { arrival } =
                        self.paths[t.path].fwd.enqueue(now, wire_size(MSS))
                    {
                        let payload =
                            LinkPayload::Data { stream: t.stream, chunk: t.chunk, pn: t.pn };
                        self.park_fwd(arrival, t.path, payload, q);
                    }
                }
            }
            self.tel.add(Counter::SegsSent, plan.len() as u64);
        }
        self.plan_buf = plan;
        for path in 0..self.paths.len() {
            self.arm_pto(path, q);
        }
    }

    fn on_request(&mut self, now: Time, req: ReqId, chunks: u64, q: &mut EventQueue<Event>) {
        self.recorder.requests[req as usize].server_arrival = Some(now);
        self.sender.open_stream(req as u32, chunks);
        self.pump_send(now, q);
    }

    /// Handle a data arrival. Completed requests are pushed onto
    /// `completed_buf` (cleared here); the dispatcher notifies the app.
    fn on_data(
        &mut self,
        now: Time,
        path: usize,
        stream: u32,
        chunk: u64,
        pn: u64,
        q: &mut EventQueue<Event>,
    ) {
        self.completed_buf.clear();
        let req = ReqId::from(stream);
        self.recorder.note_arrival(req, path, now);

        let mut delivered = std::mem::take(&mut self.delivered_buf);
        delivered.clear();
        self.receiver.on_chunk(now, stream, chunk, &mut delivered);
        for d in &delivered {
            self.recorder.note_ooo(0, d.ooo_delay);
        }
        self.delivered_buf = delivered;

        if self.receiver.stream_complete(stream)
            && self.recorder.requests[req as usize].completed.is_none()
        {
            self.recorder.requests[req as usize].completed = Some(now);
            self.completed_buf.push(req);
        }

        // QUIC-style immediate per-packet ACK, back on the same path.
        if self.path_up[path] {
            if let Verdict::Deliver { arrival } = self.paths[path].rev.enqueue(now, ACK_WIRE_BYTES)
            {
                let payload = LinkPayload::Ack { pn, rwnd_free: self.receiver.rwnd_free() };
                self.park_rev(arrival, path, payload, q);
            }
        }
    }

    fn on_ack(&mut self, now: Time, path: usize, pn: u64, rwnd_free: u64, q: &mut EventQueue<Event>) {
        let out = self.sender.on_ack(now, path, pn, rwnd_free);
        if out.fast_retx {
            self.tel.emit(now.as_nanos(), EventKind::FastRetx { conn: 0, path: path as u16 });
            self.tel.incr(Counter::FastRetx);
        }
        self.pump_send(now, q);
    }

    fn on_pto_fire(&mut self, now: Time, path: usize, q: &mut EventQueue<Event>) {
        self.sender.paths[path].rto_scheduled = false;
        let deadline = self.sender.paths[path].rto_deadline;
        if deadline == Time::MAX {
            return; // nothing inflight anymore
        }
        if now < deadline {
            // The deadline moved (acks arrived); re-arm lazily.
            self.arm_pto(path, q);
            return;
        }
        if self.sender.on_pto(path) {
            self.tel.emit(now.as_nanos(), EventKind::Rto { conn: 0, path: path as u16 });
            self.tel.incr(Counter::Rtos);
        }
        self.pump_send(now, q);
    }

    /// Apply a compiled scenario event (same semantics as on MPTCP).
    fn apply_control(&mut self, now: Time, ev: ControlEvent, q: &mut EventQueue<Event>) {
        match ev.action {
            Action::RateBps(bps) => {
                self.paths[ev.path].fwd.set_rate_bps(bps);
                self.tel.emit(
                    now.as_nanos(),
                    EventKind::RateChange {
                        path: ev.path as u16,
                        dir: LinkDir::Forward,
                        rate_bps: bps,
                    },
                );
                self.tel.incr(Counter::RateChanges);
            }
            Action::OneWayDelay(d) => {
                self.paths[ev.path].fwd.set_prop_delay(d);
                self.paths[ev.path].rev.set_prop_delay(d);
            }
            Action::PathUp(up) => self.on_path_state(now, ev.path, up, q),
            Action::Loss(model) => self.paths[ev.path].fwd.set_loss_model(model),
        }
    }

    fn on_path_state(&mut self, now: Time, path: usize, up: bool, q: &mut EventQueue<Event>) {
        self.path_up[path] = up;
        if up {
            self.sender.on_path_up(path);
            self.tel
                .emit(now.as_nanos(), EventKind::SubflowUp { conn: 0, path: path as u16 });
        } else {
            self.sender.on_path_down(path);
            self.tel
                .emit(now.as_nanos(), EventKind::SubflowDown { conn: 0, path: path as u16 });
        }
        self.tel.incr(Counter::SubflowTransitions);
        // Requeued chunks (down) or fresh capacity (up) may unblock sends.
        self.pump_send(now, q);
    }
}

/// The complete model: world + application.
pub struct QuicSim<A: TransportApp> {
    /// Simulation state.
    pub world: QuicWorld,
    /// The workload driver.
    pub app: A,
}

impl<A: TransportApp> QuicSim<A> {
    fn dispatch(&mut self, now: Time, path: usize, payload: LinkPayload, q: &mut EventQueue<Event>) {
        match payload {
            LinkPayload::Data { stream, chunk, pn } => {
                self.world.on_data(now, path, stream, chunk, pn, q);
                if !self.world.completed_buf.is_empty() {
                    let completed = std::mem::take(&mut self.world.completed_buf);
                    for &req in &completed {
                        let mut api = QuicApi { now, world: &mut self.world, queue: q };
                        self.app.on_response_complete(now, 0, req, &mut api);
                    }
                    self.world.completed_buf = completed;
                }
            }
            LinkPayload::Ack { pn, rwnd_free } => {
                self.world.on_ack(now, path, pn, rwnd_free, q);
            }
            LinkPayload::Request { req, chunks } => {
                self.world.on_request(now, req, chunks, q);
            }
        }
    }
}

impl<A: TransportApp> Model for QuicSim<A> {
    type Event = Event;

    fn handle(&mut self, now: Time, ev: Event, q: &mut EventQueue<Event>) {
        match ev {
            Event::AppStart => {
                let mut api = QuicApi { now, world: &mut self.world, queue: q };
                self.app.on_start(now, &mut api);
            }
            Event::AppTimer { token } => {
                let mut api = QuicApi { now, world: &mut self.world, queue: q };
                self.app.on_timer(now, token, &mut api);
            }
            Event::FwdDeliver { path } => {
                let p = path as usize;
                if let Some((payload, mut next)) = self.world.fwd_inflight[p].pop() {
                    self.dispatch(now, p, payload, q);
                    // Batched drain, same contract as the mptcp sim: claim
                    // each parked head only when nothing else pending (nor
                    // the run deadline) orders before it.
                    while let Some((at, s)) = next {
                        if !q.claim_dispatch(at, s) {
                            q.schedule_reserved(at, s, Event::FwdDeliver { path });
                            break;
                        }
                        let (payload, n) = self.world.fwd_inflight[p]
                            .pop()
                            .expect("claimed delivery vanished");
                        self.dispatch(at, p, payload, q);
                        next = n;
                    }
                }
            }
            Event::RevDeliver { path } => {
                let p = path as usize;
                if let Some((payload, mut next)) = self.world.rev_inflight[p].pop() {
                    self.dispatch(now, p, payload, q);
                    while let Some((at, s)) = next {
                        if !q.claim_dispatch(at, s) {
                            q.schedule_reserved(at, s, Event::RevDeliver { path });
                            break;
                        }
                        let (payload, n) = self.world.rev_inflight[p]
                            .pop()
                            .expect("claimed delivery vanished");
                        self.dispatch(at, p, payload, q);
                        next = n;
                    }
                }
            }
            Event::Pto { path } => {
                self.world.on_pto_fire(now, path as usize, q);
            }
            Event::Control { idx } => {
                let ev = self.world.controls[idx as usize];
                self.world.apply_control(now, ev, q);
                // Chain-schedule the successor (controls are time-sorted).
                let next = idx as usize + 1;
                if let Some(n) = self.world.controls.get(next) {
                    q.schedule(n.at, Event::Control { idx: next as u32 });
                }
            }
        }
    }
}

/// A ready-to-run quic testbed: engine + model.
pub struct QuicTestbed<A: TransportApp> {
    /// `None` only after [`QuicTestbed::into_queue`].
    engine: Option<Engine<QuicSim<A>>>,
}

impl<A: TransportApp> QuicTestbed<A> {
    /// Build the world from `cfg`, install `app`, and schedule the start
    /// event plus the compiled scenario's first control event.
    pub fn new(cfg: QuicTestbedConfig, app: A) -> Self {
        QuicTestbed::new_with_queue(cfg, app, EventQueue::new())
    }

    /// Like [`QuicTestbed::new`], but recycling an event queue recovered
    /// via [`QuicTestbed::into_queue`] (keeps its slab across runs).
    pub fn new_with_queue(mut cfg: QuicTestbedConfig, app: A, queue: EventQueue<Event>) -> Self {
        let world = QuicWorld::build(&mut cfg);
        let first_control = world.controls.first().map(|e| e.at);
        let mut engine = Engine::with_queue(QuicSim { world, app }, queue);
        engine.queue_mut().schedule(Time::ZERO, Event::AppStart);
        if let Some(at) = first_control {
            engine.queue_mut().schedule(at, Event::Control { idx: 0 });
        }
        QuicTestbed { engine: Some(engine) }
    }

    fn eng(&self) -> &Engine<QuicSim<A>> {
        self.engine.as_ref().expect("testbed engine taken")
    }

    /// Run until `deadline` (or the event queue drains).
    pub fn run_until(&mut self, deadline: Time) -> RunOutcome {
        self.engine.as_mut().expect("testbed engine taken").run_until(deadline)
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.eng().now()
    }

    /// Events processed so far (diagnostic).
    pub fn events_processed(&self) -> u64 {
        self.eng().processed()
    }

    /// The world (measurements, sender, receiver, paths).
    pub fn world(&self) -> &QuicWorld {
        &self.eng().model.world
    }

    /// The application.
    pub fn app(&self) -> &A {
        &self.eng().model.app
    }

    /// Tear down, recovering the event queue for a later
    /// [`QuicTestbed::new_with_queue`].
    pub fn into_queue(mut self) -> EventQueue<Event> {
        let engine = self.engine.take().expect("testbed engine taken");
        flush_queue_stats(&engine);
        engine.into_queue()
    }
}

/// Flush event-queue diagnostics to telemetry at teardown, exactly like
/// the MPTCP testbed does.
fn flush_queue_stats<A: TransportApp>(engine: &Engine<QuicSim<A>>) {
    let tel = &engine.model.world.tel;
    if !tel.is_enabled() {
        return;
    }
    let q = engine.queue();
    tel.add(Counter::QueueCascades, q.cascaded_total());
    tel.add(Counter::QueuePeakDepth, q.peak_len() as u64);
    tel.add(Counter::FfJumps, q.ff_jumps());
    tel.add(Counter::FfSkippedNs, q.ff_skipped_ns());
    tel.add(Counter::BatchDeliveries, q.batch_deliveries());
    tel.set_max(Counter::BatchMaxLen, q.batch_max_len());
}

impl<A: TransportApp> Drop for QuicTestbed<A> {
    fn drop(&mut self) {
        if let Some(engine) = &self.engine {
            flush_queue_stats(engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Download `sizes` as one stream each, all opened at t=0.
    struct Burst {
        sizes: Vec<u64>,
        done: usize,
        finished_at: Option<Time>,
    }

    impl Burst {
        fn new(sizes: Vec<u64>) -> Self {
            Burst { sizes, done: 0, finished_at: None }
        }
    }

    impl TransportApp for Burst {
        fn on_start(&mut self, _now: Time, api: &mut dyn TransportApi) {
            for &b in &self.sizes {
                api.request(0, b);
            }
        }
        fn on_response_complete(
            &mut self,
            now: Time,
            _conn: usize,
            _req: ReqId,
            _api: &mut dyn TransportApi,
        ) {
            self.done += 1;
            if self.done == self.sizes.len() {
                self.finished_at = Some(now);
            }
        }
    }

    #[test]
    fn one_request_completes_quickly() {
        let cfg = QuicTestbedConfig::wifi_lte(2.0, 8.0, SchedulerKind::Ecf, 1);
        let mut tb = QuicTestbed::new(cfg, Burst::new(vec![256 * 1024]));
        tb.run_until(Time::from_secs(30));
        assert_eq!(tb.app().done, 1);
        let req = &tb.world().recorder.requests[0];
        assert!(req.completion_time().unwrap().as_secs_f64() < 5.0);
        assert!(tb.world().all_drained());
    }

    #[test]
    fn many_streams_multiplex_on_one_connection() {
        let cfg = QuicTestbedConfig::wifi_lte(2.0, 8.0, SchedulerKind::Ecf, 7);
        let sizes: Vec<u64> = (0..40).map(|i| 8 * 1024 + 1024 * i).collect();
        let mut tb = QuicTestbed::new(cfg, Burst::new(sizes.clone()));
        tb.run_until(Time::from_secs(60));
        assert_eq!(tb.app().done, sizes.len());
        assert_eq!(tb.world().recorder.requests.len(), sizes.len());
        assert!(tb.world().all_drained());
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let run = || {
            let cfg = QuicTestbedConfig::wifi_lte(0.5, 6.0, SchedulerKind::Ecf, 42);
            let sizes: Vec<u64> = (0..20).map(|i| 4 * 1024 + 3000 * i).collect();
            let mut tb = QuicTestbed::new(cfg, Burst::new(sizes));
            tb.run_until(Time::from_secs(60));
            let times: Vec<Option<Time>> =
                tb.world().recorder.requests.iter().map(|r| r.completed).collect();
            (tb.events_processed(), times, tb.app().finished_at)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn survives_a_path_outage() {
        let mut cfg = QuicTestbedConfig::wifi_lte(1.0, 8.0, SchedulerKind::Ecf, 3);
        cfg.scenario =
            Scenario::new().outage(1, Time::from_secs(1), Time::from_secs(4));
        let sizes: Vec<u64> = vec![2_000_000, 2_000_000];
        let mut tb = QuicTestbed::new(cfg, Burst::new(sizes));
        tb.run_until(Time::from_secs(120));
        assert_eq!(tb.app().done, 2, "streams must finish despite the outage");
    }
}
