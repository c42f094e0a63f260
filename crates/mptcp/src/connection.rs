//! Sender-side MPTCP connection: the connection-level send buffer, the
//! scheduler plug-in point, coupled congestion control application, and the
//! opportunistic-retransmission + penalization mechanisms of Raiciu et al.
//! (enabled by default, as in the paper's experiments).

use std::collections::VecDeque;
use std::time::Duration;

use ecf_core::{Decision, PathSnapshot, Scheduler};
use simnet::Time;
use tcp_model::TcpConfig;
use telemetry::{Counter, EventKind, TelemetryHandle};

use crate::cc::{ca_increase, CcKind, CcView};
use crate::segment::{AckInfo, ReqId, Segment, SubId};
use crate::subflow::Subflow;
use crate::transport::SchedDriver;

/// Connection-level configuration. Defaults model the paper's testbed hosts:
/// a ~4 MB autotuned server send buffer and a ~2 MB client receive window —
/// large enough that flow control only binds transiently (the paper's §3.2
/// observes receive-window limits are not the bottleneck), LIA coupling,
/// both mitigation mechanisms on.
#[derive(Debug, Clone, Copy)]
pub struct ConnConfig {
    /// Send-buffer capacity in segments (≈1 MB at MSS 1448).
    pub sndbuf_segs: u64,
    /// Receiver reorder-buffer capacity in segments.
    pub rwnd_segs: u64,
    /// Congestion-avoidance coupling.
    pub cc: CcKind,
    /// Per-subflow TCP parameters.
    pub tcp: TcpConfig,
    /// Enable opportunistic retransmission (reinject the window-blocking
    /// segment on a faster subflow).
    pub opportunistic_rtx: bool,
    /// Enable penalization (halve the window of the blocking subflow).
    pub penalization: bool,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            sndbuf_segs: 2896,
            rwnd_segs: 2896,
            cc: CcKind::default(),
            tcp: TcpConfig::default(),
            opportunistic_rtx: true,
            penalization: true,
        }
    }
}

/// Lifetime connection counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnStats {
    /// Times the connection-level send window blocked transmission.
    pub window_blocked: u64,
    /// Scheduler `Wait` verdicts (ECF/BLEST holding back).
    pub wait_decisions: u64,
    /// Segments queued for opportunistic reinjection.
    pub reinjections_queued: u64,
    /// Penalization events applied to subflows.
    pub penalizations: u64,
}

/// One planned transmission returned by [`Connection::try_send`]; the
/// testbed puts it on the wire.
#[derive(Debug, Clone, Copy)]
pub struct Transmission {
    /// Which subflow sends.
    pub sub: SubId,
    /// The segment (dsn + ssn).
    pub seg: Segment,
}

/// Sender-side connection state.
pub struct Connection {
    /// Configuration (immutable after construction).
    pub cfg: ConnConfig,
    /// Scheduler invocation + decision telemetry, the transport seam shared
    /// with the quic transport (see [`crate::transport`]).
    pub driver: SchedDriver,
    /// The subflows, index == `SubId` == `ecf_core::PathId.0`.
    pub subflows: Vec<Subflow>,
    /// Next data sequence number to assign to a subflow.
    next_dsn: u64,
    /// End of the dsn range admitted into the send buffer.
    buffered_end: u64,
    /// Segments written by the application but not yet admitted (send buffer
    /// full); they flow in as DATA_ACKs free space.
    pending_app: u64,
    /// Oldest dsn not yet data-acked (the meta send-window left edge).
    meta_una: u64,
    /// Receive window advertised in the most recent ACK.
    rwnd_adv: u64,
    /// Opportunistic-retransmission queue (dsn values).
    reinject_queue: VecDeque<u64>,
    /// Guard against repeatedly queueing the same blocking dsn.
    last_reinject: Option<u64>,
    /// Responses written, in order: `(request, last dsn)` — popped by the
    /// testbed as deliveries complete.
    pub response_bounds: VecDeque<(ReqId, u64)>,
    stats: ConnStats,
    /// Scratch for coupled-CC views (avoids an allocation per CA ACK).
    cc_views: Vec<CcView>,
    /// Telemetry sink for lifecycle events (off by default; see
    /// [`Connection::set_telemetry`]). Decision events ride `driver`.
    tel: TelemetryHandle,
    /// This connection's index in lifecycle events.
    tel_conn: u32,
}

/// Where one subflow of a [`Connection`] rides.
#[derive(Debug, Clone, Copy)]
pub struct SubflowPath {
    /// Index of the `simnet` path.
    pub path: usize,
    /// Seeds the RTT estimator, standing in for the handshake's sample.
    pub handshake_rtt: Duration,
    /// Inflight segments to reserve room for up front: this subflow's share
    /// of the window its path sustains (`simnet::PathRings::window`, split
    /// among the subflows riding the path).
    pub inflight_reserve: usize,
}

impl Connection {
    /// Build a connection whose subflow `i` rides `subflow_paths[i]`.
    pub fn new(
        cfg: ConnConfig,
        scheduler: Box<dyn Scheduler>,
        subflow_paths: &[SubflowPath],
    ) -> Self {
        assert!(!subflow_paths.is_empty(), "a connection needs at least one subflow");
        // No subflow ever holds more than the meta buffers admit.
        let buffer_cap = cfg.sndbuf_segs.min(cfg.rwnd_segs) as usize;
        let subflows = subflow_paths
            .iter()
            .map(|sp| {
                let inflight_cap = sp.inflight_reserve.min(buffer_cap);
                Subflow::new(sp.path, cfg.tcp, sp.handshake_rtt, inflight_cap)
            })
            .collect();
        Connection {
            cfg,
            driver: SchedDriver::new(scheduler, subflow_paths.len()),
            subflows,
            next_dsn: 0,
            buffered_end: 0,
            pending_app: 0,
            meta_una: 0,
            rwnd_adv: cfg.rwnd_segs,
            reinject_queue: VecDeque::new(),
            last_reinject: None,
            response_bounds: VecDeque::new(),
            stats: ConnStats::default(),
            cc_views: Vec::with_capacity(subflow_paths.len()),
            tel: TelemetryHandle::off(),
            tel_conn: 0,
        }
    }

    /// Attach a telemetry sink. With an enabled handle every scheduler
    /// invocation goes through [`Scheduler::select_explained`] and is
    /// recorded as a `sched_decision` event (full inputs + provenance)
    /// stamped with connection index `conn`; transport lifecycle events
    /// (idle window resets, fast retransmits, penalizations) are recorded
    /// too. With the default (off) handle the hot path is unchanged.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle, conn: u32) {
        self.driver.set_telemetry(tel.clone(), conn);
        self.tel = tel;
        self.tel_conn = conn;
    }

    /// Segments admitted to the send buffer but not yet assigned to any
    /// subflow — the `k` of the paper's Algorithm 1.
    pub fn unassigned_segs(&self) -> u64 {
        self.buffered_end - self.next_dsn
    }

    /// Connection-level send-buffer occupancy in segments (assigned-unacked
    /// plus unassigned). Fig 3's *per-subflow* traces use each subflow's
    /// in-flight count instead (see the testbed's `record_samples`).
    pub fn sndbuf_occupancy(&self) -> u64 {
        self.buffered_end - self.meta_una
    }

    /// Oldest un-data-acked dsn.
    pub fn meta_una(&self) -> u64 {
        self.meta_una
    }

    /// Next dsn that will be assigned.
    pub fn next_dsn(&self) -> u64 {
        self.next_dsn
    }

    /// Total dsn space written so far (admitted + pending).
    pub fn written_end(&self) -> u64 {
        self.buffered_end + self.pending_app
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// True when every written segment has been data-acked.
    pub fn all_acked(&self) -> bool {
        self.pending_app == 0 && self.meta_una == self.buffered_end
    }

    /// The application (server) writes a response of `segs` segments for
    /// request `req`. Returns the dsn range `[first, last]` it occupies.
    pub fn server_write(&mut self, req: ReqId, segs: u64) -> (u64, u64) {
        debug_assert!(segs > 0);
        let first = self.written_end();
        let last = first + segs - 1;
        self.pending_app += segs;
        self.response_bounds.push_back((req, last));
        self.admit();
        (first, last)
    }

    /// Move pending application data into the send buffer while space lasts.
    fn admit(&mut self) {
        while self.pending_app > 0 && self.sndbuf_occupancy() < self.cfg.sndbuf_segs {
            self.buffered_end += 1;
            self.pending_app -= 1;
        }
    }

    /// Scheduler-facing view of the subflows.
    pub fn snapshots(&self) -> Vec<PathSnapshot> {
        self.subflows
            .iter()
            .enumerate()
            .map(|(i, sf)| PathSnapshot {
                id: ecf_core::PathId(i),
                srtt: sf.cc.rtt.srtt(),
                rtt_dev: sf.cc.rtt.rttvar(),
                cwnd: sf.cc.cwnd_pkts(),
                inflight: sf.inflight_count(),
                in_slow_start: sf.cc.in_slow_start(),
                usable: sf.usable,
                queue_bytes: sf.link_queue_bytes,
            })
            .collect()
    }

    /// Process a subflow ACK arriving at the sender. Returns a segment to
    /// fast-retransmit on that subflow, if loss was detected.
    pub fn on_ack(&mut self, now: Time, sub: SubId, ack: &AckInfo) -> Option<Segment> {
        let out = self.subflows[sub].on_ack(now, ack);
        // Window growth: only when the flow was actually limited by cwnd and
        // is not recovering from loss.
        if out.newly_acked > 0 && !out.in_recovery && out.was_cwnd_limited {
            // HyStart: leave slow start as soon as queueing delay shows.
            self.subflows[sub].cc.maybe_hystart_exit();
            if self.subflows[sub].cc.in_slow_start() {
                self.subflows[sub].cc.on_ack_slow_start(out.newly_acked);
            } else {
                self.cc_views.clear();
                self.cc_views.extend(self.subflows.iter().map(|s| CcView {
                    cwnd: s.cc.cwnd(),
                    srtt: s.cc.rtt.srtt().as_secs_f64(),
                }));
                let inc =
                    ca_increase(self.cfg.cc, &self.cc_views, sub) * f64::from(out.newly_acked);
                self.subflows[sub].cc.apply_ca_increase(inc);
            }
        }
        // Meta-level bookkeeping.
        if ack.data_next_dsn > self.meta_una {
            self.meta_una = ack.data_next_dsn;
            self.admit();
        }
        self.rwnd_adv = ack.rwnd_free;
        if out.fast_retx.is_some() {
            self.tel.emit(
                now.as_nanos(),
                EventKind::FastRetx { conn: self.tel_conn, path: sub as u16 },
            );
            self.tel.incr(Counter::FastRetx);
        }
        out.fast_retx
    }

    /// A path died under subflow `sub`: stop scheduling there and queue its
    /// unacknowledged data for reinjection on the surviving subflows, as the
    /// Linux implementation does when a subflow is closed on error.
    pub fn on_subflow_down(&mut self, sub: SubId) {
        self.subflows[sub].usable = false;
        for dsn in self.subflows[sub].inflight_dsns() {
            if dsn >= self.meta_una && !self.reinject_queue.contains(&dsn) {
                self.reinject_queue.push_back(dsn);
                self.stats.reinjections_queued += 1;
            }
        }
    }

    /// The path under subflow `sub` recovered.
    pub fn on_subflow_up(&mut self, sub: SubId) {
        self.subflows[sub].usable = true;
    }

    /// Fastest subflow with window space that is not already carrying `dsn`
    /// (reinjection target).
    fn reinjection_target(&self, dsn: u64) -> Option<SubId> {
        self.subflows
            .iter()
            .enumerate()
            .filter(|(_, s)| s.has_space() && !s.carries_dsn(dsn))
            .min_by_key(|(_, s)| s.cc.rtt.srtt())
            .map(|(i, _)| i)
    }

    /// The meta window is receive-window-blocked: apply Raiciu et al.'s
    /// opportunistic retransmission + penalization against the subflow
    /// holding the window edge.
    /// Returns true when a new reinjection was queued (the send loop should
    /// take another pass to transmit it).
    fn on_rwnd_blocked(&mut self, now: Time) -> bool {
        let dsn = self.meta_una;
        // Among subflows carrying the blocking dsn, penalize the slowest —
        // a reinjected fast-path copy must not draw the penalty.
        let Some(holder) = self
            .subflows
            .iter()
            .enumerate()
            .filter(|(_, s)| s.usable && s.carries_dsn(dsn))
            .max_by_key(|(_, s)| s.cc.rtt.srtt())
            .map(|(i, _)| i)
        else {
            return false;
        };
        let mut queued = false;
        if self.cfg.opportunistic_rtx
            && self.last_reinject != Some(dsn)
            && !self.reinject_queue.contains(&dsn)
        {
            self.reinject_queue.push_back(dsn);
            self.last_reinject = Some(dsn);
            self.stats.reinjections_queued += 1;
            queued = true;
        }
        if self.cfg.penalization {
            let sf = &mut self.subflows[holder];
            if now.since(sf.last_penalty) > sf.cc.rtt.srtt() {
                sf.cc.penalize();
                sf.last_penalty = now;
                self.stats.penalizations += 1;
                self.tel.emit(
                    now.as_nanos(),
                    EventKind::Penalization { conn: self.tel_conn, path: holder as u16 },
                );
                self.tel.incr(Counter::Penalizations);
            }
        }
        queued
    }

    /// Drive the scheduler until it stops producing transmissions. Returns
    /// the segments to put on the wire, in order.
    ///
    /// Convenience wrapper over [`Connection::try_send_into`]; the simulator
    /// hot path uses the `_into` variant with a reused buffer.
    pub fn try_send(&mut self, now: Time) -> Vec<Transmission> {
        let mut plan = Vec::new();
        self.try_send_into(now, &mut plan);
        plan
    }

    /// Drive the scheduler until it stops producing transmissions, appending
    /// the segments to put on the wire, in order, to `plan` (not cleared
    /// here).
    pub fn try_send_into(&mut self, now: Time, plan: &mut Vec<Transmission>) {
        for (i, sf) in self.subflows.iter_mut().enumerate() {
            // RFC 5681 restart applies to *idle* connections only: nothing
            // outstanding (Linux checks packets_out == 0). A flow that is
            // merely draining its window during recovery is not idle.
            if sf.inflight_count() == 0 && sf.cc.maybe_idle_reset(now) {
                self.tel.emit(
                    now.as_nanos(),
                    EventKind::IwReset { conn: self.tel_conn, path: i as u16 },
                );
                self.tel.incr(Counter::IwResets);
            }
        }
        let mut blocked_noted = false;
        // Tracks whether the driver's `snap_buf` still mirrors the subflows
        // exactly. The inner loop updates the chosen path's in-flight count
        // in place, so after a pass that only scheduled new data the buffer
        // is already identical to what a rebuild would produce; only
        // reinjection sends and penalization (cwnd change in
        // `on_rwnd_blocked`) invalidate it.
        let mut snap_valid = false;
        loop {
            let before = plan.len();
            let mut reinjection_created = false;

            // Phase 1: pending reinjections ride the fastest free subflow.
            while let Some(&dsn) = self.reinject_queue.front() {
                if dsn < self.meta_una {
                    self.reinject_queue.pop_front();
                    continue;
                }
                let Some(sub) = self.reinjection_target(dsn) else { break };
                let seg = self.subflows[sub].register_send(now, dsn, true);
                plan.push(Transmission { sub, seg });
                self.reinject_queue.pop_front();
                snap_valid = false;
            }

            // Phase 2: new data through the scheduler. The path snapshot is
            // built once per pass — and only when there is data to schedule
            // (an ACK clocking an idle sender skips it entirely): within the
            // inner loop the only snapshot-visible state that moves is the
            // chosen subflow's in-flight count (register_send pushes one
            // segment; RTT, cwnd and slow-start state only change on ACKs),
            // so it is updated in place below instead of re-reading every
            // subflow per packet. Anything that can change other fields
            // (penalization, idle reset, reinjection) happens outside this
            // loop, and the outer retry pass rebuilds the snapshot.
            if self.unassigned_segs() > 0 && !snap_valid {
                self.driver.snap_buf.clear();
                self.driver.snap_buf.extend(self.subflows.iter().enumerate().map(|(i, sf)| {
                    PathSnapshot {
                        id: ecf_core::PathId(i),
                        srtt: sf.cc.rtt.srtt(),
                        rtt_dev: sf.cc.rtt.rttvar(),
                        cwnd: sf.cc.cwnd_pkts(),
                        inflight: sf.inflight_count(),
                        in_slow_start: sf.cc.in_slow_start(),
                        usable: sf.usable,
                        queue_bytes: sf.link_queue_bytes,
                    }
                }));
                snap_valid = true;
            }
            loop {
                let k = self.unassigned_segs();
                if k == 0 {
                    break;
                }
                let outstanding = self.next_dsn - self.meta_una;
                if outstanding >= self.rwnd_adv {
                    // The outer retry loop can revisit this branch; count
                    // (and signal BLEST) once per send opportunity.
                    if !blocked_noted {
                        blocked_noted = true;
                        self.stats.window_blocked += 1;
                        self.driver.on_window_blocked();
                    }
                    reinjection_created |= self.on_rwnd_blocked(now);
                    // Penalization may have shrunk a cwnd under us.
                    snap_valid = false;
                    break;
                }
                match self.driver.decide(now, k, self.rwnd_adv - outstanding) {
                    Decision::Send(pid) => {
                        let sub = pid.0;
                        debug_assert!(sub < self.subflows.len(), "scheduler chose unknown path");
                        let seg = self.subflows[sub].register_send(now, self.next_dsn, false);
                        self.next_dsn += 1;
                        self.driver.snap_buf[sub].inflight += 1;
                        plan.push(Transmission { sub, seg });
                    }
                    Decision::Wait => {
                        self.stats.wait_decisions += 1;
                        break;
                    }
                    Decision::Blocked => break,
                }
            }

            if plan.len() == before && !reinjection_created {
                break;
            }
        }
        // RFC 2861 congestion-window validation on every subflow now that
        // this send opportunity has played out.
        for sf in &mut self.subflows {
            sf.cc.validate_app_limited(now, sf.inflight_count());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecf_core::SchedulerKind;

    fn path(path: usize, rtt_ms: u64) -> SubflowPath {
        SubflowPath { path, handshake_rtt: Duration::from_millis(rtt_ms), inflight_reserve: 64 }
    }

    fn conn(kind: SchedulerKind) -> Connection {
        Connection::new(ConnConfig::default(), kind.build(), &[path(0, 20), path(1, 100)])
    }

    fn ack(sub_ssn: u64, dsn: u64, rwnd: u64) -> AckInfo {
        AckInfo { sub_next_ssn: sub_ssn, data_next_dsn: dsn, rwnd_free: rwnd }
    }

    #[test]
    fn write_then_send_fills_fast_window_first() {
        let mut c = conn(SchedulerKind::Default);
        c.server_write(0, 50);
        assert_eq!(c.unassigned_segs(), 50);
        let plan = c.try_send(Time::ZERO);
        // Both windows (10 + 10) fill; fast (sub 0, 20 ms) gets dsn 0..10.
        assert_eq!(plan.len(), 20);
        assert!(plan[..10].iter().all(|t| t.sub == 0));
        assert!(plan[10..].iter().all(|t| t.sub == 1));
        assert_eq!(c.unassigned_segs(), 30);
        // dsn assignment is sequential.
        let dsns: Vec<u64> = plan.iter().map(|t| t.seg.dsn).collect();
        assert_eq!(dsns, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn ecf_keeps_tail_off_slow_path() {
        // 11 segments, fast cwnd 10: ECF sends 10 on the fast subflow and
        // holds the last one back (the §3.2 example, end to end).
        let mut c = conn(SchedulerKind::Ecf);
        c.server_write(0, 11);
        let plan = c.try_send(Time::ZERO);
        assert_eq!(plan.len(), 10);
        assert!(plan.iter().all(|t| t.sub == 0));
        assert!(c.stats().wait_decisions >= 1);
        assert_eq!(c.unassigned_segs(), 1);
    }

    #[test]
    fn ack_frees_window_and_sends_more() {
        let mut c = conn(SchedulerKind::Default);
        c.server_write(0, 100);
        let first = c.try_send(Time::ZERO);
        assert_eq!(first.len(), 20);
        // Ack 5 segments on the fast subflow (in slow start → window grows).
        c.on_ack(Time::from_millis(20), 0, &ack(5, 5, 724));
        let more = c.try_send(Time::from_millis(20));
        assert!(!more.is_empty());
        assert!(more.iter().all(|t| t.sub == 0));
        // Slow start: 5 acked while limited → cwnd 15, inflight was 5 → 10 new.
        assert_eq!(more.len(), 10);
    }

    #[test]
    fn sndbuf_caps_admission() {
        let mut c = Connection::new(
            ConnConfig { sndbuf_segs: 30, ..ConnConfig::default() },
            SchedulerKind::Default.build(),
            &[path(0, 20)],
        );
        c.server_write(0, 100);
        assert_eq!(c.sndbuf_occupancy(), 30);
        assert_eq!(c.unassigned_segs(), 30);
        c.try_send(Time::ZERO);
        // Acking deliveries frees buffer and admits more.
        c.on_ack(Time::from_millis(40), 0, &ack(10, 10, 724));
        assert_eq!(c.sndbuf_occupancy(), 30); // refilled from pending
        assert_eq!(c.written_end(), 100);
    }

    #[test]
    fn rwnd_blocking_triggers_mitigations() {
        let mut c = conn(SchedulerKind::Default);
        c.server_write(0, 100);
        c.try_send(Time::ZERO);
        // Receiver advertises a tiny window with nothing data-acked: the
        // window edge (dsn 0) is on the fast subflow.
        c.on_ack(Time::from_millis(100), 1, &ack(0, 0, 5));
        let plan = c.try_send(Time::from_millis(100));
        // outstanding (20) >= rwnd (5) → blocked; dsn 0 is held by sub 0, so
        // penalization hits sub 0 and a reinjection is queued for... sub 1
        // (not carrying dsn 0) — but sub 1's window is also full, so the
        // reinjection stays queued.
        assert!(plan.is_empty());
        assert!(c.stats().window_blocked >= 1);
        assert_eq!(c.stats().reinjections_queued, 1);
        assert_eq!(c.stats().penalizations, 1);
    }

    #[test]
    fn reinjection_rides_fast_path_when_space() {
        let mut c = conn(SchedulerKind::Default);
        c.server_write(0, 100);
        c.try_send(Time::ZERO);
        // Fast subflow fully acked (10 segs arrived); meta stuck at dsn 10
        // (slow subflow's first segment not yet in). Tiny window → blocked.
        c.on_ack(Time::from_millis(40), 0, &ack(10, 10, 2));
        let plan = c.try_send(Time::from_millis(40));
        // dsn 10 is carried by sub 1 → reinjected on sub 0.
        assert!(plan.iter().any(|t| t.sub == 0 && t.seg.dsn == 10));
        assert!(c.stats().reinjections_queued >= 1);
        assert_eq!(c.subflows[0].stats().reinjections, 1);
    }

    #[test]
    fn completion_tracking() {
        let mut c = conn(SchedulerKind::Default);
        let (f0, l0) = c.server_write(7, 10);
        let (f1, l1) = c.server_write(8, 5);
        assert_eq!((f0, l0), (0, 9));
        assert_eq!((f1, l1), (10, 14));
        assert_eq!(c.response_bounds.len(), 2);
        assert!(!c.all_acked());
        c.try_send(Time::ZERO);
        c.on_ack(Time::from_millis(40), 0, &ack(10, 15, 724));
        c.on_ack(Time::from_millis(200), 1, &ack(5, 15, 724));
        assert!(c.all_acked());
    }

    #[test]
    fn growth_only_when_cwnd_limited() {
        let mut c = conn(SchedulerKind::Default);
        c.server_write(0, 3);
        c.try_send(Time::ZERO); // only 3 segs in flight, window 10: not limited
        let cwnd_before = c.subflows[0].cc.cwnd_pkts();
        c.on_ack(Time::from_millis(20), 0, &ack(3, 3, 724));
        assert_eq!(c.subflows[0].cc.cwnd_pkts(), cwnd_before);
    }
}
