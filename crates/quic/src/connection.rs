//! Sender-side multipath-QUIC connection: per-path packet-number spaces
//! with their own TCP-style congestion controllers, per-stream send queues,
//! and stream-aware retransmission — all placed packet-by-packet by a
//! pluggable [`ecf_core::Scheduler`] through the shared
//! [`mptcp::SchedDriver`] seam.
//!
//! Differences to the MPTCP sender (`mptcp::Connection`) that matter for
//! the scheduling story:
//!
//! * There is no connection-level data sequence. Each path numbers its own
//!   packets (monotonic `pn`, never reused), and each stream tracks which
//!   of its chunks are unsent or need retransmission. A retransmitted chunk
//!   goes back through the scheduler and may ride a *different* path —
//!   QUIC's stream-aware retransmission, vs MPTCP's same-subflow fast
//!   retransmit + reinjection machinery.
//! * Loss detection is by packet-number gap: paths are FIFO links, so an
//!   ACK for `pn` proves every unacked packet with a smaller number on that
//!   path was dropped. One congestion response covers a whole loss episode
//!   (NewReno-style: losses with `pn` below the episode's recovery point
//!   don't trigger another window cut).
//! * Congestion control is uncoupled per path (plain Reno per packet-number
//!   space): QUIC paths do not share a window the way LIA/OLIA couple
//!   MPTCP subflows.

use std::collections::VecDeque;

use ecf_core::{Decision, PathId, PathSnapshot, Scheduler};
use mptcp::SchedDriver;
use simnet::Time;
use tcp_model::{TcpCc, TcpConfig};
use telemetry::TelemetryHandle;

/// Connection parameters.
#[derive(Debug, Clone, Copy)]
pub struct QuicConfig {
    /// Per-path congestion-controller parameters.
    pub tcp: TcpConfig,
    /// Receive window advertised by the peer at handshake, in chunks.
    pub rwnd_chunks: u64,
}

impl Default for QuicConfig {
    fn default() -> Self {
        QuicConfig { tcp: TcpConfig::default(), rwnd_chunks: 1024 }
    }
}

/// One packet placed on the wire by [`QuicConn::try_send_into`].
#[derive(Debug, Clone, Copy)]
pub struct QuicTx {
    /// Path the packet rides.
    pub path: usize,
    /// Stream the carried chunk belongs to.
    pub stream: u32,
    /// Chunk offset within the stream.
    pub chunk: u64,
    /// Per-path packet number.
    pub pn: u64,
}

/// An unacknowledged packet in a path's packet-number space.
#[derive(Debug, Clone, Copy)]
struct SentPacket {
    pn: u64,
    stream: u32,
    chunk: u64,
    sent_at: Time,
}

/// One path's packet-number space: congestion controller, inflight queue,
/// and the lazy PTO deadline the testbed arms timers from.
pub struct PathSpace {
    /// The path's own (uncoupled) congestion controller + RTT estimator.
    pub cc: TcpCc,
    /// Next packet number to assign (monotonic, never reused).
    next_pn: u64,
    /// Unacked packets, in send (= packet-number) order.
    inflight: VecDeque<SentPacket>,
    /// When the probe-timeout should fire; `Time::MAX` while nothing is
    /// inflight. The testbed checks this lazily, like the MPTCP RTO.
    pub rto_deadline: Time,
    /// Whether a PTO event for this path is already in the event heap.
    pub rto_scheduled: bool,
    /// Path liveness (a down path is a dead radio).
    pub up: bool,
    /// Droptail backlog of the path's forward link, sampled by the testbed
    /// before each send opportunity (crosses into [`PathSnapshot`]).
    pub link_queue_bytes: u64,
    /// NewReno-style recovery point: losses of packets numbered below this
    /// belong to an already-answered loss episode.
    recovery_until: u64,
}

impl PathSpace {
    fn new(cfg: TcpConfig, handshake_rtt: std::time::Duration) -> Self {
        let mut cc = TcpCc::new(cfg);
        // Like `mptcp::Subflow::new`: the handshake provides the first RTT
        // sample, so the scheduler never sees a zero srtt.
        cc.rtt.on_sample(handshake_rtt);
        PathSpace {
            cc,
            next_pn: 0,
            inflight: VecDeque::with_capacity(64),
            rto_deadline: Time::MAX,
            rto_scheduled: false,
            up: true,
            link_queue_bytes: 0,
            recovery_until: 0,
        }
    }

    /// Packets currently unacknowledged on this path.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    fn rearm_deadline(&mut self) {
        self.rto_deadline = match self.inflight.front() {
            Some(s) => s.sent_at + self.cc.rto(),
            None => Time::MAX,
        };
    }
}

/// Index of the first set bit at or after `from` in the bitset `words`.
fn first_set_from(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut bits = *words.get(w)? & (!0 << (from % 64));
    loop {
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        w += 1;
        bits = *words.get(w)?;
    }
}

/// Send state of one stream: the fresh frontier plus chunks queued for
/// retransmission (retransmissions have priority within the stream).
#[derive(Debug, Default)]
struct StreamTx {
    total: u64,
    next_fresh: u64,
    retx: VecDeque<u64>,
}

/// What one ACK did to the connection, for the testbed's telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckOutcome {
    /// The acked packet was still inflight (fresh RTT sample taken).
    pub newly_acked: bool,
    /// Packets declared lost by the packet-number gap.
    pub lost: u64,
    /// This ACK opened a new loss episode (one window cut).
    pub fast_retx: bool,
}

/// Aggregate sender counters (beyond the per-path [`TcpCc`] stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct QuicStats {
    /// Scheduler returned `Wait` with queued data.
    pub wait_decisions: u64,
    /// Send opportunities cut short by the connection receive window.
    pub rwnd_blocked: u64,
    /// Packets declared lost (pn gap), summed over all paths.
    pub lost_packets: u64,
    /// Loss episodes answered with a window cut.
    pub fast_retx_episodes: u64,
    /// Probe timeouts fired.
    pub ptos: u64,
}

/// The multipath-QUIC sender: one connection, many streams, one packet
/// scheduler deciding path placement for every packet.
pub struct QuicConn {
    /// Connection parameters.
    pub cfg: QuicConfig,
    /// Per-path packet-number spaces, indexed like the testbed's paths.
    pub paths: Vec<PathSpace>,
    streams: Vec<StreamTx>,
    /// Scheduler invocation + decision provenance (shared with MPTCP).
    pub driver: SchedDriver,
    /// Latest connection-level receive window advertised by the peer.
    rwnd_adv: u64,
    /// Round-robin cursor over streams for chunk selection.
    rr_cursor: usize,
    /// Bit `i` is set while stream `i` holds a chunk to place (queued
    /// retransmissions or unsent fresh chunks), so the round-robin pick
    /// skips drained streams a word at a time.
    pending_streams: Vec<u64>,
    /// Chunks not yet on the wire (fresh + retransmit), across all streams.
    pending_total: u64,
    /// Packets inflight across all paths.
    inflight_total: u64,
    /// Aggregate counters.
    pub stats: QuicStats,
}

impl QuicConn {
    /// A connection over paths with the given handshake RTTs, placing
    /// packets with `scheduler`.
    pub fn new(
        cfg: QuicConfig,
        scheduler: Box<dyn Scheduler>,
        handshake_rtts: &[std::time::Duration],
    ) -> Self {
        assert!(!handshake_rtts.is_empty(), "a connection needs at least one path");
        let paths: Vec<PathSpace> =
            handshake_rtts.iter().map(|&rtt| PathSpace::new(cfg.tcp, rtt)).collect();
        let n = paths.len();
        QuicConn {
            cfg,
            paths,
            streams: Vec::new(),
            driver: SchedDriver::new(scheduler, n),
            rwnd_adv: cfg.rwnd_chunks,
            rr_cursor: 0,
            pending_streams: Vec::new(),
            pending_total: 0,
            inflight_total: 0,
            stats: QuicStats::default(),
        }
    }

    /// Attach a telemetry sink (decision events are stamped `conn`).
    pub fn set_telemetry(&mut self, tel: TelemetryHandle, conn: u32) {
        self.driver.set_telemetry(tel, conn);
    }

    /// Open stream `stream` carrying `total_chunks` chunks of response.
    pub fn open_stream(&mut self, stream: u32, total_chunks: u64) {
        let i = stream as usize;
        if self.streams.len() <= i {
            self.streams.resize_with(i + 1, StreamTx::default);
            self.pending_streams.resize((i + 1).div_ceil(64), 0);
        }
        let s = &mut self.streams[i];
        assert_eq!(s.total, 0, "stream {stream} opened twice");
        s.total = total_chunks;
        self.pending_total += total_chunks;
        if total_chunks > 0 {
            self.mark_pending(i);
        }
    }

    /// Queue `chunk` of `stream` for retransmission.
    fn requeue(&mut self, stream: u32, chunk: u64) {
        self.streams[stream as usize].retx.push_back(chunk);
        self.pending_total += 1;
        self.mark_pending(stream as usize);
    }

    fn mark_pending(&mut self, stream: usize) {
        self.pending_streams[stream / 64] |= 1 << (stream % 64);
    }

    /// Chunks not yet (re)transmitted, across all streams.
    pub fn pending_chunks(&self) -> u64 {
        self.pending_total
    }

    /// Packets unacknowledged across all paths.
    pub fn inflight_packets(&self) -> u64 {
        self.inflight_total
    }

    /// Everything opened has been sent and acknowledged.
    pub fn all_acked(&self) -> bool {
        self.pending_total == 0 && self.inflight_total == 0
    }

    /// Mark `path` dead: its inflight packets are requeued on their streams
    /// (they may retransmit on any surviving path) and its timer disarmed.
    pub fn on_path_down(&mut self, path: usize) {
        self.paths[path].up = false;
        while let Some(s) = self.paths[path].inflight.pop_front() {
            self.inflight_total -= 1;
            self.requeue(s.stream, s.chunk);
        }
        self.paths[path].rto_deadline = Time::MAX;
    }

    /// Mark `path` live again.
    pub fn on_path_up(&mut self, path: usize) {
        self.paths[path].up = true;
    }

    /// Pick the next chunk to place: round-robin over streams, stream-local
    /// retransmissions first. Caller guarantees `pending_total > 0`.
    fn take_next_chunk(&mut self) -> (u32, u64) {
        let i = first_set_from(&self.pending_streams, self.rr_cursor)
            .or_else(|| first_set_from(&self.pending_streams, 0))
            .expect("take_next_chunk with pending_total == 0");
        let s = &mut self.streams[i];
        let chunk = match s.retx.pop_front() {
            Some(chunk) => chunk,
            None => {
                s.next_fresh += 1;
                s.next_fresh - 1
            }
        };
        if s.retx.is_empty() && s.next_fresh == s.total {
            self.pending_streams[i / 64] &= !(1 << (i % 64));
        }
        self.rr_cursor = (i + 1) % self.streams.len();
        self.pending_total -= 1;
        (i as u32, chunk)
    }

    fn rebuild_snapshots(&mut self) {
        self.driver.snap_buf.clear();
        for (i, p) in self.paths.iter().enumerate() {
            self.driver.snap_buf.push(PathSnapshot {
                id: PathId(i),
                srtt: p.cc.rtt.srtt(),
                rtt_dev: p.cc.rtt.rttvar(),
                cwnd: p.cc.cwnd_pkts(),
                inflight: p.inflight.len() as u32,
                in_slow_start: p.cc.in_slow_start(),
                usable: p.up,
                queue_bytes: p.link_queue_bytes,
            });
        }
    }

    /// Run one send opportunity: ask the scheduler per packet until it
    /// says wait, the window closes, or the queue drains. Packets to put on
    /// the wire are appended to `out`.
    pub fn try_send_into(&mut self, now: Time, out: &mut Vec<QuicTx>) {
        for p in self.paths.iter_mut() {
            if p.up {
                p.cc.maybe_idle_reset(now);
            }
        }
        if self.pending_total > 0 {
            self.rebuild_snapshots();
            let mut swnd_free = self.rwnd_adv.saturating_sub(self.inflight_total);
            while self.pending_total > 0 {
                if swnd_free == 0 {
                    self.driver.on_window_blocked();
                    self.stats.rwnd_blocked += 1;
                    break;
                }
                match self.driver.decide(now, self.pending_total, swnd_free) {
                    Decision::Send(PathId(pi)) => {
                        let (stream, chunk) = self.take_next_chunk();
                        let p = &mut self.paths[pi];
                        if p.inflight.is_empty() {
                            p.rto_deadline = now + p.cc.rto();
                        }
                        let pn = p.next_pn;
                        p.next_pn += 1;
                        p.cc.note_send(now);
                        p.inflight.push_back(SentPacket { pn, stream, chunk, sent_at: now });
                        self.inflight_total += 1;
                        self.driver.snap_buf[pi].inflight += 1;
                        out.push(QuicTx { path: pi, stream, chunk, pn });
                        swnd_free -= 1;
                    }
                    Decision::Wait => {
                        self.stats.wait_decisions += 1;
                        break;
                    }
                    Decision::Blocked => break,
                }
            }
        }
        for p in self.paths.iter_mut() {
            if p.up {
                p.cc.validate_app_limited(now, p.inflight.len() as u32);
            }
        }
    }

    /// Process an ACK for packet `pn` on `path`, carrying the peer's
    /// current free receive window. Unacked packets with smaller numbers on
    /// the same path are declared lost (FIFO links cannot reorder) and
    /// their chunks requeued for stream-aware retransmission.
    pub fn on_ack(&mut self, now: Time, path: usize, pn: u64, rwnd_free: u64) -> AckOutcome {
        self.rwnd_adv = rwnd_free;
        let mut out = AckOutcome::default();
        let mut first_lost_pn = None;
        while self.paths[path].inflight.front().is_some_and(|f| f.pn < pn) {
            let s = self.paths[path].inflight.pop_front().expect("front checked");
            self.inflight_total -= 1;
            if first_lost_pn.is_none() {
                first_lost_pn = Some(s.pn);
            }
            self.requeue(s.stream, s.chunk);
            out.lost += 1;
        }
        self.stats.lost_packets += out.lost;
        if self.paths[path].inflight.front().is_some_and(|f| f.pn == pn) {
            let s = self.paths[path].inflight.pop_front().expect("front checked");
            self.inflight_total -= 1;
            let p = &mut self.paths[path];
            // Packet numbers are never reused, so the sample is unambiguous
            // (no Karn problem even for retransmitted chunks).
            p.cc.rtt.on_sample(now.since(s.sent_at));
            p.cc.clear_rto_backoff();
            if p.cc.in_slow_start() {
                p.cc.on_ack_slow_start(1);
                p.cc.maybe_hystart_exit();
            } else {
                // Uncoupled per-path Reno: +1/cwnd per acked packet.
                let w = f64::from(p.cc.cwnd_pkts()).max(1.0);
                p.cc.apply_ca_increase(1.0 / w);
            }
            out.newly_acked = true;
        }
        // Else: stale ACK for a packet already resolved (e.g. by a PTO);
        // per-path pns are monotonic so there is nothing to do.
        if let Some(first) = first_lost_pn {
            let p = &mut self.paths[path];
            if first >= p.recovery_until {
                p.cc.on_fast_retransmit();
                p.recovery_until = p.next_pn;
                self.stats.fast_retx_episodes += 1;
                out.fast_retx = true;
            }
        }
        self.paths[path].rearm_deadline();
        out
    }

    /// Probe timeout on `path`: declare the oldest inflight packet lost,
    /// requeue its chunk, and back the controller off. Returns false when
    /// nothing was inflight (stale timer).
    pub fn on_pto(&mut self, path: usize) -> bool {
        let Some(s) = self.paths[path].inflight.pop_front() else {
            self.paths[path].rearm_deadline();
            return false;
        };
        self.inflight_total -= 1;
        self.requeue(s.stream, s.chunk);
        let p = &mut self.paths[path];
        p.cc.on_rto();
        p.recovery_until = p.next_pn;
        p.rearm_deadline();
        self.stats.ptos += 1;
        true
    }

    /// The scheduler's stable short name ("ecf", "default", ...).
    pub fn scheduler_name(&self) -> &'static str {
        self.driver.scheduler_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecf_core::SchedulerKind;
    use std::time::Duration;

    fn conn(n_paths: usize) -> QuicConn {
        let rtts: Vec<Duration> = (0..n_paths)
            .map(|i| Duration::from_millis(20 + 60 * i as u64))
            .collect();
        QuicConn::new(QuicConfig::default(), SchedulerKind::Default.build(), &rtts)
    }

    #[test]
    fn sends_respect_cwnd_and_count_pending() {
        let mut c = conn(2);
        c.open_stream(0, 100);
        assert_eq!(c.pending_chunks(), 100);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        // Two IW=10 paths can carry at most 20 packets before acks.
        assert!(!out.is_empty() && out.len() <= 20, "sent {}", out.len());
        assert_eq!(c.inflight_packets(), out.len() as u64);
        assert_eq!(c.pending_chunks(), 100 - out.len() as u64);
    }

    #[test]
    fn pn_gap_declares_loss_and_requeues_chunks_once() {
        let mut c = conn(1);
        c.open_stream(0, 10);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        let sent = out.len() as u64;
        assert!(sent >= 3);
        // ACK pn=2: packets 0 and 1 were dropped by the FIFO link.
        let ack = c.on_ack(Time::from_millis(30), 0, 2, 1024);
        assert_eq!(ack.lost, 2);
        assert!(ack.newly_acked);
        assert!(ack.fast_retx, "first loss episode cuts the window");
        assert_eq!(c.pending_chunks(), (10 - sent) + 2);
        // A later ACK revealing more loss from the same episode must not
        // cut the window again.
        let ack2 = c.on_ack(Time::from_millis(31), 0, 4, 1024);
        assert_eq!(ack2.lost, 1);
        assert!(!ack2.fast_retx);
    }

    #[test]
    fn retransmissions_may_switch_paths() {
        let mut c = conn(2);
        c.open_stream(0, 4);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        assert_eq!(c.pending_chunks(), 0);
        // Kill path 0: its inflight chunks requeue...
        let on_p0 = out.iter().filter(|t| t.path == 0).count();
        assert!(on_p0 > 0, "default scheduler should use the fast path");
        c.on_path_down(0);
        assert_eq!(c.pending_chunks(), on_p0 as u64);
        // ...and the next opportunity places them on the surviving path.
        let mut out2 = Vec::new();
        c.try_send_into(Time::from_millis(1), &mut out2);
        assert!(out2.iter().all(|t| t.path == 1));
        assert_eq!(out2.len(), on_p0);
    }

    #[test]
    fn pto_requeues_the_oldest_packet_and_backs_off() {
        let mut c = conn(1);
        c.open_stream(0, 5);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        let rto_events_before = c.paths[0].cc.stats().rto_events;
        assert!(c.on_pto(0));
        assert_eq!(c.paths[0].cc.stats().rto_events, rto_events_before + 1);
        assert_eq!(c.pending_chunks(), 1);
        assert!(c.paths[0].rto_deadline != Time::MAX, "still inflight, rearmed");
    }

    #[test]
    fn rwnd_limits_inflight() {
        let mut c = QuicConn::new(
            QuicConfig { rwnd_chunks: 5, ..QuicConfig::default() },
            SchedulerKind::Default.build(),
            &[Duration::from_millis(20)],
        );
        c.open_stream(0, 100);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        assert_eq!(out.len(), 5, "window of 5 chunks caps the burst");
        assert_eq!(c.stats.rwnd_blocked, 1);
    }

    /// Reference pick order: a linear round-robin scan from the cursor.
    fn scan_pick(streams: &mut [StreamTx], cursor: &mut usize) -> (u32, u64) {
        let n = streams.len();
        for k in 0..n {
            let i = (*cursor + k) % n;
            let s = &mut streams[i];
            let chunk = match s.retx.pop_front() {
                Some(chunk) => chunk,
                None if s.next_fresh < s.total => {
                    s.next_fresh += 1;
                    s.next_fresh - 1
                }
                None => continue,
            };
            *cursor = (i + 1) % n;
            return (i as u32, chunk);
        }
        unreachable!("scan_pick with nothing pending")
    }

    #[test]
    fn bitset_pick_matches_round_robin_scan() {
        // Streams open in random order (some empty, some past a 64-bit word
        // boundary), chunks are taken and requeued at random; every pick
        // must equal the linear scan's.
        let mut rng = testkit::Rng::seed_from_u64(7);
        let mut c = conn(1);
        let mut oracle: Vec<StreamTx> = Vec::new();
        let mut cursor = 0;
        let mut unopened: Vec<u32> = (0..150).collect();
        let mut taken = Vec::new();
        for _ in 0..5_000 {
            match rng.gen_range(0..10_u32) {
                0 if !unopened.is_empty() => {
                    let stream = unopened.swap_remove(rng.gen_range(0..unopened.len()));
                    let total = rng.gen_range(0..4_u64);
                    c.open_stream(stream, total);
                    let i = stream as usize;
                    if oracle.len() <= i {
                        oracle.resize_with(i + 1, StreamTx::default);
                    }
                    oracle[i].total = total;
                }
                1 | 2 if !taken.is_empty() => {
                    let (stream, chunk) = taken.swap_remove(rng.gen_range(0..taken.len()));
                    c.requeue(stream, chunk);
                    oracle[stream as usize].retx.push_back(chunk);
                }
                _ if c.pending_chunks() > 0 => {
                    let got = c.take_next_chunk();
                    assert_eq!(got, scan_pick(&mut oracle, &mut cursor));
                    taken.push(got);
                }
                _ => {}
            }
        }
        assert!(taken.len() > 100, "workload mis-sized: {} chunks out", taken.len());
    }
}
