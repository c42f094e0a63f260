//! Bidirectional paths.
//!
//! A [`Path`] bundles the two directions of one end-to-end interface pair:
//! the *forward* (data) direction, which the experiments shape to a target
//! bandwidth exactly as the paper shapes server egress with `tc`, and the
//! *reverse* (ACK) direction, which is unshaped delay.
//!
//! [`PathConfig::wifi`] and [`PathConfig::lte`] encode the calibration worked
//! out in DESIGN.md: base delays and droptail queue sizes chosen so that the
//! *measured* RTT under regulation reproduces the shape of the paper's
//! Table 2 (bufferbloat makes RTT balloon as the shaped rate shrinks, and LTE
//! sits above WiFi at equal rate).

use std::time::Duration;

use crate::link::{ring_reserve, Link, LinkConfig};
use crate::time::dur_nanos;

/// WiFi one-way propagation delay (base RTT ≈ 20 ms; paper Table 2 shows
/// 40 ms at 8.6 Mbps once queueing is included).
pub const WIFI_ONE_WAY: Duration = Duration::from_millis(10);
/// LTE one-way propagation delay (base RTT ≈ 60 ms; Table 2 shows 105 ms at
/// 8.6 Mbps).
pub const LTE_ONE_WAY: Duration = Duration::from_millis(30);
/// Shaped-link queue depth: the paper regulates with `tc` in front of a
/// default 1000-packet txqueue (~1.5 MB) — effectively lossless for any
/// window the endpoints reach. Inflight is then bounded by the receive
/// window, penalization and RFC 2861 validation rather than drops, which is
/// what lets the paper's Fig 11/12 windows ride at 60–350 segments and RTT
/// inflate to the ≈1 s of Table 2 instead of sawtoothing on loss.
pub const SHAPED_QUEUE_BYTES: u64 = 1_500_000;

/// Configuration of one bidirectional path.
#[derive(Debug, Clone)]
pub struct PathConfig {
    /// Human-readable label used in reports ("wifi", "lte", ...).
    pub name: String,
    /// Data direction (sender → receiver), shaped.
    pub fwd: LinkConfig,
    /// ACK direction (receiver → sender), delay only.
    pub rev: LinkConfig,
}

impl PathConfig {
    /// A WiFi-like path shaped to `mbps` in the data direction.
    pub fn wifi(mbps: f64) -> Self {
        let mut fwd = LinkConfig::shaped(mbps, WIFI_ONE_WAY, SHAPED_QUEUE_BYTES);
        fwd.jitter_max = Duration::from_millis(2);
        PathConfig { name: "wifi".into(), fwd, rev: LinkConfig::reverse(WIFI_ONE_WAY) }
    }

    /// An LTE-like path shaped to `mbps` in the data direction.
    pub fn lte(mbps: f64) -> Self {
        let mut fwd = LinkConfig::shaped(mbps, LTE_ONE_WAY, SHAPED_QUEUE_BYTES);
        fwd.jitter_max = Duration::from_millis(4);
        PathConfig { name: "lte".into(), fwd, rev: LinkConfig::reverse(LTE_ONE_WAY) }
    }

    /// A fully custom symmetric-delay path.
    pub fn custom(name: &str, mbps: f64, one_way: Duration, queue_bytes: u64) -> Self {
        PathConfig {
            name: name.into(),
            fwd: LinkConfig::shaped(mbps, one_way, queue_bytes),
            rev: LinkConfig::reverse(one_way),
        }
    }

    /// Disable jitter on both directions (for exactly-reproducible unit math).
    pub fn without_jitter(mut self) -> Self {
        self.fwd.jitter_max = Duration::ZERO;
        self.rev.jitter_max = Duration::ZERO;
        self
    }

    /// Set the forward-direction random loss rate.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.fwd.loss_rate = loss;
        self
    }

    /// The minimum (unloaded) round-trip time of this path.
    pub fn base_rtt(&self) -> Duration {
        self.fwd.prop_delay + self.rev.prop_delay
    }
}

/// Up-front reservations, in packets, for the rings that carry one path's
/// traffic, derived from its configuration by [`PathConfig::rings`].
///
/// Each is what the ring holds in steady state at the configured rate, so
/// steady-state traffic never reallocates; every ring still grows on demand
/// past its reservation (after a scenario speeds the link up, or while a
/// window overshoots before its losses are detected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRings {
    /// Segments in flight the path sustains: the bandwidth-delay product over
    /// the base RTT plus the forward droptail depth. Past it the queue drops
    /// and loss caps the congestion windows, so the inflight deques of the
    /// subflows riding the path split this between them rather than each
    /// reserving its connection's buffer bound.
    pub window: usize,
    /// Reverse (ACK) link queue: the ACKs the forward link can release at
    /// one instant. ACKs arrive at most one per forward serialization time,
    /// except where forward jitter bunches arrivals under the FIFO clamp,
    /// and the line-rate reverse link drains each in a fraction of that.
    pub rev_queue: usize,
    /// Forward deliveries in flight: a packet is parked from enqueue to
    /// arrival, so the droptail queue plus the packets on the wire.
    pub fwd_delivery: usize,
    /// Reverse deliveries in flight: the ACKs the forward link clocks out
    /// over the reverse propagation delay, plus one burst.
    pub rev_delivery: usize,
}

impl PathRings {
    /// One subflow's share of [`PathRings::window`] when `riders` subflows
    /// ride the path, rounded like every reservation.
    pub fn window_share(&self, riders: usize) -> usize {
        ring_reserve(self.window.div_ceil(riders.max(1)) as u64)
    }
}

impl PathConfig {
    /// Ring reservations for this path (see [`PathRings`]), each clamped to
    /// [64, 16384] packets and rounded up to a multiple of 64.
    pub fn rings(&self) -> PathRings {
        // Forward serialization of a full-size packet: the clock of both
        // the data and the ACKs it triggers.
        let clock = self.fwd.full_packet_nanos();
        let droptail = self.fwd.droptail_packets();
        let jitter = dur_nanos(self.fwd.jitter_max);
        let burst = 1 + jitter / clock;
        let on_wire = |prop: Duration| (dur_nanos(prop) + jitter) / clock + 1;
        PathRings {
            window: ring_reserve(droptail + dur_nanos(self.base_rtt()) / clock),
            rev_queue: ring_reserve(burst),
            fwd_delivery: ring_reserve(droptail + on_wire(self.fwd.prop_delay)),
            rev_delivery: ring_reserve(on_wire(self.rev.prop_delay)),
        }
    }
}

/// Canonical per-path seed derivation: path `index` of a run seeded with
/// `base` gets `base + index * 7919`. Every harness — the mptcp monolith
/// testbed, the sharded sweep executor (which keys by *global* unit index so
/// shard and monolith runs agree bit-for-bit), and the quic testbed — derives
/// path seeds through this one function so no second variant can drift.
#[inline]
pub fn path_seed(base: u64, index: usize) -> u64 {
    base.wrapping_add(index as u64 * 7919)
}

/// A live bidirectional path instance.
pub struct Path {
    /// Label copied from the config.
    pub name: String,
    /// Data-direction link.
    pub fwd: Link,
    /// ACK-direction link.
    pub rev: Link,
}

impl Path {
    /// Instantiate from a config; `seed` feeds the two links' jitter/loss
    /// RNGs. The shaped forward link reserves its droptail depth, which it
    /// really fills; the ACK link reserves one ACK burst
    /// ([`PathRings::rev_queue`]) instead of its "never drop" limit.
    pub fn new(cfg: &PathConfig, seed: u64) -> Self {
        let fwd_seed = seed.wrapping_mul(2).wrapping_add(1);
        let rev_seed = seed.wrapping_mul(2).wrapping_add(2);
        Path {
            name: cfg.name.clone(),
            fwd: Link::new(cfg.fwd.clone(), fwd_seed),
            rev: Link::with_reserve(cfg.rev.clone(), rev_seed, cfg.rings().rev_queue),
        }
    }

    /// Attach a telemetry sink to both directions; drops will be reported
    /// under path index `idx`.
    pub fn attach_telemetry(&mut self, tel: &telemetry::TelemetryHandle, idx: u16) {
        self.fwd.attach_telemetry(tel.clone(), idx, telemetry::LinkDir::Forward);
        self.rev.attach_telemetry(tel.clone(), idx, telemetry::LinkDir::Reverse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_base_rtt() {
        assert_eq!(PathConfig::wifi(8.6).base_rtt(), Duration::from_millis(20));
        assert_eq!(PathConfig::lte(8.6).base_rtt(), Duration::from_millis(60));
    }

    #[test]
    fn queues_are_txqueuelen_deep() {
        // A 1000-packet txqueue never drops at the windows our endpoints
        // reach (receive window ≈ 362 segments), so inflight is bounded by
        // flow control, not loss — the paper's regime.
        let cfg = PathConfig::wifi(0.3);
        assert!(cfg.fwd.queue_limit_bytes >= 1_000_000);
        assert!(cfg.fwd.queue_limit_bytes / 1500 >= 724);
    }

    #[test]
    fn rings_follow_the_path() {
        // Reservations round up to multiples of 64 packets.
        let round = |n: usize| n.next_multiple_of(64);
        // WiFi at 8.6 Mbps: a full-size packet serializes in ~1.35 ms.
        let wifi = PathConfig::wifi(8.6).rings();
        let droptail = (SHAPED_QUEUE_BYTES / 1448) as usize;
        // 20 ms of base RTT holds 14 packets; 12 ms of wire + jitter holds 8.
        assert_eq!(wifi.window, round(droptail + 14));
        assert_eq!(wifi.fwd_delivery, round(droptail + 9));
        // The ACK direction never reserves for its 16 MB "never drop" limit.
        assert_eq!((wifi.rev_queue, wifi.rev_delivery), (64, 64));
        // A fast forward link clocks more ACKs onto the reverse wire: at
        // 75 Mbps, 30 ms + 4 ms of jitter holds 220 ACKs.
        let lte = PathConfig::lte(75.0).rings();
        assert_eq!(lte.rev_delivery, round(221));
        // ... and sustains a larger window (60 ms of base RTT is 388 packets).
        assert_eq!(lte.window, round(droptail + 388));
        // Subflows riding one path split its window.
        assert_eq!(lte.window_share(1), lte.window);
        assert_eq!(lte.window_share(6), round(lte.window.div_ceil(6)));
        // A tiny droptail still gets the floor; a huge one the ceiling.
        let tiny = PathConfig::custom("t", 1.0, Duration::from_millis(5), 3_000).rings();
        assert_eq!((tiny.window, tiny.window_share(6)), (64, 64));
        let huge = PathConfig::custom("h", 1.0, Duration::from_millis(5), 1 << 40).rings();
        assert_eq!(huge.window, 16_384);
    }

    #[test]
    fn without_jitter_clears_both_directions() {
        let cfg = PathConfig::wifi(1.0).without_jitter();
        assert_eq!(cfg.fwd.jitter_max, Duration::ZERO);
        assert_eq!(cfg.rev.jitter_max, Duration::ZERO);
    }

    #[test]
    fn custom_path_uses_given_values() {
        let cfg = PathConfig::custom("p", 5.0, Duration::from_millis(15), 10_000);
        assert_eq!(cfg.base_rtt(), Duration::from_millis(30));
        assert_eq!(cfg.fwd.rate_bps, 5_000_000);
        assert_eq!(cfg.fwd.queue_limit_bytes, 10_000);
    }
}
