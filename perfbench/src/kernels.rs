//! Layer replay kernels: the public functions on the per-packet path,
//! timed in isolation at the sizes a workload's counters report.
//!
//! Each kernel runs [`REPS`] rounds of a fixed operation count and reports
//! the median nanoseconds per operation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mptcp::{Receiver, Segment};
use quic::QuicReceiver;
use simnet::{DeliveryQueue, EventQueue, Link, PathConfig, Time, Verdict};
use webload::PageModel;

use crate::stats::median;

/// Measured rounds per kernel.
const REPS: usize = 5;
/// Operations per round.
const OPS: u64 = 200_000;

/// xorshift64*: a fixed operation stream, independent of the workload seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1)
    }
}

fn ns_per_op(ops: u64, mut round: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            round();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&mut samples)
}

/// `EventQueue::pop` + `schedule` in steady state with `depth` pending
/// events (hold model: every popped event re-schedules 1 ns–50 ms ahead).
pub fn wheel(depth: usize) -> f64 {
    const SPREAD_NS: u64 = 50_000_000;
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut q = EventQueue::<u32>::new();
    for i in 0..depth.max(1) {
        q.schedule(Time::from_nanos(rng.below(SPREAD_NS)), i as u32);
    }
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("queue holds `depth` events");
            let at = t.as_nanos() + 1 + rng.below(SPREAD_NS);
            q.schedule(Time::from_nanos(at), black_box(e));
        }
    })
}

/// `Link::enqueue` of MSS-sized packets offered slightly faster than an
/// 8.6 Mbps LTE link drains (a standing queue with tail drops), plus the
/// `DeliveryQueue` push/pop that carries each accepted packet to its
/// arrival. `pkts` packets per round.
pub fn link(pkts: u64) -> f64 {
    let pkts = pkts.clamp(1_000, OPS);
    let mut link = Link::new(PathConfig::lte(8.6).fwd, 1);
    let mut dq = DeliveryQueue::<u64>::new();
    let gap = Duration::from_micros(1_300);
    let mut now = Time::ZERO;
    let mut seq = 0u64;
    let mut head: Option<(Time, u64)> = None;
    ns_per_op(pkts, || {
        for i in 0..pkts {
            if let Verdict::Deliver { arrival } = link.enqueue(now, 1_500) {
                if let Some(h) = dq.push(arrival, seq, i) {
                    head = Some(h);
                }
                seq += 1;
            }
            while let Some((at, _)) = head {
                if at > now {
                    break;
                }
                let (payload, next) = dq.pop().expect("head is parked");
                black_box(payload);
                head = next;
            }
            now += gap;
        }
    })
}

/// `mptcp::Receiver::on_segment_into` with a meta reorder buffer `depth`
/// segments deep: per block, `depth` segments arrive on the fast subflow
/// ahead of the one the slow subflow carries, which then releases them.
pub fn mptcp_rx(depth: u64) -> f64 {
    let depth = depth.clamp(1, 2_000);
    let blocks = (OPS / (depth + 1)).max(1);
    let ops = blocks * (depth + 1);
    let mut delivered = Vec::with_capacity(depth as usize + 1);
    ns_per_op(ops, || {
        let mut rx = Receiver::new(2, 2_896);
        let mut ssn = [0u64; 2];
        let mut now = Time::ZERO;
        let mut arrive = |sub: usize, dsn: u64, delivered: &mut Vec<mptcp::Delivered>| {
            now += Duration::from_micros(10);
            let seg = Segment { dsn, ssn: ssn[sub] };
            ssn[sub] += 1;
            black_box(rx.on_segment_into(now, sub, seg, delivered));
            delivered.clear();
        };
        for b in 0..blocks {
            let base = b * (depth + 1);
            for k in 1..=depth {
                arrive(0, base + k, &mut delivered);
            }
            arrive(1, base, &mut delivered);
        }
    })
}

/// `quic::QuicReceiver::on_chunk` over the 107-object page, streams
/// interleaved round-robin, each stream's chunks arriving in blocks whose
/// first chunk comes last — sized so about `held` chunks wait at once.
pub fn quic_rx(held: u64) -> f64 {
    const MSS: u64 = 1_448;
    let sizes = PageModel::cnn_like(2014).object_sizes;
    let streams = sizes.len() as u64;
    let block = (held / streams + 2).clamp(2, 64);
    let chunks: Vec<u64> = sizes.iter().map(|b| b.div_ceil(MSS).max(1)).collect();
    // Arrival order, built outside the timed rounds.
    let mut order = Vec::new();
    let longest = chunks.iter().copied().max().unwrap_or(0);
    for pos in 0..longest.div_ceil(block) * block {
        let (blk, k) = (pos / block, pos % block);
        // Within a block: chunks 1..block first, chunk 0 last.
        let off = blk * block + (k + 1) % block;
        for (s, &n) in chunks.iter().enumerate() {
            if off < n {
                order.push((s as u32, off));
            }
        }
    }
    let ops = order.len() as u64;
    let mut out = Vec::new();
    ns_per_op(ops, || {
        let mut rx = QuicReceiver::new(u64::MAX);
        for (s, &n) in chunks.iter().enumerate() {
            rx.open_stream(s as u32, n);
        }
        let mut now = Time::ZERO;
        for &(s, c) in &order {
            now += Duration::from_micros(10);
            rx.on_chunk(now, s, c, &mut out);
            out.clear();
        }
        black_box(rx.held_chunks());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_report_positive_costs() {
        assert!(wheel(64) > 0.0);
        assert!(link(2_000) > 0.0);
        assert!(mptcp_rx(8) > 0.0);
        assert!(quic_rx(200) > 0.0);
    }
}
