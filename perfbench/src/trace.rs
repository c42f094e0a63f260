//! Spans for the traced pass, recorded from outside the program.
//!
//! The benchmark wraps the public seams around each layer (scheduler
//! plug-in, application traits, `run_until`, the sweep and co-sim entry
//! points) in [`span`]. Spans nest on one thread; each keeps the time its
//! children covered, so a layer's self time is its span minus its child
//! spans. Totals live in a thread-local and are read once per pass with
//! [`take`]. The untraced pass never calls into this module.

use std::cell::RefCell;
use std::time::Instant;

use ecf_core::{Decision, SchedInput, Scheduler, Why};
use mptcp::{Api, Application, ConnId, ReqId, TransportApi, TransportApp};
use simnet::Time;

/// The layers a span can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Benchmark code: input assembly, testbed construction, extraction.
    Harness = 0,
    /// `partition`/`plan_shards` and the shard loop around the engines.
    Sharding,
    /// `CoupledRun::new`, `step` and `finish` around the engine groups.
    Cosim,
    /// `Testbed::run_until`: the MPTCP engine and transport.
    Mptcp,
    /// `QuicTestbed::run_until`: the QUIC engine and transport.
    Quic,
    /// One scheduler decision.
    Sched,
    /// One application callback.
    App,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 7;

/// Per-layer totals since the last [`take`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Span time minus child span time, per layer.
    pub self_ns: [u64; LAYERS],
    /// Whole span time, per layer.
    pub span_ns: [u64; LAYERS],
    /// Spans closed, per layer.
    pub calls: [u64; LAYERS],
    /// Scheduler decisions that returned `Wait`.
    pub waits: u64,
}

impl Totals {
    /// Self time of `layer`, seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e9
    }
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    totals: Totals,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Run `f` inside a span charged to `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    STATE.with(|s| {
        s.borrow_mut().stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    let end = Instant::now();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let frame = s.stack.pop().expect("span stack underflow");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let i = frame.layer as usize;
        s.totals.self_ns[i] += dur.saturating_sub(frame.child_ns);
        s.totals.span_ns[i] += dur;
        s.totals.calls[i] += 1;
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += dur;
        }
    });
    out
}

/// Read and reset the totals. Every span must be closed.
pub fn take() -> Totals {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        assert!(s.stack.is_empty(), "take() with open spans");
        std::mem::take(&mut s.totals)
    })
}

fn note_wait(d: Decision) {
    if d == Decision::Wait {
        STATE.with(|s| s.borrow_mut().totals.waits += 1);
    }
}

/// A scheduler that times each decision of the scheduler it wraps. It
/// enters the transport through `ConnSpec::with_custom` or
/// `QuicTestbedConfig::custom_scheduler`.
pub struct TimedSched(pub Box<dyn Scheduler>);

impl Scheduler for TimedSched {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn select(&mut self, input: &SchedInput<'_>) -> Decision {
        let d = span(Layer::Sched, || self.0.select(input));
        note_wait(d);
        d
    }
    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, Why) {
        let out = span(Layer::Sched, || self.0.select_explained(input));
        note_wait(out.0);
        out
    }
    fn on_window_blocked(&mut self) {
        self.0.on_window_blocked();
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// An MPTCP application that times each callback of the one it wraps.
pub struct TimedApp<A>(pub A);

impl<A: Application> Application for TimedApp<A> {
    fn on_start(&mut self, now: Time, api: &mut Api<'_>) {
        span(Layer::App, || self.0.on_start(now, api));
    }
    fn on_response_complete(&mut self, now: Time, conn: ConnId, req: ReqId, api: &mut Api<'_>) {
        span(Layer::App, || {
            self.0.on_response_complete(now, conn, req, api)
        });
    }
    fn on_timer(&mut self, now: Time, token: u64, api: &mut Api<'_>) {
        span(Layer::App, || self.0.on_timer(now, token, api));
    }
}

/// A transport-agnostic application that times each callback of the one
/// it wraps.
pub struct TimedTransportApp<A>(pub A);

impl<A: TransportApp> TransportApp for TimedTransportApp<A> {
    fn on_start(&mut self, now: Time, api: &mut dyn TransportApi) {
        span(Layer::App, || self.0.on_start(now, api));
    }
    fn on_response_complete(
        &mut self,
        now: Time,
        conn: ConnId,
        req: ReqId,
        api: &mut dyn TransportApi,
    ) {
        span(Layer::App, || {
            self.0.on_response_complete(now, conn, req, api)
        });
    }
    fn on_timer(&mut self, now: Time, token: u64, api: &mut dyn TransportApi) {
        span(Layer::App, || self.0.on_timer(now, token, api));
    }
}
