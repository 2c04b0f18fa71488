//! Observational decorators for the traced run.
//!
//! Every per-layer number is measured from outside the program: the
//! decorators below wrap the public trait boundaries the simulation is
//! assembled from and time the calls that cross them.
//!
//! * [`TimedNode`] wraps a [`Protocol`] (a `DisseminationNode`): the
//!   simulator's run time minus callback time is the netsim layer.
//! * [`TimedScheme`] wraps a `deluge::engine::Scheme` (`LrScheme` or
//!   `SelugeScheme`): packet handling and serving, with `CryptoCost`
//!   deltas attributing a call to erasure decode or signature checks.
//! * [`TimedPolicy`] wraps a `TxPolicy` (`GreedyRoundRobinPolicy` or
//!   `UnionPolicy`).
//! * [`CountingTrace`] is a `TraceSink` that counts deliveries and timer
//!   expirations and can keep the medium call sequence [`crate::medium`]
//!   replays.
//!
//! Each wrapper forwards every call unchanged, so a decorated run is the
//! same program: the traced run asserts its simulated metrics equal the
//! untraced run's bit for bit.

use lrs_deluge::engine::{CryptoCost, PacketDisposition, Scheme};
use lrs_deluge::policy::TxPolicy;
use lrs_deluge::wire::BitVec;
use lrs_netsim::node::{Context, NodeId, PacketKind, Protocol, TimerId};
use lrs_netsim::trace::{LossCause, TraceEvent, TraceSink};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Which scheme family a decorator reports into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// LR-Seluge (`core` crate: `LrScheme` + `GreedyRoundRobinPolicy`).
    Core,
    /// Seluge (`seluge` crate: `SelugeScheme` + `UnionPolicy`).
    Seluge,
}

/// Per-scheme-family accumulators.
#[derive(Debug, Default)]
pub struct SchemeProbe {
    /// Nanoseconds inside `Scheme::handle_packet`.
    pub handle_ns: Cell<u64>,
    /// `handle_packet` calls.
    pub handle_calls: Cell<u64>,
    /// Calls that returned `PacketDisposition::Accepted`.
    pub accepted: Cell<u64>,
    /// Nanoseconds inside `Scheme::packet_payload`.
    pub serve_ns: Cell<u64>,
    /// Nanoseconds of scheme calls during which `CryptoCost::decodes` rose.
    pub decode_ns: Cell<u64>,
    /// Nanoseconds of scheme calls during which signature verifications rose.
    pub sig_ns: Cell<u64>,
    /// Nanoseconds inside the timed `TxPolicy` calls.
    pub policy_ns: Cell<u64>,
}

/// Shared accumulators of one traced job (single-threaded, so plain
/// `Cell`s behind an `Rc`).
#[derive(Debug, Default)]
pub struct Probe {
    /// Nanoseconds inside `Protocol` callbacks.
    pub callback_ns: Cell<u64>,
    /// `Protocol` callbacks (init, packet, timer, reboot).
    pub callbacks: Cell<u64>,
    /// `on_packet` callbacks.
    pub on_packet: Cell<u64>,
    /// Deliveries the simulator decided (`Rx` plus `Loss` trace events).
    pub deliveries: Cell<u64>,
    /// Timer expirations (`TimerFired` trace events).
    pub timers: Cell<u64>,
    /// Nanoseconds inside the counting trace sink.
    pub sink_ns: Cell<u64>,
    /// LR-Seluge scheme/policy accumulators.
    pub core: SchemeProbe,
    /// Seluge scheme/policy accumulators.
    pub seluge: SchemeProbe,
}

impl Probe {
    /// The accumulators of `side`.
    pub fn side(&self, side: Side) -> &SchemeProbe {
        match side {
            Side::Core => &self.core,
            Side::Seluge => &self.seluge,
        }
    }
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A `Protocol` decorator timing every callback.
pub struct TimedNode<N> {
    inner: N,
    probe: Rc<Probe>,
}

impl<N> TimedNode<N> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: N, probe: Rc<Probe>) -> Self {
        TimedNode { inner, probe }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut N) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        add(&self.probe.callback_ns, elapsed_ns(start));
        add(&self.probe.callbacks, 1);
        r
    }
}

impl<N: Protocol> Protocol for TimedNode<N> {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        self.timed(|n| n.on_init(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, data: &[u8]) {
        add(&self.probe.on_packet, 1);
        self.timed(|n| n.on_packet(ctx, from, data));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
        self.timed(|n| n.on_timer(ctx, timer));
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn on_reboot(&mut self, ctx: &mut Context<'_>) {
        self.timed(|n| n.on_reboot(ctx));
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn diagnostic(&self) -> String {
        self.inner.diagnostic()
    }
}

/// A `Scheme` decorator timing packet handling and serving.
pub struct TimedScheme<S> {
    inner: S,
    probe: Rc<Probe>,
    side: Side,
}

impl<S> TimedScheme<S> {
    /// Wraps `inner`, reporting into `probe` under `side`.
    pub fn new(inner: S, probe: Rc<Probe>, side: Side) -> Self {
        TimedScheme { inner, probe, side }
    }

    /// The wrapped scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Scheme> TimedScheme<S> {
    /// Attributes a call's time to decode / signature work when the
    /// scheme's own counters show it did that work.
    fn attribute(&self, before: CryptoCost, ns: u64) {
        let after = self.inner.cost();
        let p = self.probe.side(self.side);
        if after.decodes > before.decodes {
            add(&p.decode_ns, ns);
        }
        if after.signature_verifications > before.signature_verifications {
            add(&p.sig_ns, ns);
        }
    }
}

impl<S: Scheme> Scheme for TimedScheme<S> {
    fn version(&self) -> u16 {
        self.inner.version()
    }

    fn num_items(&self) -> u16 {
        self.inner.num_items()
    }

    fn item_packets(&self, item: u16) -> u16 {
        self.inner.item_packets(item)
    }

    fn packets_needed(&self, item: u16) -> u16 {
        self.inner.packets_needed(item)
    }

    fn complete_items(&self) -> u16 {
        self.inner.complete_items()
    }

    fn handle_packet(&mut self, item: u16, index: u16, payload: &[u8]) -> PacketDisposition {
        let before = self.inner.cost();
        let start = Instant::now();
        let d = self.inner.handle_packet(item, index, payload);
        let ns = elapsed_ns(start);
        let p = self.probe.side(self.side);
        add(&p.handle_ns, ns);
        add(&p.handle_calls, 1);
        if d == PacketDisposition::Accepted {
            add(&p.accepted, 1);
        }
        self.attribute(before, ns);
        d
    }

    fn wanted(&self, item: u16) -> BitVec {
        self.inner.wanted(item)
    }

    fn packet_payload(&mut self, item: u16, index: u16) -> Option<Vec<u8>> {
        let before = self.inner.cost();
        let start = Instant::now();
        let out = self.inner.packet_payload(item, index);
        let ns = elapsed_ns(start);
        let p = self.probe.side(self.side);
        add(&p.serve_ns, ns);
        self.attribute(before, ns);
        out
    }

    fn item_kind(&self, item: u16) -> PacketKind {
        self.inner.item_kind(item)
    }

    fn reboot(&mut self) {
        self.inner.reboot()
    }

    fn cost(&self) -> CryptoCost {
        self.inner.cost()
    }
}

/// A `TxPolicy` decorator timing the calls that do scheduling work
/// (`on_snack`, `next`, `on_overheard_data`); the constant-time queries
/// are forwarded untimed and stay in the deluge layer.
pub struct TimedPolicy<P> {
    inner: P,
    probe: Rc<Probe>,
    side: Side,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`, reporting into `probe` under `side`.
    pub fn new(inner: P, probe: Rc<Probe>, side: Side) -> Self {
        TimedPolicy { inner, probe, side }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        add(&self.probe.side(self.side).policy_ns, elapsed_ns(start));
        r
    }
}

impl<P: TxPolicy> TxPolicy for TimedPolicy<P> {
    fn on_snack(&mut self, from: NodeId, item: u16, bits: &BitVec, needed: u16) {
        self.timed(|p| p.on_snack(from, item, bits, needed))
    }

    fn next(&mut self) -> Option<(u16, u16)> {
        self.timed(|p| p.next())
    }

    fn on_overheard_data(&mut self, item: u16, index: u16) {
        self.timed(|p| p.on_overheard_data(item, index))
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn min_pending_item(&self) -> Option<u16> {
        self.inner.min_pending_item()
    }

    fn clear(&mut self) {
        self.inner.clear()
    }
}

/// One medium call reconstructed from the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MediumCall {
    /// `Medium::begin_broadcast(now, from, bytes)` returned `(tx_id, start)`.
    Broadcast {
        /// Virtual time of the callback that broadcast (µs).
        now: u64,
        /// Sender.
        from: u32,
        /// Payload bytes.
        bytes: u32,
        /// Transmission id the simulator assigned.
        tx_id: u64,
        /// Post-CSMA on-air start (µs).
        start: u64,
    },
    /// `Medium::deliver(at, tx_id, to)` decided `outcome`.
    Deliver {
        /// Delivery time (µs).
        at: u64,
        /// Receiver.
        to: u32,
        /// Transmission id.
        tx_id: u64,
        /// What the simulator recorded.
        outcome: Decided,
    },
}

/// A delivery decision as the trace reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decided {
    /// `TraceEvent::Rx`.
    Received,
    /// `TraceEvent::Loss` with this cause.
    Lost(LossCause),
}

/// A `TraceSink` that counts deliveries and timer expirations and
/// optionally keeps the medium call sequence for [`crate::medium::replay`].
pub struct CountingTrace {
    state: Rc<RefCell<TraceState>>,
    probe: Rc<Probe>,
}

/// The medium calls a [`CountingTrace`] kept; read them through the
/// shared handle.
#[derive(Debug, Default)]
pub struct TraceState {
    /// Medium calls, when recording was requested.
    pub calls: Option<Vec<MediumCall>>,
    /// Virtual time of the latest non-transmission event: the `now` of
    /// the callback whose broadcasts follow it.
    last_now: u64,
}

impl CountingTrace {
    /// A sink reporting its own time into `probe`; keeps the medium call
    /// sequence when `record` is set.
    pub fn new(probe: Rc<Probe>, record: bool) -> (Self, Rc<RefCell<TraceState>>) {
        let state = Rc::new(RefCell::new(TraceState {
            calls: record.then(Vec::new),
            ..TraceState::default()
        }));
        (
            CountingTrace {
                state: Rc::clone(&state),
                probe,
            },
            state,
        )
    }
}

impl TraceSink for CountingTrace {
    fn record(&mut self, event: &TraceEvent) {
        let start = Instant::now();
        let mut st = self.state.borrow_mut();
        let at = event.at().as_micros();
        let call = match *event {
            TraceEvent::Tx {
                from, bytes, tx_id, ..
            } => Some(MediumCall::Broadcast {
                now: st.last_now,
                from: from.0,
                bytes: bytes as u32,
                tx_id,
                start: at,
            }),
            TraceEvent::Rx { to, tx_id, .. } => Some(MediumCall::Deliver {
                at,
                to: to.0,
                tx_id,
                outcome: Decided::Received,
            }),
            TraceEvent::Loss {
                to, tx_id, cause, ..
            } => Some(MediumCall::Deliver {
                at,
                to: to.0,
                tx_id,
                outcome: Decided::Lost(cause),
            }),
            TraceEvent::TimerFired { .. } => {
                add(&self.probe.timers, 1);
                None
            }
            TraceEvent::NodeComplete { .. } | TraceEvent::Note { .. } => None,
        };
        if matches!(call, Some(MediumCall::Deliver { .. })) {
            add(&self.probe.deliveries, 1);
        }
        if !matches!(event, TraceEvent::Tx { .. }) {
            st.last_now = at;
        }
        if let (Some(calls), Some(call)) = (st.calls.as_mut(), call) {
            calls.push(call);
        }
        drop(st);
        add(&self.probe.sink_ns, elapsed_ns(start));
    }
}
