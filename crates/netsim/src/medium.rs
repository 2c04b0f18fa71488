//! The shared broadcast medium.
//!
//! Models the radio behaviour that matters for dissemination protocols:
//!
//! * **Airtime** — a packet of `b` bytes occupies the channel for
//!   `overhead + b · us_per_byte` microseconds (defaults sized to a
//!   mica2-class 19.2 kbps CC1000 radio).
//! * **CSMA deferral** — a sender whose neighborhood is busy defers to the
//!   end of the ongoing transmission plus a random backoff.
//! * **Half-duplex** — a node transmitting during a packet's airtime
//!   cannot receive it.
//! * **Collisions** — a reception fails if any other in-range transmission
//!   overlaps it in time.
//! * **Losses** — per-link PRR (topology), optional bursty noise, and the
//!   paper's application-layer i.i.d. drop probability `p`.

use crate::node::NodeId;
use crate::noise::{NoiseModel, NoiseState};
use crate::time::{Duration, SimTime};
use crate::topology::Topology;
use lrs_rng::DetRng;

/// Radio and loss-process parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MediumConfig {
    /// Microseconds of airtime per payload byte (19.2 kbps ≈ 416 µs/B).
    pub us_per_byte: u64,
    /// Fixed per-packet overhead in µs (preamble, MAC header).
    pub per_packet_overhead_us: u64,
    /// Maximum random CSMA backoff in µs (uniform in [0, max]).
    pub max_backoff_us: u64,
    /// Whether carrier sensing defers transmissions.
    pub csma: bool,
    /// Whether overlapping in-range transmissions destroy receptions.
    pub collisions: bool,
    /// Application-layer drop probability `p` (the paper's loss knob).
    pub app_loss: f64,
    /// Environmental noise model.
    pub noise: NoiseModel,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            us_per_byte: 416,
            per_packet_overhead_us: 2_000,
            max_backoff_us: 12_000,
            csma: true,
            collisions: true,
            app_loss: 0.0,
            noise: NoiseModel::None,
        }
    }
}

impl MediumConfig {
    /// Airtime of a `bytes`-byte packet.
    pub fn airtime(&self, bytes: usize) -> Duration {
        Duration::from_micros(self.per_packet_overhead_us + self.us_per_byte * bytes as u64)
    }
}

/// Outcome of a reception attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Packet received and handed to the application.
    Received,
    /// Destroyed by an overlapping transmission.
    Collision,
    /// Lost to link quality or noise.
    PhyLoss,
    /// Dropped by the application-layer loss process.
    AppDrop,
    /// The transmission record was pruned before the delivery event
    /// fired (e.g. a fault handler cleared the air while the delivery
    /// was in flight); the packet silently never arrives.
    Pruned,
}

#[derive(Clone, Debug)]
struct Transmission {
    id: u64,
    from: NodeId,
    start: SimTime,
    end: SimTime,
}

/// A started broadcast, as observed by the caller (and any trace sink):
/// the correlation id plus the post-CSMA on-air window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxInfo {
    /// Transmission id correlating delivery outcomes with this send.
    pub id: u64,
    /// On-air start (after CSMA deferral and random backoff).
    pub start: SimTime,
    /// Reception-complete time; the caller schedules deliveries here.
    pub end: SimTime,
}

/// The shared channel state.
#[derive(Debug)]
pub struct Medium {
    config: MediumConfig,
    /// End of the latest transmission audible at each node.
    busy_until: Vec<SimTime>,
    /// Recent transmissions, pruned as time advances.
    transmissions: Vec<Transmission>,
    noise_states: Vec<NoiseState>,
    rng: DetRng,
    next_tx_id: u64,
}

impl Medium {
    /// Creates the medium for `n` nodes.
    pub fn new(config: MediumConfig, n: usize, seed: u64) -> Self {
        Medium {
            config,
            busy_until: vec![SimTime::ZERO; n],
            transmissions: Vec::new(),
            noise_states: vec![NoiseState::new(config.noise); n],
            rng: DetRng::seed_from_u64(seed ^ 0x4d45_4449),
            next_tx_id: 0,
        }
    }

    /// Configuration accessor.
    pub fn config(&self) -> &MediumConfig {
        &self.config
    }

    /// Starts a broadcast of `bytes` bytes from `from` at `now`.
    ///
    /// Returns the transmission's [`TxInfo`] (id plus the post-CSMA
    /// on-air window). The caller schedules delivery events at
    /// [`TxInfo::end`].
    pub fn begin_broadcast(
        &mut self,
        now: SimTime,
        from: NodeId,
        bytes: usize,
        topo: &Topology,
    ) -> TxInfo {
        let mut start = now;
        if self.config.csma {
            start = start.max(self.busy_until[from.index()]);
            if self.config.max_backoff_us > 0 {
                start += Duration::from_micros(self.rng.gen_range(0..=self.config.max_backoff_us));
            }
        }
        let end = start + self.config.airtime(bytes);
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        self.transmissions.push(Transmission {
            id,
            from,
            start,
            end,
        });
        // Everyone who can hear `from` (and `from` itself) sees the
        // channel busy until `end`.
        self.busy_until[from.index()] = self.busy_until[from.index()].max(end);
        for link in topo.links_from(from) {
            let b = &mut self.busy_until[link.to.index()];
            *b = (*b).max(end);
        }
        self.prune(now);
        TxInfo { id, start, end }
    }

    /// Decides the fate of transmission `tx_id` at receiver `to`.
    ///
    /// Must be called at the reception-complete time (the simulator's
    /// delivery event).
    pub fn deliver(&mut self, now: SimTime, tx_id: u64, to: NodeId, topo: &Topology) -> Delivery {
        let Some(tx) = self.transmissions.iter().find(|t| t.id == tx_id).cloned() else {
            return Delivery::Pruned;
        };
        // Collision / half-duplex check.
        if self.config.collisions {
            let collided = self.transmissions.iter().any(|other| {
                other.id != tx.id
                    && other.start < tx.end
                    && other.end > tx.start
                    && (other.from == to || topo.in_range(other.from, to))
            });
            if collided {
                return Delivery::Collision;
            }
        }
        // Link PRR and noise.
        let prr = topo
            .links_from(tx.from)
            .iter()
            .find(|l| l.to == to)
            .map(|l| l.prr)
            .unwrap_or(0.0);
        let noise_factor = self.noise_states[to.index()].factor_at(now, &mut self.rng);
        let effective = prr * noise_factor;
        if effective < 1.0 && !self.rng.gen_bool(effective.clamp(0.0, 1.0)) {
            return Delivery::PhyLoss;
        }
        // Application-layer drop (paper §VI-A).
        if self.config.app_loss > 0.0 && self.rng.gen_bool(self.config.app_loss) {
            return Delivery::AppDrop;
        }
        Delivery::Received
    }

    /// Drops transmissions that can no longer affect any delivery.
    fn prune(&mut self, now: SimTime) {
        // A delivery event fires at its transmission's `end`; any other
        // transmission overlapping it satisfies end > start. Keep a
        // window comfortably above the longest plausible packet airtime
        // (a ~200-byte signature packet is ~85 ms at 19.2 kbps).
        let window = Duration::from_millis(400);
        let cutoff = SimTime(now.0.saturating_sub(window.as_micros()));
        self.transmissions.retain(|t| t.end >= cutoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_loss_config() -> MediumConfig {
        MediumConfig {
            csma: false,
            collisions: true,
            max_backoff_us: 0,
            ..MediumConfig::default()
        }
    }

    #[test]
    fn airtime_scales_with_bytes() {
        let c = MediumConfig::default();
        assert!(c.airtime(100) > c.airtime(10));
        assert_eq!(
            c.airtime(0),
            Duration::from_micros(c.per_packet_overhead_us)
        );
    }

    #[test]
    fn perfect_link_delivers() {
        let topo = Topology::star(3);
        let mut m = Medium::new(no_loss_config(), 3, 1);
        let tx = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        assert_eq!(
            m.deliver(tx.end, tx.id, NodeId(1), &topo),
            Delivery::Received
        );
    }

    #[test]
    fn overlapping_transmissions_collide() {
        let topo = Topology::star(3);
        let mut m = Medium::new(no_loss_config(), 3, 1);
        // Two simultaneous senders, receiver hears both.
        let tx0 = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        let _tx1 = m.begin_broadcast(SimTime::ZERO, NodeId(1), 10, &topo);
        assert_eq!(
            m.deliver(tx0.end, tx0.id, NodeId(2), &topo),
            Delivery::Collision
        );
    }

    #[test]
    fn half_duplex_receiver_misses() {
        let topo = Topology::star(2);
        let mut m = Medium::new(no_loss_config(), 2, 1);
        let tx0 = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        // Node 1 transmits while node 0's packet is in the air.
        let _ = m.begin_broadcast(SimTime::ZERO, NodeId(1), 10, &topo);
        assert_eq!(
            m.deliver(tx0.end, tx0.id, NodeId(1), &topo),
            Delivery::Collision
        );
    }

    #[test]
    fn csma_defers_second_sender() {
        let topo = Topology::star(3);
        let cfg = MediumConfig {
            csma: true,
            max_backoff_us: 0,
            ..MediumConfig::default()
        };
        let mut m = Medium::new(cfg, 3, 1);
        let tx0 = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        let tx1 = m.begin_broadcast(SimTime::ZERO, NodeId(1), 10, &topo);
        assert!(tx1.end >= tx0.end + cfg.airtime(10), "second tx must defer");
        assert_eq!(
            m.deliver(tx0.end, tx0.id, NodeId(2), &topo),
            Delivery::Received
        );
        assert_eq!(
            m.deliver(tx1.end, tx1.id, NodeId(2), &topo),
            Delivery::Received
        );
    }

    #[test]
    fn app_loss_rate_statistical() {
        let topo = Topology::star(2);
        let cfg = MediumConfig {
            app_loss: 0.3,
            csma: false,
            collisions: false,
            max_backoff_us: 0,
            ..MediumConfig::default()
        };
        let mut m = Medium::new(cfg, 2, 99);
        let mut dropped = 0;
        let trials = 20_000;
        let mut t = SimTime::ZERO;
        for _ in 0..trials {
            let tx = m.begin_broadcast(t, NodeId(0), 10, &topo);
            if m.deliver(tx.end, tx.id, NodeId(1), &topo) == Delivery::AppDrop {
                dropped += 1;
            }
            t = tx.end + Duration::from_millis(10);
        }
        let rate = dropped as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "measured drop rate {rate}");
    }

    #[test]
    fn out_of_range_never_delivers() {
        let topo = Topology::line(3, 1.0);
        let mut m = Medium::new(no_loss_config(), 3, 1);
        let tx = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        assert_eq!(
            m.deliver(tx.end, tx.id, NodeId(2), &topo),
            Delivery::PhyLoss
        );
    }

    #[test]
    fn lossy_link_statistical() {
        let topo = Topology::line(2, 0.7);
        let cfg = MediumConfig {
            csma: false,
            collisions: false,
            max_backoff_us: 0,
            ..MediumConfig::default()
        };
        let mut m = Medium::new(cfg, 2, 5);
        let mut ok = 0;
        let trials = 20_000;
        let mut t = SimTime::ZERO;
        for _ in 0..trials {
            let tx = m.begin_broadcast(t, NodeId(0), 10, &topo);
            if m.deliver(tx.end, tx.id, NodeId(1), &topo) == Delivery::Received {
                ok += 1;
            }
            t = tx.end + Duration::from_millis(10);
        }
        let rate = ok as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.02, "measured PRR {rate}");
    }
}
