//! Replays a traced run's radio-medium call sequence.
//!
//! The sequential simulator calls `Medium::begin_broadcast` once per
//! transmission and `Medium::deliver` once per delivery it decides, and
//! reports both in its trace: a `Tx` event carries the sender, length and
//! assigned id (its time is the post-CSMA start; the call's `now` is the
//! time of the event that triggered the broadcasting callback), and each
//! `Rx`/`Loss` event carries the receiver, id and decision. Replaying that
//! sequence against a fresh `Medium::new(config, n, seed)` — the medium
//! owns its RNG, so the draws repeat exactly — must reproduce every id,
//! start time and delivery decision. The replay's run time is the
//! medium's share of the netsim layer.
//!
//! Deliveries blocked by an injected link fault never reach the medium
//! and are skipped; the replay is only used on fault-free workloads.

use crate::layers::{Decided, MediumCall};
use lrs_netsim::medium::{Delivery, Medium, MediumConfig};
use lrs_netsim::node::NodeId;
use lrs_netsim::time::SimTime;
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::LossCause;
use std::time::Instant;

/// Result of a successful replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct MediumReplay {
    /// Seconds spent inside the replayed medium calls.
    pub seconds: f64,
    /// Calls replayed.
    pub calls: u64,
}

fn expected(outcome: Decided) -> Option<Delivery> {
    Some(match outcome {
        Decided::Received => Delivery::Received,
        Decided::Lost(LossCause::Collision) => Delivery::Collision,
        Decided::Lost(LossCause::Phy) => Delivery::PhyLoss,
        Decided::Lost(LossCause::AppDrop) => Delivery::AppDrop,
        Decided::Lost(LossCause::Pruned) => Delivery::Pruned,
        Decided::Lost(LossCause::Fault) => return None,
    })
}

/// Replays `calls` against a fresh medium; `Err` names the first call
/// whose replayed result differs from the traced one.
pub fn replay(
    calls: &[MediumCall],
    config: MediumConfig,
    topology: &Topology,
    seed: u64,
) -> Result<MediumReplay, String> {
    let mut medium = Medium::new(config, topology.len(), seed);
    let mut seconds = 0.0;
    let mut replayed = 0u64;
    for (i, call) in calls.iter().enumerate() {
        match *call {
            MediumCall::Broadcast {
                now,
                from,
                bytes,
                tx_id,
                start,
            } => {
                let t = Instant::now();
                let tx =
                    medium.begin_broadcast(SimTime(now), NodeId(from), bytes as usize, topology);
                seconds += t.elapsed().as_secs_f64();
                if tx.id != tx_id || tx.start != SimTime(start) {
                    return Err(format!(
                        "medium replay call {i}: broadcast gave tx {} at {} µs, trace has tx {tx_id} at {start} µs",
                        tx.id,
                        tx.start.as_micros()
                    ));
                }
            }
            MediumCall::Deliver {
                at,
                to,
                tx_id,
                outcome,
            } => {
                let Some(want) = expected(outcome) else {
                    continue;
                };
                let t = Instant::now();
                let got = medium.deliver(SimTime(at), tx_id, NodeId(to), topology);
                seconds += t.elapsed().as_secs_f64();
                if got != want {
                    return Err(format!(
                        "medium replay call {i}: tx {tx_id} to n{to} gave {got:?}, trace has {want:?}"
                    ));
                }
            }
        }
        replayed += 1;
    }
    Ok(MediumReplay {
        seconds,
        calls: replayed,
    })
}
