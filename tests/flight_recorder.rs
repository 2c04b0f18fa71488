//! Flight-recorder end-to-end tests: capture → capsule → replay
//! bit-identity for both schemes, automatic failure capsules from the
//! watchdog, and delta-debugged chaos-scenario shrinking.

use lr_seluge::{Deployment, LrSelugeParams};
use lrs_bench::matched_seluge_params;
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::puzzle::{Puzzle, PuzzleKeyChain};
use lrs_crypto::schnorr::Keypair;
use lrs_deluge::engine::DisseminationNode;
use lrs_deluge::policy::UnionPolicy;
use lrs_netsim::capsule::{Capsule, EngineDigest, RunDigest, SEQUENTIAL_ENGINE};
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::node::{Context, NodeId, PacketKind, Protocol, TimerId};
use lrs_netsim::replay::{replay_sequential, verify_replay};
use lrs_netsim::shrink::shrink_fault_plan;
use lrs_netsim::sim::{Outcome, SimConfig};
use lrs_netsim::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::SharedRingTrace;
use lrs_netsim::SimBuilder;
use lrs_seluge::preprocess::SelugeArtifacts;
use lrs_seluge::scheme::SelugeScheme;
use std::path::PathBuf;

fn deadline() -> Duration {
    Duration::from_secs(100_000)
}

fn small_lr(image_len: usize) -> LrSelugeParams {
    LrSelugeParams {
        image_len,
        k: 8,
        n: 16,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 6,
        ..LrSelugeParams::default()
    }
}

fn test_image(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// Deployment construction is fully derived from the image bytes and
/// parameters, so a fresh instance per closure reproduces the captured
/// run exactly — the property replay relies on.
fn lr_deployment() -> Deployment {
    let image = test_image(1024);
    Deployment::new(&image, small_lr(image.len()), b"flight recorder")
}

fn unique_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lrs-flight-{}-{name}", std::process::id()))
}

/// Runs a traced capture of `make` on `topology` and packages its
/// digest into a capsule — what `lrs-bench`'s `replay --capture` does.
fn capture<P, F>(topology: Topology, seed: u64, faults: FaultPlan, scheme: &str, make: F) -> Capsule
where
    P: Protocol + 'static,
    F: FnMut(NodeId) -> P,
{
    let ring = SharedRingTrace::new(usize::MAX);
    let mut sim = SimBuilder::new(topology.clone(), seed, make)
        .faults(faults.clone())
        .trace(ring.clone())
        .build();
    let report = sim.run(deadline());
    assert_eq!(report.outcome, Outcome::Complete);
    Capsule {
        seed,
        engine: SEQUENTIAL_ENGINE.to_string(),
        shards: 1,
        deadline: deadline(),
        config: SimConfig::default(),
        topology,
        faults,
        scenario: vec![("scheme".to_string(), scheme.to_string())],
        digests: vec![EngineDigest {
            engine: SEQUENTIAL_ENGINE.to_string(),
            shards: 1,
            digest: RunDigest::compute(&report, sim.metrics(), &ring.events(), None),
        }],
    }
}

#[test]
fn lr_capsule_replays_bit_identically() {
    let deployment = lr_deployment();
    let capsule = capture(
        Topology::grid(6, 10.0, 77),
        42,
        FaultPlan::new(),
        "lr-seluge",
        |id| deployment.node(id, NodeId(0)),
    );
    // The capsule must survive a serialization round trip before the
    // replay, so what is verified is what a file would carry.
    let restored = Capsule::from_jsonl(&capsule.to_jsonl()).expect("round trip");
    assert_eq!(restored, capsule);
    let run = replay_sequential(&restored, |id| deployment.node(id, NodeId(0)));
    verify_replay(&restored, &run).expect("replay diverged");
    // The sharded engine is gone: a replay request for it is an error,
    // never a silent sequential run.
    assert!(lrs_bench::capsules::replay_capsule(&restored, "sharded", 4).is_err());
}

#[test]
fn lr_capsule_with_faults_replays_bit_identically() {
    // Chaos in the capture must be reproduced exactly by the replay,
    // because the capsule carries the full fault schedule.
    let mut faults = FaultPlan::new();
    faults.crash_and_reboot(NodeId(7), SimTime(400_000), Duration::from_secs(2));
    faults.crash(NodeId(34), SimTime(700_000));
    faults.link_outage(
        NodeId(35),
        NodeId(29),
        SimTime(300_000),
        Duration::from_secs(1),
    );
    let deployment = lr_deployment();
    let capsule = capture(Topology::grid(6, 10.0, 77), 3, faults, "lr-seluge", |id| {
        deployment.node(id, NodeId(0))
    });
    let restored = Capsule::from_framed(&capsule.to_framed()).expect("framed round trip");
    let run = replay_sequential(&restored, |id| deployment.node(id, NodeId(0)));
    verify_replay(&restored, &run).expect("faulted replay diverged");
}

#[test]
fn seluge_capsule_replays_bit_identically() {
    let image = test_image(1024);
    let params = matched_seluge_params(&small_lr(image.len()));
    let kp = Keypair::from_seed(b"flight recorder");
    let chain = PuzzleKeyChain::generate(b"flight recorder", params.version as u32 + 4);
    let artifacts = SelugeArtifacts::build(&image, params, &kp, &chain);
    let puzzle = Puzzle::new(chain.anchor(), params.puzzle_strength);
    let key = ClusterKey::derive(b"flight recorder", 0);
    let make = |id: NodeId| {
        let scheme = if id == NodeId(0) {
            SelugeScheme::base(&artifacts, kp.public(), puzzle)
        } else {
            SelugeScheme::receiver(params, kp.public(), puzzle)
        };
        DisseminationNode::new(scheme, UnionPolicy::new(), key.clone(), Default::default())
    };
    let capsule = capture(
        Topology::grid(6, 10.0, 77),
        7,
        FaultPlan::new(),
        "seluge",
        make,
    );
    let restored = Capsule::from_jsonl(&capsule.to_jsonl()).expect("round trip");
    let run = replay_sequential(&restored, make);
    verify_replay(&restored, &run).expect("seluge replay diverged");
}

/// A beacon protocol that keeps virtual time moving whether or not
/// progress happens: node 0 is the only source, every node re-arms a
/// periodic timer forever. Crashing node 0 therefore stalls the run
/// (goodput frozen, clock running) instead of draining it.
struct Beacon {
    heard: bool,
}

const TICK: TimerId = TimerId(3);

impl Protocol for Beacon {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        if ctx.id == NodeId(0) {
            self.heard = true;
        }
        ctx.set_timer(TICK, Duration::from_millis(200));
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _data: &[u8]) {
        self.heard = true;
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerId) {
        if self.heard {
            ctx.broadcast(PacketKind::Data, vec![0x5A; 16]);
        }
        ctx.set_timer(TICK, Duration::from_millis(200));
    }
    fn is_complete(&self) -> bool {
        self.heard
    }
    fn progress(&self) -> u64 {
        u64::from(self.heard)
    }
}

fn beacon_config() -> SimConfig {
    SimConfig {
        max_sim_time: Some(Duration::from_secs(60)),
        stall_window: Some(Duration::from_secs(5)),
        ..SimConfig::default()
    }
}

fn beacon_outcome(faults: &FaultPlan) -> Outcome {
    let mut sim = SimBuilder::new(Topology::star(5), 9, |_| Beacon { heard: false })
        .config(beacon_config())
        .faults(faults.clone())
        .build();
    sim.run(Duration::from_secs(120)).outcome
}

#[test]
fn shrinker_reduces_failing_chaos_plan_to_minimal_reproducer() {
    // One culprit — the permanent crash of the only source — buried in
    // 40 decoy events that never prevent completion on their own.
    let mut plan = FaultPlan::new();
    for i in 0..10u32 {
        let node = NodeId(1 + (i % 4));
        let at = SimTime(200_000 + u64::from(i) * 130_000);
        plan.crash_and_reboot(node, at, Duration::from_millis(700));
        plan.link_outage(
            NodeId(1 + (i % 4)),
            NodeId(1 + ((i + 1) % 4)),
            SimTime(150_000 + u64::from(i) * 90_000),
            Duration::from_millis(400),
        );
    }
    plan.crash(NodeId(0), SimTime(100_000));
    let original = plan.len();
    assert!(original >= 41, "expected a large haystack, got {original}");
    assert_eq!(beacon_outcome(&plan), Outcome::Stalled);

    let (shrunk, stats) = shrink_fault_plan(&plan, |candidate| {
        beacon_outcome(candidate) == Outcome::Stalled
    });
    assert_eq!(
        beacon_outcome(&shrunk),
        Outcome::Stalled,
        "shrunk plan must still fail"
    );
    assert!(
        shrunk.len() * 4 <= original,
        "shrunk to {} of {original} events — expected ≤ 25%",
        shrunk.len()
    );
    assert_eq!(stats.from, original);
    assert_eq!(stats.to, shrunk.len());
    // The actual 1-minimal answer is the single crash of the source.
    assert_eq!(shrunk.len(), 1);
}

#[test]
fn stalled_sequential_run_dumps_a_loadable_capsule() {
    let path = unique_path("stall-sequential.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut faults = FaultPlan::new();
    faults.crash(NodeId(0), SimTime(100_000));
    let mut sim = SimBuilder::new(Topology::star(5), 9, |_| Beacon { heard: false })
        .config(beacon_config())
        .faults(faults)
        .capsule_on_failure(&path)
        .scenario("protocol", "beacon")
        .build();
    let report = sim.run(Duration::from_secs(120));
    assert_eq!(report.outcome, Outcome::Stalled);

    let capsule = Capsule::load(&path).expect("failure capsule must load");
    std::fs::remove_file(&path).ok();
    assert_eq!(capsule.engine, SEQUENTIAL_ENGINE);
    // The sequential dump digests outcome/time/metrics only (the full
    // trace is not retained on the failure path); replay must still
    // verify against those fields.
    let replayed = replay_sequential(&capsule, |_| Beacon { heard: false });
    verify_replay(&capsule, &replayed).expect("sequential stall replay diverged");
}
