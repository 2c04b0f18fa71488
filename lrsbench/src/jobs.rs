//! Simulation jobs of the two honest workloads: set-up, the untraced
//! run, and the decorated (traced) run.
//!
//! Nodes are built exactly as `lrs_bench::runner::run_lr` / `run_seluge`
//! build them — same key material, engine configuration, and a digest
//! memo warmed from the base station's artifacts — so the simulated
//! metrics equal those functions' bit for bit (checked by the
//! equivalence guard). Set-up (preprocessing, memo warm-up, topology
//! sampling) is timed apart from the runs.

use crate::layers::{CountingTrace, Probe, Side, TimedNode, TimedPolicy, TimedScheme, TraceState};
use lr_seluge::scheduler::GreedyRoundRobinPolicy;
use lr_seluge::scheme::LrScheme;
use lr_seluge::{Deployment, LrSelugeParams};
use lrs_bench::runner::{matched_seluge_params, test_image, ExperimentMetrics, RunSpec};
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::hash::HashImage;
use lrs_crypto::puzzle::{Puzzle, PuzzleKeyChain};
use lrs_crypto::schnorr::{Keypair, PublicKey};
use lrs_deluge::engine::{CryptoCost, DisseminationNode, EngineConfig, NodeStats, Scheme};
use lrs_deluge::policy::{TxPolicy, UnionPolicy};
use lrs_netsim::digest::DigestCache;
use lrs_netsim::energy::EnergyModel;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::metrics::Metrics;
use lrs_netsim::node::{NodeId, PacketKind, Protocol};
use lrs_netsim::sim::{RunReport, SimConfig};
use lrs_netsim::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use lrs_seluge::{SelugeArtifacts, SelugeParams, SelugeScheme};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// Key material of the paper bins (`lrs_bench::runner`).
const KEY_SEED: &[u8] = b"bench keys";

/// Which protocol a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// LR-Seluge.
    Lr,
    /// Seluge with matched parameters.
    Seluge,
}

/// Network shape of a job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Layout {
    /// One-hop star: base station plus `receivers`.
    Star {
        /// Receivers around the base station.
        receivers: usize,
    },
    /// `side`×`side` grid with `spacing` metres between neighbours;
    /// links are sampled from the job seed.
    Grid {
        /// Nodes per side.
        side: usize,
        /// Metres between grid neighbours.
        spacing: f64,
    },
}

/// One simulation job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Protocol under test.
    pub scheme: SchemeKind,
    /// Network shape.
    pub layout: Layout,
    /// Radio and loss configuration.
    pub medium: MediumConfig,
    /// Virtual-time budget; an honest job that has not completed by then fails.
    pub deadline: Duration,
    /// Simulator seed.
    pub seed: u64,
}

impl Job {
    fn topology(&self) -> Topology {
        match self.layout {
            Layout::Star { receivers } => Topology::star(receivers + 1),
            Layout::Grid { side, spacing } => Topology::grid(side, spacing, self.seed),
        }
    }

    /// The paper bins' description of this job.
    pub fn run_spec(&self) -> RunSpec {
        RunSpec {
            topology: self.topology(),
            medium: self.medium,
            deadline: self.deadline,
            engine: EngineConfig::default(),
        }
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            medium: self.medium,
            ..SimConfig::default()
        }
    }
}

/// What one job produced.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The paper's per-run metrics (NaN latency when not all completed).
    pub metrics: ExperimentMetrics,
    /// Why the job counts as failed, if it does.
    pub failure: Option<String>,
}

/// Counters of a traced job, read from the program's public state.
#[derive(Clone, Debug, Default)]
pub struct JobCounters {
    /// Seconds inside `Simulator::run`.
    pub run_s: f64,
    /// netsim metric counters.
    pub metrics: Metrics,
    /// Sum of every node's `NodeStats`.
    pub stats: NodeStats,
    /// Sum of every node's `CryptoCost`.
    pub cost: CryptoCost,
}

/// Set-up time, split by what was timed.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `Deployment::try_new` (LR-Seluge preprocessing).
    pub preprocess_lr: f64,
    /// `SelugeArtifacts::build` (Seluge preprocessing).
    pub preprocess_seluge: f64,
    /// Digest-memo warm-up.
    pub digest_warm: f64,
    /// Topology construction.
    pub topology: f64,
}

impl SetupTimes {
    /// Total set-up seconds.
    pub fn total(&self) -> f64 {
        self.preprocess_lr + self.preprocess_seluge + self.digest_warm + self.topology
    }
}

/// LR-Seluge side of a set-up.
struct LrSide {
    deployment: Deployment,
    pubkey: PublicKey,
    puzzle: Puzzle,
}

/// Seluge side of a set-up (as `run_seluge` builds it).
struct SelugeSide {
    params: SelugeParams,
    artifacts: SelugeArtifacts,
    pubkey: PublicKey,
    puzzle: Puzzle,
    key: ClusterKey,
}

type Digests = DigestCache<HashImage>;

/// Everything the jobs of one pass need, built before the timed runs.
pub struct Setup {
    image: Vec<u8>,
    lr: Option<LrSide>,
    seluge: Option<SelugeSide>,
    topologies: Vec<Topology>,
    digests: Vec<Digests>,
    /// How long each part of the set-up took.
    pub times: SetupTimes,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *acc += start.elapsed().as_secs_f64();
    r
}

impl Setup {
    /// Preprocesses the image for every scheme `jobs` use, samples each
    /// job's topology and warms one fresh digest memo per job.
    pub fn build(params: LrSelugeParams, jobs: &[Job]) -> Result<Setup, String> {
        let mut times = SetupTimes::default();
        let image = test_image(params.image_len);
        let lr = if jobs.iter().any(|j| j.scheme == SchemeKind::Lr) {
            let deployment = timed(&mut times.preprocess_lr, || {
                Deployment::try_new(&image, params, KEY_SEED).map_err(|e| e.to_string())
            })?;
            // The decorated run builds `LrScheme`s itself and needs the
            // key material `Deployment::try_new` derives internally;
            // deriving it again is not part of the timed set-up.
            let chain = PuzzleKeyChain::generate(KEY_SEED, params.version as u32 + 4);
            Some(LrSide {
                deployment,
                pubkey: Keypair::from_seed(KEY_SEED).public(),
                puzzle: Puzzle::new(chain.anchor(), params.puzzle_strength),
            })
        } else {
            None
        };
        let seluge = if jobs.iter().any(|j| j.scheme == SchemeKind::Seluge) {
            Some(timed(&mut times.preprocess_seluge, || {
                let sp = matched_seluge_params(&params);
                let kp = Keypair::from_seed(KEY_SEED);
                let chain = PuzzleKeyChain::generate(KEY_SEED, sp.version as u32 + 4);
                SelugeSide {
                    params: sp,
                    artifacts: SelugeArtifacts::build(&image, sp, &kp, &chain),
                    pubkey: kp.public(),
                    puzzle: Puzzle::new(chain.anchor(), sp.puzzle_strength),
                    key: ClusterKey::derive(KEY_SEED, 0),
                }
            }))
        } else {
            None
        };
        let topologies = timed(&mut times.topology, || {
            jobs.iter().map(Job::topology).collect()
        });
        let digests = timed(&mut times.digest_warm, || {
            jobs.iter()
                .map(|job| {
                    let cache = Digests::default();
                    match job.scheme {
                        SchemeKind::Lr => lr
                            .as_ref()
                            .expect("built above")
                            .deployment
                            .warm_digest_cache(&cache),
                        SchemeKind::Seluge => seluge
                            .as_ref()
                            .expect("built above")
                            .artifacts
                            .warm_digest_cache(&cache),
                    }
                    cache
                })
                .collect()
        });
        Ok(Setup {
            image,
            lr,
            seluge,
            topologies,
            digests,
            times,
        })
    }
}

/// A scheme that can report the image it reassembled.
pub trait ImageScheme: Scheme {
    /// The complete image, once the node holds it.
    fn image(&self) -> Option<Vec<u8>>;
}

impl ImageScheme for LrScheme {
    fn image(&self) -> Option<Vec<u8>> {
        LrScheme::image(self)
    }
}

impl ImageScheme for SelugeScheme {
    fn image(&self) -> Option<Vec<u8>> {
        SelugeScheme::image(self)
    }
}

impl<S: ImageScheme> ImageScheme for TimedScheme<S> {
    fn image(&self) -> Option<Vec<u8>> {
        self.inner().image()
    }
}

/// Read access to a node's public counters, through any decorators.
pub trait NodeView {
    /// Cryptographic work so far.
    fn cost(&self) -> CryptoCost;
    /// Engine statistics.
    fn stats(&self) -> NodeStats;
    /// The reassembled image, once complete.
    fn image(&self) -> Option<Vec<u8>>;
}

impl<S: ImageScheme, P: TxPolicy> NodeView for DisseminationNode<S, P> {
    fn cost(&self) -> CryptoCost {
        self.scheme().cost()
    }
    fn stats(&self) -> NodeStats {
        DisseminationNode::stats(self)
    }
    fn image(&self) -> Option<Vec<u8>> {
        self.scheme().image()
    }
}

impl<N: NodeView> NodeView for TimedNode<N> {
    fn cost(&self) -> CryptoCost {
        self.inner().cost()
    }
    fn stats(&self) -> NodeStats {
        self.inner().stats()
    }
    fn image(&self) -> Option<Vec<u8>> {
        self.inner().image()
    }
}

/// Adds `b` into `a`, field by field.
pub fn add_stats(a: &mut NodeStats, b: &NodeStats) {
    a.snacks_sent += b.snacks_sent;
    a.data_sent += b.data_sent;
    a.advs_sent += b.advs_sent;
    a.auth_rejects += b.auth_rejects;
    a.mac_rejects += b.mac_rejects;
    a.duplicates += b.duplicates;
    a.out_of_order_drops += b.out_of_order_drops;
    a.budget_rejections += b.budget_rejections;
    a.gave_up += b.gave_up;
}

/// Adds `b` into `a`, field by field.
pub fn add_cost(a: &mut CryptoCost, b: &CryptoCost) {
    a.hashes += b.hashes;
    a.signature_verifications += b.signature_verifications;
    a.puzzle_checks += b.puzzle_checks;
    a.decodes += b.decodes;
    a.encodes += b.encodes;
    a.memoized_hashes += b.memoized_hashes;
}

/// Runs one simulation and derives its result exactly as
/// `lrs_bench::runner` does; completed nodes' images are compared with
/// the original byte for byte.
fn drive<N, F>(
    job: &Job,
    topology: &Topology,
    image: &[u8],
    sink: Option<CountingTrace>,
    make: F,
) -> (JobResult, JobCounters)
where
    N: Protocol + NodeView + 'static,
    F: FnMut(NodeId) -> N,
{
    let mut builder = SimBuilder::new(topology.clone(), job.seed, make).config(job.sim_config());
    if let Some(sink) = sink {
        builder = builder.trace(sink);
    }
    let mut sim = builder.build();
    let start = Instant::now();
    let report = sim.run(job.deadline);
    let run_s = start.elapsed().as_secs_f64();

    let n = topology.len();
    let m = sim.metrics();
    let mut counters = JobCounters {
        run_s,
        metrics: m.clone(),
        ..JobCounters::default()
    };
    let mut failure = None;
    let mut sig_verifications = 0.0;
    let mut auth_rejects = 0.0;
    let mut verify_ops = 0.0;
    for i in 0..n {
        let node = sim.node(NodeId(i as u32));
        let cost = node.cost();
        let st = node.stats();
        sig_verifications += cost.signature_verifications as f64;
        verify_ops += (cost.hashes + cost.puzzle_checks + cost.signature_verifications) as f64;
        auth_rejects += (st.auth_rejects + st.mac_rejects) as f64;
        add_cost(&mut counters.cost, &cost);
        add_stats(&mut counters.stats, &st);
        if i > 0
            && node.is_complete()
            && failure.is_none()
            && node.image().as_deref() != Some(image)
        {
            failure = Some(format!("node {i} completed with a wrong image"));
        }
    }
    if failure.is_none() && !report.all_complete {
        failure = Some(format!(
            "did not complete: {} at {:.1} s",
            report.outcome.label(),
            report.final_time.as_secs_f64()
        ));
    }
    let metrics = ExperimentMetrics {
        completion_frac: m.completion_fraction(n),
        verify_inflation: verify_ops / n as f64,
        energy_j: sim.energy().total_joules(&EnergyModel::default()),
        sig_verifications,
        auth_rejects,
        ..netsim_metrics(m, &report)
    };
    (JobResult { metrics, failure }, counters)
}

/// The paper metrics a run's netsim counters and report determine
/// (packet counts, bytes, latency, completion), computed as
/// `lrs_bench::runner` computes them; the node-derived ones are zero.
pub fn netsim_metrics(m: &Metrics, report: &RunReport) -> ExperimentMetrics {
    ExperimentMetrics {
        page_data_pkts: m.tx_packets(PacketKind::Data) as f64,
        data_pkts: (m.tx_packets(PacketKind::Data)
            + m.tx_packets(PacketKind::HashPage)
            + m.tx_packets(PacketKind::Signature)) as f64,
        snack_pkts: m.tx_packets(PacketKind::Snack) as f64,
        adv_pkts: m.tx_packets(PacketKind::Adv) as f64,
        total_bytes: m.total_tx_bytes() as f64,
        latency_s: report.latency.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN),
        completed: if report.all_complete { 1.0 } else { 0.0 },
        ..ExperimentMetrics::default()
    }
}

/// Runs `f`, turning a panic into a failed job.
fn guarded(f: impl FnOnce() -> (JobResult, JobCounters)) -> (JobResult, JobCounters) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            (
                JobResult {
                    metrics: ExperimentMetrics {
                        latency_s: f64::NAN,
                        ..ExperimentMetrics::default()
                    },
                    failure: Some(format!("panicked: {msg}")),
                },
                JobCounters::default(),
            )
        }
    }
}

/// Runs job `i` of `setup` with tracing off: the nodes `run_lr` /
/// `run_seluge` build, no sink, no decorators.
pub fn run_plain(setup: &Setup, i: usize, job: &Job) -> (JobResult, JobCounters) {
    let topology = &setup.topologies[i];
    let digests = &setup.digests[i];
    guarded(|| match job.scheme {
        SchemeKind::Lr => {
            let lr = setup.lr.as_ref().expect("set-up covers every scheme");
            drive(job, topology, &setup.image, None, |id| {
                lr.deployment.node_cached(id, NodeId(0), digests)
            })
        }
        SchemeKind::Seluge => {
            let s = setup.seluge.as_ref().expect("set-up covers every scheme");
            drive(job, topology, &setup.image, None, |id| {
                let scheme = if id == NodeId(0) {
                    SelugeScheme::base(&s.artifacts, s.pubkey, s.puzzle)
                } else {
                    SelugeScheme::receiver(s.params, s.pubkey, s.puzzle)
                };
                DisseminationNode::new(
                    scheme.with_digest_cache(digests.clone()),
                    UnionPolicy::new(),
                    s.key.clone(),
                    EngineConfig::default(),
                )
            })
        }
    })
}

/// Runs job `i` of `setup` with every layer decorated and a counting
/// trace sink attached (keeping the medium call sequence when
/// `record_medium` is set).
pub fn run_traced(
    setup: &Setup,
    i: usize,
    job: &Job,
    probe: &Rc<Probe>,
    record_medium: bool,
) -> (JobResult, JobCounters, Rc<RefCell<TraceState>>) {
    let topology = &setup.topologies[i];
    let digests = &setup.digests[i];
    let (sink, state) = CountingTrace::new(Rc::clone(probe), record_medium);
    let (result, counters) = guarded(|| match job.scheme {
        SchemeKind::Lr => {
            let lr = setup.lr.as_ref().expect("set-up covers every scheme");
            let params = lr.deployment.params();
            drive(job, topology, &setup.image, Some(sink), |id| {
                let scheme = if id == NodeId(0) {
                    LrScheme::base(lr.deployment.artifacts(), lr.pubkey, lr.puzzle)
                } else {
                    LrScheme::receiver(params, lr.pubkey, lr.puzzle)
                };
                let node = DisseminationNode::new(
                    TimedScheme::new(
                        scheme.with_digest_cache(digests.clone()),
                        Rc::clone(probe),
                        Side::Core,
                    ),
                    TimedPolicy::new(GreedyRoundRobinPolicy::new(), Rc::clone(probe), Side::Core),
                    lr.deployment.cluster_key().clone(),
                    EngineConfig::default(),
                );
                TimedNode::new(node, Rc::clone(probe))
            })
        }
        SchemeKind::Seluge => {
            let s = setup.seluge.as_ref().expect("set-up covers every scheme");
            drive(job, topology, &setup.image, Some(sink), |id| {
                let scheme = if id == NodeId(0) {
                    SelugeScheme::base(&s.artifacts, s.pubkey, s.puzzle)
                } else {
                    SelugeScheme::receiver(s.params, s.pubkey, s.puzzle)
                };
                let node = DisseminationNode::new(
                    TimedScheme::new(
                        scheme.with_digest_cache(digests.clone()),
                        Rc::clone(probe),
                        Side::Seluge,
                    ),
                    TimedPolicy::new(UnionPolicy::new(), Rc::clone(probe), Side::Seluge),
                    s.key.clone(),
                    EngineConfig::default(),
                );
                TimedNode::new(node, Rc::clone(probe))
            })
        }
    });
    (result, counters, state)
}
