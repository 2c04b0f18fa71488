//! The `campaign-adversarial` workload: one `Campaign::run` over a grid
//! crossing both schemes, small stars and grids, two loss rates, crash
//! faults with reboots and four attacker settings, pinned to the
//! sequential engine and one worker thread.
//!
//! In the traced run every job is re-executed twice from outside:
//! through `Campaign::job_capsule` + `lrs_bench::capsules::replay_capsule`
//! (which yields the per-job times behind the campaign/job split), and
//! through the decorated node population of [`decorated_job`] (which
//! yields the layer split). Both must reproduce the job's logged record.

use crate::jobs::SchemeKind;
use crate::jobs::{add_cost, add_stats, netsim_metrics, ImageScheme, JobCounters, NodeView};
use crate::layers::{CountingTrace, Probe, Side, TimedNode, TimedPolicy, TimedScheme};
use lr_seluge::scheduler::GreedyRoundRobinPolicy;
use lr_seluge::scheme::LrScheme;
use lr_seluge::{Deployment, LrSelugeParams};
use lrs_bench::campaign::{Campaign, CampaignReport, JobRecord, JOB_LOG};
use lrs_bench::capsules::{
    campaign_params, lr_attacker_profile, replay_capsule, seluge_attacker_profile, ScenarioTags,
};
use lrs_bench::runner::{matched_seluge_params, test_image, ExperimentMetrics};
use lrs_bench::CampaignSpec;
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::puzzle::{Puzzle, PuzzleKeyChain};
use lrs_crypto::schnorr::Keypair;
use lrs_deluge::attack::{Attacker, AttackerProfile, MaybeAdversary};
use lrs_deluge::engine::{DisseminationNode, EngineConfig, Scheme};
use lrs_deluge::policy::{TxPolicy, UnionPolicy};
use lrs_netsim::capsule::{Capsule, RunDigest, SEQUENTIAL_ENGINE};
use lrs_netsim::energy::EnergyModel;
use lrs_netsim::node::{NodeId, Protocol};
use lrs_netsim::replay::verify_replay;
use lrs_netsim::SimBuilder;
use lrs_seluge::{SelugeArtifacts, SelugeScheme};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// The campaign grid for benchmark seed `seed`: 2 schemes × 2 topologies
/// × 2 loss rates × 2 fault plans × 4 attackers × 16 seeds = 1024 jobs.
pub fn spec(seed: u64) -> Result<CampaignSpec, String> {
    CampaignSpec::parse(&format!(
        r#"
name = "bench-adversarial"
schemes = ["lr-seluge", "seluge"]
topologies = ["star:6", "grid:4"]
loss_ppm = [50000, 200000]
faults = ["none", "crash=0.3,reboot=10-60"]
attackers = ["none", "bogus=4", "forgesig=2", "dor=2"]
seeds = 16
seed_base = {}
image_bytes = 768
deadline_s = 1200
stall_s = 300
max_sim_s = 1200
engine = "sequential"
"#,
        1 + (seed % 1_000_000) * 1000
    ))
}

/// Removes `dir` if it exists, so a campaign can be created there.
pub fn clear(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Creates the campaign of benchmark seed `seed` in `dir`, which must
/// not hold one yet.
pub fn create(seed: u64, dir: &Path) -> Result<Campaign, String> {
    Campaign::create(spec(seed)?, dir)
}

/// The campaign's set-up: creates it in `dir` and exports every job as
/// a capsule (`Campaign::job_capsule`: seed, sampled topology, fault and
/// attack plans), returning the job seeds the log must later show.
pub fn prepare(seed: u64, dir: &Path) -> Result<(Campaign, Vec<u64>), String> {
    let c = create(seed, dir)?;
    let seeds = (0..c.total_jobs())
        .map(|job| c.job_capsule(job).map(|capsule| capsule.seed))
        .collect::<Result<_, _>>()?;
    Ok((c, seeds))
}

/// Outcome labels that count as a failed job: the campaign's
/// diagnostic outcomes other than a stall (a stall under attack or
/// crash faults is a measured result).
const FAILED_OUTCOMES: [&str; 2] = ["invariant_violated", "worker_panicked"];

/// What one `Campaign::run` produced.
pub struct CampaignRun {
    /// Seconds inside `Campaign::run`.
    pub run_s: f64,
    /// Logged job records, in job order.
    pub records: Vec<JobRecord>,
    /// Jobs that failed, with the reason.
    pub failures: Vec<String>,
}

/// Runs `campaign` to completion on one worker thread, in one call.
pub fn run(campaign: &Campaign) -> Result<CampaignRun, String> {
    let start = Instant::now();
    let report = campaign.run(1, None)?;
    let run_s = start.elapsed().as_secs_f64();
    finish(
        campaign,
        report.ok_or("campaign stopped without a report")?,
        run_s,
    )
}

/// Jobs per `Campaign::run` call in [`run_chunked`].
pub const CHUNK_JOBS: usize = 8;

/// Runs `campaign` to completion on one worker thread, [`CHUNK_JOBS`] at
/// a time: each call executes the next chunk and returns, and the next
/// resumes from the completion log (the kill/resume path, whose report
/// is byte-identical to one uninterrupted run). `between` runs before
/// each chunk, outside the timing.
pub fn run_chunked(campaign: &Campaign, mut between: impl FnMut()) -> Result<CampaignRun, String> {
    let mut run_s = 0.0;
    let report = loop {
        between();
        let start = Instant::now();
        let report = campaign.run(1, Some(CHUNK_JOBS))?;
        run_s += start.elapsed().as_secs_f64();
        if let Some(report) = report {
            break report;
        }
    };
    finish(campaign, report, run_s)
}

fn finish(campaign: &Campaign, report: CampaignReport, run_s: f64) -> Result<CampaignRun, String> {
    let mut records = campaign.completed()?;
    records.sort_by_key(|r| r.job);
    if records.len() != report.jobs {
        return Err(format!(
            "{JOB_LOG} holds {} records for {} jobs",
            records.len(),
            report.jobs
        ));
    }
    let failures = records
        .iter()
        .filter(|r| FAILED_OUTCOMES.contains(&r.outcome.as_str()))
        .map(|r| format!("job {}: {}", r.job, r.outcome))
        .collect();
    Ok(CampaignRun {
        run_s,
        records,
        failures,
    })
}

/// A logged metric array as named metrics.
pub fn record_metrics(r: &JobRecord) -> ExperimentMetrics {
    let m = &r.metrics;
    ExperimentMetrics {
        page_data_pkts: m[0],
        data_pkts: m[1],
        snack_pkts: m[2],
        adv_pkts: m[3],
        total_bytes: m[4],
        latency_s: m[5],
        completed: m[6],
        sig_verifications: m[7],
        auth_rejects: m[8],
        completion_frac: m[9],
        verify_inflation: m[10],
        energy_j: m[11],
    }
}

fn same_bits(a: &ExperimentMetrics, b: &ExperimentMetrics, names: &[&str]) -> Result<(), String> {
    for &name in names {
        let (x, y) = (a.get(name), b.get(name));
        if x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()) {
            return Err(format!("{name}: logged {x}, re-run {y}"));
        }
    }
    Ok(())
}

/// Re-executes job `record.job` through its exported capsule and checks
/// the replay against the logged record (outcome and every metric the
/// replay reports) and, for a job that dumped a failure capsule, against
/// that capsule's recorded digest. Returns the job's seconds: the replay
/// minus the trace digest it computes.
pub fn replay_job(campaign: &Campaign, record: &JobRecord) -> Result<f64, String> {
    let capsule = campaign.job_capsule(record.job)?;
    let start = Instant::now();
    let run = replay_capsule(&capsule, SEQUENTIAL_ENGINE, 1)?;
    let replay_s = start.elapsed().as_secs_f64();
    // The replay digests its whole trace; time that separately so the
    // job time covers the simulation only, and check it reproduces.
    let start = Instant::now();
    let digest = RunDigest::compute(&run.report, &run.metrics, &run.trace, None);
    let digest_s = start.elapsed().as_secs_f64();
    if digest != run.digest {
        return Err(format!(
            "job {}: replay digest is not reproducible",
            record.job
        ));
    }
    if run.report.outcome.label() != record.outcome {
        return Err(format!(
            "job {}: logged {}, replay {}",
            record.job,
            record.outcome,
            run.report.outcome.label()
        ));
    }
    let replayed = netsim_metrics(&run.metrics, &run.report);
    same_bits(
        &record_metrics(record),
        &replayed,
        &[
            "page_data_pkts",
            "data_pkts",
            "snack_pkts",
            "adv_pkts",
            "total_bytes",
            "latency_s",
            "completed",
        ],
    )
    .map_err(|e| format!("job {}: replay differs on {e}", record.job))?;
    if record.is_failure() {
        let path = campaign.failure_capsule_path(record.job);
        let dumped = Capsule::load(&path).map_err(|e| format!("{path}: {e}"))?;
        verify_replay(&dumped, &run).map_err(|e| format!("job {}: {e}", record.job))?;
    }
    Ok(replay_s - digest_s)
}

/// A decorated node of a campaign job: honest or adversary.
type CampaignNode<S, P> = TimedNode<MaybeAdversary<DisseminationNode<S, P>>>;

/// The node factory of a campaign job: plan-driven attackers as the
/// campaign places them, and `honest` nodes elsewhere, all decorated.
fn population<S, P>(
    plan_profile: AttackerProfile,
    tags: &ScenarioTags,
    mut honest: impl FnMut(NodeId) -> DisseminationNode<S, P>,
    probe: &Rc<Probe>,
) -> Result<impl FnMut(NodeId) -> CampaignNode<S, P>, String>
where
    S: Scheme,
    P: TxPolicy,
{
    if tags.attacker.is_some() {
        return Err("the decorated campaign population has no packet-storm attacker".into());
    }
    let plan = tags.attack_plan.clone();
    let probe = Rc::clone(probe);
    Ok(move |id: NodeId| {
        let node = match plan.as_ref().and_then(|pl| pl.entry_for(id)) {
            Some(entry) => {
                MaybeAdversary::Attacker(Attacker::from_plan_entry(entry, &plan_profile))
            }
            None => MaybeAdversary::Honest(honest(id)),
        };
        TimedNode::new(node, Rc::clone(&probe))
    })
}

/// A decorated campaign job's counters.
pub struct DecoratedJob {
    /// Counters of the re-run.
    pub counters: JobCounters,
    /// Which scheme the job ran.
    pub scheme: SchemeKind,
    /// Seconds preprocessing the job's image (`Deployment::try_new` or
    /// `SelugeArtifacts::build`), as the campaign does per job.
    pub preprocess_s: f64,
}

/// Re-executes job `record.job` with every layer decorated (the node
/// population `lrs_bench::capsules::{lr,seluge}_factory` builds, with
/// `TimedScheme`/`TimedPolicy` inside each honest node) and a counting
/// trace sink, and checks all twelve logged metrics bit for bit and
/// every completed honest node's image byte for byte.
pub fn decorated_job(
    campaign: &Campaign,
    record: &JobRecord,
    probe: &Rc<Probe>,
) -> Result<DecoratedJob, String> {
    let capsule = campaign.job_capsule(record.job)?;
    let tags = ScenarioTags::decode(&capsule)?;
    if tags.profile != "campaign" {
        return Err(format!(
            "job {}: unexpected profile {}",
            record.job, tags.profile
        ));
    }
    let p: LrSelugeParams = campaign_params(tags.image_len);
    let image = test_image(tags.image_len);
    let context = tags.key_context.as_bytes();
    let kp = Keypair::from_seed(context);
    let key = ClusterKey::derive(context, 0);
    match tags.scheme.as_str() {
        "lr-seluge" => {
            let start = Instant::now();
            let deployment = Deployment::try_new(&image, p, context).map_err(|e| e.to_string())?;
            let preprocess_s = start.elapsed().as_secs_f64();
            let chain = PuzzleKeyChain::generate(context, p.version as u32 + 4);
            let puzzle = Puzzle::new(chain.anchor(), p.puzzle_strength);
            let profile = lr_attacker_profile(&p, Some(deployment.cluster_key().clone()));
            let make = population(
                profile,
                &tags,
                |id| {
                    let scheme = if id == NodeId(0) {
                        LrScheme::base(deployment.artifacts(), kp.public(), puzzle)
                    } else {
                        LrScheme::receiver(p, kp.public(), puzzle)
                    };
                    DisseminationNode::new(
                        TimedScheme::new(scheme, Rc::clone(probe), Side::Core),
                        TimedPolicy::new(
                            GreedyRoundRobinPolicy::new(),
                            Rc::clone(probe),
                            Side::Core,
                        ),
                        deployment.cluster_key().clone(),
                        EngineConfig::default(),
                    )
                },
                probe,
            )?;
            Ok(DecoratedJob {
                counters: drive_capsule(&capsule, record, &image, make, probe)?,
                scheme: SchemeKind::Lr,
                preprocess_s,
            })
        }
        "seluge" => {
            let sp = matched_seluge_params(&p);
            let start = Instant::now();
            let chain = PuzzleKeyChain::generate(context, sp.version as u32 + 4);
            let artifacts = SelugeArtifacts::build(&image, sp, &kp, &chain);
            let preprocess_s = start.elapsed().as_secs_f64();
            let puzzle = Puzzle::new(chain.anchor(), sp.puzzle_strength);
            let profile = seluge_attacker_profile(&sp, Some(key.clone()));
            let make = population(
                profile,
                &tags,
                |id| {
                    let scheme = if id == NodeId(0) {
                        SelugeScheme::base(&artifacts, kp.public(), puzzle)
                    } else {
                        SelugeScheme::receiver(sp, kp.public(), puzzle)
                    };
                    DisseminationNode::new(
                        TimedScheme::new(scheme, Rc::clone(probe), Side::Seluge),
                        TimedPolicy::new(UnionPolicy::new(), Rc::clone(probe), Side::Seluge),
                        key.clone(),
                        EngineConfig::default(),
                    )
                },
                probe,
            )?;
            Ok(DecoratedJob {
                counters: drive_capsule(&capsule, record, &image, make, probe)?,
                scheme: SchemeKind::Seluge,
                preprocess_s,
            })
        }
        other => Err(format!("job {}: unknown scheme {other}", record.job)),
    }
}

fn drive_capsule<S, P>(
    capsule: &Capsule,
    record: &JobRecord,
    image: &[u8],
    make: impl FnMut(NodeId) -> CampaignNode<S, P>,
    probe: &Rc<Probe>,
) -> Result<JobCounters, String>
where
    S: ImageScheme + 'static,
    P: TxPolicy + 'static,
{
    let (sink, _) = CountingTrace::new(Rc::clone(probe), false);
    let mut sim = SimBuilder::new(capsule.topology.clone(), capsule.seed, make)
        .config(capsule.config)
        .faults(capsule.faults.clone())
        .trace(sink)
        .build();
    let start = Instant::now();
    let report = sim.run(capsule.deadline);
    let run_s = start.elapsed().as_secs_f64();

    let m = sim.metrics();
    let mut counters = JobCounters {
        run_s,
        metrics: m.clone(),
        ..JobCounters::default()
    };
    let (mut honest, mut complete, mut sig, mut rejects, mut verify_ops) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for i in 0..capsule.topology.len() {
        let node = sim.node(NodeId(i as u32));
        let Some(h) = node.inner().honest() else {
            continue;
        };
        let (cost, st) = (h.cost(), h.stats());
        honest += 1.0;
        sig += cost.signature_verifications as f64;
        rejects += (st.auth_rejects + st.mac_rejects) as f64;
        verify_ops += (cost.hashes + cost.puzzle_checks + cost.signature_verifications) as f64;
        add_cost(&mut counters.cost, &cost);
        add_stats(&mut counters.stats, &st);
        if h.is_complete() {
            complete += 1.0;
            if i > 0 && h.image().as_deref() != Some(image) {
                return Err(format!(
                    "job {}: node {i} completed with a wrong image",
                    record.job
                ));
            }
        }
    }
    let rerun = ExperimentMetrics {
        sig_verifications: sig,
        auth_rejects: rejects,
        completion_frac: if honest > 0.0 {
            complete / honest
        } else {
            f64::NAN
        },
        verify_inflation: if honest > 0.0 {
            verify_ops / honest
        } else {
            f64::NAN
        },
        energy_j: sim.energy().total_joules(&EnergyModel::default()),
        ..netsim_metrics(m, &report)
    };
    if report.outcome.label() != record.outcome {
        return Err(format!(
            "job {}: logged {}, decorated re-run {}",
            record.job,
            record.outcome,
            report.outcome.label()
        ));
    }
    same_bits(&record_metrics(record), &rerun, &ExperimentMetrics::NAMES)
        .map_err(|e| format!("job {}: decorated re-run differs on {e}", record.job))?;
    Ok(counters)
}
