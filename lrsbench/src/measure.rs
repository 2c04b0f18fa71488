//! One benchmark run: the untraced end-to-end measurement and the traced
//! per-layer measurement of a workload.

use crate::campaign;
use crate::jobs::{
    run_plain, run_traced, Job, JobCounters, JobResult, SchemeKind, Setup, SetupTimes,
};
use crate::layers::Probe;
use crate::medium;
use crate::speed::SpeedProbe;
use crate::workload::Workload;
use lrs_bench::runner::{matched_seluge_params, run_lr, run_seluge, ExperimentMetrics};
use lrs_deluge::engine::{CryptoCost, NodeStats};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whether every output was checked and found correct.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed (panic, invariant violation, wrong image, campaign
    /// error, or an honest job that did not complete).
    pub failed: u64,
    /// Reasons for failed jobs and failed checks.
    pub problems: Vec<String>,
    /// Context printed with the human-readable summary.
    pub notes: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    /// Counts one attempted job, and a failure when it failed.
    pub fn record_job(&mut self, result: &JobResult) {
        self.attempted += 1;
        if let Some(f) = &result.failure {
            self.failed += 1;
            self.problems.push(f.clone());
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The paper metrics averaged over a workload's jobs: latency over the
/// jobs that completed (as `lrs_bench::runner::aggregate` does), bytes,
/// completion and verification operations over all jobs.
fn push_sim_metrics(out: &mut Outcome, results: &[ExperimentMetrics]) {
    let n = results.len().max(1) as f64;
    let done: Vec<f64> = results
        .iter()
        .map(|m| m.latency_s)
        .filter(|l| l.is_finite())
        .collect();
    out.push(
        "sim_latency_s",
        done.iter().sum::<f64>() / done.len().max(1) as f64,
        "s",
    );
    out.push(
        "tx_kib",
        results.iter().map(|m| m.total_bytes).sum::<f64>() / n / 1024.0,
        "KiB",
    );
    out.push(
        "completion_frac",
        results.iter().map(|m| m.completion_frac).sum::<f64>() / n,
        "ratio",
    );
    out.push(
        "verify_ops_per_node",
        results.iter().map(|m| m.verify_inflation).sum::<f64>() / n,
        "count",
    );
}

fn same_metrics(a: &ExperimentMetrics, b: &ExperimentMetrics) -> bool {
    a.named()
        .iter()
        .zip(b.named())
        .all(|((_, x), (_, y))| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Builds [`SETUP_SAMPLES`] set-ups, returning the last one and the
/// timings of all of them.
fn timed_setups(w: Workload, jobs: &[Job]) -> Result<(Setup, Vec<SetupTimes>), String> {
    let mut times = Vec::new();
    let mut setup = Setup::build(w.lr_params(), jobs)?;
    times.push(setup.times);
    for _ in 1..SETUP_SAMPLES {
        drop(setup);
        setup = Setup::build(w.lr_params(), jobs)?;
        times.push(setup.times);
    }
    Ok((setup, times))
}

/// Speed-probe units run before each job of an honest workload.
const PROBE_UNITS_PER_JOB: u32 = 3;

/// Speed-probe units run before each campaign chunk: as many units per
/// run as the one-hop list gets, so the probe's own noise is as small.
const PROBE_UNITS_PER_CHUNK: u32 = 6;

/// Pushes `wall_s` and `setup_s`: host seconds rescaled by the speed
/// probe to the reference host (see [`crate::speed`]). The raw seconds
/// go to the notes.
fn push_host_times(out: &mut Outcome, speed: &SpeedProbe, wall: f64, setup: f64) {
    let f = speed.factor();
    out.notes.push(format!(
        "host seconds: wall {wall:.4}, setup {setup:.6}; speed factor {f:.4}"
    ));
    out.push("wall_s", wall * f, "s");
    out.push("setup_s", setup * f, "s");
}

/// Whether another pass of `last` seconds still fits in the budget.
fn another_pass(start: Instant, last: f64, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + last <= seconds
}

/// Runs workload `w` for `seconds` with tracing off and reports the
/// end-to-end metrics.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let result = match w {
        Workload::CampaignAdversarial => campaign_end_to_end(seed, seconds, work, &mut out),
        _ => honest_end_to_end(w, seed, seconds, &mut out),
    };
    if let Err(e) = result {
        out.problem(e);
        out.failed = out.failed.max(1);
        out.attempted = out.attempted.max(1);
    }
    out.correct = out.problems.is_empty();
    out
}

fn honest_end_to_end(
    w: Workload,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let jobs = w.jobs(seed);
    let mut speed = SpeedProbe::default();
    let (mut setup, samples) = timed_setups(w, &jobs)?;
    let mut setup_times: Vec<f64> = samples.iter().map(SetupTimes::total).collect();

    // Passes over the fixed job list while another one fits in the time
    // budget; each job's time is its median over passes, `wall_s` the sum.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut first: Vec<ExperimentMetrics> = Vec::new();
    let start = Instant::now();
    let mut last = 0.0;
    for pass in 0.. {
        if pass > 0 {
            if !another_pass(start, last, seconds) {
                break;
            }
            setup = Setup::build(w.lr_params(), &jobs)?;
            setup_times.push(setup.times.total());
        }
        let pass_start = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            speed.gap(PROBE_UNITS_PER_JOB);
            let t = Instant::now();
            let (result, _) = run_plain(&setup, i, job);
            times[i].push(t.elapsed().as_secs_f64());
            out.record_job(&result);
            if pass == 0 {
                first.push(result.metrics);
            } else if !same_metrics(&first[i], &result.metrics) {
                out.problem(format!("job {i} gave different metrics on pass {pass}"));
            }
        }
        last = pass_start.elapsed().as_secs_f64();
    }
    let wall = times.iter().map(|t| median(t)).sum();
    push_host_times(out, &speed, wall, median(&setup_times));
    out.push("peak_rss_mib", peak_rss_mib(), "MiB");
    push_sim_metrics(out, &first);
    Ok(())
}

fn campaign_end_to_end(
    seed: u64,
    seconds: f64,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = work.join("campaign");
    let mut speed = SpeedProbe::default();
    let mut setup_times = Vec::new();
    let mut prepare = || -> Result<(lrs_bench::Campaign, Vec<u64>), String> {
        campaign::clear(&dir)?;
        let t = Instant::now();
        let prepared = campaign::prepare(seed, &dir)?;
        setup_times.push(t.elapsed().as_secs_f64());
        Ok(prepared)
    };
    for _ in 1..SETUP_SAMPLES {
        prepare()?;
    }
    let mut walls = Vec::new();
    let mut first: Option<(Vec<lrs_bench::campaign::JobRecord>, Vec<String>)> = None;
    let start = Instant::now();
    loop {
        let (c, seeds) = prepare()?;
        let run = campaign::run_chunked(&c, || speed.gap(PROBE_UNITS_PER_CHUNK))?;
        walls.push(run.run_s);
        out.attempted += run.records.len() as u64;
        out.failed += run.failures.len() as u64;
        out.problems.extend(run.failures);
        let logged: Vec<u64> = run.records.iter().map(|r| r.seed).collect();
        if logged != seeds {
            out.problem("the campaign log does not match the exported job list".into());
        }
        let lines: Vec<String> = run.records.iter().map(|r| r.to_json().render()).collect();
        match &first {
            None => first = Some((run.records, lines)),
            Some((_, f)) if *f != lines => {
                out.problem("campaign records differ between passes".into());
            }
            Some(_) => {}
        }
        if !another_pass(start, run.run_s, seconds) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    push_host_times(out, &speed, median(&walls), median(&setup_times));
    out.push("peak_rss_mib", peak_rss_mib(), "MiB");
    let records = first.map(|(r, _)| r).unwrap_or_default();
    let metrics: Vec<ExperimentMetrics> = records.iter().map(campaign::record_metrics).collect();
    push_sim_metrics(out, &metrics);
    Ok(())
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
struct Layers {
    run_s: f64,
    untraced_s: f64,
    metrics: lrs_netsim::metrics::Metrics,
    stats: NodeStats,
    cost: CryptoCost,
    medium_s: f64,
    preprocess_lr: f64,
    preprocess_seluge: f64,
    digest_warm: f64,
    topology: f64,
    campaign: [f64; 5],
}

impl Layers {
    fn add(&mut self, c: &JobCounters) {
        self.run_s += c.run_s;
        self.metrics.merge(&c.metrics);
        crate::jobs::add_stats(&mut self.stats, &c.stats);
        crate::jobs::add_cost(&mut self.cost, &c.cost);
    }
}

/// Runs workload `w` once untraced and once with every layer decorated,
/// checks that both (and, for one sampled job, the paper bins' runner)
/// agree bit for bit, and reports the per-layer metrics.
pub fn per_layer(w: Workload, seed: u64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let probe = Rc::new(Probe::default());
    let mut layers = Layers::default();
    let result = match w {
        Workload::CampaignAdversarial => campaign_traced(seed, work, &probe, &mut layers, &mut out),
        _ => honest_traced(w, seed, &probe, &mut layers, &mut out),
    };
    if let Err(e) = result {
        out.problem(e);
        out.failed = out.failed.max(1);
        out.attempted = out.attempted.max(1);
    }
    push_layers(&mut out, &probe, &layers);
    out.correct = out.problems.is_empty();
    out
}

fn honest_traced(
    w: Workload,
    seed: u64,
    probe: &Rc<Probe>,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let jobs = w.jobs(seed);
    let (setup, samples) = timed_setups(w, &jobs)?;
    let pick = |f: fn(&SetupTimes) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    layers.preprocess_lr = pick(|t| t.preprocess_lr);
    layers.preprocess_seluge = pick(|t| t.preprocess_seluge);
    layers.digest_warm = pick(|t| t.digest_warm);
    layers.topology = pick(|t| t.topology);
    drop(samples);

    let mut plain = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let (result, counters) = run_plain(&setup, i, job);
        out.record_job(&result);
        layers.untraced_s += counters.run_s;
        plain.push(result.metrics);
    }
    // A fresh set-up: the traced pass must start from the same state.
    let setup = Setup::build(w.lr_params(), &jobs)?;
    for (i, job) in jobs.iter().enumerate() {
        let (result, counters, state) = run_traced(&setup, i, job, probe, true);
        if let Some(f) = &result.failure {
            out.problem(format!("traced job {i}: {f}"));
        }
        if !same_metrics(&plain[i], &result.metrics) {
            out.problem(format!("job {i}: traced metrics differ from untraced"));
        }
        layers.add(&counters);
        let calls = state.borrow_mut().calls.take().unwrap_or_default();
        let spec = job.run_spec();
        match medium::replay(&calls, job.medium, &spec.topology, job.seed) {
            Ok(r) => layers.medium_s += r.seconds,
            Err(e) => out.problem(format!("job {i}: {e}")),
        }
    }
    // Equivalence guard: one sampled job through the paper bins' runner.
    let i = (seed % jobs.len() as u64) as usize;
    let job = &jobs[i];
    let params = w.lr_params();
    let reference = match job.scheme {
        SchemeKind::Lr => run_lr(&job.run_spec(), params, job.seed),
        SchemeKind::Seluge => run_seluge(&job.run_spec(), matched_seluge_params(&params), job.seed),
    };
    if !same_metrics(&reference, &plain[i]) {
        out.problem(format!(
            "equivalence guard: job {i} differs from lrs_bench::runner ({reference:?} vs {:?})",
            plain[i]
        ));
    }
    Ok(())
}

fn campaign_traced(
    seed: u64,
    work: &Path,
    probe: &Rc<Probe>,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = work.join("campaign");
    campaign::clear(&dir)?;
    let c = campaign::create(seed, &dir)?;
    let run = campaign::run(&c)?;
    out.attempted += run.records.len() as u64;
    out.failed += run.failures.len() as u64;
    out.problems.extend(run.failures.iter().cloned());
    let mut job_times = Vec::new();
    for record in &run.records {
        job_times.push(campaign::replay_job(&c, record)?);
        let d = campaign::decorated_job(&c, record, probe)?;
        layers.add(&d.counters);
        match d.scheme {
            SchemeKind::Lr => layers.preprocess_lr += d.preprocess_s,
            SchemeKind::Seluge => layers.preprocess_seluge += d.preprocess_s,
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let total: f64 = job_times.iter().sum();
    layers.untraced_s = total;
    layers.campaign = [
        run.run_s,
        run.run_s - total,
        quantile(&job_times, 0.5),
        quantile(&job_times, 0.9),
        quantile(&job_times, 0.99),
    ];
    Ok(())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn push_layers(out: &mut Outcome, probe: &Probe, l: &Layers) {
    let ns = |c: &std::cell::Cell<u64>| c.get() as f64 * 1e-9;
    let (core, sel) = (&probe.core, &probe.seluge);
    let m = &l.metrics;
    let decided = probe.deliveries.get();
    let events = decided + probe.timers.get();
    let callbacks = ns(&probe.callback_ns);
    let sink = ns(&probe.sink_ns);
    let netsim_self = l.run_s - callbacks - sink;
    let scheme_policy = ns(&core.handle_ns)
        + ns(&core.serve_ns)
        + ns(&core.policy_ns)
        + ns(&sel.handle_ns)
        + ns(&sel.serve_ns)
        + ns(&sel.policy_ns);
    let deluge_self = callbacks - scheme_policy;
    if netsim_self < 0.0 || deluge_self < 0.0 {
        out.problem(format!(
            "layer self times do not partition the run: netsim {netsim_self} s, deluge {deluge_self} s"
        ));
    }
    out.push("trace.run_s", l.run_s, "s");
    out.push(
        "trace.overhead_frac",
        ratio(l.run_s, l.untraced_s) - 1.0,
        "ratio",
    );
    out.push("trace.sink_s", sink, "s");
    out.push("netsim.self_s", netsim_self, "s");
    out.push(
        "netsim.ns_per_event",
        ratio(netsim_self * 1e9, events as f64),
        "ns",
    );
    out.push("netsim.events", events as f64, "count");
    out.push("netsim.tx_packets", m.total_tx_packets() as f64, "count");
    out.push("netsim.collisions", m.collision_losses() as f64, "count");
    out.push(
        "netsim.rx_frac",
        ratio(m.rx_packets() as f64, decided as f64),
        "ratio",
    );
    out.push("netsim.medium_s", l.medium_s, "s");
    out.push("deluge.self_s", deluge_self, "s");
    out.push("deluge.callbacks", probe.callbacks.get() as f64, "count");
    out.push(
        "deluge.handled_frac",
        ratio(
            (core.handle_calls.get() + sel.handle_calls.get()) as f64,
            probe.on_packet.get() as f64,
        ),
        "ratio",
    );
    out.push("deluge.duplicates", l.stats.duplicates as f64, "count");
    out.push(
        "deluge.out_of_order_drops",
        l.stats.out_of_order_drops as f64,
        "count",
    );
    out.push(
        "deluge.auth_rejects",
        (l.stats.auth_rejects + l.stats.mac_rejects) as f64,
        "count",
    );
    out.push("deluge.gave_up", l.stats.gave_up as f64, "count");
    out.push("deluge.union_policy_s", ns(&sel.policy_ns), "s");
    out.push("core.handle_s", ns(&core.handle_ns), "s");
    out.push(
        "core.accept_frac",
        ratio(core.accepted.get() as f64, core.handle_calls.get() as f64),
        "ratio",
    );
    out.push("core.serve_s", ns(&core.serve_ns), "s");
    out.push("core.scheduler_s", ns(&core.policy_ns), "s");
    out.push("seluge.handle_s", ns(&sel.handle_ns), "s");
    out.push(
        "seluge.accept_frac",
        ratio(sel.accepted.get() as f64, sel.handle_calls.get() as f64),
        "ratio",
    );
    out.push("seluge.serve_s", ns(&sel.serve_ns), "s");
    out.push("erasure.decodes", l.cost.decodes as f64, "count");
    out.push("erasure.encodes", l.cost.encodes as f64, "count");
    out.push(
        "erasure.decode_call_s",
        ns(&core.decode_ns) + ns(&sel.decode_ns),
        "s",
    );
    out.push("crypto.hashes", l.cost.hashes as f64, "count");
    out.push(
        "crypto.memo_hit_frac",
        ratio(l.cost.memoized_hashes as f64, l.cost.hashes as f64),
        "ratio",
    );
    out.push(
        "crypto.sig_verifies",
        l.cost.signature_verifications as f64,
        "count",
    );
    out.push("crypto.puzzle_checks", l.cost.puzzle_checks as f64, "count");
    out.push("crypto.sig_call_s", ns(&core.sig_ns) + ns(&sel.sig_ns), "s");
    out.push("preprocess.lr_s", l.preprocess_lr, "s");
    out.push("preprocess.seluge_s", l.preprocess_seluge, "s");
    out.push("digest.warm_s", l.digest_warm, "s");
    out.push("topology.build_s", l.topology, "s");
    out.push("campaign.run_s", l.campaign[0], "s");
    out.push("campaign.overhead_s", l.campaign[1], "s");
    out.push("campaign.job_p50_s", l.campaign[2], "s");
    out.push("campaign.job_p90_s", l.campaign[3], "s");
    out.push("campaign.job_p99_s", l.campaign[4], "s");
}
