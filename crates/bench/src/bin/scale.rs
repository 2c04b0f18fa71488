//! Large-grid dissemination timer for the simulator.
//!
//! Runs a full dissemination of both schemes (LR-Seluge and Seluge) on
//! multi-hop grids of ~1k / ~5k / ~10k nodes and records the wall-clock
//! time of each run next to its virtual completion time. Every run must
//! reach full completion; the bin asserts it, so the sweep doubles as a
//! 10k-node correctness check.
//!
//! Modes:
//!
//! * default — 32×32, 71×71, and 100×100 grids
//! * `--quick` — the 32×32 grid only
//! * `--smoke` — CI gate: a 20×20 (400-node) grid
//!
//! Writes `results/scale.json`; `BENCH_scale.json` records a full run.

use lr_seluge::Deployment;
use lrs_bench::capsules::{scale_image as test_image, scale_params as small_lr, ScenarioTags};
use lrs_bench::{matched_seluge_params, write_json, Json, Table};
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::puzzle::{Puzzle, PuzzleKeyChain};
use lrs_crypto::schnorr::Keypair;
use lrs_deluge::engine::DisseminationNode;
use lrs_deluge::policy::UnionPolicy;
use lrs_netsim::node::{NodeId, Protocol};
use lrs_netsim::sim::{Outcome, Simulator};
use lrs_netsim::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SEED: u64 = 1;

fn deadline() -> Duration {
    Duration::from_secs(100_000)
}

/// Per-run record.
struct CaseRun {
    wall_s: f64,
    outcome: Outcome,
    final_time_us: u64,
    completed: usize,
    total_tx_bytes: u64,
}

/// Runs `sim` to the deadline; `start` was taken before the simulator
/// was built, so node construction counts toward the wall time.
fn timed_run<P: Protocol>(start: Instant, mut sim: Simulator<P>, nodes: usize) -> CaseRun {
    let report = sim.run(deadline());
    let wall_s = start.elapsed().as_secs_f64();
    CaseRun {
        wall_s,
        outcome: report.outcome,
        final_time_us: report.final_time.0,
        completed: (0..nodes)
            .filter(|&i| sim.node(NodeId(i as u32)).is_complete())
            .count(),
        total_tx_bytes: sim.metrics().total_tx_bytes(),
    }
}

/// Arms the flight recorder when `--capsule <dir>` was given: a run
/// ending in a diagnostic outcome (stall, invariant violation) drops a
/// tagged replay capsule into the directory.
fn with_capsule<P, F>(
    builder: SimBuilder<P, F>,
    capsule_dir: Option<&Path>,
    scheme: &str,
    side: usize,
) -> SimBuilder<P, F> {
    let Some(dir) = capsule_dir else {
        return builder;
    };
    let tags = ScenarioTags::new(scheme, "scale", 1024, "scale sweep");
    let mut b = builder.capsule_on_failure(dir.join(format!("scale-{scheme}-{side}x{side}.jsonl")));
    for (key, value) in tags.pairs() {
        b = b.scenario(key, value);
    }
    b
}

fn run_lr(side: usize, capsule_dir: Option<&Path>) -> CaseRun {
    let image = test_image(1024);
    let deployment = Deployment::new(&image, small_lr(image.len()), b"scale sweep");
    let start = Instant::now();
    let builder = SimBuilder::new(Topology::grid(side, 10.0, 77), SEED, |id| {
        deployment.node(id, NodeId(0))
    });
    let sim = with_capsule(builder, capsule_dir, "lr-seluge", side).build();
    timed_run(start, sim, side * side)
}

fn run_seluge(side: usize, capsule_dir: Option<&Path>) -> CaseRun {
    let image = test_image(1024);
    let params = matched_seluge_params(&small_lr(image.len()));
    let kp = Keypair::from_seed(b"scale sweep");
    let chain = PuzzleKeyChain::generate(b"scale sweep", params.version as u32 + 4);
    let artifacts = lrs_seluge::preprocess::SelugeArtifacts::build(&image, params, &kp, &chain);
    let puzzle = Puzzle::new(chain.anchor(), params.puzzle_strength);
    let key = ClusterKey::derive(b"scale sweep", 0);
    let start = Instant::now();
    let builder = SimBuilder::new(Topology::grid(side, 10.0, 77), SEED, |id| {
        let scheme = if id == NodeId(0) {
            lrs_seluge::scheme::SelugeScheme::base(&artifacts, kp.public(), puzzle)
        } else {
            lrs_seluge::scheme::SelugeScheme::receiver(params, kp.public(), puzzle)
        };
        DisseminationNode::new(scheme, UnionPolicy::new(), key.clone(), Default::default())
    });
    let sim = with_capsule(builder, capsule_dir, "seluge", side).build();
    timed_run(start, sim, side * side)
}

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::flag("--smoke", "CI gate: the 20x20 grid only"),
    lrs_bench::cli::flag("--quick", "the 32x32 grid only"),
    lrs_bench::cli::valued("--capsule", "arm the flight recorder on every run"),
];

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scale: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), lrs_bench::CliError> {
    let cli = lrs_bench::Cli::parse("scale", FLAGS)?;
    let (smoke, quick) = (cli.smoke(), cli.quick());
    // `--capsule <dir>`: arm the flight recorder on every run.
    let capsule_dir: Option<PathBuf> = cli.capsule_dir();
    let sides: &[usize] = if smoke {
        &[20]
    } else if quick {
        &[32]
    } else {
        &[32, 71, 100]
    };
    println!("Large-grid dissemination: grids {sides:?} (nodes = side²)\n");

    let mut table = Table::new(vec![
        "scheme", "nodes", "wall_s", "outcome", "virt_s", "complete",
    ]);
    let mut rows = Vec::new();
    for &side in sides {
        let nodes = side * side;
        for scheme in ["lr-seluge", "seluge"] {
            let run = match scheme {
                "lr-seluge" => run_lr(side, capsule_dir.as_deref()),
                _ => run_seluge(side, capsule_dir.as_deref()),
            };
            assert_eq!(
                run.outcome,
                Outcome::Complete,
                "{scheme} on {side}x{side} did not complete"
            );
            assert_eq!(run.completed, nodes, "{scheme} on {side}x{side}");
            let virt_s = run.final_time_us as f64 / 1e6;
            table.row(vec![
                scheme.to_string(),
                nodes.to_string(),
                format!("{:.2}", run.wall_s),
                format!("{:?}", run.outcome),
                format!("{virt_s:.1}"),
                run.completed.to_string(),
            ]);
            println!(
                "{scheme:10} {nodes:6} nodes  {:.2} s wall  {virt_s:.1} s virtual",
                run.wall_s
            );
            rows.push(Json::Obj(vec![
                ("scheme".into(), Json::str(scheme)),
                ("grid_side".into(), Json::num(side as u32)),
                ("nodes".into(), Json::num(nodes as u32)),
                ("wall_s".into(), Json::num(run.wall_s)),
                ("outcome".into(), Json::str(format!("{:?}", run.outcome))),
                ("virtual_time_s".into(), Json::num(virt_s)),
                ("completed_nodes".into(), Json::num(run.completed as u32)),
                (
                    "total_tx_bytes".into(),
                    Json::num(run.total_tx_bytes as f64),
                ),
            ]));
        }
    }

    println!("\n{}", table.render());
    let doc = Json::Obj(vec![
        ("experiment".into(), Json::str("scale")),
        (
            "mode".into(),
            Json::str(if smoke {
                "smoke"
            } else if quick {
                "quick"
            } else {
                "full"
            }),
        ),
        ("seed".into(), Json::num(SEED as u32)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    println!("wrote {}", write_json("scale", &doc));
    if smoke {
        println!("scale smoke: both schemes completed on every node");
    }
    Ok(())
}
