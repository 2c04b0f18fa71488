//! The benchmark's own guards: failure accounting, decorator purity and
//! the equivalence with the paper bins' runner, and the medium replay.
//!
//! Run with `cargo test --release --manifest-path lrsbench/Cargo.toml`.

use lr_seluge::LrSelugeParams;
use lrs_bench::runner::{matched_seluge_params, run_lr, run_seluge};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::time::Duration;
use lrsbench::jobs::{run_plain, run_traced, Job, Layout, SchemeKind, Setup};
use lrsbench::layers::Probe;
use lrsbench::measure::Outcome;
use lrsbench::medium;
use std::rc::Rc;

fn tiny() -> LrSelugeParams {
    LrSelugeParams {
        image_len: 1024,
        k: 8,
        n: 12,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 4,
        ..LrSelugeParams::default()
    }
}

fn job(scheme: SchemeKind, deadline_s: u64, seed: u64) -> Job {
    Job {
        scheme,
        layout: Layout::Star { receivers: 4 },
        medium: MediumConfig {
            app_loss: 0.2,
            ..MediumConfig::default()
        },
        deadline: Duration::from_secs(deadline_s),
        seed,
    }
}

#[test]
fn honest_job_past_its_deadline_counts_as_failed() {
    let jobs = [
        job(SchemeKind::Lr, 1, 3),
        job(SchemeKind::Lr, 100_000, 3),
        job(SchemeKind::Seluge, 1, 4),
    ];
    let setup = Setup::build(tiny(), &jobs).unwrap();
    let mut out = Outcome::default();
    for (i, j) in jobs.iter().enumerate() {
        let (result, _) = run_plain(&setup, i, j);
        out.record_job(&result);
    }
    assert_eq!(out.attempted, 3);
    assert_eq!(out.failed, 2);
    assert!(
        out.problems.iter().all(|p| p.contains("did not complete")),
        "{:?}",
        out.problems
    );
}

#[test]
fn decorated_runs_equal_untraced_runs_and_the_paper_runner() {
    for scheme in [SchemeKind::Lr, SchemeKind::Seluge] {
        let jobs: Vec<Job> = (1..=3).map(|seed| job(scheme, 100_000, seed)).collect();
        let setup = Setup::build(tiny(), &jobs).unwrap();
        let traced_setup = Setup::build(tiny(), &jobs).unwrap();
        let probe = Rc::new(Probe::default());
        for (i, j) in jobs.iter().enumerate() {
            let (plain, _) = run_plain(&setup, i, j);
            let (traced, counters, state) = run_traced(&traced_setup, i, j, &probe, true);
            assert!(plain.failure.is_none() && traced.failure.is_none());
            let reference = match scheme {
                SchemeKind::Lr => run_lr(&j.run_spec(), tiny(), j.seed),
                SchemeKind::Seluge => {
                    run_seluge(&j.run_spec(), matched_seluge_params(&tiny()), j.seed)
                }
            };
            for ((name, a), ((_, b), (_, c))) in plain
                .metrics
                .named()
                .into_iter()
                .zip(traced.metrics.named().into_iter().zip(reference.named()))
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{scheme:?} job {i} {name}: untraced vs traced"
                );
                assert_eq!(
                    a.to_bits(),
                    c.to_bits(),
                    "{scheme:?} job {i} {name}: untraced vs runner"
                );
            }
            let calls = state.borrow_mut().calls.take().unwrap();
            let replay = medium::replay(&calls, j.medium, &j.run_spec().topology, j.seed).unwrap();
            assert_eq!(replay.calls as usize, calls.len());
            assert!(counters.run_s > 0.0);
        }
        let side = match scheme {
            SchemeKind::Lr => &probe.core,
            SchemeKind::Seluge => &probe.seluge,
        };
        assert!(side.handle_calls.get() > 0 && side.accepted.get() > 0);
        assert!(probe.callback_ns.get() > side.handle_ns.get());
    }
}

#[test]
fn medium_replay_rejects_a_tampered_trace() {
    let j = job(SchemeKind::Lr, 100_000, 9);
    let setup = Setup::build(tiny(), std::slice::from_ref(&j)).unwrap();
    let probe = Rc::new(Probe::default());
    let (_, _, state) = run_traced(&setup, 0, &j, &probe, true);
    let mut calls = state.borrow_mut().calls.take().unwrap();
    let flipped = calls.iter_mut().find_map(|c| match c {
        lrsbench::layers::MediumCall::Deliver { outcome, .. } => {
            *outcome = match *outcome {
                lrsbench::layers::Decided::Received => {
                    lrsbench::layers::Decided::Lost(lrs_netsim::trace::LossCause::AppDrop)
                }
                _ => lrsbench::layers::Decided::Received,
            };
            Some(())
        }
        _ => None,
    });
    assert!(flipped.is_some());
    assert!(medium::replay(&calls, j.medium, &j.run_spec().topology, j.seed).is_err());
}
