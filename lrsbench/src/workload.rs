//! The benchmark's workloads and their seed-derived job lists.

use crate::jobs::{Job, Layout, SchemeKind};
use lr_seluge::LrSelugeParams;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::noise::{BurstyNoise, NoiseModel};
use lrs_netsim::time::Duration;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4: one-hop star of 20 receivers, 20 KB image, app-layer loss
    /// cycling 0.1/0.3/0.5, LR-Seluge and Seluge alternating.
    OnehopLossy,
    /// Tables II/III (`--quick`): 15×15 tight and medium grids under
    /// heavy bursty noise, 4 KB image, both schemes.
    GridDense,
    /// A `Campaign::run` crossing schemes, small stars and grids, loss
    /// rates, crash faults and attackers.
    CampaignAdversarial,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::OnehopLossy,
        Workload::GridDense,
        Workload::CampaignAdversarial,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnehopLossy => "onehop-lossy",
            Workload::GridDense => "grid-dense",
            Workload::CampaignAdversarial => "campaign-adversarial",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// LR-Seluge parameters of the honest workloads (Seluge's are matched).
    pub fn lr_params(self) -> LrSelugeParams {
        match self {
            Workload::GridDense => LrSelugeParams {
                image_len: 4 * 1024,
                ..LrSelugeParams::default()
            },
            _ => LrSelugeParams::default(),
        }
    }

    /// The fixed job list of an honest workload for benchmark seed `seed`
    /// (empty for the campaign workload, whose jobs its spec names).
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let mut jobs = Vec::new();
        match self {
            Workload::OnehopLossy => {
                for _ in 0..ONEHOP_REPS {
                    for p in [0.1, 0.3, 0.5] {
                        for scheme in [SchemeKind::Lr, SchemeKind::Seluge] {
                            jobs.push(Job {
                                scheme,
                                layout: Layout::Star { receivers: 20 },
                                medium: MediumConfig {
                                    app_loss: p,
                                    ..MediumConfig::default()
                                },
                                deadline: Duration::from_secs(100_000),
                                seed: job_seed(seed, jobs.len() as u64),
                            });
                        }
                    }
                }
            }
            Workload::GridDense => {
                for spacing in [8.0, 15.0] {
                    for scheme in [SchemeKind::Lr, SchemeKind::Seluge] {
                        jobs.push(Job {
                            scheme,
                            layout: Layout::Grid { side: 15, spacing },
                            medium: MediumConfig {
                                app_loss: 0.0,
                                noise: NoiseModel::Bursty(BurstyNoise::heavy()),
                                ..MediumConfig::default()
                            },
                            deadline: Duration::from_secs(400_000),
                            seed: job_seed(seed, jobs.len() as u64),
                        });
                    }
                }
            }
            Workload::CampaignAdversarial => {}
        }
        jobs
    }
}

/// Repetitions of the 6-job (loss × scheme) one-hop cycle.
const ONEHOP_REPS: u64 = 48;

/// Simulator seed of job `index` under benchmark seed `seed`
/// (SplitMix64 finaliser: distinct, well-mixed, reproducible).
fn job_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 1
}
