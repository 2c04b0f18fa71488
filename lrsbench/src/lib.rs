//! The repository benchmark: end-to-end host-time and paper-metric
//! guards, plus a per-layer split measured from outside the program.
//! See `README.md` next to this crate.

pub mod campaign;
pub mod jobs;
pub mod layers;
pub mod measure;
pub mod medium;
pub mod speed;
pub mod workload;
