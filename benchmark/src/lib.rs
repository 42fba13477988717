//! The repository benchmark: four served workloads, six end-to-end
//! metrics, per-layer attribution timed from outside `subqd`.
//!
//! See `README.md` beside this crate for the names, the run shape and
//! what each layer metric is expected to move.

pub mod json;
pub mod load;
pub mod metrics;
pub mod oracle;
pub mod proc;
pub mod replay;
pub mod run;
pub mod stats;
pub mod workload;
