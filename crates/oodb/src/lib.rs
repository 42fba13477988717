//! An in-memory deductive object base with query classes, materialized
//! views, and a subsumption-driven query optimizer.
//!
//! This crate is the substrate the paper's optimization scenario needs
//! (Sections 1, 2 and 6): a ConceptBase-like store in which
//!
//! * objects are grouped into classes with isA inheritance and typed,
//!   set-valued attributes ([`store`]),
//! * database states can be checked for conformance with the DL schema
//!   ([`store::ConformanceViolation`]),
//! * query classes are evaluated deductively — their membership conditions
//!   are necessary *and* sufficient ([`eval`]),
//! * views (structural query classes) can be materialized and kept fresh
//!   ([`views`]), and refreshed **incrementally** under updates through a
//!   delta log, a dependency index, and lattice-aware propagation
//!   ([`maintain`]), and
//! * an optimizer uses the polynomial subsumption checker to answer a
//!   query by filtering the extension of a subsuming materialized view
//!   instead of scanning the database — one planner and executor
//!   ([`planner`]) that the writer ([`optimizer`]) runs over its live
//!   state and every lock-free reader ([`snapshot`]) over the published
//!   snapshot it pins, and
//! * the whole state can be made durable — write-ahead logged, checkpointed,
//!   and crash-recovered through a fault-injectable I/O layer ([`durable`]).
//!
//! The paper defers the empirical validation of the optimization to
//! "practical experiments"; experiments E8–E10 of this reproduction run
//! them on synthetic states generated by `subq-workload`.

#![forbid(unsafe_code)]

pub mod advisor;
pub mod durable;
pub mod eval;
pub mod maintain;
pub mod metrics;
pub mod objset;
pub mod optimizer;
pub mod planner;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod views;

pub use advisor::{
    normalize_shape, shape_key, Advisor, AdvisorConfig, AdvisorMode, AdvisorPass, ShapeEvent,
    AUTO_VIEW_PREFIX,
};
pub use durable::{
    DiscardBackend, DurabilityStats, DurableError, DurableOptions, FaultyBackend, FileBackend,
    StorageBackend,
};
pub use eval::{evaluate_query, evaluate_query_over};
pub use maintain::{Delta, DeltaLog, MaintenanceStats};
pub use objset::ObjSet;
pub use optimizer::OptimizedDatabase;
pub use planner::{ExecutionStats, ExplainReport, FrontierEstimate, QueryPlan};
pub use snapshot::{Reader, Snapshot, SnapshotCell};
pub use stats::CostModel;
pub use store::{AttrCardinality, ConformanceViolation, Database, ObjId};
pub use views::{MaterializedView, ViewCatalog};
