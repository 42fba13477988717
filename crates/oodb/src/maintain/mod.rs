//! Incremental view maintenance: delta-driven, lattice-aware refresh of
//! materialized extensions.
//!
//! The paper's optimizer answers queries from materialized views; this
//! module keeps that investment alive under updates. Instead of marking
//! every view stale and re-evaluating each extension from scratch on
//! every write, the store records each effective mutation in a change log
//! ([`delta`]), a dependency index maps every class and attribute symbol
//! to the views whose definitions mention it ([`depindex`]), and the
//! propagator replays only the unseen suffix of the log against only the
//! affected views, re-checking only candidate objects and exploiting the
//! catalog's subsumption lattice top-down to skip evaluations a parent
//! view already decided ([`propagate`]).
//!
//! Staleness is per view and versioned: a [`MaterializedView`] is current
//! as of its `fresh_as_of` data version, and a refresh pass replays
//! exactly the deltas in `(fresh_as_of, data_version]`. Full
//! re-evaluation survives as
//! [`ViewCatalog::refresh_full`](crate::views::ViewCatalog::refresh_full),
//! the oracle the incremental path is verified against
//! (`tests/incremental_equivalence.rs`).
//!
//! [`MaterializedView`]: crate::views::MaterializedView

pub mod delta;
pub mod depindex;
pub mod propagate;

pub use delta::{Delta, DeltaLog};
pub use depindex::{DependencyIndex, ViewDeps};
pub use propagate::{refresh_views, routes_nothing, MaintenanceStats};
