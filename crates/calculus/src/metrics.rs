//! Process-wide telemetry counters of the calculus layer.
//!
//! The one cached path, [`SubsumptionChecker::probe`](crate::SubsumptionChecker::probe),
//! bumps these counters at the same sites that maintain the per-cache
//! `stats()` fields of the [`SubsumptionCache`](crate::SubsumptionCache) it
//! is handed — private reader caches and the writer's alike, a shared-memo
//! hit counted as a hit — so the registry exposes one aggregate view of
//! all cached subsumption work in the process without double-counting:
//! completion work (rule applications, constraints examined) is
//! accumulated only on *misses*, where the completion actually ran. The
//! uncached checks count nothing here.

use std::sync::OnceLock;
use subq_telemetry::Counter;

/// Handles to the calculus counters in the global registry.
pub struct CalcMetrics {
    /// Probes answered from a cache or the shared memo.
    pub cache_hits: Counter,
    /// Probes that ran a goal-side completion.
    pub cache_misses: Counter,
    /// Fact closures saturated (misses whose closure was not retained).
    pub fact_saturations: Counter,
    /// Goal-side probes run (one per miss).
    pub probes: Counter,
    /// Saturated fact closures evicted by the LRU cap.
    pub saturation_evictions: Counter,
    /// Completion rule applications, summed over all fresh probes.
    pub rule_applications: Counter,
    /// Rule candidates examined, summed over all fresh probes.
    pub constraints_examined: Counter,
}

/// The calculus counters, registered on first use.
pub fn metrics() -> &'static CalcMetrics {
    static METRICS: OnceLock<CalcMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CalcMetrics {
        cache_hits: subq_telemetry::counter("subq_subsumption_cache_hits_total"),
        cache_misses: subq_telemetry::counter("subq_subsumption_cache_misses_total"),
        fact_saturations: subq_telemetry::counter("subq_subsumption_fact_saturations_total"),
        probes: subq_telemetry::counter("subq_subsumption_probes_total"),
        saturation_evictions: subq_telemetry::counter(
            "subq_subsumption_saturation_evictions_total",
        ),
        rule_applications: subq_telemetry::counter("subq_completion_rule_applications_total"),
        constraints_examined: subq_telemetry::counter("subq_completion_constraints_examined_total"),
    })
}
