//! The metric names, units and bounds. `BENCHMARK.json` lists exactly
//! these (a test holds the two together); later issues cite the names.

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// What a client of the served store sees, the same six on every
/// workload. The time bounds are the contract's widest: the two-core box
/// this was written on shifts between speed regimes 15–25 % apart that
/// last minutes, and a bound has to stay above the spread (quartile
/// distance over median, ten seeds) such a shift causes. The README has
/// the tables.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "server_cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "server_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// One metric per layer boundary, named `<crate>.<module>.<what>`.
/// Sources: the in-process replay (r), `STATS` deltas across the paced
/// phase (s), the generator's own clocks (g).
pub const PER_LAYER: [PerLayer; 56] = [
    lower("dl.parse_query_us", "us"),                          // r
    lower("translate.query_us", "us"),                         // r
    lower("calculus.subsumes_fresh_us", "us"),                 // r
    lower("calculus.fact_saturations_per_query", "count"),     // r
    lower("calculus.probes_per_query", "count"),               // r
    higher("calculus.cache_hit_ratio", "ratio"),               // r
    lower("calculus.constraints_examined_per_query", "count"), // r
    lower("calculus.saturation_evictions_per_query", "count"), // r
    lower("oodb.plan_us", "us"),                               // r
    higher("oodb.views.probes_pruned_per_query", "count"),     // r
    higher("oodb.views.hit_ratio", "ratio"),                   // r
    lower("oodb.execute_us", "us"),                            // r
    lower("oodb.eval.candidates_per_answer", "count"),         // r
    lower("oodb.eval.answers_per_query", "count"),             // r
    lower("oodb.commit_us", "us"),                             // r
    lower("oodb.maintain.memberships_per_txn", "count"),       // r
    lower("oodb.maintain.candidates_per_txn", "count"),        // r
    higher("oodb.maintain.lattice_prunes_per_txn", "count"),   // r
    lower("oodb.maintain.full_reevaluations", "count"),        // r
    lower("oodb.stats.entries_touched_per_txn", "count"),      // r
    lower("oodb.durable.fsync_us", "us"),                      // s
    lower("oodb.durable.fsyncs_per_txn", "count"),             // s
    lower("oodb.durable.wal_bytes_per_txn", "bytes"),          // r
    lower("oodb.durable.checkpoint_ms", "ms"),                 // s
    lower("oodb.durable.image_bytes_per_object", "bytes"),     // r
    lower("oodb.durable.recover_ms", "ms"),                    // s
    lower("oodb.durable.recovered_records", "count"),          // r
    lower("oodb.snapshot.publish_us", "us"),                   // s
    lower("oodb.snapshot.reader_sync_us", "us"),               // r
    lower("server.frame.decode_us", "us"),                     // r
    lower("server.frame.encode_us", "us"),                     // r
    lower("server.proto.parse_request_us", "us"),              // r
    lower("server.proto.render_response_us", "us"),            // r
    lower("server.bytes_in_per_op", "bytes"),                  // s
    lower("server.bytes_out_per_op", "bytes"),                 // s
    lower("server.query_service_us", "us"),                    // s
    lower("server.commit_service_us", "us"),                   // s
    lower("server.residual_us", "us"),                         // g − s
    lower("server.unattributed_us", "us"),                     // s − r
    lower("server.busy_per_op", "count"),                      // s
    higher("server.writer.batch_records_p50", "count"),        // s
    lower("load.query_p50_us", "us"),                          // g
    lower("load.query_p99_us", "us"),                          // g
    lower("load.txn_p50_us", "us"),                            // g
    lower("load.txn_p99_us", "us"),                            // g
    lower("load.op_p99_us", "us"),                             // g
    lower("load.late_p99_us", "us"),                           // g
    lower("load.parse_response_us", "us"),                     // g
    lower("load.generator_cpu_share", "ratio"),                // g
    lower("load.setup.spawn_ms", "ms"),                        // g
    lower("load.setup.materialize_ms", "ms"),                  // g
    lower("load.setup.bulk_load_ms", "ms"),                    // g
    lower("load.setup.restart_ms", "ms"),                      // g
    lower("replay.layer_sum_us", "us"),                        // r
    higher("trace.capacity_ops_per_s", "1/s"),                 // g
    higher("trace.overhead_ratio", "ratio"),                   // g
];

/// Named measured values in a fixed order.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `BENCHMARK.json` is hand-written; this keeps it honest.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for m in &END_TO_END {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name, m.unit, m.better, m.bound
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}"}}"#,
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for spec in &crate::workload::SPECS {
            let entry = format!(r#"{{"name": "{}", "why": "{}"}}"#, spec.name, spec.why);
            assert!(text.contains(&entry), "missing {entry}");
        }
        assert_eq!(
            text.matches("\"why\"").count(),
            crate::workload::SPECS.len()
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
