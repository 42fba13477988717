//! The experiment registry: deterministic counters and ratio gates the
//! served benchmark (`benchmark/`) cannot see.
//!
//! The paper's claims are growth claims, so each experiment states them as
//! counters (constraints examined, probes, candidates, memberships) with
//! wall-clock beside them for orientation, and commits its rows as a
//! `BENCH_*.json` file in the repository root. [`EXPERIMENTS`] lists them;
//! each lives in its own module and declares, once, everything the two
//! verbs of the binary need (see [`Experiment`]):
//!
//! * `subq-bench table [ids… | all]` runs each selected experiment's
//!   `table`, prints the rows as markdown and writes them to its file;
//! * `subq-bench check [ids… | all]` loads each committed file and holds
//!   its `gate` against it, then measures again and holds the same `gate`
//!   against the fresh rows. An experiment without a `live` function is
//!   cheap enough to re-run in full: its fresh table must also equal the
//!   committed one **exactly** in every column it declares as a counter,
//!   so an improvement nobody committed fails like a regression does.
//!
//! A [`Row`] is table line, JSON record and gate input at once, so a
//! column is named where it is measured and where a gate reads it, and
//! nowhere else. Each experiment's arms, parameters and bounds are
//! documented on its module. Wall-clock bounds follow one scheme: hard on
//! the committed rows, scaled to the cores they record
//! (`core_scaled_bound`); live only an anti-collapse floor is hard and the
//! target is a warning, because a shared runner is noisy (`floor`).
//!
//! `benches/` holds the Criterion harness for E1–E8 wall-clock; it shares
//! nothing with the registry.

use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use subq::calculus::reference::ReferenceCompletion;
use subq::calculus::{CompletionStats, SubsumptionChecker};
use subq::concepts::normalize::normalize_concept;
use subq::workload::ScalingInstance;

mod e10;
mod e11;
mod e12;
mod e13;
mod e14;
mod e15;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;
mod row;

pub use row::{Row, Value};

/// Where the rows a gate sees come from: the committed file, or a
/// measurement `check` just took.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    Committed,
    Live,
}

/// One experiment, declared once in its module.
pub struct Experiment {
    /// What the command line calls it (`e9`).
    pub id: &'static str,
    /// The heading `table` prints.
    pub title: &'static str,
    /// The committed file, relative to the repository root.
    pub file: &'static str,
    /// How many rows `table` yields, so a truncated file fails `check`.
    pub rows: usize,
    /// The full-size measurement: the only place the experiment's seed and
    /// parameters are fixed and its columns named.
    pub table: fn() -> Vec<Row>,
    /// The reduced re-measurement `check` gates, for experiments whose
    /// table takes seconds. `None`: `check` re-runs `table` and compares
    /// `counters` exactly.
    pub live: Option<fn() -> Vec<Row>>,
    /// The deterministic columns of `table`.
    pub counters: &'static [&'static str],
    /// Every bound of the experiment, one predicate each, applied to rows
    /// from either source.
    pub gate: Gate,
}

/// Pushes one line per bound the rows break; `Err` is a row that lacks a
/// column the gate reads.
pub type Gate = fn(&[Row], Source, &mut Vec<String>) -> Result<(), String>;

/// Every experiment, in the order `check` and `table all` run them.
pub const EXPERIMENTS: &[Experiment] = &[
    e5::EXPERIMENT,
    e6::EXPERIMENT,
    e7::EXPERIMENT,
    e8::EXPERIMENT,
    e9::EXPERIMENT,
    e10::EXPERIMENT,
    e11::EXPERIMENT,
    e12::EXPERIMENT,
    e13::EXPERIMENT,
    e14::EXPERIMENT,
    e15::EXPERIMENT,
];

/// What `check` holds against `rows`: the experiment's gate and, for a
/// committed file, its row count.
pub(crate) fn verdict(experiment: &Experiment, rows: &[Row], source: Source) -> Vec<String> {
    let mut failures = Vec::new();
    if source == Source::Committed && rows.len() != experiment.rows {
        let (file, held, written) = (experiment.file, rows.len(), experiment.rows);
        failures.push(format!(
            "{file} holds {held} rows, the table writes {written}"
        ));
    }
    if let Err(error) = (experiment.gate)(rows, source, &mut failures) {
        failures.push(error);
    }
    let prefix = format!("{} {source:?}", experiment.id).to_lowercase();
    failures.iter().map(|f| format!("{prefix}: {f}")).collect()
}

/// The exact comparison: every declared counter column of every fresh row
/// against the committed row at the same position.
pub(crate) fn drift(experiment: &Experiment, committed: &[Row], fresh: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    if committed.len() != fresh.len() {
        let (held, measured) = (committed.len(), fresh.len());
        failures.push(format!("{held} committed rows, {measured} measured"));
    }
    for (old, new) in committed.iter().zip(fresh) {
        for key in experiment.counters {
            let (was, now) = (old.get(key), new.get(key));
            if was != now {
                let show = |v: Option<&Value>| v.map_or("absent".to_string(), Value::to_string);
                let (origin, was, now) = (&old.origin, show(was), show(now));
                failures.push(format!("{origin}: `{key}` is {was}, measured {now}"));
            }
        }
    }
    let id = experiment.id;
    let drifted = failures
        .iter()
        .map(|f| format!("{id} drift: {f} (regenerate with `table {id}` and commit if intended)"));
    drifted.collect()
}

/// The `check` verb: both gates and the exact comparison for each selected
/// experiment, reading the committed files under `root`. Returns the
/// failures; an empty list is a pass.
pub fn check(selected: &[&Experiment], root: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for experiment in selected {
        let before = failures.len();
        match Row::load(root, experiment.file) {
            Err(error) => failures.push(error),
            Ok(committed) => {
                failures.extend(verdict(experiment, &committed, Source::Committed));
                let live = match experiment.live {
                    Some(live) => live(),
                    None => {
                        let fresh = (experiment.table)();
                        failures.extend(drift(experiment, &committed, &fresh));
                        fresh
                    }
                };
                failures.extend(verdict(experiment, &live, Source::Live));
            }
        }
        let outcome = match failures.len() - before {
            0 => "ok".to_string(),
            n => format!("{n} FAILED"),
        };
        println!("{:>4}  {outcome:<9}  {}", experiment.id, experiment.title);
    }
    failures
}

/// The `table` verb: measures each selected experiment, prints its rows as
/// markdown (a new header wherever the columns change) and writes them to
/// its file under `root`.
pub fn table(selected: &[&Experiment], root: &Path) -> std::io::Result<()> {
    for experiment in selected {
        println!("\n{} — {}", experiment.id.to_uppercase(), experiment.title);
        let rows = (experiment.table)();
        let mut header = String::new();
        for row in &rows {
            let columns = row.markdown_header();
            if columns != header {
                println!("\n{columns}");
                header = columns;
            }
            println!("{}", row.markdown());
        }
        std::fs::write(root.join(experiment.file), Row::render_file(&rows))?;
        eprintln!("wrote {}", experiment.file);
    }
    Ok(())
}

/// The machine's core count, recorded by every table whose wall-clock
/// columns depend on it; asked once per process.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    #[allow(clippy::disallowed_methods)]
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The speedup `cores` cores must show on a parallel arm: the full 4×
/// from 9 cores up, never below 0.7× (a collapse under a single thread).
/// Committed rows are held to 0.45 per core; a live run is only *warned*
/// below 0.35 per core.
pub(crate) fn core_scaled_bound(source: Source, cores: u64) -> f64 {
    let per_core = match source {
        Source::Committed => 0.45,
        Source::Live => 0.35,
    };
    (per_core * cores as f64).clamp(0.7, 4.0)
}

/// `value` below `hard` fails; from there up to `target` it only warns.
pub(crate) fn floor(what: &str, value: f64, hard: f64, target: f64, failures: &mut Vec<String>) {
    if value < hard {
        failures.push(format!("{what} {value:.2}× is below the {hard:.2}× floor"));
    } else if value < target {
        eprintln!("warning: {what} {value:.2}× is below the {target:.2}× target (non-fatal: wall-clock on a shared runner)");
    }
}

/// `value` above `hard` fails; from `target` up to there it only warns.
pub(crate) fn ceiling(what: &str, value: f64, hard: f64, target: f64, failures: &mut Vec<String>) {
    if value > hard {
        failures.push(format!(
            "{what} {value:.3}× is above the {hard:.2}× ceiling"
        ));
    } else if value > target {
        eprintln!("warning: {what} {value:.3}× is above the {target:.2}× target (non-fatal: wall-clock on a shared runner)");
    }
}

/// The best `speedup_vs_1` among the rows of a parallel experiment's
/// widest arm (those `widest` picks), with the cores that row records.
pub(crate) fn best_speedup(
    rows: &[Row],
    widest: impl Fn(&Row) -> bool,
) -> Result<(f64, u64), String> {
    let mut best = None;
    for row in rows.iter().filter(|row| widest(row)) {
        let candidate = (row.f64("speedup_vs_1")?, row.u64("cores")?);
        if best.is_none_or(|(speedup, _)| candidate.0 > speedup) {
            best = Some(candidate);
        }
    }
    best.ok_or_else(|| "no row of the widest parallel arm".to_string())
}

/// The parallel-speedup bound E11, E12 and E14 share, on [`best_speedup`]:
/// committed, [`core_scaled_bound`] is hard; live, only the 0.5×
/// anti-collapse floor is (nothing but a serialized path falls below half
/// a single thread) and the bound is a warning.
pub(crate) fn scaling_gate(
    what: &str,
    (speedup, cores): (f64, u64),
    source: Source,
    failures: &mut Vec<String>,
) {
    let bound = core_scaled_bound(source, cores);
    let hard = match source {
        Source::Committed => bound,
        Source::Live => 0.5,
    };
    let what = format!("{what} on {cores} cores:");
    floor(&what, speedup, hard, bound, failures);
}

/// Up to three attempts at a live wall-clock measurement. Every attempt's
/// rows are kept (each is gated); the first attempt after which `good`
/// holds is the last.
pub(crate) fn attempts(
    mut attempt: impl FnMut() -> Vec<Row>,
    good: impl Fn(&[Row]) -> bool,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for _ in 0..3 {
        rows.extend(attempt());
        if good(&rows) {
            break;
        }
    }
    rows
}

/// The cost of switching something on, as the best `on / off` ratio of up
/// to three rounds. A round interleaves `pairs` measurements of each side
/// (`cost(true)`, `cost(false)`; so scheduler noise hits both alike) and
/// keeps each side's fastest; the first round at or under `good` is the
/// last.
pub(crate) fn overhead_ratio(pairs: usize, good: f64, mut cost: impl FnMut(bool) -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (mut on, mut off) = (f64::MAX, f64::MAX);
        for _ in 0..pairs {
            on = on.min(cost(true));
            off = off.min(cost(false));
        }
        best = best.min(on / off.max(1.0));
        if best <= good {
            break;
        }
    }
    best
}

/// Runs a scaling instance through the checker (delta engine) and returns
/// whether it was subsumed together with the completion statistics.
pub fn run_instance(instance: &mut ScalingInstance) -> (bool, CompletionStats) {
    let checker = SubsumptionChecker::new(&instance.schema);
    let outcome = checker.check(&mut instance.arena, instance.query, instance.view);
    (outcome.subsumed(), outcome.stats)
}

/// Runs a scaling instance through the retained full-scan reference
/// engine, for the naive-versus-incremental counter and timing columns.
pub fn run_reference_instance(instance: &mut ScalingInstance) -> (bool, CompletionStats) {
    let query = normalize_concept(&mut instance.arena, instance.query);
    let view = normalize_concept(&mut instance.arena, instance.view);
    let mut completion =
        ReferenceCompletion::new(&mut instance.arena, &instance.schema, query, view, false);
    let stats = completion.run();
    let derived = completion.view_fact_derived() || completion.find_clash().is_some();
    (derived, stats)
}

/// Times `work` on fresh instances from `make` until ~50 ms of measurement
/// (at least 3 runs) and returns the best per-run time.
pub fn time_best<T>(mut make: impl FnMut() -> T, mut work: impl FnMut(T)) -> Duration {
    let mut best = Duration::MAX;
    let mut spent = Duration::ZERO;
    let mut runs = 0u32;
    while runs < 3 || (spent < Duration::from_millis(50) && runs < 1000) {
        let input = make();
        let start = Instant::now();
        work(input);
        let elapsed = start.elapsed();
        best = best.min(elapsed);
        spent += elapsed;
        runs += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::PathBuf;
    use subq::workload::scaling::path_depth_instance;

    #[test]
    fn run_instance_reports_subsumption_and_stats() {
        let mut instance = path_depth_instance(3);
        let (subsumed, stats) = run_instance(&mut instance);
        assert!(subsumed);
        assert!(stats.rule_applications > 0);
    }

    #[test]
    fn reference_instance_agrees_with_delta() {
        let mut delta = path_depth_instance(4);
        let mut naive = path_depth_instance(4);
        let (a, delta_stats) = run_instance(&mut delta);
        let (b, ref_stats) = run_reference_instance(&mut naive);
        assert_eq!(a, b);
        assert_eq!(delta_stats.outcome_only(), ref_stats.outcome_only());
        assert!(ref_stats.constraints_examined >= delta_stats.constraints_examined);
    }

    fn sample() -> Row {
        Row::new("e5")
            .text("family", "path_depth")
            .int("n", 4usize)
            .float("speedup", 2.8016, 3)
    }

    #[test]
    fn row_formats_markdown() {
        assert_eq!(
            sample().markdown_header(),
            "| experiment | family | n | speedup |\n|---|---|---|---|"
        );
        assert_eq!(sample().markdown(), "| e5 | path_depth | 4 | 2.802 |");
    }

    #[test]
    fn json_rows_are_well_formed() {
        let json =
            "{\"experiment\": \"e5\", \"family\": \"path_depth\", \"n\": 4, \"speedup\": 2.802}";
        assert_eq!(sample().json(), json);
        let file = Row::render_file(&[sample(), sample()]);
        assert_eq!(file, format!("[\n  {json},\n  {json}\n]\n"));
    }

    #[test]
    fn row_round_trips_through_its_json() {
        // A string holding every character the format gives a meaning to.
        let row = sample()
            .text("note", r#"a, b} {"c": \d\\"#)
            .float("half", 0.5, 2);
        let parsed = Row::parse("BENCH_e5.json row 1", &row.json()).expect("parses");
        assert_eq!(parsed.str("note"), row.str("note"));
        assert_eq!(parsed.u64("n"), Ok(4));
        assert_eq!(parsed.json(), row.json());
        let exact = Row::new("e5")
            .text("note", "x,y")
            .int("n", 7u64)
            .float("half", 0.5, 2);
        let file = Row::render_file(&[exact.clone(), exact.clone()]);
        let rows = Row::parse_file("BENCH_e5.json", &file).expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].cells, exact.cells);
        assert_eq!(rows[1].origin, "BENCH_e5.json row 2");
    }

    #[test]
    fn a_missing_or_mistyped_key_names_file_row_and_key() {
        let rows = Row::parse_file("BENCH_e5.json", &Row::render_file(&[sample(), sample()]));
        let row = &rows.expect("parses")[1];
        for (key, found) in [("errors", "nothing"), ("family", "\"path_depth\"")] {
            let error = row.u64(key).expect_err("not an integer");
            let expected =
                format!("BENCH_e5.json row 2: key `{key}` must hold an integer, found {found}");
            assert_eq!(error, expected);
        }
        assert!(row.str("n").is_err() && row.f64("family").is_err());
        let error = Row::parse_file("BENCH_e5.json", "[\n  {\"n\": 4},\n  {\"n\": 4x}\n]\n");
        let error = error.expect_err("4x is not a number");
        assert!(error.starts_with("BENCH_e5.json row 2: key `n`"), "{error}");
    }

    fn repository_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn registry_ids_are_unique_and_claim_exactly_the_committed_files() {
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
        let claimed: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.file.to_string()).collect();
        assert_eq!(
            claimed.len(),
            EXPERIMENTS.len(),
            "two experiments share a file"
        );
        let committed: BTreeSet<String> = std::fs::read_dir(repository_root())
            .expect("the repository root lists")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name.starts_with("BENCH_e") && name.ends_with(".json"))
            .collect();
        assert_eq!(claimed, committed);
    }

    /// What `check` holds against a committed file before it measures
    /// anything: the committed-side gate and, for an experiment it re-runs
    /// in full, the exact comparison — here against the untampered file,
    /// which stands in for the fresh table.
    fn committed_failures(experiment: &Experiment, rows: &[Row], fresh: &[Row]) -> Vec<String> {
        let mut failures = verdict(experiment, rows, Source::Committed);
        if experiment.live.is_none() {
            failures.extend(drift(experiment, rows, fresh));
        }
        failures
    }

    /// One mutation of one committed row per committed-side bound:
    /// `(experiment, row index, key, value, what the failure says)`.
    fn tampers() -> Vec<(&'static str, usize, &'static str, Value, &'static str)> {
        use Value::{Float, Int};
        let renamed = || Value::Str("renamed".to_string());
        vec![
            ("e12", 3, "arm", renamed(), "must hold a known arm"),
            ("e13", 3, "arm", renamed(), "must hold a known arm"),
            ("e14", 4, "arm", renamed(), "must hold a known arm"),
            ("e15", 1, "arm", renamed(), "must hold a known arm"),
            ("e5", 0, "individuals", Int(36), "M·N bound 35"),
            ("e5", 7, "examined_delta", Int(171), "drift"),
            (
                "e6",
                3,
                "core_individuals",
                Int(9),
                "core did not grow by one",
            ),
            (
                "e6",
                5,
                "qualified_filler_demand",
                Int(64),
                "did not double",
            ),
            ("e6", 9, "core_examined", Int(131), "drift"),
            ("e7", 0, "agreement", Int(299), "agreement 299 of 300"),
            ("e7", 1, "detected", Int(299), "detected 299 of 300"),
            ("e7", 1, "positives_cq", Int(32), "drift"),
            (
                "e8",
                0,
                "candidates_optimized",
                Int(64),
                "more than the view",
            ),
            ("e8", 1, "candidates_optimized", Int(189), "drift"),
            ("e8", 6, "fact_saturations", Int(2), "exactly once"),
            ("e8", 9, "fact_saturations", Int(0), "exactly once"),
            ("e8", 6, "cache_misses", Int(75), "drift"),
            ("e9", 1, "lattice_probes", Int(201), "exceed 50%"),
            ("e9", 7, "lattice_probes", Int(201), "exceed 50%"),
            ("e9", 11, "classify_probes", Int(1), "drift"),
            ("e10", 5, "inc_memberships", Int(4863), "below the 10×"),
            ("e10", 0, "inc_candidates", Int(5), "drift"),
            (
                "e11",
                0,
                "fresh_probes_after_warmup",
                Int(1),
                "1 fresh probes",
            ),
            (
                "e11",
                3,
                "speedup_vs_1",
                Float(0.1, 3),
                "below the 0.90× floor",
            ),
            ("e11", 8, "commit_ns", Int(1_000_000_000), "more than 1.5×"),
            ("e12", 0, "speedup", Float(4.9, 2), "below the 5.00× floor"),
            ("e12", 5, "answers", Int(1), "sharding changed the result"),
            (
                "e12",
                6,
                "speedup_vs_1",
                Float(0.1, 2),
                "below the 0.90× floor",
            ),
            (
                "e12",
                7,
                "worst_ratio",
                Float(1.2, 3),
                "above the 1.10× ceiling",
            ),
            (
                "e12",
                10,
                "worse_than_smallest",
                Int(1),
                "worse than smallest",
            ),
            (
                "e12",
                11,
                "p99_ns",
                Int(1_000_000_000),
                "exceeds the 2000000 ns",
            ),
            ("e13", 2, "per_txn_ns", Int(1_000_000_000), "WAL write"),
            ("e13", 6, "log_entries", Int(1024), "not the 64k"),
            (
                "e13",
                7,
                "recovery_ns",
                Int(1_000_000_000_000),
                "recovery vs",
            ),
            (
                "e13",
                10,
                "bytes_per_object",
                Float(201.0, 2),
                "ceiling 200",
            ),
            ("e14", 5, "errors", Int(1), "1 typed ERR"),
            (
                "e14",
                2,
                "speedup_vs_1",
                Float(0.1, 2),
                "below the 0.90× floor",
            ),
            ("e14", 8, "busy", Int(0), "zero BUSY"),
            ("e15", 1, "errors", Int(1), "1 typed ERR"),
            ("e15", 2, "manual_ddl", Int(1), "1 manual DDL"),
            ("e15", 2, "auto_materialized", Int(0), "never fired"),
            (
                "e15",
                2,
                "query_p50_ns",
                Int(1_000_000_000),
                "above the 2.00× ceiling",
            ),
        ]
    }

    #[test]
    fn every_committed_bound_trips_on_a_tampered_row() {
        let tampers = tampers();
        for experiment in EXPERIMENTS {
            let rows = Row::load(&repository_root(), experiment.file).expect("loads");
            let clean = committed_failures(experiment, &rows, &rows);
            assert!(
                clean.is_empty(),
                "untampered {}: {clean:?}",
                experiment.file
            );

            let truncated = &rows[..rows.len() - 1];
            let failures = committed_failures(experiment, truncated, &rows);
            assert!(
                !failures.is_empty(),
                "{}: a removed row passed",
                experiment.id
            );

            let mine = tampers.iter().filter(|t| t.0 == experiment.id);
            let mut tampered_keys = 0;
            for (id, at, key, value, says) in mine {
                let mut tampered = rows.clone();
                let cell = tampered[*at].cells.iter_mut().find(|(name, _)| name == key);
                cell.unwrap_or_else(|| panic!("{id} row {at} has no `{key}`"))
                    .1 = value.clone();
                let failures = committed_failures(experiment, &tampered, &rows);
                let tripped = failures.iter().any(|failure| failure.contains(says));
                assert!(
                    tripped,
                    "{id} row {at} `{key}`: no \"{says}\" in {failures:?}"
                );
                tampered_keys += 1;
            }
            assert!(tampered_keys > 0, "{} has no tamper", experiment.id);
        }
    }
}
