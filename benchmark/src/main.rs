//! `subq-benchmark`: drives a built `subqd` over loopback and prints
//! every metric by name and unit.
//!
//! ```text
//! subq-benchmark --subqd PATH [--workload NAME] [--seed N] [--seconds S]
//!                [--trace 0|1] [--out DIR]
//! ```
//!
//! With `--workload` and `--trace` it makes one run and ends its output
//! with one JSON object (`correct`, `attempted`, `failed`, `metrics`);
//! without them it makes the untraced and the traced run of all four
//! workloads. Either way `result.json` (and `trace.json` from traced
//! runs) land in `--out`. Exit code 1 when any check failed.

use std::path::PathBuf;
use std::process::ExitCode;
use subq_benchmark::json::Json;
use subq_benchmark::metrics::{Values, END_TO_END, PER_LAYER};
use subq_benchmark::proc::{allowed_cpus, Pinning};
use subq_benchmark::run::{self, Bench, Tally, Traced, Untraced, CONNS, INSTANCES};
use subq_benchmark::stats::Reconciliation;
use subq_benchmark::workload::{spec, Workload, SPECS};

/// `load.generator_cpu_share` at or above this marks a run not
/// comparable: the generator, not the server, may have been the limit.
const GENERATOR_SHARE_LIMIT: f64 = 0.8;

const FLUSH_POLICY: &str = "FileBackend on the sandbox disk; one fsync per drained writer batch \
                            (group-commit 64); a transaction is acknowledged after its batch's fsync";

struct Args {
    subqd: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    trace: Option<bool>,
    seed: u64,
    seconds: f64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: subq-benchmark --subqd PATH [--workload {}] [--seed N] [--seconds S] \
         [--trace 0|1] [--out DIR]",
        SPECS.map(|s| s.name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        subqd: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
        workload: None,
        trace: None,
        seed: 1,
        seconds: 22.0,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let value = words.next()?;
        match flag.as_str() {
            "--subqd" => args.subqd = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            "--workload" => {
                spec(&value)?;
                args.workload = Some(value);
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 60.0)?
            }
            _ => return None,
        }
    }
    (!args.subqd.as_os_str().is_empty()).then_some(args)
}

fn metrics_json(values: &Values) -> Json {
    Json::obj(values.0.iter().map(|(name, value)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    }))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The contract's result object.
fn result_line(values: &Values, tally: &Tally) -> Json {
    Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Int(tally.attempted.max(1) as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        ("metrics", metrics_json(values)),
    ])
}

fn print_values(workload: &str, values: &Values) {
    for (name, value) in &values.0 {
        println!("{workload:<11} {name:<42} {value:>16.4} {}", unit_of(name));
    }
}

fn print_reconciliation(workload: &str, kind: &str, r: &Reconciliation) {
    println!(
        "{workload:<11} reconciliation ({kind}): replayed layer sum {:.1} us | server service {:.1} us | \
         client p50 {:.1} us | unattributed {:.1} us | residual {:.1} us",
        r.layer_sum_us, r.service_us, r.client_p50_us, r.unattributed_us, r.residual_us
    );
}

fn print_tally(workload: &str, tally: &Tally) {
    println!(
        "{workload:<11} attempted {} failed {} busy {}{}",
        tally.attempted,
        tally.failed,
        tally.busy,
        tally
            .first_failure
            .as_ref()
            .map_or(String::new(), |why| format!(" — first failure: {why}"))
    );
}

fn untraced_json(run: &Untraced) -> Json {
    let raw = |f: fn(&run::SetupTimes) -> f64| {
        Json::Arr(run.setups.iter().map(|s| Json::Num(f(s))).collect())
    };
    let list = |values: &[f64]| Json::Arr(values.iter().map(|v| Json::Num(*v)).collect());
    let chunks = Json::Arr(
        run.chunks
            .iter()
            .map(|c| {
                Json::obj([
                    ("paced_p50_us", list(&c.p50_us)),
                    ("paced_p90_us", list(&c.p90_us)),
                    ("paced_rss_mb", list(&c.rss_mb)),
                    ("capacity_ops_per_s", list(&c.ops_per_s)),
                    ("capacity_cpu_us_per_op", list(&c.cpu_us_per_op)),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("result", result_line(&run.values, &run.tally)),
        ("busy", Json::Int(run.tally.busy as i64)),
        (
            "notes",
            Json::obj([
                ("setup_s_per_instance", raw(|s| s.total_s)),
                ("spawn_ms_per_instance", raw(|s| s.spawn_ms)),
                ("materialize_ms_per_instance", raw(|s| s.materialize_ms)),
                ("bulk_load_ms_per_instance", raw(|s| s.bulk_load_ms)),
                ("stop_ms_per_instance", raw(|s| s.stop_ms)),
                ("restart_ms_per_instance", raw(|s| s.restart_ms)),
                ("chunks_per_instance", chunks),
                ("paced_samples", Json::Int(run.paced_samples as i64)),
                ("generator_cpu_share", Json::Num(run.generator_cpu_share)),
                (
                    "first_failure",
                    run.tally
                        .first_failure
                        .clone()
                        .map_or(Json::Null, Json::Str),
                ),
            ]),
        ),
    ])
}

fn reconciliation_json(r: &Reconciliation) -> Json {
    Json::obj([
        ("replayed_layer_sum", Json::Num(r.layer_sum_us)),
        ("server_service", Json::Num(r.service_us)),
        ("client_p50", Json::Num(r.client_p50_us)),
        ("unattributed", Json::Num(r.unattributed_us)),
        ("residual", Json::Num(r.residual_us)),
    ])
}

fn traced_json(run: &Traced) -> Json {
    Json::obj([
        ("result", result_line(&run.values, &run.tally)),
        (
            "query_reconciliation_us",
            reconciliation_json(&run.reconciliation),
        ),
        (
            "txn_reconciliation_us",
            run.txn_reconciliation
                .as_ref()
                .map_or(Json::Null, reconciliation_json),
        ),
        ("span_violations", Json::Int(run.span_violations as i64)),
        (
            "first_failure",
            run.tally
                .first_failure
                .clone()
                .map_or(Json::Null, Json::Str),
        ),
    ])
}

fn trace_json(workload: &str, run: &Traced) -> Json {
    let id = |conn: usize, index: u64| Json::str(format!("{workload}/paced/{conn}/{index}"));
    let mut spans = Vec::new();
    for (phase, s) in &run.request_spans {
        spans.push(Json::obj([
            (
                "id",
                Json::str(format!("{workload}/{phase}/{}/{}", s.conn, s.index)),
            ),
            ("name", Json::str("request")),
            ("clock", Json::str(format!("generator:{phase}"))),
            ("kind", Json::str(if s.txn { "txn" } else { "query" })),
            ("due_us", Json::Num(s.due_us)),
            ("sent_us", Json::Num(s.sent_us)),
            ("replied_us", Json::Num(s.replied_us)),
        ]));
    }
    for s in &run.layer_spans {
        let root = s.name == "replay.request";
        spans.push(Json::obj([
            ("id", id(s.conn, s.index)),
            ("name", Json::str(s.name)),
            ("clock", Json::str("replay")),
            (
                "parent",
                if root {
                    Json::str("request")
                } else {
                    Json::str("replay.request")
                },
            ),
            ("start_us", Json::Num(s.start_us)),
            ("end_us", Json::Num(s.end_us)),
        ]));
    }
    Json::Arr(spans)
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if !args.subqd.is_file() {
        eprintln!("subq-benchmark: no subqd at {}", args.subqd.display());
        return ExitCode::from(2);
    }
    let pinning = Pinning::establish();
    let bench = Bench {
        subqd: args.subqd.clone(),
        out: args.out.clone(),
        pinning,
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("subq-benchmark: creating {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![spec(name).expect("validated").name],
        None => SPECS.iter().map(|s| s.name).collect(),
    };
    let modes: Vec<bool> = match args.trace {
        Some(mode) => vec![mode],
        None => vec![false, true],
    };

    let mut comparable = pinning.is_some();
    let mut runs = Vec::new();
    let mut traces = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut last_line = Json::Null;
    for name in &names {
        let workload = Workload::generate(spec(name).expect("known"), args.seed);
        let mut entry = vec![
            ("workload".to_owned(), Json::str(*name)),
            ("why".to_owned(), Json::str(workload.spec.why)),
            (
                "stream_hash".to_owned(),
                Json::str(format!("{:016x}", workload.stream_hash())),
            ),
            (
                "paced_rate_per_s".to_owned(),
                Json::Int(workload.spec.paced_rate as i64),
            ),
        ];
        for traced in &modes {
            let outcome = if *traced {
                run::traced(&bench, &workload, args.seconds).map(|run| {
                    print_values(name, &run.values);
                    print_reconciliation(name, "query", &run.reconciliation);
                    if let Some(txn) = &run.txn_reconciliation {
                        print_reconciliation(name, "txn", txn);
                    }
                    print_tally(name, &run.tally);
                    let share = run.values.get("load.generator_cpu_share").unwrap_or(0.0);
                    comparable &= share < GENERATOR_SHARE_LIMIT;
                    traces.push((name.to_string(), trace_json(name, &run)));
                    entry.push(("traced".to_owned(), traced_json(&run)));
                    (result_line(&run.values, &run.tally), run.tally)
                })
            } else {
                run::untraced(&bench, &workload, args.seconds).map(|run| {
                    print_values(name, &run.values);
                    print_tally(name, &run.tally);
                    comparable &= run.generator_cpu_share < GENERATOR_SHARE_LIMIT;
                    entry.push(("untraced".to_owned(), untraced_json(&run)));
                    (result_line(&run.values, &run.tally), run.tally)
                })
            };
            match outcome {
                Ok((line, tally)) => {
                    failed += tally.failed;
                    attempted += tally.attempted;
                    last_line = line;
                }
                Err(e) => {
                    eprintln!("subq-benchmark: {name}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        runs.push(Json::Obj(entry));
    }

    let result = Json::obj([
        ("comparable", Json::Bool(comparable)),
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        (
            "fingerprint",
            Json::obj([
                ("cores", Json::Int(allowed_cpus().len() as i64)),
                (
                    "pinning",
                    pinning.map_or(Json::Null, |p| {
                        Json::obj([
                            ("server_core", Json::Int(p.server_core as i64)),
                            ("generator_core", Json::Int(p.generator_core as i64)),
                        ])
                    }),
                ),
                ("commit", Json::str(commit())),
                ("profile", Json::str("release")),
                ("seed", Json::Int(args.seed as i64)),
                ("seconds", Json::Num(args.seconds)),
                ("connections", Json::Int(CONNS as i64)),
                ("generator_threads", Json::Int(CONNS as i64)),
                ("instances_per_untraced_run", Json::Int(INSTANCES as i64)),
                (
                    "server",
                    Json::str("subqd --workers 1 --group-commit 64 --advisor off --dir <tmp>"),
                ),
                ("flush_policy", Json::str(FLUSH_POLICY)),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    let mut written = std::fs::write(args.out.join("result.json"), result.render() + "\n");
    if !traces.is_empty() {
        let trace = Json::Obj(traces);
        written = written.and(std::fs::write(
            args.out.join("trace.json"),
            trace.render() + "\n",
        ));
    }
    if let Err(e) = written {
        eprintln!("subq-benchmark: writing results: {e}");
        return ExitCode::from(2);
    }
    if !comparable {
        eprintln!(
            "subq-benchmark: not comparable (pinning unavailable or the generator used >= {GENERATOR_SHARE_LIMIT} of its core)"
        );
    }

    // One run: the contract's result object. Several: their totals.
    if names.len() == 1 && modes.len() == 1 {
        println!("{}", last_line.render());
    } else {
        println!(
            "{}",
            Json::obj([
                ("correct", Json::Bool(failed == 0)),
                ("attempted", Json::Int(attempted as i64)),
                ("failed", Json::Int(failed as i64)),
            ])
            .render()
        );
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
