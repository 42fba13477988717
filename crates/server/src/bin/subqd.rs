//! The `subqd` binary: serve a DL model over TCP.
//!
//! ```text
//! subqd [--port N] [--workers N] [--queue N] [--dir PATH] [--model FILE]
//!       [--group-commit N] [--log-level off|info|debug] [--slow-query-us N]
//!       [--metrics-dump PATH] [--advisor off|observe|auto]
//!       [--advisor-max-views N] [--advisor-min-gain F]
//!       [--advisor-evict-after N] [--advisor-interval-ms N]
//! ```
//!
//! Without `--model` the built-in medical sample schema is served;
//! without `--dir` the store is volatile: the same WAL and checkpoint
//! sequence runs over a backend that keeps nothing, so `STATS` still
//! counts `subq_wal_*` records and fsyncs that never reach a disk.
//! With `--dir`, the directory is opened through the durable engine:
//! an existing image + WAL recovers, an empty directory initializes.
//!
//! Observability knobs:
//!
//! * `--log-level` — timestamped lifecycle logging to stderr (`info`
//!   covers startup/recovery/shutdown summaries, `debug` adds
//!   accept/close/reap and writer batch-commit lines);
//! * `--slow-query-us N` — queries slower than N microseconds land in
//!   the slow-query ring, readable over the wire with `STATS SLOW`;
//! * `--metrics-dump PATH` — the full Prometheus-style text exposition
//!   of the process registry is rewritten to PATH every 5 seconds (the
//!   same text `STATS` returns over the wire), once right after
//!   startup, and once more on shutdown — even a sub-5-second run
//!   leaves a complete final dump behind.
//!
//! Self-tuning knobs (the workload-adaptive view advisor):
//!
//! * `--advisor off|observe|auto` — `observe` mines query shapes and
//!   scores candidates (readable with `ADVISE`) without touching the
//!   catalog; `auto` additionally materializes the winners and evicts
//!   cold auto-views;
//! * `--advisor-max-views N` — cap on concurrently live auto-views;
//! * `--advisor-min-gain F` — minimum expected gain before a shape is
//!   materialized;
//! * `--advisor-evict-after N` — passes an auto-view may stay cold
//!   before it is evicted;
//! * `--advisor-interval-ms N` — spacing of automatic advisor passes
//!   on the writer thread.
//!
//! Shutdown: `quit`, `stop`, or `shutdown` on stdin stops the server
//! cleanly (exit 0) after flushing the metrics dump. With `--dir`, a
//! clean stop first writes one checkpoint image, so the next start
//! decodes that image and replays no WAL record. A durable-engine
//! failure — the stop image included, which leaves the previous image
//! and the WAL intact — exits 1, also after a final dump.

use std::process::exit;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use subq_oodb::{AdvisorMode, Database, DurableOptions, FileBackend, OptimizedDatabase};
use subq_server::{Server, ServerConfig};
use subq_telemetry::log;

fn usage() -> ! {
    eprintln!(
        "usage: subqd [--port N] [--workers N] [--queue N] [--dir PATH] [--model FILE] \
         [--group-commit N] [--log-level off|info|debug] [--slow-query-us N] \
         [--metrics-dump PATH] [--advisor off|observe|auto] [--advisor-max-views N] \
         [--advisor-min-gain F] [--advisor-evict-after N] [--advisor-interval-ms N]"
    );
    exit(2)
}

fn fail(what: &str, detail: impl std::fmt::Display) -> ! {
    eprintln!("subqd: {what}: {detail}");
    exit(1)
}

fn write_dump(path: &str) {
    if let Err(e) = std::fs::write(path, subq_telemetry::global().render()) {
        eprintln!("subqd: writing metrics dump: {e}");
    }
}

fn main() {
    let mut config = ServerConfig::default();
    let mut dir: Option<String> = None;
    let mut model_path: Option<String> = None;
    let mut metrics_dump: Option<String> = None;
    let mut group_commit = 64usize;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--port" => config.port = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => config.workers = value().parse().unwrap_or_else(|_| usage()),
            "--queue" => config.write_queue = value().parse().unwrap_or_else(|_| usage()),
            "--dir" => dir = Some(value()),
            "--model" => model_path = Some(value()),
            "--group-commit" => group_commit = value().parse().unwrap_or_else(|_| usage()),
            "--log-level" => {
                let level = log::Level::parse(&value()).unwrap_or_else(|| usage());
                log::set_level(level);
            }
            "--slow-query-us" => {
                config.slow_query_us = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--metrics-dump" => metrics_dump = Some(value()),
            "--advisor" => {
                config.advisor.mode = AdvisorMode::parse(&value()).unwrap_or_else(|| usage());
            }
            "--advisor-max-views" => {
                config.advisor.max_auto_views = value().parse().unwrap_or_else(|_| usage());
            }
            "--advisor-min-gain" => {
                config.advisor.min_gain = value().parse().unwrap_or_else(|_| usage());
            }
            "--advisor-evict-after" => {
                config.advisor.evict_after = value().parse().unwrap_or_else(|_| usage());
            }
            "--advisor-interval-ms" => {
                config.advisor_interval =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }

    let model = match &model_path {
        Some(path) => {
            let source = std::fs::read_to_string(path).unwrap_or_else(|e| fail("reading model", e));
            subq_dl::parse_model(&source).unwrap_or_else(|e| fail("parsing model", e))
        }
        None => subq_dl::samples::medical_model(),
    };

    let db = match &dir {
        Some(dir) => {
            let backend =
                FileBackend::new(dir.as_str()).unwrap_or_else(|e| fail("opening backend", e));
            let db = OptimizedDatabase::open(
                Arc::new(backend),
                DurableOptions { group_commit },
                move || Database::new(model),
            )
            .unwrap_or_else(|e| fail("recovering store", e));
            if let Some(stats) = db.durability_stats() {
                let version = db.database().data_version();
                log::info(|| {
                    format!(
                        "recovered {dir}: version={version} replayed={} truncated_tail_bytes={}",
                        stats.recovered_records, stats.truncated_tail_bytes
                    )
                });
            }
            db
        }
        None => OptimizedDatabase::new(Database::new(model))
            .unwrap_or_else(|e| fail("translating model", e)),
    };

    let server = Server::start(db, config).unwrap_or_else(|e| fail("starting server", e));
    println!("subqd listening on {}", server.addr());
    log::info(|| format!("listening on {}", server.addr()));

    // `quit`/`stop`/`shutdown` on stdin requests a clean exit, at once:
    // the main loop sleeps *in* this channel. EOF (a daemonized stdin)
    // just ends the watcher — `stop_tx` stays here, so the channel never
    // reads as disconnected and EOF never shuts down.
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    {
        let stop_tx = stop_tx.clone();
        std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match std::io::stdin().read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        if matches!(line.trim(), "quit" | "stop" | "shutdown") {
                            let _ = stop_tx.send(());
                            return;
                        }
                    }
                }
            }
        });
    }

    // First dump right away: even a run killed within seconds leaves a
    // complete exposition behind, not an absent file.
    if let Some(path) = &metrics_dump {
        write_dump(path);
    }
    let mut ticks = 0u64;
    loop {
        let stop = stop_rx.recv_timeout(Duration::from_millis(100));
        ticks += 1;
        if stop.is_ok() {
            log::info(|| "shutdown requested on stdin".to_owned());
            let crashed = server.shutdown();
            if let Some(path) = &metrics_dump {
                write_dump(path);
            }
            if crashed {
                fail("durable engine failed", "restart to recover from the log");
            }
            exit(0)
        }
        if server.crashed() {
            if let Some(path) = &metrics_dump {
                write_dump(path);
            }
            fail("durable engine failed", "restart to recover from the log");
        }
        if ticks.is_multiple_of(50) {
            if let Some(path) = &metrics_dump {
                write_dump(path);
            }
        }
        if ticks.is_multiple_of(600) {
            let stats = server.stats();
            eprintln!(
                "subqd: sessions={} queries={} commits={} busy={}",
                stats.accepted.load(Ordering::Relaxed),
                stats.queries.load(Ordering::Relaxed),
                stats.commits.load(Ordering::Relaxed),
                stats.busy_replies.load(Ordering::Relaxed),
            );
        }
    }
}
