//! The in-process replay: the same request stream the server was sent,
//! run single-threaded through the public functions of each layer, with
//! a clock around every call and the engine's own counters read before
//! and after.
//!
//! The replay mirrors the server's life: a durable engine (in-memory
//! backend, so an fsync costs nothing) is opened on the model, the
//! views are materialized, the load is committed frame by frame, the
//! engine is dropped and *recovered* from the surviving bytes, the
//! warm-up stream runs unmeasured, and then the paced stream is measured
//! request by request in due order. Counters read here are exact and
//! repeat bit for bit under one seed; timings are this process's, not
//! the server's, and are only ever compared with the server's own
//! service time through [`crate::stats::reconcile`].

use crate::oracle::apply_op;
use crate::proc::Exposition;
use crate::stats::ratio;
use crate::workload::{Op, Phase, Workload};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use subq_calculus::SubsumptionChecker;
use subq_dl::QueryClassDecl;
use subq_oodb::{
    Database, DurableOptions, FaultyBackend, MaintenanceStats, OptimizedDatabase, Reader,
};
use subq_server::frame::encode_frame;
use subq_server::{FrameDecoder, Request, Response, DEFAULT_MAX_PAYLOAD};
use subq_translate::translate_query;

/// One timed layer call of one replayed request (or the `replay.request`
/// span that encloses them); microseconds from the start of the replay.
#[derive(Clone, Copy, Debug)]
pub struct LayerSpan {
    pub conn: usize,
    pub index: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// Exact per-stream counters: same seed, same values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub queries: u64,
    pub txns: u64,
    pub fact_saturations: u64,
    pub fresh_probes: u64,
    pub cached_probes: u64,
    pub probes_pruned: u64,
    pub constraints_examined: u64,
    pub saturation_evictions: u64,
    pub view_hits: u64,
    pub candidates_examined: u64,
    pub answers: u64,
    pub maintain_memberships: u64,
    pub maintain_candidates: u64,
    pub maintain_lattice_prunes: u64,
    pub maintain_full_reevaluations: u64,
    pub stats_entries_touched: u64,
    pub wal_bytes: u64,
    pub recovered_records: u64,
    pub image_bytes: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

/// Summed time per layer over the measured stream, nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct LayerNanos {
    pub frame_decode: u64,
    pub parse_request: u64,
    pub dl_parse_query: u64,
    pub translate_query: u64,
    pub subsumes_fresh: u64,
    pub plan: u64,
    pub execute: u64,
    pub commit: u64,
    pub reader_sync: u64,
    pub render_response: u64,
    pub frame_encode: u64,
}

pub struct Replay {
    pub counters: Counters,
    pub nanos: LayerNanos,
    pub spans: Vec<LayerSpan>,
}

impl Replay {
    fn ops(&self) -> f64 {
        (self.counters.queries + self.counters.txns) as f64
    }

    pub fn per_op_us(&self, nanos: u64) -> f64 {
        ratio(nanos as f64 / 1e3, self.ops())
    }

    pub fn per_query_us(&self, nanos: u64) -> f64 {
        ratio(nanos as f64 / 1e3, self.counters.queries as f64)
    }

    pub fn per_txn_us(&self, nanos: u64) -> f64 {
        ratio(nanos as f64 / 1e3, self.counters.txns as f64)
    }

    /// Mean time per op over every replayed layer on the request path.
    pub fn layer_sum_us(&self) -> f64 {
        let n = &self.nanos;
        self.per_op_us(
            n.frame_decode
                + n.parse_request
                + n.plan
                + n.execute
                + n.commit
                + n.reader_sync
                + n.render_response
                + n.frame_encode,
        )
    }
}

struct Clock {
    origin: Instant,
    spans: Vec<LayerSpan>,
    keep: bool,
    conn: usize,
    index: u64,
}

impl Clock {
    /// Times `f`, adds the nanoseconds to `total`, and keeps a span.
    fn time<R>(&mut self, name: &'static str, total: &mut u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        *total += (end - start).as_nanos() as u64;
        self.span(name, start, end);
        result
    }

    fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.keep {
            let us = |t: Instant| (t - self.origin).as_nanos() as f64 / 1e3;
            self.spans.push(LayerSpan {
                conn: self.conn,
                index: self.index,
                name,
                start_us: us(start),
                end_us: us(end),
            });
        }
    }
}

fn maintenance_delta(after: &MaintenanceStats, before: &MaintenanceStats, c: &mut Counters) {
    c.maintain_memberships += after.memberships_evaluated - before.memberships_evaluated;
    c.maintain_candidates += after.candidates_examined - before.candidates_examined;
    c.maintain_lattice_prunes += after.lattice_prunes - before.lattice_prunes;
    c.maintain_full_reevaluations += after.full_reevaluations - before.full_reevaluations;
}

fn durable_options() -> DurableOptions {
    DurableOptions { group_commit: 64 }
}

/// The engine after the server's set-up sequence, plus what set-up
/// itself counted.
fn recovered_engine(workload: &Workload, counters: &mut Counters) -> OptimizedDatabase {
    let backend = Arc::new(FaultyBackend::new());
    let model = workload.model.clone();
    let mut odb = OptimizedDatabase::open(backend.clone(), durable_options(), move || {
        Database::new(model)
    })
    .expect("genesis open");
    for name in &workload.views {
        odb.materialize_view(name)
            .expect("declared view materializes");
    }
    odb.checkpoint().expect("in-memory checkpoint");
    for frame in &workload.load {
        odb.commit_durable(|db| frame.iter().for_each(|op| apply_op(db, op)))
            .expect("in-memory commit");
        odb.sync_durable().expect("in-memory sync");
    }
    drop(odb);
    let survivors = backend.surviving_files();
    let reopened = Arc::new(FaultyBackend::with_files(survivors));
    let mut odb = OptimizedDatabase::open(reopened.clone(), durable_options(), || {
        unreachable!("an image exists")
    })
    .expect("recovery");
    counters.recovered_records = odb.durability_stats().expect("durable").recovered_records;
    // The space side of the write/read/space triple: the image of the
    // loaded state. Taken on the recovered engine, which the stream then
    // continues on — the server's restarted life has no checkpoint, but
    // an image of an empty store says nothing about bytes per object.
    odb.checkpoint().expect("in-memory checkpoint");
    counters.image_bytes = reopened
        .surviving_files()
        .iter()
        .filter(|(name, _)| name.ends_with(".img"))
        .map(|(_, bytes)| bytes.len() as u64)
        .max()
        .unwrap_or(0);
    odb
}

/// Replays `requests_per_conn` requests of the paced stream on each of
/// `conns` connections, interleaved in due order. Spans are kept for the
/// first `span_requests` of them.
pub fn run(
    workload: &Workload,
    conns: usize,
    requests_per_conn: u64,
    span_requests: u64,
) -> Replay {
    // The engine's counters live in one process-wide registry; two
    // replays at once would read each other's work.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut counters = Counters::default();
    let mut odb = recovered_engine(workload, &mut counters);
    let mut reader = odb.reader();
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);

    // Warm-up, unmeasured, as on the server.
    for index in 0..workload.spec.warmup {
        for conn in 0..conns {
            match workload.request(Phase::Warmup, conn, index) {
                Op::Txn(ops) => {
                    odb.commit_durable(|db| ops.iter().for_each(|op| apply_op(db, op)))
                        .expect("in-memory commit");
                    reader.sync();
                }
                op => {
                    let Request::Query(query) = workload.render(&op) else {
                        unreachable!("non-transaction ops are queries")
                    };
                    reader.execute(&query);
                }
            }
        }
    }

    // A private arena for the translate/calculus probes, so they leave
    // the reader's caches alone.
    let frozen = reader.snapshot().translated();
    let (mut vocabulary, mut arena) = (frozen.vocabulary.clone(), frozen.arena.clone());
    let first_view = workload
        .views
        .first()
        .and_then(|name| frozen.queries.get(name).copied());
    let snapshot = reader.snapshot().clone();
    let checker = SubsumptionChecker::new(&snapshot.translated().schema);

    let mut nanos = LayerNanos::default();
    let mut clock = Clock {
        origin: Instant::now(),
        spans: Vec::new(),
        keep: false,
        conn: 0,
        index: 0,
    };
    let local_before = Exposition::local();
    let maintenance_before = odb.maintenance_stats();
    let wal_before = odb.durability_stats().expect("durable").wal_bytes;

    for index in 0..requests_per_conn {
        for conn in 0..conns {
            clock.conn = conn;
            clock.index = index;
            clock.keep = index * (conns as u64) + (conn as u64) < span_requests;
            let op = workload.request(Phase::Paced, conn, index);
            let mut wire = Vec::new();
            encode_frame(workload.render(&op).render().as_bytes(), &mut wire);
            counters.bytes_in += wire.len() as u64;
            let request_start = Instant::now();

            let payload = clock.time("server.frame.decode", &mut nanos.frame_decode, || {
                decoder.extend(&wire);
                decoder.next_frame().expect("own frame").expect("complete")
            });
            let text = std::str::from_utf8(&payload).expect("own text");
            let request = clock.time(
                "server.proto.parse_request",
                &mut nanos.parse_request,
                || Request::parse(text).expect("own request"),
            );
            let response = match request {
                Request::Query(query) => {
                    counters.queries += 1;
                    replay_query(&mut reader, &query, &mut clock, &mut nanos, &mut counters)
                }
                Request::Txn(ops) => {
                    counters.txns += 1;
                    clock.time("oodb.commit", &mut nanos.commit, || {
                        odb.commit_durable(|db| ops.iter().for_each(|op| apply_op(db, op)))
                            .expect("in-memory commit");
                        odb.sync_durable().expect("in-memory sync");
                    });
                    clock.time("oodb.snapshot.reader_sync", &mut nanos.reader_sync, || {
                        reader.sync()
                    });
                    Response::Committed {
                        version: odb.database().data_version(),
                    }
                }
                other => unreachable!("the stream holds queries and transactions: {other:?}"),
            };
            let text = clock.time(
                "server.proto.render_response",
                &mut nanos.render_response,
                || response.render(),
            );
            let mut out = Vec::new();
            clock.time("server.frame.encode", &mut nanos.frame_encode, || {
                encode_frame(text.as_bytes(), &mut out)
            });
            counters.bytes_out += out.len() as u64;
            clock.span("replay.request", request_start, Instant::now());

            // Off the request path: what the DL parser, the translation
            // and one uncached subsumption check cost on this query.
            if let Op::Pool(_) | Op::Fresh(_) = op {
                let Request::Query(query) = workload.render(&op) else {
                    unreachable!()
                };
                let source = subq_dl::pretty::render_query(&query);
                let started = Instant::now();
                std::hint::black_box(subq_dl::parse_query(&source).expect("own query"));
                nanos.dl_parse_query += started.elapsed().as_nanos() as u64;
                let started = Instant::now();
                let concept = translate_query(&query, &workload.model, &mut vocabulary, &mut arena)
                    .expect("own query translates");
                nanos.translate_query += started.elapsed().as_nanos() as u64;
                if let Some(view) = first_view {
                    let started = Instant::now();
                    std::hint::black_box(checker.subsumes(&mut arena, concept, view));
                    nanos.subsumes_fresh += started.elapsed().as_nanos() as u64;
                }
            }
        }
    }

    let local_after = Exposition::local();
    // The off-path subsumption checks above run uncached and so count
    // nothing; what the registry gained is the request path's.
    counters.constraints_examined =
        local_after.delta(&local_before, "subq_completion_constraints_examined_total") as u64;
    counters.saturation_evictions =
        local_after.delta(&local_before, "subq_subsumption_saturation_evictions_total") as u64;
    counters.stats_entries_touched =
        local_after.delta(&local_before, "subq_stats_entries_touched_total") as u64;
    maintenance_delta(&odb.maintenance_stats(), &maintenance_before, &mut counters);
    counters.wal_bytes = odb.durability_stats().expect("durable").wal_bytes - wal_before;

    Replay {
        counters,
        nanos,
        spans: clock.spans,
    }
}

fn replay_query(
    reader: &mut Reader,
    query: &QueryClassDecl,
    clock: &mut Clock,
    nanos: &mut LayerNanos,
    counters: &mut Counters,
) -> Response {
    let plan = clock.time("oodb.plan", &mut nanos.plan, || reader.plan(query));
    counters.fact_saturations += plan.fact_saturations as u64;
    counters.fresh_probes += plan.fresh_probes as u64;
    counters.cached_probes += plan.cached_probes as u64;
    counters.probes_pruned += plan.probes_pruned as u64;
    // `Reader::execute` plans internally; the plan was charged above, so
    // a warm re-plan is timed and taken off the execute span.
    let started = Instant::now();
    std::hint::black_box(reader.plan(query));
    let replan = started.elapsed();
    let start = Instant::now();
    let version = reader.data_version();
    let (answers, stats) = reader.execute(query);
    let names: Vec<String> = answers
        .iter()
        .map(|id| reader.database().object_name(*id).to_owned())
        .collect();
    let end = Instant::now();
    let net = (end - start).saturating_sub(replan);
    nanos.execute += net.as_nanos() as u64;
    clock.span("oodb.execute", start, start + net);
    counters.view_hits += stats.used_view.is_some() as u64;
    counters.candidates_examined += stats.candidates_examined as u64;
    counters.answers += stats.answers as u64;
    Response::Answers { version, names }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, SPECS};

    #[test]
    fn counters_repeat_exactly_under_one_seed() {
        for spec in &SPECS {
            let a = run(&Workload::generate(spec, 11), 2, 40, 0);
            let b = run(&Workload::generate(spec, 11), 2, 40, 0);
            assert_eq!(a.counters, b.counters, "{}", spec.name);
            assert_eq!(a.counters.queries + a.counters.txns, 80);
        }
    }

    #[test]
    fn layer_spans_lie_inside_their_replayed_request() {
        let replay = run(&Workload::generate(spec("mixed_rw").unwrap(), 5), 2, 30, 60);
        let roots: Vec<&LayerSpan> = replay
            .spans
            .iter()
            .filter(|s| s.name == "replay.request")
            .collect();
        assert_eq!(roots.len(), 60);
        for child in replay.spans.iter().filter(|s| s.name != "replay.request") {
            let root = roots
                .iter()
                .find(|r| r.conn == child.conn && r.index == child.index)
                .expect("every child has a root");
            assert!(root.start_us <= child.start_us && child.end_us <= root.end_us);
        }
    }

    #[test]
    fn the_hot_pool_is_warm_and_reads_write_nothing() {
        let replay = run(&Workload::generate(spec("read_hot").unwrap(), 2), 2, 200, 0);
        let c = &replay.counters;
        assert_eq!(c.fresh_probes, 0);
        assert_eq!(c.constraints_examined, 0);
        assert_eq!(c.view_hits, c.queries);
        assert_eq!((c.txns, c.wal_bytes, c.maintain_candidates), (0, 0, 0));
        assert!(c.recovered_records > 0 && c.image_bytes > 0);
    }
}
