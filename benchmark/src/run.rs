//! One run of one workload: server instances, phases, checks, and the
//! values each metric takes.
//!
//! Untraced run (`--trace 0`): [`INSTANCES`] fresh server instances, on
//! each set-up → warm-up → paced phase (open loop) → capacity phase
//! (closed loop). Each phase is cut into chunks; an instance's value is
//! the median over chunks, the run's value the median over instances.
//! `setup_s` is one shot per instance and interference only ever adds to
//! it, so the run reports the minimum.
//!
//! Traced run (`--trace 1`): one instance with request spans on, `STATS`
//! read before and after the paced phase, untraced and traced capacity
//! windows alternating, then the in-process replay of the paced stream.

use crate::load::{run_closed, run_paced, wire, Conn, Expect, Outcome, Prepared, RequestSpan};
use crate::metrics::Values;
use crate::oracle::{scratch_extents, Expected, Oracle};
use crate::proc::{cpu_ns, cpu_ticks_ns, rss_mb, Exposition, Pinning, ScratchDir, ServerProc};
use crate::replay::{self, LayerSpan};
use crate::stats::{
    chunk_count, chunk_percentiles, median, min, percentile, quiet_decile, rate, ratio, reconcile,
    Better, Reconciliation, Sample,
};
use crate::workload::{Kind, Op, Phase, Rng, Workload};
use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use subq_server::{Request, Response, TxnOp};

/// Connections, and generator threads: never more than the two cores.
pub const CONNS: usize = 2;
/// Fresh server instances per untraced run.
pub const INSTANCES: usize = 3;
/// `MATERIALIZE` requests in flight during set-up (well under the
/// server's write queue of 64, so none draws `BUSY`).
const DDL_WINDOW: usize = 16;
/// Capacity-phase replies of `read_fresh` checked against the oracle
/// after each instance (evenly spaced over what was recorded).
const RECORDED_CHECKS: usize = 1500;
/// Requests whose spans go to `trace.json` (per phase).
const TRACE_REQUESTS: u64 = 2000;

pub struct Bench {
    pub subqd: PathBuf,
    pub out: PathBuf,
    pub pinning: Option<Pinning>,
}

/// Attempts and failures over everything a run sent.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub busy: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    fn add(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        self.busy += outcome.busy;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&outcome.first_failure);
        }
    }

    /// One more checked thing; `why` is only built on failure.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(why());
            }
        }
    }
}

/// A workload with what the generator needs at hand: the pool's frames
/// and the oracle's answers to them.
pub struct Plan<'a> {
    pub workload: &'a Workload,
    pool: Vec<(Vec<u8>, Expected)>,
}

impl<'a> Plan<'a> {
    pub fn new(workload: &'a Workload, oracle: &Oracle) -> Plan<'a> {
        let pool = workload
            .pool
            .iter()
            .map(|query| (wire(&Request::Query(query.clone())), oracle.expected(query)))
            .collect();
        Plan { workload, pool }
    }

    /// Request `index` of `phase` on `conn`, ready to send. With an
    /// oracle, a never-repeated query carries its exact answer; without
    /// one its reply is recorded for a check after the phase.
    pub fn prepare(
        &self,
        phase: Phase,
        conn: usize,
        index: u64,
        oracle: Option<&Oracle>,
    ) -> Prepared {
        match self.workload.request(phase, conn, index) {
            Op::Pool(i) => {
                let (frame, expected) = &self.pool[i];
                Prepared {
                    frame: frame.clone(),
                    // Under concurrent writes the pool's answers move;
                    // the per-reply check is read-your-writes.
                    expect: if self.workload.spec.kind == Kind::Mixed {
                        Expect::Fresher
                    } else {
                        Expect::Answers(*expected)
                    },
                }
            }
            Op::Fresh(shape) => {
                let query = self.workload.fresh_query(shape);
                let expect = match oracle {
                    Some(oracle) => Expect::Answers(oracle.expected(&query)),
                    None => Expect::Recorded(shape),
                };
                Prepared::new(&Request::Query(query), expect)
            }
            Op::Txn(ops) => Prepared::new(&Request::Txn(ops.clone()), Expect::Committed(ops)),
        }
    }

    /// The paced stream of every connection for `seconds` at the
    /// workload's fixed rate, answers precomputed, each request with its
    /// due time. Time is cut into one slot per request, dealt to the
    /// connections in turn; a request is due at its slot's middle moved
    /// by up to a quarter slot either way (from the seed, so every
    /// instance is sent the same requests at the same instants). The
    /// jitter keeps arrivals from beating against the worker's fixed
    /// idle nap; the slots keep two arrivals at least half a slot apart,
    /// so a percentile measures the server and not how many arrivals
    /// happened to coincide under this seed.
    pub fn paced_stream(&self, seconds: f64, oracle: &Oracle) -> Vec<Vec<(Duration, Prepared)>> {
        let per_conn = self.paced_per_conn(seconds);
        let slot = seconds / (per_conn * CONNS as u64) as f64;
        (0..CONNS)
            .map(|conn| {
                let mut rng = Rng::keyed(&[self.workload.seed, 4, conn as u64]);
                (0..per_conn)
                    .map(|index| {
                        let jitter = rng.below(1 << 20) as f64 / (1u64 << 21) as f64 - 0.25;
                        let at =
                            ((index * CONNS as u64 + conn as u64) as f64 + 0.5 + jitter) * slot;
                        let request = self.prepare(Phase::Paced, conn, index, Some(oracle));
                        (Duration::from_secs_f64(at), request)
                    })
                    .collect()
            })
            .collect()
    }

    pub fn paced_per_conn(&self, seconds: f64) -> u64 {
        ((seconds * self.workload.spec.paced_rate as f64) / CONNS as f64).floor() as u64
    }
}

/// Wall time of the stages of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub spawn_ms: f64,
    pub materialize_ms: f64,
    pub bulk_load_ms: f64,
    /// The clean stop, asked for just before `subqd`'s next look at its
    /// stop flag (see [`ServerProc::stop_aligned`]).
    pub stop_ms: f64,
    /// Second spawn (image + WAL recovery) to the last verified warm-up
    /// reply.
    pub restart_ms: f64,
    /// The sum of the stages.
    pub total_s: f64,
    /// Mean checkpoint time of the first life (`subq_checkpoint_ns`).
    pub checkpoint_ms: f64,
    /// The restart's recovery time (`subq_recovery_ns`).
    pub recover_ms: f64,
}

/// A served store after set-up: loaded, restarted, warm.
struct Instance {
    dir: ScratchDir,
    server: ServerProc,
    conns: Vec<Conn>,
    setup: SetupTimes,
    /// Transactions the server acknowledged, with their commit versions.
    acked: Vec<(u64, Vec<TxnOp>)>,
}

fn unexpected(what: &str, response: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what}: unexpected reply {response:?}"),
    )
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_nanos() as f64 / 1e6
}

impl Instance {
    /// Spawn on an empty directory → `MATERIALIZE` every view → bulk
    /// load in 4096-op frames → clean stop → restart (image + WAL
    /// recovery) → warm-up, every reply verified. Each stage is timed;
    /// set-up time is their sum.
    fn start(bench: &Bench, plan: &Plan, tag: &str, tally: &mut Tally) -> io::Result<Instance> {
        let workload = plan.workload;
        let dir = ScratchDir::create(bench.out.join(tag))?;
        let store = dir.0.join("store");
        std::fs::create_dir_all(&store)?;
        let model = dir.0.join("model.dl");
        std::fs::write(&model, subq_dl::pretty::render_model(&workload.model))?;

        let t0 = Instant::now();
        let server = ServerProc::spawn(&bench.subqd, &store, &model, bench.pinning)?;
        let mut control = Conn::connect(0, server.addr)?;
        let spawned = Instant::now();
        for batch in workload.views.chunks(DDL_WINDOW) {
            for name in batch {
                control.send_request(&Request::Materialize { name: name.clone() })?;
            }
            for _ in batch {
                match control.reply()?.0 {
                    Response::Ok { .. } => {}
                    other => return Err(unexpected("MATERIALIZE", &other)),
                }
            }
        }
        let materialized = Instant::now();
        for frame in &workload.load {
            match control.request(&Request::Txn(frame.clone()))?.0 {
                Response::Committed { .. } => {}
                other => return Err(unexpected("bulk load", &other)),
            }
        }
        let loaded = Instant::now();
        let (first_life, _) = Exposition::scrape(&mut control)?;
        drop(control);
        let stop_ms = server.stop_aligned()?.as_nanos() as f64 / 1e6;

        let respawn = Instant::now();
        let server = ServerProc::spawn(&bench.subqd, &store, &model, bench.pinning)?;
        let mut conns = (0..CONNS)
            .map(|id| Conn::connect(id, server.addr))
            .collect::<io::Result<Vec<_>>>()?;
        let warm = closed_phase(
            &mut conns,
            plan,
            Phase::Warmup,
            0,
            Instant::now(),
            f64::MAX,
            workload.spec.warmup,
            false,
        );
        let done = Instant::now();
        tally.add(&warm);
        let (second_life, _) = Exposition::scrape(&mut conns[0])?;

        Ok(Instance {
            dir,
            server,
            conns,
            setup: SetupTimes {
                spawn_ms: ms(t0, spawned),
                materialize_ms: ms(spawned, materialized),
                bulk_load_ms: ms(materialized, loaded),
                stop_ms,
                restart_ms: ms(respawn, done),
                total_s: (ms(t0, loaded) + stop_ms + ms(respawn, done)) / 1e3,
                checkpoint_ms: first_life.mean(&Exposition::default(), "subq_checkpoint_ns") / 1e6,
                recover_ms: second_life.get("subq_recovery_ns_sum") / 1e6,
            },
            acked: warm.acked,
        })
    }

    /// `BYE` on every session, then a clean stop.
    fn finish(mut self) -> io::Result<()> {
        for conn in &mut self.conns {
            conn.request(&Request::Bye)?;
        }
        drop(self.conns);
        self.server.stop()
    }

    /// After a mixed run: the quiesced server's view extents against a
    /// scratch evaluation of the acknowledged transaction stream, then
    /// `SIGKILL`, restart, and the same comparison again. A process
    /// crash, not a power loss: the page cache survives (the in-tree
    /// `FaultyBackend` suites cover bytes that never reached the disk).
    fn verify_extents(mut self, bench: &Bench, plan: &Plan, tally: &mut Tally) -> io::Result<()> {
        let workload = plan.workload;
        self.acked.sort_by_key(|(version, _)| *version);
        let ops: Vec<Vec<TxnOp>> = self.acked.drain(..).map(|(_, ops)| ops).collect();
        let expected = scratch_extents(workload, &ops);
        compare_extents(&mut self.conns[0], workload, &expected, "quiesced", tally)?;

        let (store, model) = (self.dir.0.join("store"), self.dir.0.join("model.dl"));
        drop(self.conns);
        self.server.kill()?;
        let server = ServerProc::spawn(&bench.subqd, &store, &model, bench.pinning)?;
        let mut conn = Conn::connect(0, server.addr)?;
        compare_extents(&mut conn, workload, &expected, "after SIGKILL", tally)?;
        conn.request(&Request::Bye)?;
        drop(conn);
        server.stop()
    }
}

fn compare_extents(
    conn: &mut Conn,
    workload: &Workload,
    expected: &[BTreeSet<String>],
    when: &str,
    tally: &mut Tally,
) -> io::Result<()> {
    for (name, want) in workload.views.iter().zip(expected) {
        let definition = workload.model.query_class(name).expect("declared").clone();
        match conn.request(&Request::Query(definition))?.0 {
            Response::Answers { names, .. } => {
                let got: BTreeSet<String> = names.into_iter().collect();
                tally.check(got == *want, || {
                    format!(
                        "{when}: view {name} holds {} objects, scratch evaluation {}",
                        got.len(),
                        want.len()
                    )
                });
            }
            other => return Err(unexpected("view extent query", &other)),
        }
    }
    Ok(())
}

fn merge(outcomes: Vec<Outcome>) -> Outcome {
    let mut merged = Outcome::default();
    for outcome in outcomes {
        merged.absorb(outcome);
    }
    merged
}

/// A closed-loop phase on every connection at once, drawing the phase's
/// requests from `offset` on.
#[allow(clippy::too_many_arguments)]
fn closed_phase(
    conns: &mut [Conn],
    plan: &Plan,
    phase: Phase,
    offset: u64,
    start: Instant,
    seconds: f64,
    limit: u64,
    traced: bool,
) -> Outcome {
    let seconds = seconds.min(1e6);
    let mut outcome = merge(std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    let id = conn.id;
                    run_closed(
                        conn,
                        |index| plan.prepare(phase, id, offset + index, None),
                        start,
                        seconds,
                        limit,
                        traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    }));
    // Spans carry the index within the phase, not within this window.
    for span in &mut outcome.spans {
        span.index += offset;
    }
    outcome
}

/// The open-loop phase: every connection sends its stream at the due
/// times the stream carries.
fn paced_phase(
    conns: &mut [Conn],
    stream: Vec<Vec<(Duration, Prepared)>>,
    start: Instant,
    traced: bool,
) -> Outcome {
    merge(std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(stream)
            .map(|(conn, requests)| scope.spawn(move || run_paced(conn, requests, start, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    }))
}

/// Checks an even sample of the recorded `read_fresh` replies against
/// the oracle.
fn check_recorded(plan: &Plan, oracle: &Oracle, recorded: &[(u64, Expected)], tally: &mut Tally) {
    let stride = recorded.len().div_ceil(RECORDED_CHECKS).max(1);
    for (shape, got) in recorded.iter().step_by(stride) {
        let want = oracle.expected(&plan.workload.fresh_query(*shape));
        // Already counted as attempted when sent; only a mismatch adds.
        if want != *got {
            tally.failed += 1;
            tally.first_failure.get_or_insert_with(|| {
                format!(
                    "wrong answer to fresh shape {shape}: expected {} names, got {}",
                    want.count, got.count
                )
            });
        }
    }
}

/// The server's CPU time and resident memory, read from `/proc` at a
/// fixed period while a phase runs.
#[derive(Clone, Copy, Debug)]
struct Probe {
    at_s: f64,
    cpu_ns: u64,
    rss_mb: f64,
}

/// Period of the probes, and so the width of a capacity-phase chunk.
const PROBE_PERIOD: Duration = Duration::from_millis(250);

/// Runs `body` with a sampler thread beside it (a read of a few `/proc`
/// files every [`PROBE_PERIOD`] on the generator's core); probes are at
/// `start`, every period after it, and once more when `body` is done.
fn probed<R>(pid: u32, start: Instant, body: impl FnOnce() -> R) -> (R, Vec<Probe>) {
    let probe = |at: Instant| Probe {
        at_s: at.saturating_duration_since(start).as_secs_f64(),
        cpu_ns: cpu_ns(pid),
        rss_mb: rss_mb(pid),
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut probes = Vec::new();
            'ticks: for tick in 0u32.. {
                let due = start + PROBE_PERIOD * tick;
                loop {
                    // SeqCst: the flag orders nothing else; this is just
                    // the default for a flag read four times a second.
                    if done.load(Ordering::SeqCst) {
                        break 'ticks;
                    }
                    let wait = due.saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        break;
                    }
                    std::thread::park_timeout(wait);
                }
                probes.push(probe(Instant::now()));
            }
            probes.push(probe(Instant::now()));
            probes
        });
        let result = body();
        done.store(true, Ordering::SeqCst);
        sampler.thread().unpark();
        (result, sampler.join().expect("sampler thread panicked"))
    })
}

/// What one instance measured, chunk by chunk.
#[derive(Clone, Debug, Default)]
pub struct InstanceChunks {
    /// Paced phase: each chunk's latency median and 90th percentile.
    pub p50_us: Vec<f64>,
    pub p90_us: Vec<f64>,
    /// Paced phase: resident memory at each probe.
    pub rss_mb: Vec<f64>,
    /// Capacity phase, per probe interval: verified completions per
    /// second, and server CPU time per completion.
    pub ops_per_s: Vec<f64>,
    pub cpu_us_per_op: Vec<f64>,
}

/// Completions per second and CPU per completion in every full probe
/// interval inside the `seconds` of a capacity phase.
fn capacity_chunks(samples: &[Sample], probes: &[Probe], seconds: f64) -> (Vec<f64>, Vec<f64>) {
    let (mut rates, mut cpu) = (Vec::new(), Vec::new());
    for pair in probes.windows(2) {
        let width = pair[1].at_s - pair[0].at_s;
        // The closing probe cuts a partial interval, and past the end
        // only stragglers complete; skip both.
        if width < 0.8 * PROBE_PERIOD.as_secs_f64() || pair[1].at_s > seconds + 0.01 {
            continue;
        }
        let done = samples
            .iter()
            .filter(|s| pair[0].at_s <= s.at_s && s.at_s < pair[1].at_s)
            .count() as f64;
        rates.push(done / width);
        if done > 0.0 {
            cpu.push((pair[1].cpu_ns - pair[0].cpu_ns) as f64 / 1e3 / done);
        }
    }
    (rates, cpu)
}

/// The six end-to-end values of one untraced run, and what went into
/// them.
#[derive(Debug)]
pub struct Untraced {
    pub values: Values,
    pub tally: Tally,
    pub setups: Vec<SetupTimes>,
    pub chunks: Vec<InstanceChunks>,
    pub generator_cpu_share: f64,
    /// Samples behind the paced percentiles, over all instances.
    pub paced_samples: usize,
}

/// Three fifths of `seconds` paced, two fifths closed-loop, each split
/// over the instances: the paced percentiles need the chunks more than
/// the capacity rate does.
fn phase_seconds(seconds: f64, instances: usize) -> (f64, f64) {
    let each = seconds / instances as f64;
    (0.6 * each, 0.4 * each)
}

/// A short lead so every generator thread is up before the first due
/// time.
fn phase_start() -> Instant {
    Instant::now() + Duration::from_millis(5)
}

pub fn untraced(bench: &Bench, workload: &Workload, seconds: f64) -> io::Result<Untraced> {
    let oracle = Oracle::build(workload);
    let plan = Plan::new(workload, &oracle);
    let (paced_seconds, capacity_seconds) = phase_seconds(seconds, INSTANCES);
    let stream = plan.paced_stream(paced_seconds, &oracle);
    let paced_chunk_count = chunk_count(
        paced_seconds * workload.spec.paced_rate as f64,
        paced_seconds,
    );

    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut chunks = Vec::new();
    let (mut busy_ns, mut wall_ns, mut paced_samples) = (0u64, 0u64, 0usize);
    for i in 0..INSTANCES {
        let tag = format!("{}-{i}", workload.spec.name);
        let mut instance = Instance::start(bench, &plan, &tag, &mut tally)?;
        setups.push(instance.setup);
        let pid = instance.server.pid();
        let (own_cpu, began) = (cpu_ticks_ns(std::process::id()), Instant::now());

        let start = phase_start();
        let (paced, paced_probes) = probed(pid, start, || {
            paced_phase(&mut instance.conns, stream.clone(), start, false)
        });
        tally.add(&paced);
        paced_samples += paced.samples.len();

        let start = phase_start();
        let (capacity, capacity_probes) = probed(pid, start, || {
            closed_phase(
                &mut instance.conns,
                &plan,
                Phase::Capacity,
                0,
                start,
                capacity_seconds,
                u64::MAX,
                false,
            )
        });
        tally.add(&capacity);
        busy_ns += cpu_ticks_ns(std::process::id()) - own_cpu;
        wall_ns += began.elapsed().as_nanos() as u64;

        let (ops_per_s, cpu_us_per_op) =
            capacity_chunks(&capacity.samples, &capacity_probes, capacity_seconds);
        chunks.push(InstanceChunks {
            p50_us: chunk_percentiles(&paced.samples, paced_seconds, paced_chunk_count, 50.0),
            p90_us: chunk_percentiles(&paced.samples, paced_seconds, paced_chunk_count, 90.0),
            rss_mb: paced_probes.iter().map(|p| p.rss_mb).collect(),
            ops_per_s,
            cpu_us_per_op,
        });

        check_recorded(&plan, &oracle, &capacity.recorded, &mut tally);
        instance.acked.extend(paced.acked);
        instance.acked.extend(capacity.acked);
        if workload.spec.kind == Kind::Mixed && i + 1 == INSTANCES {
            instance.verify_extents(bench, &plan, &mut tally)?;
        } else {
            instance.finish()?;
        }
    }

    // Chunk values of all instances pooled, then the quiet decile; see
    // `stats::quiet_decile` for why not the median.
    let pooled = |f: fn(&InstanceChunks) -> &Vec<f64>, better: Better| {
        let all: Vec<f64> = chunks.iter().flat_map(|c| f(c).iter().copied()).collect();
        quiet_decile(&all, better)
    };
    let mut values = Values::default();
    let totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    values.set("setup_s", min(&totals));
    values.set("ops_per_s", pooled(|c| &c.ops_per_s, Better::Higher));
    values.set("op_p50_us", pooled(|c| &c.p50_us, Better::Lower));
    values.set("op_p90_us", pooled(|c| &c.p90_us, Better::Lower));
    values.set(
        "server_cpu_us_per_op",
        pooled(|c| &c.cpu_us_per_op, Better::Lower),
    );
    // Memory grows in steps (a table doubling); the median probe of the
    // fixed-rate, fixed-length paced phase does not care where inside
    // the phase a step fell, a mean or a last reading would.
    values.set(
        "server_rss_mb",
        median(&chunks.iter().map(|c| median(&c.rss_mb)).collect::<Vec<_>>()),
    );
    Ok(Untraced {
        values,
        tally,
        setups,
        chunks,
        generator_cpu_share: ratio(busy_ns as f64, wall_ns as f64),
        paced_samples,
    })
}

/// Everything the traced run produced.
pub struct Traced {
    pub values: Values,
    pub tally: Tally,
    /// Queries: replayed plan + execute | `subq_server_query_ns` | paced
    /// query p50.
    pub reconciliation: Reconciliation,
    /// Transactions (`mixed_rw` only): replayed commit |
    /// `subq_server_commit_ns` | paced transaction p50.
    pub txn_reconciliation: Option<Reconciliation>,
    pub request_spans: Vec<(&'static str, RequestSpan)>,
    pub layer_spans: Vec<LayerSpan>,
    /// Layer spans that stick out of their replayed request (must be 0).
    pub span_violations: usize,
}

pub fn traced(bench: &Bench, workload: &Workload, seconds: f64) -> io::Result<Traced> {
    let oracle = Oracle::build(workload);
    let plan = Plan::new(workload, &oracle);
    let spec = workload.spec;
    // Half the time paced; the other half in four capacity windows.
    let paced_seconds = seconds / 2.0;
    let window = seconds / 8.0;
    let stream = plan.paced_stream(paced_seconds, &oracle);

    let mut tally = Tally::default();
    let mut instance = Instance::start(bench, &plan, &format!("{}-traced", spec.name), &mut tally)?;
    let (own_cpu, began) = (cpu_ticks_ns(std::process::id()), Instant::now());

    let (before, first_reply) = Exposition::scrape(&mut instance.conns[0])?;
    let start = phase_start();
    let paced = paced_phase(&mut instance.conns, stream, start, true);
    let (after, _) = Exposition::scrape(&mut instance.conns[0])?;
    tally.add(&paced);

    // (completions, seconds) per side. The windows go untraced, traced,
    // traced, untraced: whatever drifts over the instance's life (memos
    // and the WAL grow) lands on both sides alike.
    let (mut plain, mut spanned) = ((0.0, 0.0), (0.0, 0.0));
    let mut request_spans: Vec<(&'static str, RequestSpan)> =
        paced.spans.iter().map(|s| ("paced", *s)).collect();
    for (round, traced) in [(0u64, false), (0, true), (1, true), (1, false)] {
        let phase = if traced {
            Phase::Traced
        } else {
            Phase::Capacity
        };
        // Each side's second window continues its phase's index range
        // where the first stopped, so no shape repeats.
        let outcome = closed_phase(
            &mut instance.conns,
            &plan,
            phase,
            round << 22,
            Instant::now(),
            window,
            u64::MAX,
            traced,
        );
        tally.add(&outcome);
        check_recorded(&plan, &oracle, &outcome.recorded, &mut tally);
        let side = if traced { &mut spanned } else { &mut plain };
        side.0 += rate(&outcome.samples, window) * window;
        side.1 += window;
        request_spans.extend(outcome.spans.iter().map(|s| ("capacity", *s)));
    }
    let (plain, spanned) = (ratio(plain.0, plain.1), ratio(spanned.0, spanned.1));
    let generator_cpu_share = ratio(
        (cpu_ticks_ns(std::process::id()) - own_cpu) as f64,
        began.elapsed().as_nanos() as f64,
    );
    let setup = instance.setup;
    instance.finish()?;

    let replayed = replay::run(
        workload,
        CONNS,
        plan.paced_per_conn(paced_seconds),
        TRACE_REQUESTS,
    );
    let c = &replayed.counters;
    let n = &replayed.nanos;
    let (queries, txns) = (c.queries as f64, c.txns as f64);
    let span_violations = span_violations(&replayed.spans);
    tally.check(span_violations == 0, || {
        format!("{span_violations} layer spans stick out of their replayed request")
    });

    // The server's side of the paced phase.
    let served_queries = after.delta(&before, "subq_server_queries_total");
    let served_commits = after.delta(&before, "subq_server_commits_total");
    let served = served_queries + served_commits;
    let all_us: Vec<f64> = paced.samples.iter().map(|s| s.micros).collect();
    // Reconciled on queries (every workload has them): a mixed median
    // against a mean over two op types would compare unlike things. The
    // transaction side of `mixed_rw` is printed on its own line.
    let query_service_us = after.mean(&before, "subq_server_query_ns") / 1e3;
    let commit_service_us = after.mean(&before, "subq_server_commit_ns") / 1e3;
    let reconciliation = reconcile(
        replayed.per_query_us(n.plan + n.execute),
        query_service_us,
        percentile(&paced.query_us, 50.0),
    );
    let txn_reconciliation = (txns > 0.0).then(|| {
        reconcile(
            replayed.per_txn_us(n.commit),
            commit_service_us,
            percentile(&paced.txn_us, 50.0),
        )
    });

    let mut v = Values::default();
    v.set("dl.parse_query_us", replayed.per_query_us(n.dl_parse_query));
    v.set(
        "translate.query_us",
        replayed.per_query_us(n.translate_query),
    );
    v.set(
        "calculus.subsumes_fresh_us",
        replayed.per_query_us(n.subsumes_fresh),
    );
    v.set(
        "calculus.fact_saturations_per_query",
        ratio(c.fact_saturations as f64, queries),
    );
    v.set(
        "calculus.probes_per_query",
        ratio(c.fresh_probes as f64, queries),
    );
    v.set(
        "calculus.cache_hit_ratio",
        ratio(
            c.cached_probes as f64,
            (c.cached_probes + c.fresh_probes) as f64,
        ),
    );
    v.set(
        "calculus.constraints_examined_per_query",
        ratio(c.constraints_examined as f64, queries),
    );
    v.set(
        "calculus.saturation_evictions_per_query",
        ratio(c.saturation_evictions as f64, queries),
    );
    v.set("oodb.plan_us", replayed.per_query_us(n.plan));
    v.set(
        "oodb.views.probes_pruned_per_query",
        ratio(c.probes_pruned as f64, queries),
    );
    v.set("oodb.views.hit_ratio", ratio(c.view_hits as f64, queries));
    v.set("oodb.execute_us", replayed.per_query_us(n.execute));
    v.set(
        "oodb.eval.candidates_per_answer",
        ratio(c.candidates_examined as f64, c.answers as f64),
    );
    v.set(
        "oodb.eval.answers_per_query",
        ratio(c.answers as f64, queries),
    );
    v.set("oodb.commit_us", replayed.per_txn_us(n.commit));
    v.set(
        "oodb.maintain.memberships_per_txn",
        ratio(c.maintain_memberships as f64, txns),
    );
    v.set(
        "oodb.maintain.candidates_per_txn",
        ratio(c.maintain_candidates as f64, txns),
    );
    v.set(
        "oodb.maintain.lattice_prunes_per_txn",
        ratio(c.maintain_lattice_prunes as f64, txns),
    );
    v.set(
        "oodb.maintain.full_reevaluations",
        c.maintain_full_reevaluations as f64,
    );
    v.set(
        "oodb.stats.entries_touched_per_txn",
        ratio(c.stats_entries_touched as f64, txns),
    );
    v.set(
        "oodb.durable.fsync_us",
        after.mean(&before, "subq_wal_fsync_ns") / 1e3,
    );
    v.set(
        "oodb.durable.fsyncs_per_txn",
        ratio(
            after.delta(&before, "subq_wal_fsync_ns_count"),
            served_commits,
        ),
    );
    v.set(
        "oodb.durable.wal_bytes_per_txn",
        ratio(c.wal_bytes as f64, txns),
    );
    v.set("oodb.durable.checkpoint_ms", setup.checkpoint_ms);
    v.set(
        "oodb.durable.image_bytes_per_object",
        ratio(c.image_bytes as f64, spec.objects as f64),
    );
    v.set("oodb.durable.recover_ms", setup.recover_ms);
    v.set("oodb.durable.recovered_records", c.recovered_records as f64);
    v.set(
        "oodb.snapshot.publish_us",
        after.mean(&before, "subq_commit_publish_ns") / 1e3,
    );
    v.set(
        "oodb.snapshot.reader_sync_us",
        replayed.per_txn_us(n.reader_sync),
    );
    v.set("server.frame.decode_us", replayed.per_op_us(n.frame_decode));
    v.set("server.frame.encode_us", replayed.per_op_us(n.frame_encode));
    v.set(
        "server.proto.parse_request_us",
        replayed.per_op_us(n.parse_request),
    );
    v.set(
        "server.proto.render_response_us",
        replayed.per_op_us(n.render_response),
    );
    // The second scrape's request is in the delta, and so is the first
    // scrape's reply (counted as sent after it was rendered).
    let stats_request = (subq_server::HEADER_LEN + "STATS".len()) as f64;
    v.set(
        "server.bytes_in_per_op",
        ratio(
            after.delta(&before, "subq_server_bytes_in_total") - stats_request,
            served,
        ),
    );
    v.set(
        "server.bytes_out_per_op",
        ratio(
            after.delta(&before, "subq_server_bytes_out_total") - first_reply as f64,
            served,
        ),
    );
    v.set("server.query_service_us", query_service_us);
    v.set("server.commit_service_us", commit_service_us);
    v.set("server.residual_us", reconciliation.residual_us);
    v.set("server.unattributed_us", reconciliation.unattributed_us);
    v.set(
        "server.busy_per_op",
        ratio(after.delta(&before, "subq_server_busy_total"), served),
    );
    v.set(
        "server.writer.batch_records_p50",
        if after.delta(&before, "subq_wal_batch_records_count") > 0.0 {
            after.get("subq_wal_batch_records{quantile=\"0.5\"}")
        } else {
            0.0
        },
    );
    v.set("load.query_p50_us", percentile(&paced.query_us, 50.0));
    v.set("load.query_p99_us", percentile(&paced.query_us, 99.0));
    v.set("load.txn_p50_us", percentile(&paced.txn_us, 50.0));
    v.set("load.txn_p99_us", percentile(&paced.txn_us, 99.0));
    v.set("load.op_p99_us", percentile(&all_us, 99.0));
    v.set("load.late_p99_us", percentile(&paced.late_us, 99.0));
    v.set(
        "load.parse_response_us",
        ratio(paced.check_ns as f64 / 1e3, paced.replies as f64),
    );
    v.set("load.generator_cpu_share", generator_cpu_share);
    v.set("load.setup.spawn_ms", setup.spawn_ms);
    v.set("load.setup.materialize_ms", setup.materialize_ms);
    v.set("load.setup.bulk_load_ms", setup.bulk_load_ms);
    v.set("load.setup.restart_ms", setup.restart_ms);
    v.set("replay.layer_sum_us", replayed.layer_sum_us());
    v.set("trace.capacity_ops_per_s", spanned);
    v.set("trace.overhead_ratio", ratio(spanned, plain));

    Ok(Traced {
        values: v,
        tally,
        reconciliation,
        txn_reconciliation,
        request_spans: request_spans
            .into_iter()
            .filter(|(_, s)| s.index * (CONNS as u64) + (s.conn as u64) < TRACE_REQUESTS)
            .collect(),
        layer_spans: replayed.spans,
        span_violations,
    })
}

/// Layer spans not contained in the `replay.request` span of the same
/// request.
fn span_violations(spans: &[LayerSpan]) -> usize {
    let mut pending: Vec<&LayerSpan> = Vec::new();
    let mut violations = 0;
    // A request's layer spans precede its root in recording order.
    for span in spans {
        if span.name == "replay.request" {
            for child in pending.drain(..) {
                let same = child.conn == span.conn && child.index == span.index;
                if !same || child.start_us < span.start_us || child.end_us > span.end_us {
                    violations += 1;
                }
            }
        } else {
            pending.push(span);
        }
    }
    violations + pending.len()
}
