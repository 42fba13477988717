//! The single-writer command funnel.
//!
//! Workers never touch the [`OptimizedDatabase`]: every mutation travels
//! as a [`WriteRequest`] through one bounded channel into the writer
//! thread that owns it (the oidadb `edb_job_t` shape — scheduled writes,
//! threadsafe reads through handles). The writer drains whatever has
//! queued, applies each command as its own transaction, and forces
//! **one** fsync over the whole drained batch; the batch's state is
//! published after that fsync and before any ticket completes: an
//! acknowledged commit is a durable commit, nobody reads a commit before
//! its fsync, and the stable-storage barrier is amortized exactly like
//! the WAL's own group commit (E13 measures that curve; E14 measures this
//! end of it). A volatile store runs the same sequence over a backend
//! that keeps nothing.
//!
//! DDL is group-committed the same way. `DEFVIEW` and `MATERIALIZE`
//! change the catalog but write nothing themselves: the drained batch
//! writes **one** checkpoint image per run of consecutive DDL — before
//! the next non-DDL command applies, or at the batch's end, and always
//! before any ticket completes. An acknowledged view is therefore in an
//! image on disk, and no `TXN` record ever reaches the WAL behind a view
//! no image holds yet.
//!
//! A clean stop (every worker has dropped its sender) writes one more
//! image before the writer returns, so the next start decodes it and
//! replays nothing; a failed stop image leaves the previous image and
//! the WAL as they were and is reported like any other durable failure.
//!
//! Nobody polls for a completion: every request names its worker's
//! [`Waker`], and after a batch's fsync and its last completed ticket
//! the writer wakes each distinct worker of the batch once. An idle
//! writer blocks in the channel until a command arrives or an advisor
//! pass is due.
//!
//! Admission control lives at the channel: it is a rendezvous of size
//! `ServerConfig::write_queue`, workers only ever `try_send`, and a full
//! queue turns into a typed `BUSY` reply instead of buffering — the
//! writer can be *behind*, never *besieged*.

use crate::poller::Waker;
use crate::proto::{ErrorCode, Response, TxnOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use subq_dl::{validate_model, DlModel, QueryClassDecl};
use subq_oodb::views::ViewError;
use subq_oodb::{Database, DurableError, OptimizedDatabase};
use subq_telemetry::log;

/// A mutation command, already parsed and ready for the writer.
#[derive(Clone, Debug)]
pub enum WriteCmd {
    /// One transaction of ops, applied atomically.
    Txn(Vec<TxnOp>),
    /// Declare a query class (schema DDL) and materialize it as a view.
    DefView(QueryClassDecl),
    /// Materialize an already-declared query or schema class.
    Materialize(String),
    /// Force one advisor pass and report the candidate table.
    Advise,
}

/// The completion slot the writer fills and the owning session empties
/// once its worker has been woken. Single producer, single consumer.
#[derive(Clone, Debug)]
pub struct Ticket(Arc<Mutex<Option<Response>>>);

impl Ticket {
    pub(crate) fn new() -> Ticket {
        Ticket(Arc::new(Mutex::new(None)))
    }

    pub(crate) fn complete(&self, response: Response) {
        *self.0.lock().expect("ticket poisoned") = Some(response);
    }

    /// Takes the response once the writer has produced it.
    pub(crate) fn take(&self) -> Option<Response> {
        self.0.lock().expect("ticket poisoned").take()
    }
}

/// One queued command, its completion slot, and whom to wake once the
/// slot is filled.
#[derive(Debug)]
pub struct WriteRequest {
    pub cmd: WriteCmd,
    pub ticket: Ticket,
    pub waker: Arc<Waker>,
}

fn internal(message: &str) -> Response {
    Response::Error {
        code: ErrorCode::Internal,
        message: message.to_owned(),
    }
}

/// Validates every op against the model: transactions are rejected
/// atomically (nothing applied) when they reference undeclared classes
/// or attributes, so a client typo cannot grow shadow extents no query
/// can see.
fn validate_txn(model: &DlModel, ops: &[TxnOp]) -> Result<(), Response> {
    let known_attr = |name: &str| {
        model
            .attributes
            .iter()
            .any(|a| a.name == name || a.inverse.as_deref() == Some(name))
    };
    for op in ops {
        match op {
            TxnOp::Add { .. } => {}
            TxnOp::Class { class, .. } => {
                if model.class(class).is_none() {
                    return Err(Response::Error {
                        code: ErrorCode::Unknown,
                        message: format!("unknown class {class}"),
                    });
                }
            }
            TxnOp::Attr { attr, .. } => {
                if !known_attr(attr) {
                    return Err(Response::Error {
                        code: ErrorCode::Unknown,
                        message: format!("unknown attribute {attr}"),
                    });
                }
            }
        }
    }
    Ok(())
}

fn apply_op(db: &mut Database, op: &TxnOp) {
    match op {
        TxnOp::Add { object } => {
            db.add_object(object);
        }
        TxnOp::Class {
            assert,
            object,
            class,
        } => {
            let id = db.add_object(object);
            if *assert {
                db.assert_class(id, class);
            } else {
                db.retract_class(id, class);
            }
        }
        TxnOp::Attr {
            assert,
            from,
            attr,
            to,
        } => {
            let (from, to) = (db.add_object(from), db.add_object(to));
            if *assert {
                db.assert_attr(from, attr, to);
            } else {
                db.retract_attr(from, attr, to);
            }
        }
    }
}

/// Validates a DEFVIEW against a *clone* of the model before letting it
/// anywhere near [`OptimizedDatabase::update`], whose contract is that
/// schema mutations keep the model translatable (it panics otherwise —
/// a panic no wire client may be able to trigger). A query class with a
/// constraint clause is no view (its stored answers would be unsound for
/// subsumed queries), so it is refused before anything is declared.
fn validate_defview(model: &DlModel, decl: &QueryClassDecl) -> Result<(), Response> {
    let reject = |message: String| Response::Error {
        code: ErrorCode::Parse,
        message,
    };
    if decl.name.starts_with(subq_oodb::AUTO_VIEW_PREFIX) {
        return Err(reject(format!(
            "the {} name prefix is reserved for advisor-materialized views",
            subq_oodb::AUTO_VIEW_PREFIX
        )));
    }
    if !decl.is_view() {
        return Err(reject(
            ViewError::NotStructural {
                query: decl.name.clone(),
            }
            .to_string(),
        ));
    }
    if model.class(&decl.name).is_some() || model.query_class(&decl.name).is_some() {
        return Err(reject(format!("{} is already declared", decl.name)));
    }
    let mut candidate = model.clone();
    candidate.queries.push(decl.clone());
    let errors = validate_model(&candidate);
    if let Some(first) = errors.first() {
        return Err(reject(format!("invalid view definition: {first}")));
    }
    subq_translate::translate_model(&candidate)
        .map_err(|e| reject(format!("untranslatable view definition: {e}")))?;
    Ok(())
}

/// Applies one command; `Err` means the durable engine failed and the
/// server must stop taking writes. DDL leaves its image to the drain
/// loop.
fn apply_cmd(db: &mut OptimizedDatabase, cmd: &WriteCmd) -> Result<Response, DurableError> {
    match cmd {
        WriteCmd::Txn(ops) => {
            if let Err(reply) = validate_txn(db.database().model(), ops) {
                return Ok(reply);
            }
            db.commit_durable(|db| {
                for op in ops {
                    apply_op(db, op);
                }
            })?;
            Ok(Response::Committed {
                version: db.database().data_version(),
            })
        }
        WriteCmd::DefView(decl) => {
            if let Err(reply) = validate_defview(db.database().model(), decl) {
                return Ok(reply);
            }
            let decl = decl.clone();
            let name = decl.name.clone();
            db.update(|db| db.model_mut().queries.push(decl));
            db.materialize_view(&name)
                .expect("the view was validated and just declared");
            Ok(Response::Ok {
                version: db.database().data_version(),
            })
        }
        WriteCmd::Materialize(name) => {
            if let Err(e) = db.materialize_view(name) {
                return Ok(Response::Error {
                    code: ErrorCode::Unknown,
                    message: e.to_string(),
                });
            }
            Ok(Response::Ok {
                version: db.database().data_version(),
            })
        }
        WriteCmd::Advise => {
            db.run_advisor()?;
            Ok(Response::Report {
                version: db.database().data_version(),
                lines: db.advisor_report(),
            })
        }
    }
}

/// One advisor pass between batches.
fn advisor_tick(db: &mut OptimizedDatabase) -> Result<(), DurableError> {
    let pass = db.run_advisor()?;
    if !pass.materialized.is_empty() || !pass.evicted.is_empty() {
        log::info(|| {
            format!(
                "advisor pass: materialized={:?} evicted={:?} harvested={}",
                pass.materialized, pass.evicted, pass.harvested
            )
        });
    }
    Ok(())
}

/// The writer thread. It ends when every worker has dropped its sender
/// (shutdown: the woken workers exit first; the writer then writes its
/// stop image), when the durable engine fails, or when it panics; the
/// last two raise `crashed` and wake `wakers` — every worker and the
/// acceptor — which is the only way a blocked thread learns that nothing
/// more will be acknowledged.
pub(crate) fn run_writer(
    mut db: OptimizedDatabase,
    rx: Receiver<WriteRequest>,
    crashed: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    advisor_interval: Option<Duration>,
) {
    let mut end = WriterEnd {
        crashed,
        wakers,
        failed: false,
    };
    end.failed = serve_writes(&mut db, &rx, &end.crashed, advisor_interval).is_err();
}

/// Raises `crashed` and wakes every waiter when the writer thread ends
/// failed — by a durable error or by unwinding from a panic.
struct WriterEnd {
    crashed: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    failed: bool,
}

impl Drop for WriterEnd {
    fn drop(&mut self) {
        if self.failed || std::thread::panicking() {
            self.crashed.store(true, Ordering::Release);
            for waker in &self.wakers {
                waker.wake();
            }
        }
    }
}

/// Drain, apply (one image per run of DDL), one sync, publish,
/// acknowledge, wake; on a clean stop, one last image. Between batches,
/// and when idle for `advisor_interval` (`None`: the advisor is off and
/// an idle writer sleeps until a command arrives), it runs the view
/// advisor — mining and auto-materialization ride the same thread as
/// every other catalog mutation, strictly outside any transaction. `Err`
/// means the durable engine failed; queued requests are left to drown
/// with the channel.
fn serve_writes(
    db: &mut OptimizedDatabase,
    rx: &Receiver<WriteRequest>,
    crashed: &AtomicBool,
    advisor_interval: Option<Duration>,
) -> Result<(), DurableError> {
    let mut last_advice = Instant::now();
    loop {
        let received = match advisor_interval {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(interval) => {
                rx.recv_timeout((last_advice + interval).saturating_duration_since(Instant::now()))
            }
        };
        let first = match received {
            Ok(request) => request,
            Err(RecvTimeoutError::Timeout) => {
                last_advice = Instant::now();
                advisor_tick(db)?;
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => {
                // A clean stop: one image, so the next start replays
                // nothing and refreshes no view.
                let version = db.checkpoint()?;
                log::info(|| format!("shutdown image written at version {version}"));
                return Ok(());
            }
        };
        let mut batch = vec![first];
        while let Ok(request) = rx.try_recv() {
            batch.push(request);
        }
        crate::metrics::metrics()
            .queue_depth
            .sub(batch.len() as i64);
        let batch_len = batch.len();
        let mut completions: Vec<(Ticket, Response)> = Vec::with_capacity(batch_len);
        let mut to_wake: Vec<Arc<Waker>> = Vec::new();
        let mut failure = None;
        // Set by applied DDL, cleared by the image that covers it (a new
        // view or query class is only recoverable through one).
        let mut image_pending = false;
        for request in batch {
            if !to_wake.iter().any(|w| Arc::ptr_eq(w, &request.waker)) {
                to_wake.push(request.waker);
            }
            let ddl = matches!(request.cmd, WriteCmd::DefView(_) | WriteCmd::Materialize(_));
            if image_pending && !ddl && failure.is_none() {
                image_pending = false;
                failure = db.checkpoint().err();
            }
            // Once the engine has failed nothing more is applied; the
            // replies of a failed batch are overwritten below.
            let response = if failure.is_some() {
                internal("durable engine failed")
            } else {
                apply_cmd(db, &request.cmd).unwrap_or_else(|e| {
                    failure = Some(e);
                    internal("durable engine failed")
                })
            };
            image_pending |= ddl && matches!(response, Response::Ok { .. });
            completions.push((request.ticket, response));
        }
        if image_pending && failure.is_none() {
            failure = db.checkpoint().err();
        }
        // Group commit: the whole drained batch rides one fsync, which
        // publishes it, and no ticket completes before it — an ack is a
        // durability promise, and no session reads the batch before its
        // fsync either.
        if failure.is_none() {
            failure = db.sync_durable().err();
        }
        if failure.is_some() {
            // Nothing in the batch was synced, so nothing in it is
            // acknowledged. And `crashed` goes up before any ticket: a
            // client that has read the typed error must find the server
            // already reporting the crash.
            crashed.store(true, Ordering::Release);
            for (_, response) in &mut completions {
                *response = internal("durable engine failed");
            }
        }
        for (ticket, response) in completions {
            ticket.complete(response);
        }
        if let Some(e) = failure {
            return Err(e);
        }
        // Every publication of the batch (a commit whose append synced,
        // an image, the sync above) preceded every completion and every
        // completion precedes the wake, so the woken loop's `sync` adopts a
        // snapshot at least as new as any version it is about to ack.
        for waker in &to_wake {
            waker.wake();
        }
        log::debug(|| {
            format!(
                "writer batch of {batch_len} committed (version={})",
                db.database().data_version()
            )
        });
        if advisor_interval.is_some_and(|interval| last_advice.elapsed() >= interval) {
            last_advice = Instant::now();
            advisor_tick(db)?;
        }
    }
}
