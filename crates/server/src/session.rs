//! Per-connection state: a nonblocking socket, the frame decoder, the
//! FIFO of parsed-but-unprocessed requests, and the FIFO of replies in
//! flight — some ready, some waiting on a writer [`Ticket`].
//!
//! Replies leave in request order, always. A query that arrives behind a
//! pending transaction therefore *waits* for the ticket, which also
//! buys read-your-writes: the session remembers the last version the
//! writer acknowledged to it, and a query only evaluates once the
//! worker's reader has adopted a snapshot at least that new (the writer
//! publishes before it completes the ticket, so the wait is one
//! `Reader::sync` away).
//!
//! Backpressure is structural: reading stops while the parsed-request
//! queue is at `inbox_limit` or the outbound buffer is over
//! `outbound_limit` (a slow reader throttles *itself*, not the server),
//! and a session that makes no progress for `idle_timeout` is closed.
//! Every buffer in sight is bounded by configuration.
//!
//! A session never waits by itself. What its worker should block on is
//! read off the state above ([`Session::pollfd`]): readable exactly
//! when [`Session::pump`] would read, writable exactly while output is
//! unsent, nothing at all while the only thing owed is a writer ticket —
//! that one arrives through the worker's [`Waker`].

use crate::frame::{encode_frame, FrameDecoder, FrameError};
use crate::poller::{PollFd, Waker};
use crate::proto::{ErrorCode, Request, Response};
use crate::server::{ServerConfig, ServerStats};
use crate::writer::{Ticket, WriteCmd, WriteRequest};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;
use subq_dl::{DlModel, PathFilter, QueryClassDecl};
use subq_oodb::Reader;

/// A parsed frame awaiting processing, or a reply decided at parse time
/// (kept in the same queue so replies stay in request order).
enum WorkItem {
    Do(Request),
    Reply(Response),
}

/// An ordered reply: ready to send, or waiting on the writer.
enum Outcome {
    Ready(Response),
    Waiting {
        ticket: Ticket,
        /// When the command was queued — the op-class latency histograms
        /// measure submission to completion.
        submitted: Instant,
        /// DDL (DEFVIEW/MATERIALIZE) vs. transaction, for the histogram
        /// split.
        ddl: bool,
    },
}

pub(crate) struct Session {
    stream: TcpStream,
    decoder: FrameDecoder,
    work: VecDeque<WorkItem>,
    replies: VecDeque<Outcome>,
    /// Write tickets in `replies` not yet completed.
    outstanding: usize,
    outbound: Vec<u8>,
    /// Prefix of `outbound` already written to the socket.
    sent: usize,
    /// Highest version the writer acknowledged to *this* session.
    last_committed: u64,
    last_activity: Instant,
    /// No more input will be read (EOF, BYE, or a fatal frame error).
    input_done: bool,
    /// Close once every queued reply has flushed.
    closing: bool,
    pub(crate) dead: bool,
}

impl Session {
    pub(crate) fn new(stream: TcpStream, config: &ServerConfig) -> std::io::Result<Session> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Session {
            stream,
            decoder: FrameDecoder::new(config.max_payload),
            work: VecDeque::new(),
            replies: VecDeque::new(),
            outstanding: 0,
            outbound: Vec::new(),
            sent: 0,
            last_committed: 0,
            last_activity: Instant::now(),
            input_done: false,
            closing: false,
            dead: false,
        })
    }

    fn push_reply(&mut self, response: Response) {
        self.replies.push_back(Outcome::Ready(response));
    }

    /// One round of work; returns whether anything progressed. Write
    /// commands go out on `tx` naming `waker`, the pumping worker's.
    pub(crate) fn pump(
        &mut self,
        reader: &mut Reader,
        tx: &SyncSender<WriteRequest>,
        waker: &Arc<Waker>,
        config: &ServerConfig,
        stats: &ServerStats,
        now: Instant,
    ) -> bool {
        let mut progressed = false;
        progressed |= self.read_input(config, stats);
        progressed |= self.process_work(reader, tx, waker, config, stats);
        progressed |= self.flush_replies(stats);
        progressed |= self.write_output();
        if progressed {
            self.last_activity = now;
        }
        let drained = self.work.is_empty() && self.replies.is_empty() && self.flushed();
        if self.closing && drained {
            self.dead = true;
        }
        if self.input_done && !self.closing && drained {
            // The peer is gone and nothing is owed: close quietly.
            self.dead = true;
        }
        if now.duration_since(self.last_activity) > config.idle_timeout {
            stats.bump(&stats.idle_closes);
            crate::metrics::metrics().idle_closes.inc();
            self.dead = true;
        }
        progressed
    }

    fn flushed(&self) -> bool {
        self.sent == self.outbound.len()
    }

    /// Whether the socket is to be read: not once input has ended, and
    /// not while admission control says the session has enough queued
    /// already — parsed requests at `inbox_limit`, or unsent output at
    /// `outbound_limit`.
    fn wants_input(&self, config: &ServerConfig) -> bool {
        !self.input_done
            && self.work.len() < config.inbox_limit
            && self.outbound.len() - self.sent < config.outbound_limit
    }

    /// What the worker waits on for this session after a pump that
    /// moved nothing. With neither interest the entry is inert, so a
    /// throttled or half-closed peer cannot end the wait by hanging up.
    pub(crate) fn pollfd(&self, config: &ServerConfig) -> PollFd {
        PollFd::new(
            self.stream.as_raw_fd(),
            self.wants_input(config),
            !self.flushed(),
        )
    }

    /// When the idle timeout reaps this session, failing progress
    /// (`None`: a timeout too long to ever come due).
    pub(crate) fn idle_deadline(&self, config: &ServerConfig) -> Option<Instant> {
        self.last_activity.checked_add(config.idle_timeout)
    }

    /// Reads available bytes and extracts complete frames.
    fn read_input(&mut self, config: &ServerConfig, stats: &ServerStats) -> bool {
        if !self.wants_input(config) {
            return false;
        }
        let mut progressed = false;
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.input_done = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    crate::metrics::metrics().bytes_in.add(n as u64);
                    self.decoder.extend(&chunk[..n]);
                    // Stay fair across sessions: one pump ingests at
                    // most ~16 KiB beyond what is already buffered.
                    if self.decoder.buffered() >= 16 * 1024 {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.input_done = true;
                    self.closing = true;
                    break;
                }
            }
        }
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => {
                    progressed = true;
                    self.ingest_frame(&payload, stats);
                }
                Ok(None) => break,
                Err(frame_error) => {
                    // Framing can no longer be trusted: one typed reply,
                    // then the connection closes after flushing.
                    progressed = true;
                    stats.bump(&stats.frame_errors);
                    crate::metrics::metrics().frame_errors.inc();
                    let code = match frame_error {
                        FrameError::TooBig { .. } => ErrorCode::TooBig,
                        FrameError::BadCrc { .. } => ErrorCode::BadCrc,
                    };
                    self.work.push_back(WorkItem::Reply(Response::Error {
                        code,
                        message: frame_error.to_string(),
                    }));
                    self.input_done = true;
                    self.closing = true;
                    break;
                }
            }
        }
        progressed
    }

    fn ingest_frame(&mut self, payload: &[u8], stats: &ServerStats) {
        let text = match std::str::from_utf8(payload) {
            Ok(text) => text,
            Err(_) => {
                stats.bump(&stats.protocol_errors);
                crate::metrics::metrics().protocol_errors.inc();
                self.work.push_back(WorkItem::Reply(Response::Error {
                    code: ErrorCode::Parse,
                    message: "payload is not UTF-8".to_owned(),
                }));
                return;
            }
        };
        match Request::parse(text) {
            Ok(request) => self.work.push_back(WorkItem::Do(request)),
            Err((code, message)) => {
                stats.bump(&stats.protocol_errors);
                crate::metrics::metrics().protocol_errors.inc();
                self.work
                    .push_back(WorkItem::Reply(Response::Error { code, message }));
            }
        }
    }

    /// Processes queued requests head-first; stops at the first one that
    /// must wait (a query behind an unresolved write ticket).
    fn process_work(
        &mut self,
        reader: &mut Reader,
        tx: &SyncSender<WriteRequest>,
        waker: &Arc<Waker>,
        config: &ServerConfig,
        stats: &ServerStats,
    ) -> bool {
        let mut progressed = false;
        while let Some(head) = self.work.front() {
            match head {
                WorkItem::Reply(_) => {
                    let WorkItem::Reply(response) = self.work.pop_front().expect("peeked") else {
                        unreachable!()
                    };
                    self.push_reply(response);
                }
                WorkItem::Do(Request::Ping) => {
                    self.work.pop_front();
                    self.push_reply(Response::Pong {
                        version: reader.data_version(),
                    });
                }
                WorkItem::Do(Request::Bye) => {
                    self.work.clear();
                    self.push_reply(Response::Ok {
                        version: reader.data_version(),
                    });
                    self.input_done = true;
                    self.closing = true;
                }
                WorkItem::Do(Request::Query(query)) => {
                    // Reply order is request order, and answers must not
                    // run behind this session's own acknowledged writes.
                    if self.outstanding > 0 || reader.data_version() < self.last_committed {
                        break;
                    }
                    let response = match validate_query(reader.database().model(), query) {
                        Err(response) => {
                            stats.bump(&stats.protocol_errors);
                            crate::metrics::metrics().protocol_errors.inc();
                            response
                        }
                        Ok(()) => {
                            let metrics = crate::metrics::metrics();
                            let version = reader.data_version();
                            let query = query.clone();
                            let started = Instant::now();
                            let (answers, _) = reader.execute(&query);
                            let names: Vec<String> = answers
                                .iter()
                                .map(|id| reader.database().object_name(*id).to_owned())
                                .collect();
                            let elapsed = started.elapsed();
                            metrics.query_ns.record(elapsed.as_nanos() as u64);
                            if let Some(threshold) = config.slow_query_us {
                                let micros = elapsed.as_micros() as u64;
                                if micros >= threshold {
                                    stats.slow_log.record(micros, query.name.as_str());
                                }
                            }
                            stats.bump(&stats.queries);
                            metrics.queries.inc();
                            Response::Answers { version, names }
                        }
                    };
                    self.work.pop_front();
                    self.push_reply(response);
                }
                WorkItem::Do(Request::Explain(query)) => {
                    // Gated exactly like a query: the explained plan must
                    // see this session's own acknowledged writes.
                    if self.outstanding > 0 || reader.data_version() < self.last_committed {
                        break;
                    }
                    let response = match validate_query(reader.database().model(), query) {
                        Err(response) => {
                            stats.bump(&stats.protocol_errors);
                            crate::metrics::metrics().protocol_errors.inc();
                            response
                        }
                        Ok(()) => {
                            let _span = crate::metrics::metrics().explain_ns.span();
                            let version = reader.data_version();
                            let query = query.clone();
                            let report = reader.explain(&query);
                            Response::Report {
                                version,
                                lines: report.render_lines(),
                            }
                        }
                    };
                    self.work.pop_front();
                    self.push_reply(response);
                }
                WorkItem::Do(Request::Stats { slow }) => {
                    let version = reader.data_version();
                    let lines = if *slow {
                        stats
                            .slow_log
                            .entries()
                            .into_iter()
                            .map(|e| format!("{} {}", e.micros, e.label))
                            .collect()
                    } else {
                        subq_telemetry::global()
                            .render()
                            .lines()
                            .map(str::to_owned)
                            .collect()
                    };
                    self.work.pop_front();
                    self.push_reply(Response::Report { version, lines });
                }
                WorkItem::Do(
                    Request::Txn(_)
                    | Request::DefView(_)
                    | Request::Materialize { .. }
                    | Request::Advise,
                ) => {
                    if self.replies.len() >= config.inbox_limit {
                        // Bound the per-session ticket fan-out too.
                        break;
                    }
                    let WorkItem::Do(request) = self.work.pop_front().expect("peeked") else {
                        unreachable!()
                    };
                    let cmd = match request {
                        Request::Txn(ops) => WriteCmd::Txn(ops),
                        Request::DefView(decl) => WriteCmd::DefView(decl),
                        Request::Materialize { name } => WriteCmd::Materialize(name),
                        Request::Advise => WriteCmd::Advise,
                        _ => unreachable!("matched a write request"),
                    };
                    let ddl = !matches!(cmd, WriteCmd::Txn(_));
                    let ticket = Ticket::new();
                    match tx.try_send(WriteRequest {
                        cmd,
                        ticket: ticket.clone(),
                        waker: waker.clone(),
                    }) {
                        Ok(()) => {
                            crate::metrics::metrics().queue_depth.add(1);
                            self.outstanding += 1;
                            self.replies.push_back(Outcome::Waiting {
                                ticket,
                                submitted: Instant::now(),
                                ddl,
                            });
                        }
                        Err(TrySendError::Full(_)) => {
                            stats.bump(&stats.busy_replies);
                            crate::metrics::metrics().busy_replies.inc();
                            self.push_reply(Response::Busy {
                                detail: format!(
                                    "write queue of {} is full; retry",
                                    config.write_queue
                                ),
                            });
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            self.push_reply(Response::Error {
                                code: ErrorCode::Internal,
                                message: "writer is gone".to_owned(),
                            });
                            self.closing = true;
                        }
                    }
                }
            }
            progressed = true;
            if self.closing {
                break;
            }
        }
        progressed
    }

    /// Moves completed replies, in order, into the outbound buffer.
    fn flush_replies(&mut self, stats: &ServerStats) -> bool {
        let mut progressed = false;
        loop {
            let completed = match self.replies.front() {
                None => break,
                Some(Outcome::Ready(_)) => None,
                Some(Outcome::Waiting {
                    ticket,
                    submitted,
                    ddl,
                }) => match ticket.take() {
                    Some(response) => Some((response, *submitted, *ddl)),
                    None => break,
                },
            };
            let response = match completed {
                Some((response, submitted, ddl)) => {
                    self.outstanding -= 1;
                    let metrics = crate::metrics::metrics();
                    let histogram = if ddl {
                        &metrics.ddl_ns
                    } else {
                        &metrics.commit_ns
                    };
                    histogram.record(submitted.elapsed().as_nanos() as u64);
                    if let Response::Committed { version } = &response {
                        self.last_committed = (*version).max(self.last_committed);
                        stats.bump(&stats.commits);
                        metrics.commits.inc();
                    }
                    self.replies.pop_front();
                    response
                }
                None => {
                    let Some(Outcome::Ready(response)) = self.replies.pop_front() else {
                        unreachable!("peeked a ready reply")
                    };
                    response
                }
            };
            encode_frame(response.render().as_bytes(), &mut self.outbound);
            progressed = true;
        }
        progressed
    }

    /// Writes buffered output; compacts once fully flushed.
    fn write_output(&mut self) -> bool {
        let mut progressed = false;
        while self.sent < self.outbound.len() {
            match self.stream.write(&self.outbound[self.sent..]) {
                Ok(0) => break,
                Ok(n) => {
                    self.sent += n;
                    crate::metrics::metrics().bytes_out.add(n as u64);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.flushed() && self.sent > 0 {
            self.outbound.clear();
            self.sent = 0;
        }
        progressed
    }
}

/// Rejects queries whose names the model does not declare. The evaluator
/// itself is total, but it *skips* unknown `isA` names — which would
/// silently widen the candidate set to the universe — so the wire
/// boundary insists every referenced name exists.
fn validate_query(model: &DlModel, query: &QueryClassDecl) -> Result<(), Response> {
    let unknown = |what: &str, name: &str| {
        Err(Response::Error {
            code: ErrorCode::Unknown,
            message: format!("unknown {what} {name}"),
        })
    };
    for sup in &query.is_a {
        if model.class(sup).is_none() {
            return unknown("class", sup);
        }
    }
    for path in &query.derived {
        for step in &path.steps {
            let known = model
                .attributes
                .iter()
                .any(|a| a.name == step.attr || a.inverse.as_deref() == Some(step.attr.as_str()));
            if !known {
                return unknown("attribute", &step.attr);
            }
            if let PathFilter::Class(class) = &step.filter {
                if model.class(class).is_none() && model.query_class(class).is_none() {
                    return unknown("class", class);
                }
            }
        }
    }
    Ok(())
}
