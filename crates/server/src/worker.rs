//! The thread-per-core worker pool.
//!
//! Each worker owns one lock-free [`Reader`] minted from the shared
//! [`SnapshotCell`](subq_oodb::SnapshotCell), a private vector of
//! sessions, and a [`Waker`]; the accept loop deals new connections
//! into per-worker intake slots. No locks are taken on the read path —
//! the only shared mutable state a worker touches per turn is its
//! intake slot and the atomic counters.
//!
//! The loop is readiness-driven. One turn is: drain the waker, adopt
//! the intake, adopt the latest snapshot ([`Reader::sync`] — one
//! pointer clone), pump every session (nonblocking reads, query
//! evaluation against the private reader, completed write tickets,
//! nonblocking writes), drop the dead. A turn that moved something is
//! followed by another at once; a turn that moved nothing is followed
//! by one `poll(2)` over the waker and every session's socket — each
//! with the interest its state implies ([`Session::pollfd`]) — until
//! the nearest idle deadline, or for as long as it takes when there are
//! no sessions. Nothing sleeps between "bytes arrived" or "commit
//! acked" and the reply.
//!
//! Whatever a worker cannot see on a socket reaches it as a wake: a
//! connection dealt into its intake (the acceptor), a batch of
//! completed tickets (the writer, once per batch), shutdown
//! ([`Server`](crate::Server)), a failed durable engine (the writer).
//! The waker is drained *first* in a turn and all of that state is read
//! afterwards, so a wake that lands anywhere later in the turn leaves
//! its byte in the pipe and ends the coming wait immediately. There is
//! no periodic safety tick on purpose: a lost wake-up must hang a test,
//! not hide as a stall nobody measures.

use crate::poller::{self, PollFd, Waker};
use crate::server::{ServerConfig, ServerStats};
use crate::session::Session;
use crate::writer::WriteRequest;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use subq_oodb::Reader;
use subq_telemetry::log;

/// The accept loop's hand-off point into one worker, and the way to end
/// that worker's wait.
pub(crate) struct Intake {
    pub(crate) streams: Mutex<Vec<TcpStream>>,
    pub(crate) waker: Arc<Waker>,
}

pub(crate) fn run_worker(
    mut reader: Reader,
    intake: Arc<Intake>,
    tx: SyncSender<WriteRequest>,
    config: ServerConfig,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    crashed: Arc<AtomicBool>,
) {
    let mut sessions: Vec<Session> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let metrics = crate::metrics::metrics();
        intake.waker.drain();
        if shutdown.load(Ordering::Acquire) || crashed.load(Ordering::Acquire) {
            // Dropping the streams resets the peers; on a durable-engine
            // crash that is the truthful signal — nothing more will be
            // acknowledged.
            stats
                .closed
                .fetch_add(sessions.len() as u64, Ordering::Relaxed);
            metrics.closed.add(sessions.len() as u64);
            metrics.active_sessions.sub(sessions.len() as i64);
            return;
        }
        {
            let mut incoming = intake.streams.lock().expect("intake poisoned");
            for stream in incoming.drain(..) {
                match Session::new(stream, &config) {
                    Ok(session) => {
                        metrics.active_sessions.add(1);
                        sessions.push(session);
                    }
                    Err(_) => {
                        stats.bump(&stats.closed);
                        metrics.closed.inc();
                    }
                }
            }
        }
        let mut progressed = reader.sync();
        let now = Instant::now();
        for session in &mut sessions {
            progressed |= session.pump(&mut reader, &tx, &intake.waker, &config, &stats, now);
        }
        let before = sessions.len();
        sessions.retain(|session| !session.dead);
        let dropped = before - sessions.len();
        if dropped > 0 {
            stats.closed.fetch_add(dropped as u64, Ordering::Relaxed);
            metrics.closed.add(dropped as u64);
            metrics.active_sessions.sub(dropped as i64);
            log::debug(|| format!("close {dropped} session(s), {} open", sessions.len()));
            progressed = true;
        }
        if !progressed {
            fds.clear();
            fds.push(intake.waker.pollfd());
            fds.extend(sessions.iter().map(|session| session.pollfd(&config)));
            let deadline = sessions
                .iter()
                .filter_map(|session| session.idle_deadline(&config))
                .min();
            let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            poller::wait(&mut fds, timeout);
            stats.bump(&stats.worker_wakeups);
            metrics.worker_wakeups.inc();
        }
    }
}
