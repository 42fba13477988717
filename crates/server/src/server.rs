//! `subqd` itself: configuration, lifecycle, and the accept loop.
//!
//! [`Server::start`] takes ownership of an [`OptimizedDatabase`] —
//! volatile or opened durably — publishes its state, hands a [`Reader`]
//! to every worker, and moves the database into the single writer
//! thread. From that point the only paths into the data are the ones
//! the paper's architecture prescribes: immutable snapshots outward,
//! one bounded command queue inward.
//!
//! No thread of the server sleeps on a timer to find out whether there
//! is work: workers and the acceptor block in `poll(2)`
//! ([`crate::poller`]), the writer blocks in its channel, and each is
//! woken by whoever produced the work — see [`crate::worker`] for the
//! wake sources and the ordering rule.

use crate::poller::{self, PollFd, Waker};
use crate::worker::{run_worker, Intake};
use crate::writer::{run_writer, WriteRequest};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use subq_oodb::{AdvisorConfig, AdvisorMode, OptimizedDatabase};
use subq_telemetry::{log, SlowLog};

/// How long the acceptor leaves the listener alone after `accept`
/// failed for want of a resource (descriptors, buffers).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Tuning knobs; every buffer the server allocates is bounded by one of
/// these.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Loopback port to bind (0 picks a free one).
    pub port: u16,
    /// Worker threads (0 = one per core).
    pub workers: usize,
    /// Depth of the bounded write-command queue; a full queue answers
    /// `BUSY`.
    pub write_queue: usize,
    /// Parsed requests a session may have queued before the server stops
    /// reading its socket (admission control).
    pub inbox_limit: usize,
    /// Outbound bytes a session may have buffered before the server
    /// stops reading its socket (slow-reader protection).
    pub outbound_limit: usize,
    /// Cap on one frame's payload.
    pub max_payload: usize,
    /// A session with no progress for this long is closed.
    pub idle_timeout: Duration,
    /// Queries slower than this many microseconds are recorded in the
    /// slow-query ring (`None` disables the log).
    pub slow_query_us: Option<u64>,
    /// The workload-adaptive view advisor: mode and budget (off by
    /// default). See [`subq_oodb::advisor`].
    pub advisor: AdvisorConfig,
    /// Minimum spacing between automatic advisor passes on the writer
    /// thread (an explicit `ADVISE` always forces one).
    pub advisor_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: 0,
            write_queue: 64,
            inbox_limit: 32,
            outbound_limit: 1 << 22,
            max_payload: crate::frame::DEFAULT_MAX_PAYLOAD,
            idle_timeout: Duration::from_secs(30),
            slow_query_us: None,
            advisor: AdvisorConfig::default(),
            advisor_interval: Duration::from_millis(200),
        }
    }
}

/// Cumulative counters, updated by workers and readable at any time.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub accepted: AtomicU64,
    pub closed: AtomicU64,
    pub queries: AtomicU64,
    pub commits: AtomicU64,
    pub busy_replies: AtomicU64,
    /// Survivable per-request errors (parse failures, unknown names).
    pub protocol_errors: AtomicU64,
    /// Fatal framing errors (length over cap, checksum mismatch).
    pub frame_errors: AtomicU64,
    pub idle_closes: AtomicU64,
    /// Returns of a worker from its blocking wait. Wake-ups per
    /// operation is the number that shows the loop is event-driven; an
    /// idle server adds none.
    pub worker_wakeups: AtomicU64,
    /// The slow-query ring `STATS SLOW` reads back (see
    /// [`ServerConfig::slow_query_us`]).
    pub slow_log: SlowLog,
}

impl ServerStats {
    pub(crate) fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running server; dropping it shuts everything down.
pub struct Server {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    crashed: Arc<AtomicBool>,
    /// Every worker's waker and the acceptor's.
    wakers: Vec<Arc<Waker>>,
    threads: Vec<JoinHandle<()>>,
}

/// The accept loop: blocks until the listener is readable or its waker
/// fires (shutdown, crash), accepts everything pending, and deals the
/// streams round-robin, waking the worker each one went to. A failed
/// `accept` never ends it: out of descriptors or buffers, or a peer
/// that aborted in the backlog, are conditions that pass.
fn run_acceptor(
    listener: TcpListener,
    intakes: Vec<Arc<Intake>>,
    waker: Arc<Waker>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    crashed: Arc<AtomicBool>,
) {
    let mut next = 0usize;
    let mut backing_off = false;
    loop {
        // While backing off the listener is left out of the wait — it
        // is still readable and would end it at once.
        let mut fds = [
            PollFd::new(listener.as_raw_fd(), !backing_off, false),
            waker.pollfd(),
        ];
        poller::wait(&mut fds, backing_off.then_some(ACCEPT_BACKOFF));
        backing_off = false;
        waker.drain();
        if shutdown.load(Ordering::Acquire) || crashed.load(Ordering::Acquire) {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    stats.bump(&stats.accepted);
                    crate::metrics::metrics().accepted.inc();
                    log::debug(|| format!("accept {peer}"));
                    let intake = &intakes[next % intakes.len()];
                    next += 1;
                    intake.streams.lock().expect("intake poisoned").push(stream);
                    intake.waker.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    log::info(|| format!("accept failed, retrying in {ACCEPT_BACKOFF:?}: {e}"));
                    backing_off = true;
                    break;
                }
            }
        }
    }
}

impl Server {
    /// Binds a loopback listener and spawns the writer, the workers, and
    /// the accept loop. Every store commits through its WAL with one
    /// fsync per drained batch; durability is inherited from the backend
    /// `db` was opened over, and a volatile store's backend
    /// ([`OptimizedDatabase::new`]) keeps nothing.
    pub fn start(mut db: OptimizedDatabase, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // Publish before handing out readers so every worker starts on
        // the current state, not a stale cell. The advisor config lands
        // first: it flips the recording flag the published cell carries.
        db.set_advisor_config(config.advisor.clone());
        db.publish_snapshot();
        // Resolved once per server start, never per request.
        #[allow(clippy::disallowed_methods)]
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let stats = Arc::new(ServerStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let crashed = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync_channel::<WriteRequest>(config.write_queue.max(1));

        // One waker per worker and, last, the acceptor's — all made
        // before the first thread so a failure here leaves none behind.
        let wakers = (0..=workers)
            .map(|_| Waker::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;

        let mut threads = Vec::with_capacity(workers + 2);
        let mut intakes = Vec::with_capacity(workers);
        for waker in &wakers[..workers] {
            let reader = db.reader();
            let intake = Arc::new(Intake {
                streams: Mutex::new(Vec::new()),
                waker: waker.clone(),
            });
            intakes.push(intake.clone());
            let (tx, config, stats) = (tx.clone(), config.clone(), stats.clone());
            let (shutdown, crashed) = (shutdown.clone(), crashed.clone());
            threads.push(std::thread::spawn(move || {
                run_worker(reader, intake, tx, config, stats, shutdown, crashed)
            }));
        }
        drop(tx);

        {
            let (crashed, wakers) = (crashed.clone(), wakers.clone());
            let advisor_interval =
                (config.advisor.mode != AdvisorMode::Off).then_some(config.advisor_interval);
            threads.push(std::thread::spawn(move || {
                run_writer(db, rx, crashed, wakers, advisor_interval)
            }));
        }

        {
            let (waker, stats) = (wakers[workers].clone(), stats.clone());
            let (shutdown, crashed) = (shutdown.clone(), crashed.clone());
            threads.push(std::thread::spawn(move || {
                run_acceptor(listener, intakes, waker, stats, shutdown, crashed)
            }));
        }

        Ok(Server {
            addr,
            stats,
            shutdown,
            crashed,
            wakers,
            threads,
        })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        self.stats.clone()
    }

    /// True once the durable engine has failed; the server stops
    /// accepting and drops every session — recovery is a fresh
    /// [`OptimizedDatabase::open`] over the surviving files and a new
    /// [`Server::start`].
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Stops accepting, drops every session, and joins all threads — the
    /// writer last, after its stop image when durable. Returns
    /// [`Server::crashed`] as of the join: `true` when the durable engine
    /// failed, the stop image included.
    pub fn shutdown(mut self) -> bool {
        self.stop();
        self.crashed()
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Workers and the acceptor may be blocked with nothing on the
        // way to end the wait; the writer follows once the workers have
        // dropped their senders.
        for waker in &self.wakers {
            waker.wake();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
