//! The load generator: one thread per connection, an open loop for the
//! paced phase and a closed loop for warm-up and the capacity phase, and
//! the per-reply check.
//!
//! Open loop: request `k` of a connection is *due* at a fixed instant
//! and its latency is counted from that instant, so a stall is charged
//! to every request it delayed; how late the generator itself sent is
//! reported beside it. Closed loop: a fixed number of requests in
//! flight per connection, the next one sent when a reply arrives.

use crate::oracle::Expected;
use crate::stats::Sample;
use crate::workload::Fnv;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use subq_server::frame::encode_frame;
use subq_server::{FrameDecoder, Request, Response, TxnOp, DEFAULT_MAX_PAYLOAD};

/// Requests in flight per connection in a closed loop.
pub const WINDOW: usize = 4;
/// `BUSY` replies a request may draw before it counts as failed.
const BUSY_RETRIES: u32 = 3;
/// Silence after which the in-flight requests of a connection are
/// declared failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The one system call std has no safe wrapper for.
///
/// The open loop must wake at a due time *or* when a reply arrives,
/// whichever is first. A socket read timeout (`SO_RCVTIMEO`) is counted
/// in scheduler ticks — 1 to 4 ms, ten times the latencies measured
/// here — while `ppoll` sleeps on a high-resolution timer.
mod sys {
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// `struct pollfd` of the Linux ABI.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `struct timespec` of the 64-bit Linux ABI (`time_t` and `long`
    /// are both 64 bits wide).
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x001;

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }

    /// Whether `fd` became readable (or failed — the read that follows
    /// reports how) within `timeout`. An interrupted wait reads as a
    /// timeout; every caller loops.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn readable_within(fd: RawFd, timeout: Duration) -> bool {
        let mut pollfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let timeout = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos() as i64,
        };
        // SAFETY: `pollfd` and `timeout` are live locals laid out as the
        // kernel's `struct pollfd` and `struct timespec` (`repr(C)`,
        // field for field, on the 64-bit Linux this is compiled for);
        // `nfds` is exactly the one entry passed; the null signal mask
        // asks `ppoll` to leave the thread's mask alone. The call reads
        // the timeout and writes only `pollfd.revents`.
        let ready = unsafe { ppoll(&mut pollfd, 1, &timeout, std::ptr::null()) };
        ready > 0
    }
}

/// What the reply to a request must be.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `ANSWERS` with exactly this content.
    Answers(Expected),
    /// `ANSWERS`, content recorded under this shape index for a check
    /// against the oracle after the phase.
    Recorded(u64),
    /// `ANSWERS` at a version no older than the session's last
    /// acknowledged commit (read-your-writes); content is checked
    /// through the view extents after the run.
    Fresher,
    /// `COMMITTED`; the ops join the acknowledged stream.
    Committed(Vec<TxnOp>),
}

/// A request ready to send.
#[derive(Clone, Debug)]
pub struct Prepared {
    pub frame: Vec<u8>,
    pub expect: Expect,
}

/// A request as the bytes of its frame.
pub fn wire(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(request.render().as_bytes(), &mut frame);
    frame
}

impl Prepared {
    pub fn new(request: &Request, expect: Expect) -> Prepared {
        Prepared {
            frame: wire(request),
            expect,
        }
    }

    fn is_txn(&self) -> bool {
        matches!(self.expect, Expect::Committed(_))
    }
}

/// One round trip as the traced pass records it; times are microseconds
/// from the phase start.
#[derive(Clone, Copy, Debug)]
pub struct RequestSpan {
    pub conn: usize,
    pub index: u64,
    pub txn: bool,
    pub due_us: f64,
    pub sent_us: f64,
    pub replied_us: f64,
}

/// What one connection saw during one phase.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every verified op: when (seconds from the phase start — the due
    /// time in the open loop, the completion in the closed loop) and how
    /// long.
    pub samples: Vec<Sample>,
    pub query_us: Vec<f64>,
    pub txn_us: Vec<f64>,
    /// Open loop only: how long after its due time each request left.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub busy: u64,
    /// Acknowledged transactions with the version each committed at.
    pub acked: Vec<(u64, Vec<TxnOp>)>,
    /// Replies recorded for the post-phase oracle check.
    pub recorded: Vec<(u64, Expected)>,
    /// Time the generator spent decoding and checking replies.
    pub check_ns: u64,
    pub replies: u64,
    pub spans: Vec<RequestSpan>,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Outcome {
    pub fn absorb(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.query_us.extend(other.query_us);
        self.txn_us.extend(other.txn_us);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.acked.extend(other.acked);
        self.recorded.extend(other.recorded);
        self.check_ns += other.check_ns;
        self.replies += other.replies;
        self.spans.extend(other.spans);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }
}

enum Verdict {
    Verified,
    Busy,
    Wrong(String),
}

/// One session: the socket, its frame decoder, and the last version the
/// server acknowledged a commit at.
pub struct Conn {
    pub id: usize,
    stream: TcpStream,
    decoder: FrameDecoder,
    chunk: Vec<u8>,
    last_committed: u64,
}

impl Conn {
    pub fn connect(id: usize, addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            id,
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_PAYLOAD),
            chunk: vec![0u8; 1 << 16],
            last_committed: 0,
        })
    }

    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// One blocking round trip outside any phase (DDL, the bulk load,
    /// `STATS`); also returns the reply's size on the wire.
    pub fn request(&mut self, request: &Request) -> io::Result<(Response, usize)> {
        self.send_request(request)?;
        self.reply()
    }

    /// Sends without waiting, for pipelined DDL; pair with [`Conn::reply`].
    pub fn send_request(&mut self, request: &Request) -> io::Result<()> {
        self.send(&wire(request))
    }

    pub fn reply(&mut self) -> io::Result<(Response, usize)> {
        let payload = self
            .receive(Instant::now() + Duration::from_secs(120))?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no reply in 120 s"))?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply is not UTF-8"))?;
        let response =
            Response::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok((response, payload.len() + subq_server::HEADER_LEN))
    }

    /// The next reply payload, or `None` when `deadline` passes first (a
    /// deadline already past still collects a reply that has arrived).
    fn receive(&mut self, deadline: Instant) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(payload) = self
                .decoder
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                return Ok(Some(payload));
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            if !sys::readable_within(self.stream.as_raw_fd(), wait) {
                return Ok(None);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.decoder.extend(&self.chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Checks one reply against what its request expects.
    fn check(&mut self, payload: &[u8], expect: &Expect, out: &mut Outcome) -> Verdict {
        let split = payload.iter().position(|b| *b == b'\n');
        let (head, body) = match split {
            Some(at) => (&payload[..at], &payload[at + 1..]),
            None => (payload, &payload[payload.len()..]),
        };
        let head = String::from_utf8_lossy(head);
        let mut words = head.split_whitespace();
        let verb = words.next().unwrap_or("");
        let mut number = || words.next().and_then(|w| w.parse::<u64>().ok());
        match (verb, expect) {
            ("BUSY", _) => Verdict::Busy,
            ("COMMITTED", Expect::Committed(ops)) => match number() {
                Some(version) => {
                    self.last_committed = self.last_committed.max(version);
                    out.acked.push((version, ops.clone()));
                    Verdict::Verified
                }
                None => Verdict::Wrong(format!("malformed reply {head:?}")),
            },
            ("ANSWERS", Expect::Answers(_) | Expect::Recorded(_) | Expect::Fresher) => {
                let (Some(version), Some(count)) = (number(), number()) else {
                    return Verdict::Wrong(format!("malformed reply {head:?}"));
                };
                if version < self.last_committed {
                    return Verdict::Wrong(format!(
                        "read-your-writes broken: answered at {version} after a commit at {}",
                        self.last_committed
                    ));
                }
                let got = Expected {
                    count: count as usize,
                    hash: Fnv::of(body),
                };
                match expect {
                    Expect::Answers(want) if *want != got => Verdict::Wrong(format!(
                        "wrong answer: expected {} names, got {count}",
                        want.count
                    )),
                    Expect::Recorded(shape) => {
                        out.recorded.push((*shape, got));
                        Verdict::Verified
                    }
                    Expect::Fresher
                        if body.iter().filter(|b| **b == b'\n').count() != got.count =>
                    {
                        Verdict::Wrong(format!("ANSWERS declared {count} names, body disagrees"))
                    }
                    _ => Verdict::Verified,
                }
            }
            _ => Verdict::Wrong(format!("unexpected reply {head:?}")),
        }
    }
}

struct InFlight {
    request: Prepared,
    index: u64,
    due: Instant,
    sent: Instant,
    busy: u32,
}

/// The driver state both loops share: what is in flight and how a reply
/// is accounted.
struct Driver<'a> {
    conn: &'a mut Conn,
    start: Instant,
    open_loop: bool,
    traced: bool,
    inflight: VecDeque<InFlight>,
    out: Outcome,
}

impl Driver<'_> {
    fn micros_since_start(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_nanos() as f64 / 1e3
    }

    fn send(&mut self, request: Prepared, index: u64, due: Instant) -> io::Result<()> {
        self.conn.send(&request.frame)?;
        let sent = Instant::now();
        self.out.attempted += 1;
        if self.open_loop {
            self.out
                .late_us
                .push(sent.saturating_duration_since(due).as_nanos() as f64 / 1e3);
        }
        self.inflight.push_back(InFlight {
            request,
            index,
            due,
            sent,
            busy: 0,
        });
        Ok(())
    }

    /// Accounts the reply to the oldest in-flight request (replies come
    /// in request order on a connection).
    fn reply(&mut self, payload: &[u8]) -> io::Result<()> {
        let replied = Instant::now();
        let mut flight = self
            .inflight
            .pop_front()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "reply to nothing"))?;
        let verdict = self
            .conn
            .check(payload, &flight.request.expect, &mut self.out);
        self.out.check_ns += replied.elapsed().as_nanos() as u64;
        self.out.replies += 1;
        match verdict {
            Verdict::Verified => {
                let from = if self.open_loop {
                    flight.due
                } else {
                    flight.sent
                };
                let micros = replied.saturating_duration_since(from).as_nanos() as f64 / 1e3;
                let at = if self.open_loop { flight.due } else { replied };
                self.out.samples.push(Sample {
                    at_s: self.micros_since_start(at) / 1e6,
                    micros,
                });
                let txn = flight.request.is_txn();
                if txn {
                    self.out.txn_us.push(micros);
                } else {
                    self.out.query_us.push(micros);
                }
                if self.traced {
                    self.out.spans.push(RequestSpan {
                        conn: self.conn.id,
                        index: flight.index,
                        txn,
                        due_us: self.micros_since_start(flight.due),
                        sent_us: self.micros_since_start(flight.sent),
                        replied_us: self.micros_since_start(replied),
                    });
                }
            }
            Verdict::Busy => {
                self.out.busy += 1;
                flight.busy += 1;
                if flight.busy > BUSY_RETRIES {
                    self.out.fail(|| "BUSY after retries".to_owned());
                } else {
                    self.conn.send(&flight.request.frame)?;
                    self.inflight.push_back(flight);
                }
            }
            Verdict::Wrong(why) => self.out.fail(|| why),
        }
        Ok(())
    }

    /// Waits for the next reply until `deadline`; `false` on timeout.
    fn pump(&mut self, deadline: Instant) -> io::Result<bool> {
        match self.conn.receive(deadline)? {
            Some(payload) => {
                self.reply(&payload)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Collects the replies still owed; whatever stays silent for
    /// [`REPLY_TIMEOUT`] is failed.
    fn drain(mut self) -> Outcome {
        while !self.inflight.is_empty() {
            match self.pump(Instant::now() + REPLY_TIMEOUT) {
                Ok(true) => {}
                Ok(false) | Err(_) => {
                    for _ in 0..self.inflight.len() {
                        self.out
                            .fail(|| "no reply (timeout or closed connection)".to_owned());
                    }
                    break;
                }
            }
        }
        self.out
    }
}

/// Open loop: each request is due at its own offset from `start`
/// (offsets ascending).
pub fn run_paced(
    conn: &mut Conn,
    requests: Vec<(Duration, Prepared)>,
    start: Instant,
    traced: bool,
) -> Outcome {
    let mut driver = Driver {
        conn,
        start,
        open_loop: true,
        traced,
        inflight: VecDeque::new(),
        out: Outcome::default(),
    };
    let mut pending = requests.into_iter().enumerate().peekable();
    while let Some((_, (offset, _))) = pending.peek() {
        let due = start + *offset;
        if Instant::now() >= due {
            let (k, (_, request)) = pending.next().expect("peeked");
            if driver.send(request, k as u64, due).is_err() {
                break;
            }
        } else if driver.inflight.is_empty() {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        } else if driver.pump(due).is_err() {
            break;
        }
    }
    let unsent = pending.count() as u64;
    let mut out = driver.drain();
    out.attempted += unsent;
    for _ in 0..unsent {
        out.fail(|| "connection lost before the request was due".to_owned());
    }
    out
}

/// Closed loop: [`WINDOW`] requests in flight until `seconds` have
/// passed or `limit` requests were sent, then the rest is drained.
pub fn run_closed(
    conn: &mut Conn,
    mut make: impl FnMut(u64) -> Prepared,
    start: Instant,
    seconds: f64,
    limit: u64,
    traced: bool,
) -> Outcome {
    let mut driver = Driver {
        conn,
        start,
        open_loop: false,
        traced,
        inflight: VecDeque::new(),
        out: Outcome::default(),
    };
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let end = start + Duration::from_secs_f64(seconds);
    let mut next = 0u64;
    while next < limit && Instant::now() < end {
        if driver.inflight.len() < WINDOW {
            if driver.send(make(next), next, Instant::now()).is_err() {
                break;
            }
            next += 1;
        } else if !matches!(driver.pump(Instant::now() + REPLY_TIMEOUT), Ok(true)) {
            break;
        }
    }
    driver.drain()
}
