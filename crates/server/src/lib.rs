//! `subqd`: a multi-client TCP front end over the snapshot engine.
//!
//! The paper's optimizer answers queries against materialized views
//! inside one process; this crate is the serving skin the ROADMAP's
//! north star asks for. The architecture is the one the PR 5 core was
//! built to support, with a command-queue shape in the spirit of
//! oidadb's `edb_job_t`:
//!
//! * **one writer** — the [`OptimizedDatabase`](subq_oodb::OptimizedDatabase)
//!   moves into a dedicated thread; every mutation funnels through one
//!   *bounded* channel ([`writer`]), and durable batches share one fsync
//!   (group commit, PR 7's WAL underneath);
//! * **lock-free readers** — a thread-per-core worker pool ([`worker`]);
//!   each worker owns a [`Reader`](subq_oodb::Reader) minted from the
//!   shared snapshot cell and serves queries with zero locking;
//! * **text over frames** — requests and replies are UTF-8 protocol
//!   text ([`proto`]) in length-prefixed CRC-checked frames ([`frame`]);
//!   queries and view DDL travel as DL source, which `crates/dl`
//!   round-trips exactly;
//! * **sessions and backpressure** — per-connection state with ordered
//!   replies, graceful `BYE`, idle timeout ([`session`]); a full write
//!   queue answers a typed `BUSY`, a slow reader throttles only itself,
//!   and every buffer is bounded by [`ServerConfig`];
//! * **readiness, not naps** — a worker that moved nothing blocks in one
//!   `poll(2)` over its sessions' sockets and a wake channel (`poller`:
//!   one FFI call, the only code here the lint below exempts), the
//!   acceptor blocks on the listener the same way, the writer blocks
//!   in its queue. The writer wakes a worker when its tickets complete,
//!   the acceptor when it deals it a connection, [`Server`] on
//!   shutdown — between "bytes arrived" or "commit acked" and the reply
//!   nothing sleeps, and an idle server makes no system calls at all.
//!
//! [`client`] is the blocking client library and [`load`] the
//! mixed-traffic generator behind experiment E14 and the server test
//! suites. No async runtime anywhere: std threads and loopback sockets.

// `poll(2)` is the one thing the serving layer needs that std does not
// wrap; everything else stays safe, and the lint keeps it that way.
#![deny(unsafe_code)]

pub mod client;
pub mod frame;
pub mod load;
pub mod metrics;
#[allow(unsafe_code)]
mod poller;
pub mod proto;
pub mod server;
mod session;
mod worker;
pub mod writer;

pub use client::Client;
pub use frame::{FrameDecoder, FrameError, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
pub use load::{churn_txn_request, percentile, run_mixed_load, view_query, LoadParams, LoadReport};
pub use proto::{ErrorCode, Request, Response, TxnOp};
pub use server::{Server, ServerConfig, ServerStats};
