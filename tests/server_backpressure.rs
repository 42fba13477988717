//! Backpressure and admission control: overload must surface as typed
//! `BUSY` replies and bounded buffers, never as unbounded queueing, a
//! wedged worker, or a starved writer.
//!
//! Two overload shapes are drilled:
//!
//! * **write flood** — several sessions pipeline transactions far faster
//!   than the writer drains its size-1 queue. Every request still gets
//!   exactly one in-order reply (`COMMITTED` or `BUSY`), and a
//!   well-behaved client that retries on `BUSY` finishes its whole
//!   schedule: admission control sheds load, it does not starve.
//! * **slow reader** — a session that pipelines hundreds of queries and
//!   never reads its socket. The server buffers replies only up to
//!   `outbound_limit`, then stops *reading* that session (the throttle
//!   hurts only the slow session), and the idle timeout eventually
//!   reaps it — all while a healthy session on the same single worker
//!   keeps doing full round trips.
//!
//! And the other side of bounded buffers: a worker with nothing it can
//! do *blocks*. Throttled, stalled and silent sessions cost no loop
//! turns (`worker_wakeups` stands still), and the idle timeout fires
//! from inside that blocking wait.

use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use subq_oodb::OptimizedDatabase;
use subq_server::frame::encode_frame;
use subq_server::{view_query, Client, Request, Response, Server, ServerConfig, TxnOp};
use subq_workload::{churn_trace, ChurnParams, ChurnTrace};

fn serve(params: ChurnParams, config: ServerConfig) -> (Server, ChurnTrace) {
    let trace = churn_trace(5150, params);
    let mut odb = OptimizedDatabase::new(trace.db.clone()).expect("translates");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    let server = Server::start(odb, config).expect("binds loopback");
    (server, trace)
}

#[test]
fn write_floods_get_typed_busy_and_never_starve_the_writer() {
    let (server, _) = serve(
        ChurnParams {
            transactions: 0,
            ..ChurnParams::default()
        },
        ServerConfig {
            workers: 2,
            write_queue: 1,
            inbox_limit: 64,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let flooders = 4usize;
    let per_flooder = 100usize;
    let (flood_done, flood_counts) = mpsc::channel::<(usize, usize)>();
    std::thread::scope(|scope| {
        for c in 0..flooders {
            let done = flood_done.clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                // Pipeline the whole flood, then read every reply: one
                // reply per request, in order, COMMITTED or BUSY — a
                // shed request is *answered*, not dropped.
                for i in 0..per_flooder {
                    client
                        .send(&Request::Txn(vec![TxnOp::Add {
                            object: format!("flood_{c}_{i}"),
                        }]))
                        .expect("pipelines");
                }
                let (mut committed, mut busy) = (0usize, 0usize);
                for i in 0..per_flooder {
                    match client.receive().expect("one reply per request") {
                        Response::Committed { .. } => committed += 1,
                        Response::Busy { .. } => busy += 1,
                        other => panic!("flooder {c} reply {i}: {other:?}"),
                    }
                }
                client.close().expect("graceful BYE");
                done.send((committed, busy)).unwrap();
            });
        }
        // The well-behaved client: retries on BUSY and must finish its
        // whole schedule while the flood rages.
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connects");
            client.set_timeout(Some(Duration::from_secs(30))).unwrap();
            for i in 0..30 {
                loop {
                    match client
                        .request(&Request::Txn(vec![TxnOp::Add {
                            object: format!("steady_{i}"),
                        }]))
                        .expect("round trip")
                    {
                        Response::Committed { .. } => break,
                        Response::Busy { .. } => {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        other => panic!("steady client: {other:?}"),
                    }
                }
            }
            client.close().expect("graceful BYE");
        });
    });
    drop(flood_done);
    let (mut committed, mut busy) = (0usize, 0usize);
    while let Ok((c, b)) = flood_counts.recv() {
        committed += c;
        busy += b;
    }
    assert_eq!(committed + busy, flooders * per_flooder, "replies lost");
    assert!(
        busy > 0,
        "a size-1 queue under a 4-way flood must shed load"
    );
    assert!(committed > 0, "the writer made progress under the flood");
    let stats = server.stats();
    assert!(stats.busy_replies.load(Ordering::Relaxed) >= busy as u64);
    // The server is healthy after the storm.
    let mut client = Client::connect(addr).expect("connects");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        client.request(&Request::Ping).expect("pong"),
        Response::Pong { .. }
    ));
    client.close().expect("graceful BYE");
    server.shutdown();
}

#[test]
fn slow_readers_throttle_only_themselves_and_get_reaped() {
    // Many objects make the view answers big, so a few hundred unread
    // replies vastly exceed the outbound cap.
    let (server, trace) = serve(
        ChurnParams {
            objects: 300,
            transactions: 0,
            ..ChurnParams::default()
        },
        ServerConfig {
            workers: 1,
            outbound_limit: 4096,
            idle_timeout: Duration::from_millis(600),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    // The slow reader: pipelines 500 queries and never reads a byte.
    let mut slow = Client::connect(addr).expect("connects");
    slow.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for i in 0..500 {
        slow.send(&Request::Query(view_query(
            &trace,
            i % trace.view_names.len(),
        )))
        .expect("pipelines");
    }
    // Meanwhile the same single worker serves a healthy session at full
    // speed: the throttle is per-session, not per-worker.
    let mut healthy = Client::connect(addr).expect("connects");
    healthy.set_timeout(Some(Duration::from_secs(10))).unwrap();
    for i in 0..20 {
        match healthy
            .request(&Request::Query(view_query(
                &trace,
                i % trace.view_names.len(),
            )))
            .expect("healthy session keeps round-tripping")
        {
            Response::Answers { .. } => {}
            other => panic!("expected ANSWERS, got {other:?}"),
        }
    }
    // The slow session makes no progress and is reaped by the idle
    // timeout; draining its socket ends in a close, not a hang.
    let stream = slow.stream_mut();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut drained = 0usize;
    let mut buf = [0u8; 4096];
    loop {
        assert!(Instant::now() < deadline, "slow session never closed");
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => drained += n,
            Err(_) => break,
        }
    }
    assert!(
        server.stats().idle_closes.load(Ordering::Relaxed) >= 1,
        "the stalled session should be an idle close"
    );
    // What we drained is what was buffered when the reap hit — far less
    // than 500 full answers: the server never queued unboundedly.
    println!("slow session drained {drained} bytes after reap");
    // And the server happily accepts fresh work afterward.
    for i in 0..trace.view_names.len() {
        match healthy
            .request(&Request::Query(view_query(&trace, i)))
            .expect("still serving")
        {
            Response::Answers { .. } => {}
            other => panic!("expected ANSWERS, got {other:?}"),
        }
    }
    healthy.close().expect("graceful BYE");
    server.shutdown();
}

/// Pipelines queries without reading a reply until the client's own
/// socket refuses more — which it only does once the server has stopped
/// reading this session: replies fill the path back, the outbound cap
/// is reached, admission control shuts the inbound side, and requests
/// back up into the client's send buffer.
fn pipeline_until_stalled(client: &mut Client, trace: &ChurnTrace) {
    let mut frame = Vec::new();
    encode_frame(
        Request::Query(view_query(trace, 0)).render().as_bytes(),
        &mut frame,
    );
    let stream = client.stream_mut();
    stream.set_nonblocking(true).unwrap();
    let mut sent = 0usize;
    loop {
        match stream.write(&frame) {
            Ok(n) if n == frame.len() => sent += 1,
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => panic!("pipelining query {sent}: {e}"),
        }
        assert!(sent < 1_000_000, "the server never stopped reading");
    }
    stream.set_nonblocking(false).unwrap();
}

#[test]
fn a_worker_with_only_stuck_and_silent_sessions_does_not_turn() {
    let (server, trace) = serve(
        ChurnParams {
            objects: 300,
            transactions: 0,
            ..ChurnParams::default()
        },
        ServerConfig {
            workers: 1,
            outbound_limit: 4096,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    // Healthy and silent: nothing owed either way.
    let mut healthy = Client::connect(addr).expect("connects");
    healthy.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        healthy.request(&Request::Ping).expect("pong"),
        Response::Pong { .. }
    ));
    // Never reads: stuck at `outbound_limit` with output it cannot send
    // and input it will not take.
    let mut stalled = Client::connect(addr).expect("connects");
    pipeline_until_stalled(&mut stalled, &trace);
    // The same, and its sending side is closed on top: a FIN the server
    // is not going to read up to.
    let mut half_closed = Client::connect(addr).expect("connects");
    pipeline_until_stalled(&mut half_closed, &trace);
    half_closed
        .stream_mut()
        .shutdown(Shutdown::Write)
        .expect("half-closes");

    // Let the worker finish what it had already read.
    std::thread::sleep(Duration::from_millis(300));
    let stats = server.stats();
    let before = stats.worker_wakeups.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(300));
    let turns = stats.worker_wakeups.load(Ordering::Relaxed) - before;
    assert!(
        turns <= 5,
        "an idle worker returned from its wait {turns} times in 300 ms"
    );

    // Blocked is not wedged: the healthy session is served at once.
    let asked = Instant::now();
    assert!(matches!(
        healthy.request(&Request::Ping).expect("pong"),
        Response::Pong { .. }
    ));
    assert!(asked.elapsed() < Duration::from_secs(2));
    assert_eq!(stats.idle_closes.load(Ordering::Relaxed), 0);
    healthy.close().expect("graceful BYE");
    server.shutdown();
}

#[test]
fn the_idle_timeout_fires_from_inside_the_blocking_wait() {
    let (server, _) = serve(
        ChurnParams {
            transactions: 0,
            ..ChurnParams::default()
        },
        ServerConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(matches!(
        client.request(&Request::Ping).expect("pong"),
        Response::Pong { .. }
    ));
    let stats = server.stats();
    let before = stats.worker_wakeups.load(Ordering::Relaxed);
    // No traffic at all: the only thing that can end the worker's wait
    // is the session's own deadline.
    let silent_since = Instant::now();
    let mut buf = [0u8; 16];
    let end = client.stream_mut().read(&mut buf);
    let waited = silent_since.elapsed();
    assert!(
        matches!(end, Ok(0)) || matches!(&end, Err(e) if e.kind() == ErrorKind::ConnectionReset),
        "expected the reap to close the connection, got {end:?}"
    );
    assert!(
        waited >= Duration::from_millis(150) && waited < Duration::from_secs(2),
        "reaped after {waited:?} of a 200 ms timeout"
    );
    assert_eq!(stats.idle_closes.load(Ordering::Relaxed), 1);
    let turns = stats.worker_wakeups.load(Ordering::Relaxed) - before;
    assert!(turns <= 3, "{turns} wake-ups to wait out one deadline");
    server.shutdown();
}
