//! Adversarial protocol suite for `subqd`: random, truncated,
//! oversized, CRC-corrupt, and interleaved frames must never panic or
//! wedge a worker. Every malformed input yields a *typed* error reply or
//! a clean disconnect; errors inside a well-formed frame (unparsable
//! text, unknown names) are survivable and the session keeps answering,
//! while framing errors (length over cap, checksum mismatch) close the
//! connection after one typed reply — the byte stream can no longer be
//! trusted to contain boundaries. Throughout, a control session on the
//! *same single worker* keeps doing real work, which is the no-wedge
//! proof.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use subq_oodb::{evaluate_query, OptimizedDatabase};
use subq_server::frame::encode_frame;
use subq_server::{
    churn_txn_request, view_query, Client, ErrorCode, Request, Response, Server, ServerConfig,
    TxnOp,
};
use subq_workload::{churn_trace, synthetic_hospital, ChurnParams, ChurnTrace, HospitalParams};

fn serve(config: ServerConfig) -> (Server, ChurnTrace) {
    let trace = churn_trace(41, ChurnParams::default());
    let mut odb = OptimizedDatabase::new(trace.db.clone()).expect("translates");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    let server = Server::start(odb, config).expect("binds loopback");
    (server, trace)
}

fn expected_answers(trace: &ChurnTrace, view: usize) -> Vec<String> {
    let query = view_query(trace, view);
    evaluate_query(&trace.db, &query)
        .iter()
        .map(|id| trace.db.object_name(*id).to_owned())
        .collect()
}

#[test]
fn garbage_inside_valid_frames_is_survivable() {
    let (server, trace) = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(7);
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    for round in 0..40 {
        let payload: Vec<u8> = match round % 3 {
            // Random bytes: usually not UTF-8.
            0 => (0..rng.gen_range(1..200usize))
                .map(|_| rng.gen_range(0..=255u8))
                .collect(),
            // Random printable text: not a protocol verb.
            1 => (0..rng.gen_range(1..120usize))
                .map(|_| rng.gen_range(b' '..=b'~'))
                .collect(),
            // Almost-valid requests.
            _ => ["TXN 3\nadd x", "QUERY\nnot dl", "MATERIALIZE", "PING ?"]
                [rng.gen_range(0..4usize)]
            .as_bytes()
            .to_vec(),
        };
        let mut framed = Vec::new();
        encode_frame(&payload, &mut framed);
        client.send_raw(&framed).expect("sends");
        match client.receive().expect("typed reply, not a hang") {
            Response::Error {
                code: ErrorCode::Parse | ErrorCode::Unknown,
                ..
            } => {}
            other => panic!("round {round}: expected a typed error, got {other:?}"),
        }
        // The session survived: a real request round-trips.
        match client.request(&Request::Ping).expect("session survives") {
            Response::Pong { .. } => {}
            other => panic!("round {round}: expected PONG, got {other:?}"),
        }
    }
    // And real queries still answer correctly after the abuse.
    for view in 0..trace.view_names.len() {
        match client
            .request(&Request::Query(view_query(&trace, view)))
            .expect("answers")
        {
            Response::Answers { names, .. } => {
                assert_eq!(names, expected_answers(&trace, view), "view {view}");
            }
            other => panic!("expected ANSWERS, got {other:?}"),
        }
    }
    client.close().expect("graceful BYE");
    assert!(
        server
            .stats()
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 40
    );
    server.shutdown();
}

#[test]
fn a_deeply_nested_query_is_a_parse_error_not_a_dead_server() {
    let (server, trace) = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    // ~200 KB of `not` and a ~1 MB `and` chain, both far under the
    // frame cap: unbounded descent over either overflows the worker's
    // stack and aborts the process.
    let nots = format!("{}(this in K0)", "not ".repeat(50_000));
    let chain = vec!["(this in K0)"; 50_000].join(" and ");
    for constraint in [nots, chain] {
        let text = format!("QUERY\nQueryClass Deep isA K0 with constraint: {constraint} end Deep");
        let mut framed = Vec::new();
        encode_frame(text.as_bytes(), &mut framed);
        client.send_raw(&framed).expect("sends");
        match client.receive().expect("typed reply") {
            Response::Error {
                code: ErrorCode::Parse,
                message,
            } => assert!(message.contains("nests deeper than"), "{message}"),
            other => panic!("expected ERR PARSE, got {other:?}"),
        }
    }
    // The same session and a second one both keep answering.
    let mut second = Client::connect(server.addr()).expect("connects");
    second.set_timeout(Some(Duration::from_secs(10))).unwrap();
    for session in [&mut client, &mut second] {
        match session
            .request(&Request::Query(view_query(&trace, 0)))
            .expect("answers")
        {
            Response::Answers { names, .. } => {
                assert_eq!(names, expected_answers(&trace, 0));
            }
            other => panic!("expected ANSWERS, got {other:?}"),
        }
    }
    client.close().expect("graceful BYE");
    second.close().expect("graceful BYE");
    server.shutdown();
}

/// A query class with a constraint clause is no view. A DEFVIEW of one —
/// the paper's QueryPatient under a fresh name — is a typed parse error
/// before anything is declared, and the writer keeps committing.
#[test]
fn a_defview_with_a_constraint_clause_is_a_parse_error() {
    let db = synthetic_hospital(5, HospitalParams::default());
    let mut decl = db
        .model()
        .query_class("QueryPatient")
        .expect("declared")
        .clone();
    assert!(
        decl.constraint.is_some(),
        "the paper's query is constrained"
    );
    decl.name = "ConstrainedPatient".to_owned();
    let odb = OptimizedDatabase::new(db).expect("translates");
    let server = Server::start(
        odb,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("binds loopback");
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match client
        .request(&Request::DefView(decl))
        .expect("a reply within the timeout")
    {
        Response::Error {
            code: ErrorCode::Parse,
            message,
        } => assert!(
            message.contains("constraint clause"),
            "rejection does not name the constraint: {message}"
        ),
        other => panic!("expected ERR PARSE, got {other:?}"),
    }
    let txn = Request::Txn(vec![TxnOp::Class {
        assert: true,
        object: "newcomer".to_owned(),
        class: "Patient".to_owned(),
    }]);
    match client.request(&txn).expect("the writer still answers") {
        Response::Committed { .. } => {}
        other => panic!("expected COMMITTED, got {other:?}"),
    }
    client.close().expect("graceful BYE");
    assert!(!server.shutdown(), "the writer did not crash");
}

#[test]
fn oversized_frames_close_with_a_typed_toobig() {
    let (server, _) = serve(ServerConfig {
        workers: 1,
        max_payload: 1024,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&100_000u32.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    client.send_raw(&header).expect("sends");
    match client.receive().expect("typed reply before close") {
        Response::Error {
            code: ErrorCode::TooBig,
            ..
        } => {}
        other => panic!("expected TOOBIG, got {other:?}"),
    }
    // Clean disconnect, not a hang: the next read sees EOF.
    assert!(client.receive().is_err(), "connection should be closed");
    // The server is unharmed: a fresh session works.
    let mut fresh = Client::connect(server.addr()).expect("reconnects");
    fresh.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        fresh.request(&Request::Ping).expect("pong"),
        Response::Pong { .. }
    ));
    server.shutdown();
}

#[test]
fn checksum_corruption_closes_with_a_typed_badcrc() {
    let (server, _) = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut framed = Vec::new();
    encode_frame(b"PING", &mut framed);
    let last = framed.len() - 1;
    framed[last] ^= 0x20; // corrupt the payload under an intact header
    client.send_raw(&framed).expect("sends");
    match client.receive().expect("typed reply before close") {
        Response::Error {
            code: ErrorCode::BadCrc,
            ..
        } => {}
        other => panic!("expected BADCRC, got {other:?}"),
    }
    assert!(client.receive().is_err(), "connection should be closed");
    server.shutdown();
}

#[test]
fn truncated_frames_idle_out_without_wedging_the_worker() {
    let (server, trace) = serve(ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    // A client that starts a frame and goes silent forever.
    let mut stalled = TcpStream::connect(server.addr()).expect("connects");
    let mut partial = Vec::new();
    encode_frame(b"PING", &mut partial);
    stalled
        .write_all(&partial[..5])
        .expect("sends a torn frame");
    // The same (only) worker keeps serving a healthy session meanwhile.
    let mut healthy = Client::connect(server.addr()).expect("connects");
    healthy.set_timeout(Some(Duration::from_secs(10))).unwrap();
    for view in 0..trace.view_names.len() {
        match healthy
            .request(&Request::Query(view_query(&trace, view)))
            .expect("worker is not wedged")
        {
            Response::Answers { names, .. } => {
                assert_eq!(names, expected_answers(&trace, view));
            }
            other => panic!("expected ANSWERS, got {other:?}"),
        }
    }
    // The stalled session is reaped by the idle timeout.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match stalled.read(&mut buf) {
            Ok(0) => break, // clean close
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                panic!("stalled session was never closed")
            }
            Err(_) => break, // reset is also a close
        }
    }
    assert!(Instant::now() < deadline);
    assert!(
        server
            .stats()
            .idle_closes
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    server.shutdown();
}

#[test]
fn pipelined_interleaved_sessions_get_ordered_replies() {
    let (server, trace) = serve(ServerConfig {
        workers: 1,
        write_queue: 256,
        inbox_limit: 64,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let trace = &trace;
    std::thread::scope(|scope| {
        for c in 0..3usize {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                // Pipeline a known request pattern, then read every
                // reply: kinds must come back in exactly request order.
                let requests: Vec<Request> = (0..24)
                    .map(|i| match i % 3 {
                        0 => Request::Ping,
                        1 => Request::Query(view_query(trace, (c + i) % trace.view_names.len())),
                        _ => churn_txn_request(
                            &trace.transactions[(c + i) % trace.transactions.len()],
                        ),
                    })
                    .collect();
                for request in &requests {
                    client.send(request).expect("pipelines");
                }
                for (i, request) in requests.iter().enumerate() {
                    let reply = client.receive().expect("ordered reply");
                    let ok = matches!(
                        (request, &reply),
                        (Request::Ping, Response::Pong { .. })
                            | (Request::Query(_), Response::Answers { .. })
                            | (Request::Txn(_), Response::Committed { .. })
                            | (Request::Txn(_), Response::Busy { .. })
                    );
                    assert!(
                        ok,
                        "client {c} reply {i}: {request:?} answered by {reply:?}"
                    );
                }
                client.close().expect("graceful BYE");
            });
        }
    });
    server.shutdown();
}

#[test]
fn random_byte_storms_never_take_the_server_down() {
    let (server, trace) = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(1213);
    for _ in 0..16 {
        let mut stream = TcpStream::connect(server.addr()).expect("connects");
        let storm: Vec<u8> = (0..rng.gen_range(64..2048usize))
            .map(|_| rng.gen_range(0..=255u8))
            .collect();
        // The peer may close us mid-write once framing breaks; that is
        // fine — the property under test is server health.
        let _ = stream.write_all(&storm);
        drop(stream);
    }
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let view = 0;
    match client
        .request(&Request::Query(view_query(&trace, view)))
        .expect("server survived the storm")
    {
        Response::Answers { names, .. } => {
            let expected: BTreeSet<String> = expected_answers(&trace, view).into_iter().collect();
            assert_eq!(names.into_iter().collect::<BTreeSet<_>>(), expected);
        }
        other => panic!("expected ANSWERS, got {other:?}"),
    }
    client.close().expect("graceful BYE");
    server.shutdown();
}
