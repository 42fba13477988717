//! Multi-session equivalence for `subqd`: N loopback client threads run
//! mixed churn + query traffic concurrently, and **every** answer any
//! session received must match a scratch re-evaluation of its view at a
//! published transaction boundary. This is the concurrency-equivalence
//! oracle of PR 5 pushed across the wire: the server's snapshot
//! versions give every reply a precise place in history, so after the
//! run we can sort the acknowledged commits by version, replay them on
//! a scratch `Database`, and demand that each `ANSWERS v` equals
//! `evaluate_query` at exactly boundary `v`.
//!
//! One subtlety the oracle handles head-on: a transaction whose ops all
//! happen to be no-ops acknowledges the *unchanged* version, so two
//! commits can tie. Within a tie group the true history is "the
//! effective transaction first, then no-ops", and the replay searches
//! the (tiny) group for the permutation where every prefix lands on the
//! acknowledged version — any other order is rejected, any missing
//! order is a server bug.
//!
//! The last two tests pin the wake-ups the readiness-driven worker loop
//! lives on: with no timer anywhere to paper over a missed one, a lost
//! completion wake shows as a reply that never comes, and a lost
//! shutdown wake as a `shutdown()` that never returns.

use std::io::{ErrorKind, Read};
use std::sync::{mpsc, Mutex};
use std::time::Duration;
use subq_oodb::{evaluate_query, Database, OptimizedDatabase};
use subq_server::{
    churn_txn_request, view_query, Client, Request, Response, Server, ServerConfig, TxnOp,
};
use subq_workload::traffic::{client_schedule, TrafficOp, TrafficParams};
use subq_workload::{churn_trace, ChurnParams, ChurnTrace};

fn serve(seed: u64, params: ChurnParams, config: ServerConfig) -> (Server, ChurnTrace) {
    let trace = churn_trace(seed, params);
    let mut odb = OptimizedDatabase::new(trace.db.clone()).expect("translates");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    let server = Server::start(odb, config).expect("binds loopback");
    (server, trace)
}

fn answer_names(trace: &ChurnTrace, db: &Database, view: usize) -> Vec<String> {
    let query = view_query(trace, view);
    let mut names: Vec<String> = evaluate_query(db, &query)
        .iter()
        .map(|id| db.object_name(*id).to_owned())
        .collect();
    names.sort();
    names
}

/// What one session observed, in its own order.
#[derive(Debug)]
enum Event {
    Commit {
        version: u64,
        txn: usize,
    },
    Answer {
        version: u64,
        view: usize,
        names: Vec<String>,
        /// The session's last acknowledged commit version when the
        /// query was sent — the read-your-writes floor.
        floor: u64,
    },
}

/// Applies commit tie-group `group` (indices into `commits`) to `db`,
/// searching for the permutation in which every prefix lands exactly on
/// the acknowledged version. Panics if no permutation works: then some
/// acknowledged version was never a published boundary of this history.
fn apply_tie_group(
    db: &mut Database,
    trace: &ChurnTrace,
    group: &[usize],
    commits: &[(u64, usize)],
) {
    let version = commits[group[0]].0;
    if group.len() == 1 {
        for op in &trace.transactions[commits[group[0]].1] {
            op.apply(db);
        }
        assert_eq!(
            db.data_version(),
            version,
            "replaying txn {} did not land on its acknowledged version",
            commits[group[0]].1
        );
        return;
    }
    // Tie: at most one member is effective and must come first; the
    // rest are no-ops at `version` and commute. Search permutations on
    // clones (groups are tiny — ties require a fully no-op txn).
    fn search(
        db: &Database,
        trace: &ChurnTrace,
        version: u64,
        remaining: &[usize],
        commits: &[(u64, usize)],
    ) -> Option<Database> {
        if remaining.is_empty() {
            return Some(db.clone());
        }
        for (i, &pick) in remaining.iter().enumerate() {
            let mut attempt = db.clone();
            for op in &trace.transactions[commits[pick].1] {
                op.apply(&mut attempt);
            }
            if attempt.data_version() != version {
                continue;
            }
            let rest: Vec<usize> = remaining
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| *c)
                .collect();
            if let Some(done) = search(&attempt, trace, version, &rest, commits) {
                return Some(done);
            }
        }
        None
    }
    *db = search(db, trace, version, group, commits)
        .unwrap_or_else(|| panic!("no replay order of tied commits reaches version {version}"));
}

/// Replays all `commits` in acknowledged-version order, checking every
/// recorded answer against scratch re-evaluation at its boundary.
fn check_equivalence(trace: &ChurnTrace, events: Vec<Event>) {
    let base = trace.db.data_version();
    let mut commits: Vec<(u64, usize)> = Vec::new();
    let mut answers: Vec<(u64, usize, Vec<String>, u64)> = Vec::new();
    for event in events {
        match event {
            Event::Commit { version, txn } => commits.push((version, txn)),
            Event::Answer {
                version,
                view,
                names,
                floor,
            } => answers.push((version, view, names, floor)),
        }
    }
    commits.sort_unstable();
    answers.sort_by_key(|a| a.0);
    let boundaries: std::collections::BTreeSet<u64> = std::iter::once(base)
        .chain(commits.iter().map(|c| c.0))
        .collect();

    let mut db = trace.db.clone();
    let mut next = 0usize;
    let mut checked = 0usize;
    for (version, view, names, floor) in answers {
        assert!(
            boundaries.contains(&version),
            "ANSWERS at version {version}, which no commit ever published"
        );
        assert!(
            version >= floor,
            "read-your-writes violated: answered at {version} after an ack at {floor}"
        );
        while next < commits.len() && commits[next].0 <= version {
            // Collect the whole tie group at this version.
            let tied = commits[next].0;
            let mut group = Vec::new();
            while next < commits.len() && commits[next].0 == tied {
                group.push(next);
                next += 1;
            }
            apply_tie_group(&mut db, trace, &group, &commits);
        }
        assert_eq!(
            db.data_version(),
            version,
            "scratch replay drifted from the published boundary"
        );
        let mut sorted = names;
        sorted.sort();
        assert_eq!(
            sorted,
            answer_names(trace, &db, view),
            "view {view} answer at boundary {version} disagrees with scratch re-evaluation"
        );
        checked += 1;
    }
    assert!(checked > 0, "the run never exercised a query");
}

#[test]
fn single_session_answers_track_every_boundary_exactly() {
    let params = ChurnParams {
        transactions: 16,
        ..ChurnParams::default()
    };
    let (server, trace) = serve(23, params, ServerConfig::default());
    let mut scratch = trace.db.clone();
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for (t, txn) in trace.transactions.iter().enumerate() {
        let version = match client.request(&churn_txn_request(txn)).expect("commits") {
            Response::Committed { version } => version,
            other => panic!("txn {t}: expected COMMITTED, got {other:?}"),
        };
        for op in txn {
            op.apply(&mut scratch);
        }
        assert_eq!(scratch.data_version(), version, "txn {t} version drift");
        for view in 0..trace.view_names.len() {
            match client
                .request(&Request::Query(view_query(&trace, view)))
                .expect("answers")
            {
                Response::Answers {
                    version: answered_at,
                    names,
                } => {
                    assert_eq!(answered_at, version, "txn {t} view {view}: stale answer");
                    let mut sorted = names;
                    sorted.sort();
                    assert_eq!(
                        sorted,
                        answer_names(&trace, &scratch, view),
                        "txn {t} view {view}"
                    );
                }
                other => panic!("expected ANSWERS, got {other:?}"),
            }
        }
    }
    client.close().expect("graceful BYE");
    server.shutdown();
}

#[test]
fn four_concurrent_sessions_agree_with_scratch_reevaluation() {
    let params = ChurnParams {
        transactions: 24,
        ops_per_transaction: 5,
        ..ChurnParams::default()
    };
    let config = ServerConfig {
        workers: 2,
        write_queue: 8,
        ..ServerConfig::default()
    };
    let (server, trace) = serve(71, params, config);
    let addr = server.addr();
    let clients = 4usize;
    let events = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..clients {
            let trace = &trace;
            let events = &events;
            scope.spawn(move || {
                let schedule = client_schedule(
                    0xBEEF,
                    c,
                    clients,
                    trace.transactions.len(),
                    trace.view_names.len(),
                    TrafficParams {
                        query_percent: 50,
                        ops: 40,
                    },
                );
                let mut client = Client::connect(addr).expect("connects");
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut mine = Vec::new();
                let mut floor = 0u64;
                for op in schedule {
                    match op {
                        TrafficOp::Txn(txn) => loop {
                            match client
                                .request(&churn_txn_request(&trace.transactions[txn]))
                                .expect("commit round trip")
                            {
                                Response::Committed { version } => {
                                    floor = floor.max(version);
                                    mine.push(Event::Commit { version, txn });
                                    break;
                                }
                                Response::Busy { .. } => {
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                other => panic!("client {c}: expected COMMITTED, got {other:?}"),
                            }
                        },
                        TrafficOp::Query(view) => {
                            match client
                                .request(&Request::Query(view_query(trace, view)))
                                .expect("query round trip")
                            {
                                Response::Answers { version, names } => {
                                    mine.push(Event::Answer {
                                        version,
                                        view,
                                        names,
                                        floor,
                                    });
                                }
                                other => panic!("client {c}: expected ANSWERS, got {other:?}"),
                            }
                        }
                    }
                }
                client.close().expect("graceful BYE");
                events.lock().unwrap().extend(mine);
            });
        }
    });
    server.shutdown();
    check_equivalence(&trace, events.into_inner().unwrap());
}

#[test]
fn pipelined_commits_and_queries_never_miss_a_wake_up() {
    let (workers, per_worker, pairs, window) = (2usize, 8usize, 500usize, 25usize);
    let (server, trace) = serve(
        404,
        ChurnParams {
            transactions: 0,
            ..ChurnParams::default()
        },
        ServerConfig {
            workers,
            // Room for every ticket the sessions' inboxes can hold: no
            // `BUSY`, every transaction commits.
            write_queue: 1024,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    std::thread::scope(|scope| {
        // Connections are dealt round-robin: `per_worker` on each.
        for c in 0..workers * per_worker {
            let trace = &trace;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                // The bound on every single reply.
                client.set_timeout(Some(Duration::from_secs(2))).unwrap();
                let mut last_committed = 0u64;
                for base in (0..pairs).step_by(window) {
                    for i in base..base + window {
                        client
                            .send(&Request::Txn(vec![TxnOp::Add {
                                object: format!("wake_{c}_{i}"),
                            }]))
                            .expect("pipelines");
                        client
                            .send(&Request::Query(view_query(trace, c + i)))
                            .expect("pipelines");
                    }
                    for i in base..base + window {
                        match client.receive() {
                            Ok(Response::Committed { version }) => {
                                assert!(version > last_committed, "session {c} txn {i}");
                                last_committed = version;
                            }
                            other => panic!("session {c} txn {i}: {other:?}"),
                        }
                        match client.receive() {
                            Ok(Response::Answers { version, .. }) => assert!(
                                version >= last_committed,
                                "session {c} query {i}: answered at {version} after \
                                 an ack at {last_committed}"
                            ),
                            other => panic!("session {c} query {i}: {other:?}"),
                        }
                    }
                }
                client.close().expect("graceful BYE");
            });
        }
    });
    server.shutdown();
}

#[test]
fn shutdown_wakes_workers_blocked_on_idle_sessions() {
    let (server, _) = serve(
        7,
        ChurnParams {
            transactions: 0,
            ..ChurnParams::default()
        },
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let mut idle: Vec<Client> = (0..4)
        .map(|_| {
            let mut client = Client::connect(server.addr()).expect("connects");
            client.set_timeout(Some(Duration::from_secs(5))).unwrap();
            assert!(matches!(
                client.request(&Request::Ping).expect("pong"),
                Response::Pong { .. }
            ));
            client
        })
        .collect();
    // Both workers and the acceptor now sit in a wait nothing will end
    // but the wake `shutdown` sends.
    std::thread::sleep(Duration::from_millis(50));
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    joined
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown with idle sessions open returns within a second");
    for client in &mut idle {
        let end = client.stream_mut().read(&mut [0u8; 16]);
        assert!(
            matches!(end, Ok(0))
                || matches!(&end, Err(e) if e.kind() == ErrorKind::ConnectionReset),
            "an idle session should be closed by shutdown, got {end:?}"
        );
    }
}
