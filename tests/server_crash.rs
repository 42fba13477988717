//! Crash-during-serve: live traffic over a `FaultyBackend`-backed
//! store, the process "dies" at scripted WAL byte offsets, and a fresh
//! `OptimizedDatabase::open` + `Server::start` must bring reconnecting
//! clients back to **exactly** the last committed boundary — never
//! losing an acknowledged commit (the server only acks after the
//! batch's fsync) and never inventing a phantom one.
//!
//! Determinism makes the sweep exact: a single driving client applies
//! the trace's transactions sequentially, so the writer handles batches
//! of one and the WAL byte stream is identical to an uncrashed golden
//! run over the same trace. `crash_points` over the golden WAL then
//! yields offsets that are meaningful in every crashed re-run.

use std::io::{ErrorKind, Read};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use subq_oodb::durable::wal::WAL_FILE;
use subq_oodb::{
    evaluate_query, Database, DurableError, DurableOptions, FaultyBackend, OptimizedDatabase,
    StorageBackend,
};
use subq_server::{
    churn_txn_request, view_query, Client, ErrorCode, Request, Response, Server, ServerConfig,
};
use subq_workload::{churn_trace, crash_points, ChurnParams, ChurnTrace};

fn config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        write_queue: 16,
        ..ServerConfig::default()
    }
}

/// Opens `backend` durably (genesis on first use), materializes the
/// trace's views, checkpoints so every image carries the view catalog,
/// and starts serving.
fn durable_server(trace: &ChurnTrace, backend: Arc<FaultyBackend>) -> Server {
    let mut odb = OptimizedDatabase::open(backend, DurableOptions { group_commit: 8 }, || {
        trace.db.clone()
    })
    .expect("genesis open");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    odb.checkpoint().expect("checkpoint after materialization");
    Server::start(odb, config()).expect("binds loopback")
}

/// Scratch replay of the committed prefix ending at `version`.
fn scratch_at(trace: &ChurnTrace, committed: &[u64], version: u64) -> Database {
    let idx = committed
        .iter()
        .position(|&c| c == version)
        .unwrap_or_else(|| panic!("{version} is not a committed boundary of {committed:?}"));
    let mut db = trace.db.clone();
    for txn in &trace.transactions[..idx] {
        for op in txn {
            op.apply(&mut db);
        }
    }
    assert_eq!(db.data_version(), version, "scratch replay drift");
    db
}

fn expected_names(trace: &ChurnTrace, db: &Database, view: usize) -> Vec<String> {
    let mut names: Vec<String> = evaluate_query(db, &view_query(trace, view))
        .iter()
        .map(|id| db.object_name(*id).to_owned())
        .collect();
    names.sort();
    names
}

/// Checks that a server over `odb` shows exactly boundary `version`.
fn assert_serves_boundary(
    odb: OptimizedDatabase,
    trace: &ChurnTrace,
    version: u64,
    scratch: &Database,
) {
    let server = Server::start(odb, config()).expect("restarts");
    let mut client = Client::connect(server.addr()).expect("reconnects");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match client.request(&Request::Ping).expect("pongs") {
        Response::Pong { version: v } => assert_eq!(v, version, "recovered version drift"),
        other => panic!("expected PONG, got {other:?}"),
    }
    for view in 0..trace.view_names.len() {
        match client
            .request(&Request::Query(view_query(trace, view)))
            .expect("answers after recovery")
        {
            Response::Answers {
                version: answered_at,
                names,
            } => {
                assert_eq!(answered_at, version, "view {view} answered off-boundary");
                let mut sorted = names;
                sorted.sort();
                assert_eq!(
                    sorted,
                    expected_names(trace, scratch, view),
                    "view {view} disagrees with scratch replay at {version}"
                );
            }
            other => panic!("expected ANSWERS, got {other:?}"),
        }
    }
    client.close().expect("graceful BYE");
    server.shutdown();
}

#[test]
fn acknowledged_commits_survive_every_scripted_wal_crash() {
    let seed = 0xC4A5;
    let params = ChurnParams {
        transactions: 12,
        ops_per_transaction: 5,
        ..ChurnParams::default()
    };
    let trace = churn_trace(seed, params);
    let base = trace.db.data_version();

    // Golden run: the same single-client serve, uncrashed, to learn the
    // committed boundaries and the exact WAL byte stream.
    let golden_backend = Arc::new(FaultyBackend::new());
    let server = durable_server(&trace, golden_backend.clone());
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut committed = vec![base];
    for (t, txn) in trace.transactions.iter().enumerate() {
        match client.request(&churn_txn_request(txn)).expect("commits") {
            Response::Committed { version } => committed.push(version),
            other => panic!("txn {t}: expected COMMITTED, got {other:?}"),
        }
    }
    // Read before the stop: a clean stop writes an image and empties
    // the WAL.
    let wal = golden_backend
        .surviving_files()
        .remove(WAL_FILE)
        .expect("WAL exists");
    assert!(!wal.is_empty(), "the golden run must log transactions");
    client.close().expect("graceful BYE");
    server.shutdown();

    // Crash the serve at a spread of torn offsets across the WAL, plus
    // its full length: every serve-phase append lands, and the fault
    // fires on the stop image instead, which must leave the setup image
    // and the whole WAL to recover from.
    let mut cuts = crash_points(&wal, 1, seed);
    let step = cuts.len().div_ceil(9).max(1);
    cuts = cuts.into_iter().step_by(step).collect();
    cuts.push(wal.len());

    for cut in cuts {
        let backend = Arc::new(FaultyBackend::new());
        let server = durable_server(&trace, backend.clone());
        // Arm after setup: only serve-phase WAL appends consume budget.
        backend.crash_after_bytes(cut as u64);

        let mut client = Client::connect(server.addr()).expect("connects");
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut acked = base;
        for txn in &trace.transactions {
            match client.request(&churn_txn_request(txn)) {
                Ok(Response::Committed { version }) => acked = version,
                // The writer hit the scripted fault: a typed internal
                // error for in-flight work, then the connection drops.
                Ok(Response::Error {
                    code: ErrorCode::Internal,
                    ..
                }) => break,
                Ok(other) => panic!("cut={cut}: unexpected reply {other:?}"),
                Err(_) => break,
            }
        }
        drop(client);
        if cut < wal.len() {
            assert!(server.crashed(), "cut={cut}: the fault never surfaced");
        }
        assert!(server.shutdown(), "cut={cut}: the stop image cannot land");

        // The process is gone; the surviving bytes recover.
        backend.revive();
        let recovered = OptimizedDatabase::open(backend, DurableOptions::default(), || {
            panic!("cut={cut}: an image exists, genesis must not run")
        })
        .unwrap_or_else(|e| panic!("cut={cut}: recovery failed: {e}"));
        let version = recovered.database().data_version();
        assert!(
            version >= acked,
            "cut={cut}: lost acknowledged commit {acked}, recovered only {version}"
        );
        assert!(
            committed.contains(&version),
            "cut={cut}: {version} is not a committed boundary of {committed:?}"
        );

        // Reconnecting clients see exactly that boundary.
        let scratch = scratch_at(&trace, &committed, version);
        assert_serves_boundary(recovered, &trace, version, &scratch);
    }
}

#[test]
fn a_clean_shutdown_reopens_at_the_final_boundary() {
    let trace = churn_trace(9, ChurnParams::default());
    let backend = Arc::new(FaultyBackend::new());
    let server = durable_server(&trace, backend.clone());
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut last = trace.db.data_version();
    let mut committed = vec![last];
    for txn in &trace.transactions {
        match client.request(&churn_txn_request(txn)).expect("commits") {
            Response::Committed { version } => {
                last = version;
                committed.push(version);
            }
            other => panic!("expected COMMITTED, got {other:?}"),
        }
    }
    client.close().expect("graceful BYE");
    assert!(!server.shutdown(), "the stop image failed");

    // The stop image covers everything: the reopen decodes it and
    // replays nothing.
    let wal = backend
        .surviving_files()
        .remove(WAL_FILE)
        .unwrap_or_default();
    assert!(
        wal.is_empty(),
        "a clean stop leaves {} WAL bytes",
        wal.len()
    );
    let recovered = OptimizedDatabase::open(backend, DurableOptions::default(), || unreachable!())
        .expect("clean reopen");
    assert_eq!(
        recovered
            .durability_stats()
            .expect("durable")
            .recovered_records,
        0,
        "a clean restart replayed WAL records"
    );
    assert_eq!(recovered.database().data_version(), last);
    let scratch = scratch_at(&trace, &committed, last);
    assert_serves_boundary(recovered, &trace, last, &scratch);
}

#[test]
fn a_durable_failure_resets_idle_sessions_without_further_traffic() {
    let trace = churn_trace(31, ChurnParams::default());
    let backend = Arc::new(FaultyBackend::new());
    let server = durable_server(&trace, backend.clone());
    let mut idle: Vec<Client> = (0..3)
        .map(|_| {
            let mut client = Client::connect(server.addr()).expect("connects");
            client.set_timeout(Some(Duration::from_secs(2))).unwrap();
            assert!(matches!(
                client.request(&Request::Ping).expect("pongs"),
                Response::Pong { .. }
            ));
            client
        })
        .collect();

    // The very next WAL append dies; one driving session trips it.
    backend.crash_after_bytes(0);
    let mut driver = Client::connect(server.addr()).expect("connects");
    driver.set_timeout(Some(Duration::from_secs(2))).unwrap();
    match driver.request(&churn_txn_request(&trace.transactions[0])) {
        Ok(Response::Error {
            code: ErrorCode::Internal,
            ..
        })
        | Err(_) => {}
        Ok(other) => panic!("unexpected reply {other:?}"),
    }

    // The idle sessions never send another byte: only the writer's wake
    // can tell their blocked worker that the engine is gone.
    for (i, client) in idle.iter_mut().enumerate() {
        let end = client.stream_mut().read(&mut [0u8; 16]);
        assert!(
            matches!(end, Ok(0))
                || matches!(&end, Err(e) if e.kind() == ErrorKind::ConnectionReset),
            "idle session {i} should be reset by the crash, got {end:?}"
        );
    }
    assert!(server.crashed());
    server.shutdown();
}

/// A [`FaultyBackend`] that counts the checkpoint images written (the
/// WAL's reset is an atomic replacement too, and is not counted).
#[derive(Default)]
struct ImageCounter {
    inner: FaultyBackend,
    images: AtomicUsize,
}

impl StorageBackend for ImageCounter {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), DurableError> {
        self.inner.sync(name)
    }
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        if name != WAL_FILE {
            self.images.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.write_atomic(name, bytes)
    }
    fn remove(&self, name: &str) -> Result<(), DurableError> {
        self.inner.remove(name)
    }
    fn list(&self) -> Result<Vec<String>, DurableError> {
        self.inner.list()
    }
}

#[test]
fn a_pipelined_ddl_burst_shares_one_image() {
    let trace = churn_trace(
        17,
        ChurnParams {
            views: 12,
            ..ChurnParams::default()
        },
    );
    let base = trace.db.data_version();
    let (burst, rest) = trace.view_names.split_at(trace.view_names.len() - 2);
    let backend = Arc::new(ImageCounter::default());
    let odb = OptimizedDatabase::open(backend.clone(), DurableOptions { group_commit: 8 }, || {
        trace.db.clone()
    })
    .expect("genesis open");
    let server = Server::start(
        odb,
        ServerConfig {
            write_queue: 64,
            ..config()
        },
    )
    .expect("binds loopback");
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // The burst: every MATERIALIZE is sent before the first reply is
    // read, so the writer drains them together.
    let before = backend.images.load(Ordering::SeqCst);
    for name in burst {
        client
            .send(&Request::Materialize { name: name.clone() })
            .expect("pipelines");
    }
    for name in burst {
        match client.receive().expect("acks") {
            Response::Ok { .. } => {}
            other => panic!("MATERIALIZE {name}: expected OK, got {other:?}"),
        }
    }
    let burst_images = backend.images.load(Ordering::SeqCst) - before;
    assert!(
        (1..burst.len()).contains(&burst_images),
        "{} pipelined MATERIALIZEs wrote {burst_images} images",
        burst.len()
    );

    // A transaction splits a run: however the three are drained, the
    // image of `a` precedes the TXN's WAL record and `b` gets its own.
    let before = backend.images.load(Ordering::SeqCst);
    client
        .send(&Request::Materialize {
            name: rest[0].clone(),
        })
        .expect("pipelines");
    client
        .send(&churn_txn_request(&trace.transactions[0]))
        .expect("pipelines");
    client
        .send(&Request::Materialize {
            name: rest[1].clone(),
        })
        .expect("pipelines");
    assert!(matches!(
        client.receive().expect("acks"),
        Response::Ok { .. }
    ));
    let version = match client.receive().expect("commits") {
        Response::Committed { version } => version,
        other => panic!("expected COMMITTED, got {other:?}"),
    };
    assert!(matches!(
        client.receive().expect("acks"),
        Response::Ok { .. }
    ));
    assert_eq!(backend.images.load(Ordering::SeqCst) - before, 2);

    // Die before the stop image lands: recovery sees only what the acks
    // promised.
    drop(client);
    backend.inner.crash_after_bytes(0);
    assert!(server.shutdown(), "the stop image cannot land");
    backend.inner.revive();
    let recovered = OptimizedDatabase::open(backend, DurableOptions::default(), || {
        panic!("an image exists, genesis must not run")
    })
    .expect("recovers");
    assert_eq!(recovered.database().data_version(), version);

    // Every acked view is back, in the lattice a scratch engine over the
    // same views classifies.
    let mut scratch = OptimizedDatabase::new(trace.db.clone()).expect("translates");
    for name in &trace.view_names {
        scratch.materialize_view(name).expect("materializes");
    }
    let mut names = recovered.catalog().view_names();
    names.sort();
    let mut expected = trace.view_names.clone();
    expected.sort();
    assert_eq!(names, expected);
    let mut edges = recovered.catalog().lattice_edges();
    edges.sort();
    let mut expected = scratch.catalog().lattice_edges();
    expected.sort();
    assert_eq!(edges, expected);
    let committed = [base, version];
    let at = scratch_at(&trace, &committed, version);
    assert_serves_boundary(recovered, &trace, version, &at);
}

/// What a gated fsync signals on entry, and where it waits for its
/// outcome.
type Gate = (Sender<()>, Receiver<Result<(), DurableError>>);

/// A [`FaultyBackend`] whose next fsync (the engine fsyncs only its
/// WAL), once a gate is set, reports that it has started and then waits
/// for the test to choose its outcome.
#[derive(Default)]
struct GatedSync {
    inner: FaultyBackend,
    gate: Mutex<Option<Gate>>,
}

impl StorageBackend for GatedSync {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), DurableError> {
        let gate = self.gate.lock().expect("gate lock").take();
        match gate {
            Some((entered, outcome)) => {
                entered.send(()).expect("the test waits for the fsync");
                outcome.recv().expect("the test releases the fsync")
            }
            None => self.inner.sync(name),
        }
    }
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        self.inner.write_atomic(name, bytes)
    }
    fn remove(&self, name: &str) -> Result<(), DurableError> {
        self.inner.remove(name)
    }
    fn list(&self) -> Result<Vec<String>, DurableError> {
        self.inner.list()
    }
}

/// A reader never sees a version above the last fsync: while session
/// A's transaction is applied and logged but its batch's fsync has not
/// returned, session B still answers at the synced version; when that
/// fsync fails, A's transaction is never acknowledged and B never saw
/// it.
#[test]
fn a_reader_never_sees_a_version_above_the_last_fsync() {
    let trace = churn_trace(23, ChurnParams::default());
    let txn = trace
        .transactions
        .iter()
        .find(|txn| {
            let mut db = trace.db.clone();
            txn.iter().for_each(|op| op.apply(&mut db));
            db.data_version() > trace.db.data_version()
        })
        .expect("the trace changes something");
    let backend = Arc::new(GatedSync::default());
    let mut odb =
        OptimizedDatabase::open(backend.clone(), DurableOptions { group_commit: 8 }, || {
            trace.db.clone()
        })
        .expect("genesis open");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    odb.checkpoint().expect("checkpoint after materialization");
    let synced = odb.database().data_version();
    let server = Server::start(odb, config()).expect("binds loopback");
    let mut a = Client::connect(server.addr()).expect("connects");
    let mut b = Client::connect(server.addr()).expect("connects");
    a.set_timeout(Some(Duration::from_secs(10))).unwrap();
    b.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let ping = |client: &mut Client| match client.request(&Request::Ping).expect("pongs") {
        Response::Pong { version } => version,
        other => panic!("expected PONG, got {other:?}"),
    };
    assert_eq!(ping(&mut b), synced);

    let (entered_tx, entered) = mpsc::channel();
    let (release, outcome) = mpsc::channel();
    *backend.gate.lock().expect("gate lock") = Some((entered_tx, outcome));
    a.send(&churn_txn_request(txn)).expect("sends");
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("the writer reaches the batch's fsync");
    assert_eq!(
        ping(&mut b),
        synced,
        "a session saw a transaction before its fsync"
    );

    release
        .send(Err(DurableError::Io("scripted fsync failure".into())))
        .expect("the writer waits in the fsync");
    // The typed error, or the reset that follows it when the worker
    // learns of the crash first: never an acknowledgement.
    match a.receive() {
        Ok(Response::Error {
            code: ErrorCode::Internal,
            ..
        })
        | Err(_) => {}
        Ok(other) => panic!("the unsynced transaction was answered {other:?}"),
    }
    match b.request(&Request::Ping) {
        Ok(Response::Pong { version }) => assert_eq!(version, synced),
        Ok(other) => panic!("expected PONG, got {other:?}"),
        Err(_) => {}
    }
    assert!(server.crashed());
    server.shutdown();
}

/// A [`FaultyBackend`] whose fsyncs panic once armed: a writer that dies
/// by unwinding instead of returning a durable error.
#[derive(Default)]
struct PanickingSync {
    inner: FaultyBackend,
    armed: AtomicBool,
}

impl StorageBackend for PanickingSync {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), DurableError> {
        if self.armed.load(Ordering::SeqCst) {
            panic!("scripted fsync panic");
        }
        self.inner.sync(name)
    }
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        self.inner.write_atomic(name, bytes)
    }
    fn remove(&self, name: &str) -> Result<(), DurableError> {
        self.inner.remove(name)
    }
    fn list(&self) -> Result<Vec<String>, DurableError> {
        self.inner.list()
    }
}

/// A writer that panics raises `crashed` like one that fails: the
/// session waiting for its transaction's reply is reset instead of
/// hanging, and the server reports the crash.
#[test]
fn a_panicking_writer_raises_crashed() {
    let trace = churn_trace(29, ChurnParams::default());
    let txn = trace
        .transactions
        .iter()
        .find(|txn| {
            let mut db = trace.db.clone();
            txn.iter().for_each(|op| op.apply(&mut db));
            db.data_version() > trace.db.data_version()
        })
        .expect("the trace changes something");
    let backend = Arc::new(PanickingSync::default());
    let odb = OptimizedDatabase::open(backend.clone(), DurableOptions { group_commit: 8 }, || {
        trace.db.clone()
    })
    .expect("genesis open");
    let server = Server::start(odb, config()).expect("binds loopback");
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        client.request(&Request::Ping).expect("pongs"),
        Response::Pong { .. }
    ));

    backend.armed.store(true, Ordering::SeqCst);
    client.send(&churn_txn_request(txn)).expect("sends");
    let end = client.stream_mut().read(&mut [0u8; 16]);
    assert!(
        matches!(end, Ok(0)) || matches!(&end, Err(e) if e.kind() == ErrorKind::ConnectionReset),
        "the session should be reset by the writer's panic, got {end:?}"
    );
    assert!(server.crashed());
    assert!(server.shutdown());
}
