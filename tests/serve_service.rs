//! Integration tests for the `disassoc-serve` daemon (in-process): socket
//! ingest → served anonymization → fetched publication, byte-identical to
//! the CLI batch path; graceful-shutdown durability; hostile-input
//! robustness; dataset isolation; and queue backpressure.
//!
//! Process-level tests (SIGTERM, kill -9 against the real binary) live in
//! `crates/cli/tests/serve_daemon.rs`, where Cargo exposes the `disassoc`
//! executable path.

use datagen::{QuestConfig, QuestGenerator};
use disassoc_cli::Command;
use disassoc_serve::{client, ServeConfig, Server, ShutdownHandle};
use disassociation::DisassociatedDataset;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use transact::{Dataset, TermId};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("disassoc_serve_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quest(records: usize, domain: usize, seed: u64) -> Dataset {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: records,
        domain_size: domain,
        avg_transaction_len: 6.0,
        seed,
        ..QuestConfig::default()
    })
}

fn numeric_body(dataset: &Dataset) -> Vec<u8> {
    let mut body = Vec::new();
    transact::io::write_numeric_transactions(dataset, &mut body).unwrap();
    body
}

fn spawn_server(
    data_dir: &Path,
    config: ServeConfig,
) -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", data_dir.to_path_buf(), config).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, shutdown, join)
}

fn run_cli(line: &str) -> Vec<u8> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = Command::parse(&args).expect("valid command line");
    let mut out = Vec::new();
    cmd.run(&mut out).expect("command succeeds");
    out
}

/// The acceptance-criteria round trip: records ingested over the socket,
/// anonymized by the service, and the fetched publication is byte-identical
/// to what `disassoc ingest` + `disassoc anonymize --store` write for the
/// same records and batch size.  The batch size splits the records into six
/// batches, so the daemon's pipeline runs them on several workers.
#[test]
fn served_publication_is_byte_identical_to_the_cli_batch_path() {
    let dataset = quest(700, 90, 11);
    let body = numeric_body(&dataset);

    // Service path.
    let data_dir = tmpdir("identical_serve");
    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());
    let ingest = client::post(addr, "/datasets/d/records", &body).unwrap();
    assert_eq!(ingest.status, 200, "{}", ingest.text());
    let anon = client::post(addr, "/datasets/d/anonymize?k=3&m=2&batch-size=128", b"").unwrap();
    assert_eq!(anon.status, 200, "{}", anon.text());
    assert!(anon.text().contains("\"batches\":6"), "{}", anon.text());
    let fetched = client::get(addr, "/datasets/d/chunks").unwrap();
    assert_eq!(fetched.status, 200);

    // A term-filtered read answers the publication's clusters that mention
    // the term, compact, and the read index's batch loads show on /metrics.
    let published: DisassociatedDataset = serde_json::from_slice(&fetched.body).unwrap();
    let terms = published.all_terms();
    let absent = TermId::new(terms.iter().map(|t| t.0).max().unwrap() + 1);
    for term in terms.iter().copied().chain([absent]) {
        let mut expected = published.clone();
        expected.clusters.retain(|c| c.mentions_term(term));
        let read = client::get(addr, &format!("/datasets/d/chunks?term={}", term.0)).unwrap();
        assert_eq!(read.status, 200);
        assert_eq!(
            read.body,
            serde_json::to_vec(&expected).unwrap(),
            "term {term}"
        );
    }
    let metrics: serde_json::Value =
        serde_json::from_slice(&client::get(addr, "/metrics").unwrap().body).unwrap();
    let loads = metrics
        .get("counters")
        .and_then(|c| c.get("store.chunk_index_loads"));
    assert!(
        matches!(loads, Some(serde_json::Value::Int(n)) if *n >= 6),
        "{loads:?}"
    );
    shutdown.shutdown();
    join.join().unwrap().unwrap();

    // CLI batch path on the same records: file → store → publication.
    let cli_dir = tmpdir("identical_cli");
    let input = cli_dir.join("input.dat");
    transact::io::write_numeric_transactions_path(&dataset, &input).unwrap();
    let store = cli_dir.join("store");
    let prefix = cli_dir.join("published");
    run_cli(&format!(
        "ingest --input {} --store {}",
        input.display(),
        store.display()
    ));
    run_cli(&format!(
        "anonymize --store {} --k 3 --m 2 --batch-size 128 --out-prefix {}",
        store.display(),
        prefix.display()
    ));
    let cli_bytes = std::fs::read(prefix.with_extension("chunks.json")).unwrap();

    assert_eq!(
        fetched.body, cli_bytes,
        "served publication and CLI publication must be byte-identical"
    );

    // The served flat file is what GET /chunks returned.
    let served_bytes = std::fs::read(data_dir.join("d/publication.chunks.json")).unwrap();
    assert_eq!(fetched.body, served_bytes);
}

/// Acknowledged ingests survive a graceful shutdown and are all present —
/// and anonymizable — when a fresh server reopens the same data directory.
#[test]
fn graceful_shutdown_drains_and_acknowledged_ingests_survive_restart() {
    let data_dir = tmpdir("drain");
    let dataset = quest(300, 60, 5);
    let body = numeric_body(&dataset);

    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());
    for _ in 0..3 {
        let resp = client::post(addr, "/datasets/d/records", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    shutdown.shutdown();
    join.join().unwrap().expect("graceful shutdown returns Ok");

    // Restart on the same directory: the dataset is rediscovered with every
    // acknowledged record, and the store lock was released cleanly.
    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());
    let info = client::get(addr, "/datasets/d").unwrap();
    assert_eq!(info.status, 200, "{}", info.text());
    let expected = format!("\"records\":{}", 3 * dataset.len());
    assert!(info.text().contains(&expected), "{}", info.text());
    let anon = client::post(addr, "/datasets/d/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(anon.status, 200, "{}", anon.text());
    shutdown.shutdown();
    join.join().unwrap().unwrap();
}

/// An idle server bound to the unspecified address returns from `run`
/// within a second of `shutdown`: the wake connects to loopback, not to
/// `0.0.0.0`.
#[test]
fn idle_server_on_the_unspecified_address_stops_within_a_second_of_shutdown() {
    let server = Server::bind("0.0.0.0:0", tmpdir("unspecified"), ServeConfig::default()).unwrap();
    let shutdown = server.shutdown_handle();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || done_tx.send(server.run()).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    shutdown.shutdown();
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("run returns within 1 s of shutdown")
        .expect("graceful shutdown returns Ok");
}

/// A request reaching an idle server is accepted at once: the accept loop
/// blocks in `accept` and never sleeps between polls (a 25 ms poll would
/// put the median between 12 and 20 ms, far above the 5 ms limit).
#[test]
fn requests_to_an_idle_server_wait_for_no_accept_poll() {
    let (addr, shutdown, join) = spawn_server(&tmpdir("idle_latency"), ServeConfig::default());
    let mut latencies: Vec<Duration> = (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(30));
            let start = Instant::now();
            let resp = client::get(addr, "/healthz").unwrap();
            assert_eq!(resp.status, 200);
            start.elapsed()
        })
        .collect();
    shutdown.shutdown();
    join.join().unwrap().unwrap();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median idle /healthz latency {median:?} (all: {latencies:?})"
    );
}

/// Malformed and oversized bodies come back as 4xx — and the server keeps
/// serving afterwards (no panic, no wedged state).
#[test]
fn hostile_requests_get_4xx_and_the_server_survives() {
    let data_dir = tmpdir("hostile");
    let config = ServeConfig {
        max_body_bytes: 4 * 1024,
        ..ServeConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(&data_dir, config);

    // Body over the declared limit → 413.
    let big = vec![b'1'; 8 * 1024];
    let resp = client::post(addr, "/datasets/d/records", &big).unwrap();
    assert_eq!(resp.status, 413, "{}", resp.text());

    // Unparseable record lines → 400 (and nothing is ingested).
    let resp = client::post(addr, "/datasets/d/records", b"1 2\nnot a record\n").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());

    // Garbage instead of HTTP → 400 on the wire.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"EHLO not-http\r\n\r\n").unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");

    // A lying Content-Length (declared but never sent) → the connection is
    // dropped without taking the server down.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"POST /datasets/d/records HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        .unwrap();
    drop(raw);

    // Unknown query parameters are ignored, but malformed privacy
    // parameters are a 400.
    let resp = client::post(addr, "/datasets/d/anonymize?k=two&m=2", b"").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());

    // After all the abuse the daemon still answers.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);

    shutdown.shutdown();
    join.join().unwrap().unwrap();
}

/// Two datasets are fully independent: concurrent ingest + anonymize on
/// both succeeds with no store-lock conflicts, and each publication holds
/// its own records.
#[test]
fn two_datasets_are_served_concurrently_without_lock_conflicts() {
    let data_dir = tmpdir("pair");
    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());

    let worker = |name: &'static str, seed: u64| {
        std::thread::spawn(move || {
            let body = numeric_body(&quest(400, 70, seed));
            let ingest = client::post(addr, &format!("/datasets/{name}/records"), &body).unwrap();
            assert_eq!(ingest.status, 200, "{}", ingest.text());
            let anon =
                client::post(addr, &format!("/datasets/{name}/anonymize?k=3&m=2"), b"").unwrap();
            assert_eq!(anon.status, 200, "{}", anon.text());
            let chunks = client::get(addr, &format!("/datasets/{name}/chunks")).unwrap();
            assert_eq!(chunks.status, 200);
            chunks.body
        })
    };
    let left = worker("left", 1);
    let right = worker("right", 2);
    let left_bytes = left.join().unwrap();
    let right_bytes = right.join().unwrap();
    assert_ne!(
        left_bytes, right_bytes,
        "different datasets publish different chunks"
    );

    let list = client::get(addr, "/datasets").unwrap();
    assert!(list.text().contains("\"left\""), "{}", list.text());
    assert!(list.text().contains("\"right\""), "{}", list.text());

    shutdown.shutdown();
    join.join().unwrap().unwrap();
}

/// A dataset's `pending_jobs` (queued or running), from its admin summary.
fn pending_jobs(addr: SocketAddr, name: &str) -> i128 {
    let summary = client::get(addr, &format!("/datasets/{name}")).unwrap();
    assert_eq!(summary.status, 200, "{}", summary.text());
    let value: serde_json::Value = serde_json::from_str(&summary.text()).unwrap();
    match value.get("pending_jobs") {
        Some(serde_json::Value::Int(n)) => *n,
        other => panic!("no pending_jobs in {}: {other:?}", summary.text()),
    }
}

/// Polls until `name` has `want` pending jobs.
fn await_pending_jobs(addr: SocketAddr, name: &str, want: i128) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while pending_jobs(addr, name) != want {
        assert!(
            std::time::Instant::now() < deadline,
            "dataset {name} never reached {want} pending jobs"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// With one worker and a per-dataset queue depth of 1, a dataset whose job
/// slot is taken answers 503 + `Retry-After` instead of queueing without
/// bound — and the queued work still completes.
#[test]
fn full_per_dataset_queues_answer_503_with_retry_after() {
    let data_dir = tmpdir("backpressure");
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(&data_dir, config);

    // The blocker's job holds the single worker: its flat-file commit (and
    // only its: the fault is scoped to its dataset directory) sleeps well
    // past the few requests the assertions below take.
    let blocker_dir = data_dir.join("blocker").display().to_string();
    disassoc_faults::arm(
        disassoc_store::failpoints::CLI_PUBLISH_SYNC,
        disassoc_faults::Policy::delay(std::time::Duration::from_secs(2))
            .when_path_contains(blocker_dir),
    );
    let blocker_body = numeric_body(&quest(300, 60, 77));
    assert_eq!(
        client::post(addr, "/datasets/blocker/records", &blocker_body)
            .unwrap()
            .status,
        200
    );
    let small_body = numeric_body(&quest(120, 40, 78));
    assert_eq!(
        client::post(addr, "/datasets/small/records", &small_body)
            .unwrap()
            .status,
        200
    );

    let blocker = std::thread::spawn(move || {
        client::post(addr, "/datasets/blocker/anonymize?k=3&m=2", b"").unwrap()
    });
    await_pending_jobs(addr, "blocker", 1);

    // The small dataset's job queues behind the blocker (the only worker is
    // busy), occupying its one slot...
    let queued = std::thread::spawn(move || {
        client::post(addr, "/datasets/small/anonymize?k=3&m=2", b"").unwrap()
    });
    await_pending_jobs(addr, "small", 1);
    assert_eq!(pending_jobs(addr, "blocker"), 1, "the blocker still runs");

    // ...so a second job on the same dataset is rejected immediately.
    let rejected = client::post(addr, "/datasets/small/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(rejected.status, 503, "{}", rejected.text());
    assert_eq!(rejected.header("Retry-After").as_deref(), Some("1"));

    // Backpressure rejects, it does not break: both accepted jobs finish.
    assert_eq!(blocker.join().unwrap().status, 200);
    assert_eq!(queued.join().unwrap().status, 200);
    disassoc_faults::disarm(disassoc_store::failpoints::CLI_PUBLISH_SYNC);

    shutdown.shutdown();
    join.join().unwrap().unwrap();
}

/// The body with the number after `"seconds":` replaced by `0`, so a job
/// response compares independent of how long the job took.
fn mask_seconds(body: &str) -> String {
    let (head, tail) = body
        .split_once("\"seconds\":")
        .unwrap_or_else(|| panic!("no seconds field in {body}"));
    let end = tail
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated seconds in {body}"));
    format!("{head}\"seconds\":0{}", &tail[end..])
}

/// The top-level keys of a compact JSON object body, in order; panics when
/// the body is not an object or not in the compact rendering.
fn compact_object_keys(body: &str) -> Vec<String> {
    let value: serde_json::Value = serde_json::from_str(body).unwrap();
    assert_eq!(serde_json::to_string(&value).unwrap(), body, "not compact");
    value
        .as_object()
        .unwrap_or_else(|| panic!("not an object: {body}"))
        .iter()
        .map(|(key, _)| key.clone())
        .collect()
}

/// Field names, field order and the compact rendering of every daemon
/// response body are pinned byte for byte; the anonymize and append bodies,
/// whose `seconds` varies, are pinned by key order and their stable values.
#[test]
fn response_bodies_are_pinned_byte_for_byte() {
    let data_dir = tmpdir("bodies");
    // A dataset directory with a chunk directory and no store is registered
    // at startup; its summary reports `records` as null.
    std::fs::create_dir_all(data_dir.join("ghost/chunks")).unwrap();
    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());
    let body_of = |resp: client::ClientResponse, status: u16| {
        assert_eq!(resp.status, status, "{}", resp.text());
        resp.text()
    };

    assert_eq!(
        body_of(client::get(addr, "/healthz").unwrap(), 200),
        r#"{"status":"ok","datasets":1,"degraded":[],"draining":false}"#
    );
    let records = numeric_body(&quest(300, 60, 21));
    assert_eq!(
        body_of(
            client::post(addr, "/datasets/d/records", &records).unwrap(),
            200
        ),
        r#"{"dataset":"d","appended":300,"total":300}"#
    );
    assert_eq!(
        body_of(client::get(addr, "/datasets").unwrap(), 200),
        concat!(
            r#"[{"name":"d","records":300,"pending_jobs":0,"published":false,"degraded":false},"#,
            r#"{"name":"ghost","records":null,"pending_jobs":0,"published":false,"degraded":false}]"#
        )
    );

    let anonymize = body_of(
        client::post(addr, "/datasets/d/anonymize?k=3&m=2", b"").unwrap(),
        200,
    );
    let anonymize = mask_seconds(&anonymize);
    assert_eq!(
        compact_object_keys(&anonymize),
        [
            "dataset",
            "records",
            "batches",
            "simple_clusters",
            "record_chunks",
            "shared_chunks",
            "refine_converged",
            "seconds"
        ]
    );
    assert!(
        anonymize.starts_with(r#"{"dataset":"d","records":300,"batches":1,"#),
        "{anonymize}"
    );
    assert_eq!(
        body_of(client::get(addr, "/datasets/d").unwrap(), 200),
        r#"{"name":"d","records":300,"pending_jobs":0,"published":true,"degraded":false}"#
    );

    let delta = numeric_body(&quest(40, 60, 22));
    let append = body_of(
        client::post(addr, "/datasets/d/append?k=3&m=2", &delta).unwrap(),
        200,
    );
    let append = mask_seconds(&append);
    assert_eq!(
        compact_object_keys(&append),
        [
            "dataset",
            "appended",
            "dirty_clusters",
            "reused_clusters",
            "new_clusters",
            "republished_chunks",
            "total_clusters",
            "seconds"
        ]
    );
    assert!(
        append.starts_with(r#"{"dataset":"d","appended":40,"#),
        "{append}"
    );

    assert_eq!(
        body_of(client::get(addr, "/nope").unwrap(), 404),
        r#"{"error":"no route for GET /nope"}"#
    );
    assert_eq!(
        body_of(client::post(addr, "/healthz", b"").unwrap(), 405),
        r#"{"error":"method not allowed for this path"}"#
    );
    shutdown.shutdown();
    join.join().unwrap().unwrap();

    // A connection over the cap answers 503 from the accept loop.
    let capped_dir = tmpdir("bodies_capped");
    let config = ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(&capped_dir, config);
    let idle = std::net::TcpStream::connect(addr).unwrap();
    assert_eq!(
        body_of(client::get(addr, "/healthz").unwrap(), 503),
        r#"{"error":"connection limit reached"}"#
    );
    drop(idle);
    shutdown.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
    std::fs::remove_dir_all(&capped_dir).ok();
}
