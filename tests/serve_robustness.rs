//! Serve-layer robustness under injected store faults (in-process daemon):
//!
//! 1. **Graceful degradation with blast-radius one**: a persistent write
//!    failure scoped to one dataset flips that dataset — and only that
//!    dataset — to read-only.  Its writes answer 503 + `Retry-After`, its
//!    reads keep serving the last committed publication, and every other
//!    dataset keeps full read-write service.
//! 2. **The counters tell the story**: `faults.injected`,
//!    `serve.job_retries`, and `serve.datasets_degraded` all surface in
//!    `GET /metrics`, and `GET /healthz` names the degraded dataset.
//! 3. **The daemon's flat file commits through the publication seam**: a
//!    re-anonymize failing at `cli.publish.rename` or `cli.publish.sync`
//!    leaves the previous `publication.chunks.json` byte-identical and no
//!    `.partial` behind.
//! 4. **Per-job wall-clock timeouts**: a job that outlives
//!    `ServeConfig::job_reply_timeout` answers 504 without wedging the
//!    daemon.
//! 5. **The connection cap**: with `ServeConfig::max_connections`
//!    connections open, the next one answers 503 + `Retry-After: 1` from
//!    the accept loop and counts in `serve.requests_rejected`; once a slot
//!    frees up, requests succeed again.
//!
//! The failpoint and metrics registries are process-global, so the tests
//! serialize on one mutex, reset the metrics when they take it, and scope
//! every armed fault to a dataset path under their own temp directory.

use datagen::{QuestConfig, QuestGenerator};
use disassoc_faults as faults;
use disassoc_obs::metrics::counters;
use disassoc_serve::{client, ServeConfig, Server, ShutdownHandle};
use disassoc_store::failpoints;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use transact::Dataset;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::disarm_all();
    // Counter assertions must see only their own test's events.
    disassoc_obs::metrics::reset_all();
    g
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_robust_{tag}_{}", std::process::id()));
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

/// Pulls one counter's value out of the `/metrics` JSON body.
fn counter_value(metrics_json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let at = metrics_json
        .find(&needle)
        .unwrap_or_else(|| panic!("counter {name} missing from /metrics:\n{metrics_json}"));
    metrics_json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn persistent_write_failure_degrades_one_dataset_and_spares_the_rest() {
    let _g = guard();
    let data_dir = tmpdir("degrade");
    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());

    // Two healthy datasets, both published.
    let body_a = numeric_body(&quest(300, 60, 5));
    let body_b = numeric_body(&quest(300, 60, 6));
    for (name, body) in [("dsa", &body_a), ("dsb", &body_b)] {
        let ingest = client::post(addr, &format!("/datasets/{name}/records"), body).unwrap();
        assert_eq!(ingest.status, 200, "{}", ingest.text());
        let anon = client::post(addr, &format!("/datasets/{name}/anonymize?k=3&m=2"), b"").unwrap();
        assert_eq!(anon.status, 200, "{}", anon.text());
    }
    let published_a = client::get(addr, "/datasets/dsa/chunks").unwrap();
    assert_eq!(published_a.status, 200);

    // Simulated stuck disk under dsa only: every WAL append in its store
    // directory fails, forever.  The path filter is the blast radius.
    faults::arm(
        failpoints::WAL_APPEND,
        faults::Policy::disk_full().when_path_contains("/dsa/"),
    );

    // Writes to dsa: retried (transient as far as the server knows), then
    // the dataset degrades to read-only and answers 503 + Retry-After.
    let write = client::post(addr, "/datasets/dsa/records", &body_a).unwrap();
    assert_eq!(write.status, 503, "{}", write.text());
    assert!(write.header("Retry-After").is_some());
    assert!(write.text().contains("read-only"), "{}", write.text());

    // Once degraded, further writes bounce immediately (no fresh retries),
    // including anonymize jobs.
    let again = client::post(addr, "/datasets/dsa/records", &body_a).unwrap();
    assert_eq!(again.status, 503);
    let anon = client::post(addr, "/datasets/dsa/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(anon.status, 503, "{}", anon.text());

    // Reads of dsa keep serving the committed publication.
    let read = client::get(addr, "/datasets/dsa/chunks").unwrap();
    assert_eq!(read.status, 200);
    assert_eq!(read.body, published_a.body, "publication must be unchanged");

    // dsb is untouched: full read-write service.
    let write_b = client::post(addr, "/datasets/dsb/records", &body_b).unwrap();
    assert_eq!(write_b.status, 200, "{}", write_b.text());
    let anon_b = client::post(addr, "/datasets/dsb/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(anon_b.status, 200, "{}", anon_b.text());
    let read_b = client::get(addr, "/datasets/dsb/chunks").unwrap();
    assert_eq!(read_b.status, 200);

    // healthz names the casualty; the dataset summary flags it.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let health_text = health.text();
    assert!(health_text.contains("\"degraded\""), "{health_text}");
    assert!(health_text.contains("dsa"), "{health_text}");
    assert!(!health_text.contains("dsb\"]"), "{health_text}");
    let summary = client::get(addr, "/datasets/dsa").unwrap();
    assert!(
        summary.text().contains("\"degraded\":true"),
        "{}",
        summary.text()
    );

    // The counters surface the whole story in /metrics.
    let metrics = client::get(addr, "/metrics").unwrap();
    let text = metrics.text();
    assert!(counter_value(&text, "faults.injected") >= 1);
    assert!(counter_value(&text, "serve.job_retries") >= 2);
    assert_eq!(counter_value(&text, "serve.datasets_degraded"), 1);

    // A retrying client sees the degraded 503s surface after its attempts
    // are exhausted — deterministically, honouring Retry-After.
    let policy = client::RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
    };
    let resp = client::post_with_retry(addr, "/datasets/dsa/records", &body_a, &policy).unwrap();
    assert_eq!(resp.status, 503);

    // Disarm before the drain so shutdown's store flushes stay healthy.
    faults::disarm_all();
    shutdown.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn failed_flat_file_commit_keeps_the_previous_publication() {
    let _g = guard();
    let data_dir = tmpdir("flatfile");
    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());

    for (name, site) in [
        ("rename", failpoints::CLI_PUBLISH_RENAME),
        ("sync", failpoints::CLI_PUBLISH_SYNC),
    ] {
        let records = |seed| numeric_body(&quest(200, 50, seed));
        let ingest =
            client::post(addr, &format!("/datasets/{name}/records"), &records(21)).unwrap();
        assert_eq!(ingest.status, 200, "{}", ingest.text());
        let anon = client::post(addr, &format!("/datasets/{name}/anonymize?k=3&m=2"), b"").unwrap();
        assert_eq!(anon.status, 200, "{}", anon.text());
        let published = data_dir.join(name).join("publication.chunks.json");
        let before = std::fs::read(&published).unwrap();

        // More records, so a successful re-anonymize would change the file.
        let more = client::post(addr, &format!("/datasets/{name}/records"), &records(22)).unwrap();
        assert_eq!(more.status, 200, "{}", more.text());
        faults::arm(
            site,
            faults::Policy::error().when_path_contains(format!("/{name}/")),
        );
        let failed =
            client::post(addr, &format!("/datasets/{name}/anonymize?k=3&m=2"), b"").unwrap();
        let triggers = faults::site_stats(site).map_or(0, |s| s.triggers);
        faults::disarm(site);
        assert_ne!(failed.status, 200, "{site}: {}", failed.text());
        assert!(
            triggers >= 1,
            "{site}: the daemon's flat-file commit never consulted the seam"
        );

        assert_eq!(
            std::fs::read(&published).unwrap(),
            before,
            "{site}: the previous publication must survive byte for byte"
        );
        let served = client::get(addr, &format!("/datasets/{name}/chunks")).unwrap();
        assert_eq!(served.body, before, "{site}");
        assert!(
            !data_dir
                .join(name)
                .join("publication.chunks.json.partial")
                .exists(),
            "{site}: a failed commit must not leave its .partial behind"
        );
    }

    shutdown.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn jobs_past_the_wall_clock_timeout_answer_504() {
    let _g = guard();
    let data_dir = tmpdir("timeout");
    let config = ServeConfig {
        job_reply_timeout: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(&data_dir, config);

    // A dataset big enough that anonymization cannot finish in a
    // millisecond, by a wide margin.
    let body = numeric_body(&quest(8_000, 150, 7));
    let ingest = client::post(addr, "/datasets/slow/records", &body).unwrap();
    assert_eq!(ingest.status, 200, "{}", ingest.text());
    let anon = client::post(addr, "/datasets/slow/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(anon.status, 504, "{}", anon.text());
    assert!(anon.text().contains("still running"), "{}", anon.text());

    // The daemon is not wedged: admin routes answer, and the drain (which
    // lets the job finish) exits cleanly.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    shutdown.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn connections_over_the_cap_answer_503_until_a_slot_frees() {
    let _g = guard();
    let data_dir = tmpdir("conncap");
    let config = ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(&data_dir, config);

    // An idle connection takes the only slot: its thread sits in the
    // request read until the read timeout.  It is the server's first
    // connection and the accept loop takes connections in arrival order,
    // so the slot is held before the next request is accepted.
    let idle = TcpStream::connect(addr).unwrap();
    let rejected_before = counters::SERVE_REQUESTS_REJECTED.get();
    let over = client::get(addr, "/healthz").unwrap();
    assert_eq!(over.status, 503, "{}", over.text());
    assert_eq!(over.header("Retry-After").as_deref(), Some("1"));
    assert!(over.text().contains("connection limit"), "{}", over.text());
    assert_eq!(
        counters::SERVE_REQUESTS_REJECTED.get(),
        rejected_before + 1,
        "the over-cap connection counts as one rejected request"
    );

    // Closing the idle connection frees the slot (its thread sees EOF and
    // exits); service resumes.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = client::get(addr, "/healthz").unwrap();
        if health.status == 200 {
            break;
        }
        assert_eq!(health.status, 503, "{}", health.text());
        assert!(Instant::now() < deadline, "the slot never freed up");
        std::thread::sleep(Duration::from_millis(20));
    }
    shutdown.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}
