//! Process-level tests of `disassoc serve`: the crash-safety contract of
//! the store (PR 2) verified through the daemon — SIGTERM under load drains
//! and exits 0 with every acknowledged ingest intact, an idle daemon wakes
//! from its blocking accept on SIGTERM or SIGINT alone, and kill -9
//! mid-ingest leaves a store that reopens cleanly via WAL recovery.
//!
//! These need the real binary (signals target a process), so they live in
//! the CLI package where Cargo exports `CARGO_BIN_EXE_disassoc`.

#![cfg(unix)]

use disassoc_serve::client;
use disassoc_store::{Store, StoreConfig};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "disassoc_serve_daemon_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts the daemon on an ephemeral port and parses the bound address off
/// its first stdout line (`listening on ADDR (…)`).
fn spawn_daemon(data_dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_disassoc"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--read-timeout-ms",
            "2000",
            "--write-timeout-ms",
            "2000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning the daemon");
    let stdout = child.stdout.as_mut().expect("stdout is piped");
    let mut first_line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("reading the listening line");
    let addr = first_line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|token| token.parse().ok())
        .unwrap_or_else(|| panic!("unexpected first line {first_line:?}"));
    (child, addr)
}

/// POSTs `records_per_batch`-record batches in a loop until `stop` is
/// raised or the daemon goes away; returns the number of *acknowledged*
/// batches (a 200 means the records are in the WAL, so they survive kill -9;
/// the WAL is not fsynced per request).
fn ingest_until_stopped(
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acked: Arc<AtomicUsize>,
    records_per_batch: usize,
) {
    let mut batch_index = 0usize;
    while !stop.load(Ordering::Acquire) {
        let mut body = String::new();
        for i in 0..records_per_batch {
            let base = (batch_index * records_per_batch + i) as u32;
            body.push_str(&format!(
                "{} {} {}\n",
                base % 97,
                base % 89 + 100,
                base % 83 + 200
            ));
        }
        match client::post(addr, "/datasets/d/records", body.as_bytes()) {
            Ok(resp) if resp.status == 200 => {
                acked.fetch_add(1, Ordering::AcqRel);
                batch_index += 1;
            }
            // 4xx/5xx or transport error: the daemon is shutting down (or
            // gone) — every previously acknowledged batch still counts.
            _ => break,
        }
    }
}

fn wait_for_exit(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            panic!("daemon did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn reopened_record_count(data_dir: &Path) -> u64 {
    let store = Store::open(data_dir.join("d/store"), StoreConfig::default())
        .expect("store reopens cleanly after the daemon is gone");
    store.len()
}

#[test]
fn sigterm_under_load_exits_cleanly_with_acknowledged_ingests_intact() {
    const BATCH: usize = 20;
    let data_dir = tmpdir("sigterm");
    let (mut child, addr) = spawn_daemon(&data_dir);

    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicUsize::new(0));
    let ingester = {
        let (stop, acked) = (Arc::clone(&stop), Arc::clone(&acked));
        std::thread::spawn(move || ingest_until_stopped(addr, stop, acked, BATCH))
    };

    // Let some load through, then SIGTERM mid-stream.
    while acked.load(Ordering::Acquire) < 5 {
        std::thread::sleep(Duration::from_millis(10));
    }
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("sending SIGTERM");
    assert!(kill.success());

    let status = wait_for_exit(&mut child, Duration::from_secs(30));
    stop.store(true, Ordering::Release);
    ingester.join().unwrap();
    assert!(
        status.success(),
        "graceful shutdown must exit 0, got {status:?}"
    );

    // Drain printed its goodbye (the listening line was already consumed).
    let mut rest = String::new();
    std::io::Read::read_to_string(child.stdout.as_mut().unwrap(), &mut rest).unwrap();
    assert!(
        rest.contains("drained and shut down cleanly"),
        "stdout tail: {rest:?}"
    );

    // Every acknowledged batch survived; the lock was released.
    let acked_records = (acked.load(Ordering::Acquire) * BATCH) as u64;
    let stored = reopened_record_count(&data_dir);
    assert!(
        stored >= acked_records,
        "store holds {stored} records but {acked_records} were acknowledged"
    );
}

/// An idle daemon — one request answered, then nothing — must wake from
/// its blocking accept on `signal` alone.  No connection is made after the
/// signal: a stray one would wake the accept and mask a lost signal wake.
fn idle_daemon_drains_on(signal: &str) {
    let data_dir = tmpdir(&format!("idle_{signal}"));
    let (mut child, addr) = spawn_daemon(&data_dir);
    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    std::thread::sleep(Duration::from_millis(200));

    let kill = Command::new("kill")
        .args([&format!("-{signal}"), &child.id().to_string()])
        .status()
        .expect("sending the signal");
    assert!(kill.success());
    let status = wait_for_exit(&mut child, Duration::from_secs(5));
    assert!(status.success(), "SIG{signal} must exit 0, got {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(child.stdout.as_mut().unwrap(), &mut rest).unwrap();
    assert!(
        rest.contains("drained and shut down cleanly"),
        "stdout tail: {rest:?}"
    );
}

#[test]
fn idle_daemon_drains_within_five_seconds_of_sigterm() {
    idle_daemon_drains_on("TERM");
}

#[test]
fn idle_daemon_drains_within_five_seconds_of_sigint() {
    idle_daemon_drains_on("INT");
}

#[test]
fn kill_dash_nine_mid_ingest_leaves_a_cleanly_reopenable_store() {
    const BATCH: usize = 20;
    let data_dir = tmpdir("kill9");
    let (mut child, addr) = spawn_daemon(&data_dir);

    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicUsize::new(0));
    let ingester = {
        let (stop, acked) = (Arc::clone(&stop), Arc::clone(&acked));
        std::thread::spawn(move || ingest_until_stopped(addr, stop, acked, BATCH))
    };

    while acked.load(Ordering::Acquire) < 5 {
        std::thread::sleep(Duration::from_millis(10));
    }
    // SIGKILL: no drain, no flush, no lock release — the WAL is all there is.
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    stop.store(true, Ordering::Release);
    ingester.join().unwrap();

    // Recovery: the store must reopen (stale LOCK from a dead process is
    // reclaimed, the WAL tail replayed) holding at least every acknowledged
    // record.
    let acked_records = (acked.load(Ordering::Acquire) * BATCH) as u64;
    let stored = reopened_record_count(&data_dir);
    assert!(
        stored >= acked_records,
        "store holds {stored} records but {acked_records} were acknowledged before kill -9"
    );
}
