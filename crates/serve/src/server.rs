//! The daemon: accept loop, router, and the anonymization job bodies.
//!
//! One thread per connection (bounded by
//! [`ServeConfig::max_connections`]), one request per connection, socket
//! timeouts on both directions.  Ingest and reads run directly on the
//! connection thread; anonymize/append — the expensive, store-exclusive
//! operations — go through the [`crate::jobs::WorkerPool`] behind a bounded
//! per-dataset admission count, so a flood of jobs answers 503 +
//! `Retry-After` instead of queueing without bound.
//!
//! The accept loop blocks in `accept(2)`; nothing polls.  Shutdown wakes it
//! with one loopback connection to the listener's own address, made by
//! [`ShutdownHandle::shutdown`] — or, for SIGTERM/SIGINT, by the thread
//! [`crate::signal::on_shutdown`] starts, which calls the same method.
//!
//! Shutdown contract: once shutdown is requested, the accept loop stops
//! taking connections (the connection that woke it is dropped unanswered),
//! the worker pool drains every job whose submission was acknowledged, open
//! connections finish their request, every open store is flushed, and
//! [`Server::run`] returns `Ok(())` — after which the data directory reopens
//! with zero recovery surprises.

use std::io::{BufReader, BufWriter, ErrorKind, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use crate::dataset::{DatasetHandle, Registry};
use crate::error::ServeError;
use crate::http::{self, Request, Response};
use crate::jobs::{JobSubmitter, WorkerPool};
use crate::retry::{self, RetrySchedule};
use crate::signal;
use disassoc_obs::metrics::{self, counters};
use disassoc_obs::names;
use disassoc_obs::trace as obs_trace;
use disassoc_store::publish::{self, AppendJob};
use disassociation::{AppendOptions, DisassociationConfig, Pipeline};
use serde::Serialize;
use transact::{io::RecordReader, Record, TermId};

/// Tuning knobs for [`Server::bind`]; the defaults suit a small host.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads executing anonymize/append jobs.
    pub workers: usize,
    /// Jobs a single dataset may have queued or running before new ones
    /// answer 503 (`Retry-After`).
    pub queue_depth: usize,
    /// Largest request body a client may declare, bytes.
    pub max_body_bytes: u64,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Concurrent connections before new ones answer 503 immediately.
    pub max_connections: usize,
    /// Pipeline batch size for anonymize/append jobs (default
    /// [`publish::DEFAULT_BATCH_SIZE`], the CLI's too, so served
    /// publications diff clean against `disassoc anonymize --store`).
    pub batch_size: usize,
    /// How long a connection thread waits for its job's reply before giving
    /// up with a 504 (the job itself keeps running to completion) — the
    /// per-job wall-clock timeout.
    pub job_reply_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 4,
            max_body_bytes: 64 << 20,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_connections: 32,
            batch_size: publish::DEFAULT_BATCH_SIZE,
            job_reply_timeout: Duration::from_secs(600),
        }
    }
}

/// How long the shutdown wake may take to connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

struct State {
    registry: Registry,
    config: ServeConfig,
    submitter: JobSubmitter,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    /// The listener's bound address, the target of [`wake`].
    addr: SocketAddr,
}

impl State {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || signal::requested()
    }
}

/// Requests a graceful shutdown of the [`Server`] that issued it, from any
/// thread — the in-process equivalent of sending the daemon SIGTERM.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<State>,
}

impl ShutdownHandle {
    /// Raises the shutdown flag and wakes the blocked accept, so
    /// [`Server::run`] begins the drain at once.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
        wake(self.state.addr);
    }
}

/// Unblocks the accept loop with one connection to the listener at `addr`
/// (an unspecified IP becomes loopback of the same family).  A failed
/// connect is ignored: it means the listener is gone or its backlog is
/// full, and either way the loop does not stay blocked.
fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
}

/// A bound, not-yet-running service instance.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    pool: WorkerPool,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and opens the data directory,
    /// registering every dataset already on disk.
    pub fn bind(
        addr: impl ToSocketAddrs,
        data_dir: impl Into<PathBuf>,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Registry::open(data_dir)?;
        let pool = WorkerPool::start(config.workers)?;
        let state = Arc::new(State {
            registry,
            config,
            submitter: pool.submitter(),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            addr,
        });
        Ok(Server {
            listener,
            state,
            pool,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`run`](Self::run) from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shutdown is requested (SIGTERM/SIGINT via
    /// [`signal::install`], or a [`ShutdownHandle`]), then drains and
    /// returns.  Metrics collection is enabled for the daemon's lifetime so
    /// `GET /metrics` always has data.
    pub fn run(self) -> std::io::Result<()> {
        metrics::enable();
        let handle = self.shutdown_handle();
        signal::on_shutdown(move || handle.shutdown())?;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let accepted = self.listener.accept();
            // Checked before anything else: after a shutdown request the
            // accepted stream is the wake (or a late client) and is dropped.
            if self.state.stopping() {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    connections.retain(|h| !h.is_finished());
                    let active = self.state.active_connections.load(Ordering::Acquire);
                    if active >= self.state.config.max_connections {
                        counters::SERVE_REQUESTS_REJECTED.inc();
                        reject_overloaded(stream, &self.state.config);
                        continue;
                    }
                    self.state.active_connections.fetch_add(1, Ordering::AcqRel);
                    let state = Arc::clone(&self.state);
                    let handle = std::thread::Builder::new()
                        .name("serve-conn".to_owned())
                        .spawn(move || {
                            handle_connection(&state, stream);
                            state.active_connections.fetch_sub(1, Ordering::AcqRel);
                        });
                    match handle {
                        Ok(h) => connections.push(h),
                        Err(_) => {
                            self.state.active_connections.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Graceful drain.  Order matters: the pool first (so connection
        // threads blocked on job replies receive them), then the
        // connections, then the store flushes — after which every WAL and
        // manifest on disk is exactly what a fresh `Store::open` expects.
        drop(self.listener);
        self.pool.drain();
        for connection in connections {
            let _ = connection.join();
        }
        self.state.registry.shutdown_flush();
        Ok(())
    }
}

/// How long each read of a rejected connection's request may block.
const REJECT_DRAIN_TIMEOUT: Duration = Duration::from_millis(25);

/// Reads spent draining a rejected connection's request (8 KiB each).
const REJECT_DRAIN_READS: usize = 8;

/// Best-effort 503 for connections over the cap, on the accept thread (the
/// whole point is not to spawn anything for them).
///
/// After the response the write side is shut and the request is drained
/// until the client closes (bounded by [`REJECT_DRAIN_READS`] reads of at
/// most [`REJECT_DRAIN_TIMEOUT`] each): closing a socket with unread
/// request bytes makes the kernel send a reset, which can destroy the 503
/// before the client reads it.  A read that times out does not end the
/// drain: the accept is immediate, so the request may not have arrived yet,
/// and closing before it does would fail the client's write with EPIPE.
fn reject_overloaded(stream: TcpStream, config: &ServeConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut writer = BufWriter::new(stream);
    let _ = Response::error(503, "connection limit reached")
        .with_header("Retry-After", "1")
        .write_to(&mut writer);
    let Ok(mut stream) = writer.into_inner() else {
        return;
    };
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(REJECT_DRAIN_TIMEOUT));
    let mut sink = [0u8; 8 << 10];
    for _ in 0..REJECT_DRAIN_READS {
        match stream.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
}

fn handle_connection(state: &Arc<State>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let outcome = http::parse_request(&mut reader, state.config.max_body_bytes);
    let response = match outcome {
        Ok(None) => None, // port probe: connect + close without a request
        Ok(Some(request)) => {
            counters::SERVE_REQUESTS.inc();
            Some(route(state, &request))
        }
        Err(parse_error) => {
            let response = parse_error.into_response();
            if response.is_some() {
                counters::SERVE_REQUESTS.inc();
            }
            response
        }
    };
    if let Some(response) = response {
        if response.status >= 400 {
            counters::SERVE_REQUESTS_REJECTED.inc();
        }
        let _ = response.write_to(&mut writer);
    }
    if let Ok(stream) = writer.into_inner() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn route(state: &Arc<State>, request: &Request) -> Response {
    let segments = request.segments();
    let result = match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(healthz(state)),
        ("GET", ["metrics"]) => Ok(Response::json(200, metrics::snapshot().to_json())),
        ("GET", ["datasets"]) => Ok(list_datasets(state)),
        ("GET", ["datasets", name]) => dataset_info(state, name),
        ("POST", ["datasets", name, "records"]) => ingest(state, name, &request.body),
        ("POST", ["datasets", name, "anonymize"]) => anonymize(state, name, request),
        ("POST", ["datasets", name, "append"]) => append(state, name, request),
        ("GET", ["datasets", name, "chunks"]) => chunks(state, name, request),
        // Known paths with the wrong verb get a 405 so clients can tell
        // "wrong method" from "no such route".
        (_, ["healthz" | "metrics" | "datasets"])
        | (_, ["datasets", _])
        | (_, ["datasets", _, "records" | "anonymize" | "append" | "chunks"]) => {
            Ok(Response::error(405, "method not allowed for this path"))
        }
        _ => Err(ServeError::NotFound(format!(
            "no route for {} {}",
            request.method, request.path
        ))),
    };
    result.unwrap_or_else(ServeError::into_response)
}

/// The `GET /healthz` body.
#[derive(Serialize)]
struct Health {
    status: &'static str,
    datasets: usize,
    /// Names of the datasets degraded to read-only.
    degraded: Vec<String>,
    draining: bool,
}

fn healthz(state: &Arc<State>) -> Response {
    let datasets = state.registry.list();
    let degraded: Vec<String> = datasets
        .iter()
        .filter(|h| h.is_degraded())
        .map(|h| h.name().to_owned())
        .collect();
    let status = if degraded.is_empty() {
        "ok"
    } else {
        "degraded"
    };
    Response::json_of(
        200,
        &Health {
            status,
            datasets: datasets.len(),
            degraded,
            draining: state.stopping(),
        },
    )
}

/// One dataset's summary: the `GET /datasets/{name}` body and each entry of
/// the `GET /datasets` list.
#[derive(Serialize)]
struct DatasetSummary {
    name: String,
    /// Null while the store is busy or unopened.
    records: Option<u64>,
    pending_jobs: usize,
    published: bool,
    degraded: bool,
}

fn dataset_summary(handle: &DatasetHandle) -> DatasetSummary {
    DatasetSummary {
        name: handle.name().to_owned(),
        // `try_with_store` so the admin surface never blocks behind a
        // running anonymization.
        records: handle.try_with_store(|st| st.len()),
        pending_jobs: handle.pending_jobs(),
        published: handle.publication_path().is_file(),
        degraded: handle.is_degraded(),
    }
}

fn list_datasets(state: &Arc<State>) -> Response {
    let list: Vec<DatasetSummary> = state
        .registry
        .list()
        .iter()
        .map(|h| dataset_summary(h))
        .collect();
    Response::json_of(200, &list)
}

fn dataset_info(state: &Arc<State>, name: &str) -> Result<Response, ServeError> {
    let handle = require_dataset(state, name)?;
    Ok(Response::json_of(200, &dataset_summary(&handle)))
}

fn require_dataset(state: &Arc<State>, name: &str) -> Result<Arc<DatasetHandle>, ServeError> {
    state
        .registry
        .get(name)
        .ok_or_else(|| ServeError::NotFound(format!("no dataset named {name:?}")))
}

/// Parses a numeric-transaction request body (same format as the CLI's
/// input files: one record per line, space-separated term ids).
fn parse_records(body: &[u8]) -> Result<Vec<Record>, ServeError> {
    let mut reader = RecordReader::new(body);
    let mut records = Vec::new();
    loop {
        let batch = reader
            .next_batch(4096)
            .map_err(|e| ServeError::BadRequest(format!("unparseable record body: {e}")))?;
        if batch.is_empty() {
            return Ok(records);
        }
        records.extend(batch);
    }
}

fn ingest(state: &Arc<State>, name: &str, body: &[u8]) -> Result<Response, ServeError> {
    let records = parse_records(body)?;
    let handle = state.registry.get_or_create(name)?;
    retry::require_writable(&handle)?;
    // Retrying an append is safe: a failed `append_batch` rolls the WAL
    // back to the last known-good length (or poisons it), so a retry can
    // never duplicate records.  Persistent failure degrades the dataset to
    // read-only instead of letting ENOSPC take the daemon down.
    let total = retry::with_write_retries(&handle, "ingest", &RetrySchedule::default(), || {
        handle.with_store(|store| {
            // `append_batch` returns only after the records are in the WAL
            // with the OS buffers flushed: once the 200 goes out, a crash —
            // even kill -9 — cannot lose them.
            store.append_batch(&records)?;
            Ok(store.len())
        })
    })?;
    counters::SERVE_INGESTED_RECORDS.add(records.len() as u64);
    Ok(Response::json_of(
        200,
        &Ingested {
            dataset: name.to_owned(),
            appended: records.len(),
            total,
        },
    ))
}

/// The `POST /datasets/{name}/records` body.
#[derive(Serialize)]
struct Ingested {
    dataset: String,
    appended: usize,
    /// Records in the store after this ingest.
    total: u64,
}

// ---------------------------------------------------------------------------
// Jobs (anonymize / append)
// ---------------------------------------------------------------------------

/// Builds a [`DisassociationConfig`] from `k=`/`m=`/`max-cluster-size=`/
/// `no-refine=` query parameters (same names as the CLI flags).
fn config_from_query(request: &Request) -> Result<DisassociationConfig, ServeError> {
    let required = |param: &str| -> Result<usize, ServeError> {
        let raw = request
            .query_param(param)
            .ok_or_else(|| ServeError::BadRequest(format!("missing query parameter {param}=")))?;
        raw.parse()
            .map_err(|_| ServeError::BadRequest(format!("malformed {param}={raw:?}")))
    };
    let optional = |param: &str, default: usize| -> Result<usize, ServeError> {
        match request.query_param(param) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ServeError::BadRequest(format!("malformed {param}={raw:?}"))),
        }
    };
    let config = DisassociationConfig {
        k: required("k")?,
        m: required("m")?,
        max_cluster_size: optional("max-cluster-size", 0)?,
        enable_refine: request.query_param("no-refine") != Some("true"),
        ..Default::default()
    };
    config.validate()?;
    Ok(config)
}

fn batch_size_from_query(state: &Arc<State>, request: &Request) -> Result<usize, ServeError> {
    match request.query_param("batch-size") {
        None => Ok(state.config.batch_size),
        Some(raw) => match raw.parse::<usize>() {
            Ok(0) | Err(_) => Err(ServeError::BadRequest(format!(
                "malformed batch-size={raw:?} (want a positive integer)"
            ))),
            Ok(n) => Ok(n),
        },
    }
}

/// Claims a job slot, submits `work` to the pool, and waits for its reply.
fn run_job(
    state: &Arc<State>,
    handle: Arc<DatasetHandle>,
    work: impl FnOnce(&DatasetHandle) -> Result<Response, ServeError> + Send + 'static,
) -> Result<Response, ServeError> {
    if !handle.try_begin_job(state.config.queue_depth) {
        counters::SERVE_JOBS_REJECTED.inc();
        return Err(ServeError::Busy {
            retry_after_seconds: 1,
        });
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let job_handle = Arc::clone(&handle);
    let submitted = state.submitter.try_submit(Box::new(move || {
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            work(&job_handle).unwrap_or_else(ServeError::into_response)
        }))
        .unwrap_or_else(|_| Response::error(500, "job panicked; see server stderr"));
        job_handle.end_job();
        // The connection may have timed out and gone; that is its problem.
        let _ = reply_tx.send(response);
    }));
    if !submitted {
        // The closure never ran, so release the slot it still owns on paper.
        handle.end_job();
        counters::SERVE_JOBS_REJECTED.inc();
        return Err(ServeError::Busy {
            retry_after_seconds: 1,
        });
    }
    match reply_rx.recv_timeout(state.config.job_reply_timeout) {
        Ok(response) => Ok(response),
        Err(mpsc::RecvTimeoutError::Timeout) => Ok(Response::error(
            504,
            "the job is still running; poll GET /datasets/{name} for progress",
        )),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Ok(Response::error(500, "the job was dropped without replying"))
        }
    }
}

fn anonymize(state: &Arc<State>, name: &str, request: &Request) -> Result<Response, ServeError> {
    let config = config_from_query(request)?;
    let batch_size = batch_size_from_query(state, request)?;
    // Anonymizing implicitly creates the dataset (an empty store publishes
    // an empty dataset), mirroring ingest-then-anonymize without ordering
    // pickiness in clients.
    let handle = state.registry.get_or_create(name)?;
    retry::require_writable(&handle)?;
    let dataset = name.to_owned();
    run_job(state, handle, move |h| {
        counters::SERVE_ANONYMIZE_JOBS.inc();
        // A full re-anonymization is idempotent (the chunk dir commit is
        // atomic and byte-identical stages are skipped), so transient store
        // errors get the full retry schedule before the dataset degrades.
        retry::with_write_retries(h, "anonymize", &RetrySchedule::default(), || {
            anonymize_job(h, &dataset, &config, batch_size)
        })
    })
}

/// The anonymize job body: store scan → pipeline → ChunkDir + flat file.
///
/// Identical records, batch size, and config produce a `publication.chunks.json`
/// byte-identical to `disassoc anonymize --store <dir> --out-prefix <prefix>`
/// — both paths are the same `Pipeline` over the same [`Store::source`]
/// scan, published by the same
/// [`publish_flat_file`](disassoc_store::publish::publish_flat_file) call,
/// here teed with the dataset's `ChunkDir` (the integration suite diffs the
/// two).
///
/// [`Store::source`]: disassoc_store::Store::source
fn anonymize_job(
    handle: &DatasetHandle,
    name: &str,
    config: &DisassociationConfig,
    batch_size: usize,
) -> Result<Response, ServeError> {
    let (result, seconds) = obs_trace::span(names::SPAN_SERVE_ANONYMIZE_JOB, || {
        handle.with_store(|store| {
            handle.with_publication(|chunk_dir| {
                let path = handle.publication_path();
                publish::publish_flat_file(&path, config, Some(chunk_dir), |sink| {
                    let mut source = store.source(batch_size);
                    Ok(Pipeline::new(config.clone())
                        .source(&mut source)
                        .sink(sink)
                        .threads(0)
                        .run()?)
                })
            })
        })
    });
    let summary = result?;
    Ok(Response::json_of(
        200,
        &Anonymized {
            dataset: name.to_owned(),
            records: summary.records,
            batches: summary.batches,
            simple_clusters: summary.simple_clusters,
            record_chunks: summary.record_chunks,
            shared_chunks: summary.shared_chunks,
            refine_converged: summary.refine_converged,
            seconds,
        },
    ))
}

/// The `POST /datasets/{name}/anonymize` body.
#[derive(Serialize)]
struct Anonymized {
    dataset: String,
    records: usize,
    batches: usize,
    simple_clusters: usize,
    record_chunks: usize,
    shared_chunks: usize,
    refine_converged: bool,
    seconds: f64,
}

fn append(state: &Arc<State>, name: &str, request: &Request) -> Result<Response, ServeError> {
    let config = config_from_query(request)?;
    let batch_size = batch_size_from_query(state, request)?;
    let max_dirty_fraction = match request.query_param("max-dirty-fraction") {
        None => 1.0,
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|f| (0.0..=1.0).contains(f))
            .ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "malformed max-dirty-fraction={raw:?} (want a number in 0..=1)"
                ))
            })?,
    };
    let records = parse_records(&request.body)?;
    if records.is_empty() {
        return Err(ServeError::BadRequest(
            "append requires at least one record in the body".to_owned(),
        ));
    }
    let handle = require_dataset(state, name)?;
    retry::require_writable(&handle)?;
    let dataset = name.to_owned();
    run_job(state, handle, move |h| {
        counters::SERVE_APPEND_JOBS.inc();
        // Appends are NOT retried: the job persists records mid-way, so a
        // re-run after a partial failure could duplicate them.  A transient
        // failure here still degrades the dataset rather than being
        // surfaced as a naked 500 from a daemon that will keep failing.
        retry::with_write_retries(h, "append", &RetrySchedule::none(), || {
            append_job(
                h,
                &dataset,
                &config,
                batch_size,
                max_dirty_fraction,
                &records,
            )
        })
    })
}

/// The append job body: the CLI's [`AppendJob`] — rebuild incremental state
/// from the store under the whole thread budget, route the new records in,
/// persist them, republish dirty chunks + the flat file.
fn append_job(
    handle: &DatasetHandle,
    name: &str,
    config: &DisassociationConfig,
    batch_size: usize,
    max_dirty_fraction: f64,
    records: &[Record],
) -> Result<Response, ServeError> {
    let job = AppendJob {
        config,
        options: AppendOptions { max_dirty_fraction },
        batch_size,
        threads: 0,
    };
    let (result, seconds) = obs_trace::span(names::SPAN_SERVE_APPEND_JOB, || {
        handle.with_store(|store| {
            handle.with_publication(|chunk_dir| {
                job.run(
                    store,
                    records,
                    Some(chunk_dir),
                    Some(&handle.publication_path()),
                )
            })
        })
    });
    let outcome = result?.outcome;
    Ok(Response::json_of(
        200,
        &Appended {
            dataset: name.to_owned(),
            appended: outcome.appended_records,
            dirty_clusters: outcome.dirty_clusters,
            reused_clusters: outcome.reused_clusters,
            new_clusters: outcome.new_clusters,
            republished_chunks: outcome.republished_chunks,
            total_clusters: outcome.total_clusters,
            seconds,
        },
    ))
}

/// The `POST /datasets/{name}/append` body.
#[derive(Serialize)]
struct Appended {
    dataset: String,
    appended: usize,
    dirty_clusters: usize,
    reused_clusters: usize,
    new_clusters: usize,
    republished_chunks: usize,
    total_clusters: usize,
    seconds: f64,
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

fn chunks(state: &Arc<State>, name: &str, request: &Request) -> Result<Response, ServeError> {
    let handle = require_dataset(state, name)?;
    let not_yet = || ServeError::NotFound(format!("dataset {name:?} has not been anonymized yet"));
    match request.query_param("term") {
        // The full publication: the flat file's bytes verbatim.  The file
        // is replaced only by atomic rename, so an unlocked read always
        // sees one complete publication or none.
        None => match std::fs::read(handle.publication_path()) {
            Ok(bytes) => Ok(Response::json(200, bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Err(not_yet()),
            Err(e) => Err(ServeError::from(e)),
        },
        // Term-filtered: the matching clusters' compact bytes, copied from
        // the chunk dir's in-memory read index (each committed batch file
        // is decoded once, on the first filtered read that reaches it).
        Some(raw) => {
            let term: u32 = raw.parse().map_err(|_| {
                ServeError::BadRequest(format!("malformed term={raw:?} (want a term id)"))
            })?;
            let body = handle
                .with_publication(|chunk_dir| Ok(chunk_dir.filtered_json(TermId::new(term))?))?;
            Ok(Response::json(200, body.ok_or_else(not_yet)?))
        }
    }
}
