//! perfbench-tracer — the in-process half of the benchmark in `perfbench/`.
//!
//! Subcommands (each prints one JSON object on stdout):
//!
//! ```text
//! gen    --kind quest|querylog --records N [--seed S] --out FILE
//! verify --chunks FILE --records N
//! replay-batch  --input FILE --dir DIR --threads N --expect FILE --spans FILE
//! replay-daemon --base FILE --pool FILE --script FILE --dir DIR
//!               --expect-base FILE --expect-final FILE --spans FILE
//! ```
//!
//! The replays drive the same inputs as the end-to-end run through the
//! layers' public functions — `transact`, `store`, `core` and `serve` —
//! with benchmark-side spans around every call (see `trace.rs`), and fail
//! unless their publication is byte-identical to the end-to-end one.

mod trace;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

use datagen::{DatasetProfile, QuestConfig, QuestGenerator, Scenario};
use disassoc_obs::metrics::{self as obs_metrics, counters};
use disassoc_serve::dataset::{DatasetHandle, Registry};
use disassoc_serve::http::{self, Request, Response};
use disassoc_serve::jobs::WorkerPool;
use disassoc_serve::ServeError;
use disassoc_store::publish::commit_flat_file;
use disassoc_store::{Store, StoreConfig};
use disassociation::horpart::{horizontal_partition, merge_small_clusters};
use disassociation::model::DisassociatedDataset;
use disassociation::pipeline::{JsonChunksSink, MultiSink, ReaderSource};
use disassociation::refine::{refine, RefineOptions, WorkCluster, WorkNode};
use disassociation::verpart::{vertical_partition_with_supports, VerPartOptions};
use disassociation::{
    AppendOptions, BatchOutput, ChunkSink, DisassociationConfig, DisassociationOutput,
    IncrementalPipeline, Pipeline, RecordSource, SinkError, SourceError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trace::span;
use transact::io::RecordReader;
use transact::{Dataset, Record, SupportMap, TermId};

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Records per pipeline batch: the CLI's store default and the daemon's.
const BATCH: usize = 8192;
/// Records per WAL append in `disassoc ingest` (its `--batch-size` default).
const INGEST_BATCH: usize = 1024;
/// Name of the dataset the daemon workloads serve.
const DATASET: &str = "q";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench-tracer: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Res<()> {
    let (sub, rest) = args.split_first().ok_or("missing subcommand")?;
    let mut flags = BTreeMap::new();
    for pair in rest.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or("flags look like --name value")?;
        let value = pair.get(1).ok_or("flag without a value")?;
        flags.insert(key.to_owned(), value.clone());
    }
    let get = |k: &str| -> Res<&String> { Ok(flags.get(k).ok_or(format!("missing --{k}"))?) };
    let path = |k: &str| -> Res<PathBuf> { Ok(PathBuf::from(get(k)?)) };
    match sub.as_str() {
        "gen" => gen(
            get("kind")?,
            get("records")?.parse()?,
            flags.get("seed").map(|s| s.parse()).transpose()?,
            &path("out")?,
        ),
        "verify" => verify(&path("chunks")?, get("records")?.parse()?),
        "replay-batch" => replay_batch(
            &path("input")?,
            &path("dir")?,
            get("threads")?.parse()?,
            &path("expect")?,
            &path("spans")?,
        ),
        "replay-daemon" => replay_daemon(&DaemonArgs {
            base: path("base")?,
            pool: path("pool")?,
            script: path("script")?,
            dir: path("dir")?,
            expect_base: path("expect-base")?,
            expect_final: path("expect-final")?,
            spans: path("spans")?,
        }),
        other => Err(format!("unknown subcommand {other:?}").into()),
    }
}

/// The privacy setting of every workload: k = 5, m = 2, defaults otherwise
/// (what `disassoc anonymize --k 5 --m 2` and `?k=5&m=2` build).
fn config() -> DisassociationConfig {
    DisassociationConfig {
        k: 5,
        m: 2,
        ..Default::default()
    }
}

fn print_json(fields: &BTreeMap<String, f64>) {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{{}}}", body.join(","));
}

// ---------------------------------------------------------------------------
// Inputs and checks
// ---------------------------------------------------------------------------

/// Writes `records` generated records to `out`.  Without `seed`, the
/// query-log stream is the `datagen` scenario's own canonical dataset.
fn gen(kind: &str, records: usize, seed: Option<u64>, out: &Path) -> Res<()> {
    let dataset = match kind {
        "quest" => QuestGenerator::generate_with(QuestConfig {
            num_transactions: records,
            domain_size: 5000,
            avg_transaction_len: 10.0,
            seed: seed.ok_or("quest needs --seed")?,
            ..QuestConfig::default()
        }),
        "querylog" => {
            let profile = Scenario::QueryLog.profile();
            DatasetProfile {
                num_records: records,
                seed: seed.unwrap_or(profile.seed),
                ..profile
            }
            .generate()
        }
        other => return Err(format!("unknown kind {other:?}").into()),
    };
    transact::io::write_numeric_transactions_path(&dataset, out)?;
    let mut m = BTreeMap::new();
    m.insert("records".to_owned(), dataset.len() as f64);
    m.insert("bytes".to_owned(), std::fs::metadata(out)?.len() as f64);
    print_json(&m);
    Ok(())
}

/// Parses a committed publication, checks its structure with
/// `verify_structure` and that it covers exactly `records` records.
fn verify(chunks: &Path, records: usize) -> Res<()> {
    let published: DisassociatedDataset = serde_json::from_str(&std::fs::read_to_string(chunks)?)?;
    let report = disassociation::verify::verify_structure(&published);
    let mut m = BTreeMap::new();
    let ok = report.is_ok() && published.total_records() == records;
    m.insert("ok".to_owned(), if ok { 1.0 } else { 0.0 });
    m.insert("records".to_owned(), published.total_records() as f64);
    m.insert("clusters".to_owned(), published.clusters.len() as f64);
    m.insert("violations".to_owned(), report.violations.len() as f64);
    print_json(&m);
    Ok(())
}

fn files_equal(a: &Path, b: &Path) -> Res<bool> {
    let (mut fa, mut fb) = (std::fs::File::open(a)?, std::fs::File::open(b)?);
    if fa.metadata()?.len() != fb.metadata()?.len() {
        return Ok(false);
    }
    let (mut ba, mut bb) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
    loop {
        let n = fa.read(&mut ba)?;
        if n == 0 {
            return Ok(true);
        }
        fb.read_exact(&mut bb[..n])?;
        if ba[..n] != bb[..n] {
            return Ok(false);
        }
    }
}

fn require_equal(what: &str, a: &Path, b: &Path) -> Res<()> {
    if files_equal(a, b)? {
        Ok(())
    } else {
        Err(format!("{what}: {} differs from {}", a.display(), b.display()).into())
    }
}

// ---------------------------------------------------------------------------
// Traced adapters around a layer's source or sink
// ---------------------------------------------------------------------------

/// Wraps a record source or chunk sink so every call runs inside a span.
struct Traced<S> {
    inner: S,
    name: &'static str,
}

impl<S: RecordSource> RecordSource for Traced<S> {
    fn next_batch(&mut self) -> Result<Option<Vec<Record>>, SourceError> {
        span(self.name, || self.inner.next_batch())
    }
}

impl<S: ChunkSink> ChunkSink for Traced<S> {
    fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError> {
        span(self.name, || self.inner.accept(batch))
    }
    fn finish(&mut self) -> Result<(), SinkError> {
        span(self.name, || self.inner.finish())
    }
}

// ---------------------------------------------------------------------------
// Serial replay of the core phases
// ---------------------------------------------------------------------------

/// Anonymizes one batch through the public HORPART, VERPART and REFINE
/// functions in the order `Disassociator::anonymize_owned` runs them, one
/// span per phase.  The caller checks the result byte for byte against the
/// program's own publication.
fn replay_one(cfg: &DisassociationConfig, records: Vec<Record>) -> DisassociationOutput {
    let dataset = Dataset::from_records(records);
    let partition = span("core/horpart", || {
        let mut p = horizontal_partition(
            &dataset,
            cfg.effective_max_cluster_size(),
            &cfg.sensitive_terms,
        );
        merge_small_clusters(&mut p, cfg.k);
        p
    });
    let clusters: Vec<WorkCluster> = span("core/verpart", || {
        let mut slots: Vec<Option<Record>> = dataset.into_records().into_iter().map(Some).collect();
        let options = VerPartOptions {
            forced_term_chunk: cfg.sensitive_terms.clone(),
            shuffle: true,
        };
        partition
            .clusters
            .iter()
            .enumerate()
            .map(|(i, indices)| {
                let records: Vec<Record> = indices
                    .iter()
                    .map(|&idx| {
                        slots[idx]
                            .take()
                            .expect("a partition assigns each record once")
                    })
                    .collect();
                let mut rng =
                    StdRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
                let supports = SupportMap::from_records(records.iter());
                let cluster = vertical_partition_with_supports(
                    &records, &supports, cfg.k, cfg.m, &options, &mut rng,
                );
                WorkCluster::with_supports(indices.to_vec(), records, cluster, &supports)
            })
            .collect()
    });
    let (nodes, passes, converged) = span("core/refine", || {
        let nodes: Vec<WorkNode> = clusters.into_iter().map(WorkNode::Simple).collect();
        if !cfg.enable_refine {
            return (nodes, 0, true);
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_2EF1);
        let mut options = RefineOptions {
            excluded_terms: cfg.sensitive_terms.clone(),
            ..RefineOptions::default()
        };
        if cfg.refine_max_passes > 0 {
            options.max_passes = cfg.refine_max_passes;
        }
        let outcome = refine(nodes, cfg.k, cfg.m, &options, &mut rng);
        (outcome.nodes, outcome.passes_used, outcome.converged)
    });
    let cluster_assignment = nodes
        .iter()
        .flat_map(|n| {
            n.simple_clusters()
                .into_iter()
                .map(|wc| wc.record_indices.clone())
        })
        .collect();
    DisassociationOutput {
        dataset: DisassociatedDataset {
            k: cfg.k,
            m: cfg.m,
            clusters: nodes.into_iter().map(WorkNode::into_cluster_node).collect(),
        },
        cluster_assignment,
        phases: Default::default(),
        refine_passes: passes,
        refine_converged: converged,
    }
}

/// Replays every pipeline batch of `store` serially into a flat chunk file
/// at `out`, and returns the REFINE counters the program's own instruments
/// report for it (passes, join attempts, joins accepted).
fn core_replay(cfg: &DisassociationConfig, store: &Store, out: &Path) -> Res<[f64; 3]> {
    obs_metrics::reset_all();
    obs_metrics::enable();
    let mut sink = JsonChunksSink::create(out, cfg)?;
    let mut source = store.source(BATCH);
    let (mut index, mut offset, mut passes) = (0usize, 0usize, 0usize);
    while let Some(batch) = source.next_batch()? {
        if batch.is_empty() {
            continue;
        }
        let len = batch.len();
        let output = replay_one(cfg, batch);
        passes += output.refine_passes;
        sink.accept(BatchOutput {
            batch_index: index,
            record_offset: offset,
            output,
        })?;
        index += 1;
        offset += len;
    }
    sink.finish()?;
    obs_metrics::disable();
    Ok([
        passes as f64,
        counters::CORE_JOIN_ATTEMPTS.get() as f64,
        counters::CORE_JOINS_ACCEPTED.get() as f64,
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer figures every replay reports, from its spans.
fn layer_metrics(spans: &[trace::SpanRec], core: [f64; 3]) -> BTreeMap<String, f64> {
    let busy = trace::self_seconds_by_name(spans);
    let b = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let mut m = BTreeMap::new();
    for (metric, name) in [
        ("transact.parse.busy_s", "transact/parse"),
        ("store.append.busy_s", "store/append"),
        ("store.flush.busy_s", "store/flush"),
        ("store.scan.busy_s", "store/scan"),
        ("core.horpart.busy_s", "core/horpart"),
        ("core.verpart.busy_s", "core/verpart"),
        ("core.refine.busy_s", "core/refine"),
        ("pipeline.driver.wait_s", "pipeline/driver"),
        ("sink.json.busy_s", "sink/json"),
        ("store.publish.commit_s", "store/publish/commit"),
        ("core.incremental.build_s", "core/incremental/build"),
        ("core.incremental.append_s", "core/incremental/append"),
        ("store.chunkdir.commit_s", "store/chunkdir/commit"),
        ("sink.json.republish_s", "sink/json/republish"),
        ("store.chunkdir.filter_s", "store/chunkdir/filter"),
        ("serve.encode.busy_s", "serve/encode"),
        ("serve.http.parse_s", "serve/http/parse"),
        ("serve.jobs.handoff_s", "serve/jobs"),
        ("serve.dataset.busy_s", "serve/dataset"),
    ] {
        m.insert(metric.to_owned(), b(name));
    }
    m.insert("core.refine.passes".to_owned(), core[0]);
    m.insert(
        "core.refine.join_accept_ratio".to_owned(),
        ratio(core[2], core[1]),
    );
    let traced: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    let cost = spans.len() as f64 * trace::span_cost_seconds();
    m.insert("trace.overhead_frac".to_owned(), ratio(cost, traced));
    m
}

// ---------------------------------------------------------------------------
// batch-quest: `disassoc ingest` then `disassoc anonymize --store`
// ---------------------------------------------------------------------------

fn replay_batch(
    input: &Path,
    dir: &Path,
    threads: usize,
    expect: &Path,
    spans_out: &Path,
) -> Res<()> {
    let cfg = config();
    let store_dir = dir.join("store");
    trace::set_request(1);
    span("request/ingest", || -> Res<()> {
        let mut st = span("store/open", || {
            Store::open(
                &store_dir,
                StoreConfig {
                    memtable_capacity: 8192,
                    ..StoreConfig::default()
                },
            )
        })?;
        let mut reader = span("transact/parse", || ReaderSource::open(input, INGEST_BATCH))?;
        while let Some(batch) = span("transact/parse", || reader.next_batch())? {
            span("store/append", || st.append_batch(&batch))?;
        }
        span("store/flush", || st.flush())?;
        Ok(())
    })?;

    let partial = dir.join("pub.chunks.json.partial");
    let published = dir.join("pub.chunks.json");
    trace::set_request(2);
    let parallel_s = span("request/anonymize", || -> Res<f64> {
        let st = span("store/open", || {
            Store::open(&store_dir, StoreConfig::default())
        })?;
        let mut source = Traced {
            inner: st.source(BATCH),
            name: "store/scan",
        };
        let mut sink = Traced {
            inner: span("sink/json", || JsonChunksSink::create(&partial, &cfg))?,
            name: "sink/json",
        };
        let t0 = Instant::now();
        span("pipeline/driver", || {
            Pipeline::new(cfg.clone())
                .source(&mut source)
                .sink(&mut sink)
                .threads(threads)
                .run()
        })?;
        let wall = t0.elapsed().as_secs_f64();
        drop(sink);
        span("store/publish/commit", || {
            commit_flat_file(&partial, &published)
        })?;
        Ok(wall)
    })?;
    let traced = trace::take();
    require_equal("replayed publication", &published, expect)?;

    // The same pipeline on one thread, untraced, for the speed-up; then the
    // serial core replay, traced, for the per-phase split.
    let st = Store::open(&store_dir, StoreConfig::default())?;
    let info = st.info()?;
    let serial_out = dir.join("serial.chunks.json");
    let t0 = Instant::now();
    {
        let mut sink = JsonChunksSink::create(&serial_out, &cfg)?;
        let mut source = st.source(BATCH);
        Pipeline::new(cfg.clone())
            .source(&mut source)
            .sink(&mut sink)
            .threads(1)
            .run()?;
    }
    let serial_s = t0.elapsed().as_secs_f64();
    require_equal("one-thread publication", &serial_out, expect)?;
    std::fs::remove_file(&serial_out)?;

    trace::set_request(3);
    let core = span("request/core_replay", || {
        core_replay(&cfg, &st, &serial_out)
    })?;
    require_equal("serial core replay", &serial_out, expect)?;
    std::fs::remove_file(&serial_out)?;
    let mut spans = traced;
    spans.extend(trace::take());

    let mut m = layer_metrics(&spans, core);
    m.insert(
        "store.segment.bytes_per_record".to_owned(),
        ratio(
            (info.segment_bytes() + info.wal_bytes) as f64,
            info.records as f64,
        ),
    );
    m.insert(
        "pipeline.threads2.speedup".to_owned(),
        ratio(serial_s, parallel_s),
    );
    m.insert(
        "sink.json.bytes".to_owned(),
        std::fs::metadata(&published)?.len() as f64,
    );
    let attributed = trace::attributed_by_request(&spans);
    m.insert(
        "attributed_s".to_owned(),
        attributed.get(&1).unwrap_or(&0.0) + attributed.get(&2).unwrap_or(&0.0),
    );
    trace::write_jsonl(&spans, spans_out)?;
    print_json(&m);
    Ok(())
}

// ---------------------------------------------------------------------------
// append-querylog / serve-querylog: the daemon's routes, in process
// ---------------------------------------------------------------------------

struct DaemonArgs {
    base: PathBuf,
    pool: PathBuf,
    script: PathBuf,
    dir: PathBuf,
    expect_base: PathBuf,
    expect_final: PathBuf,
    spans: PathBuf,
}

/// The bytes a client puts on the wire for one request.
fn raw_request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept-Encoding: identity\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

fn parse_http(raw: &[u8]) -> Res<Request> {
    let parsed = span("serve/http/parse", || {
        http::parse_request(&mut std::io::Cursor::new(raw), 64 << 20)
    });
    match parsed {
        Ok(Some(request)) => Ok(request),
        _ => Err("unparseable HTTP request".into()),
    }
}

/// The daemon's record-body parser: numeric transactions, 4096 per pull.
fn parse_body(body: &[u8]) -> Res<Vec<Record>> {
    span("transact/parse", || -> Res<Vec<Record>> {
        let mut reader = RecordReader::new(body);
        let mut records = Vec::new();
        loop {
            let batch = reader.next_batch(4096)?;
            if batch.is_empty() {
                return Ok(records);
            }
            records.extend(batch);
        }
    })
}

/// Encodes and serializes a JSON response, as the connection thread does.
fn respond(body: String) -> usize {
    span("serve/encode", || {
        let mut wire = Vec::new();
        Response::json(200, body)
            .write_to(&mut wire)
            .expect("writing to a Vec cannot fail");
        wire.len()
    })
}

/// Hands an empty job to the worker pool and waits for its reply: the
/// queueing cost the daemon adds in front of every anonymize or append.
fn job_handoff(pool: &WorkerPool) -> Res<()> {
    span("serve/jobs", || {
        let (tx, rx) = std::sync::mpsc::channel();
        if !pool.submitter().try_submit(Box::new(move || {
            let _ = tx.send(());
        })) {
            return Err("worker pool refused a job".into());
        }
        Ok(rx.recv()?)
    })
}

fn ingest(handle: &DatasetHandle, raw: &[u8]) -> Res<usize> {
    let request = parse_http(raw)?;
    let records = parse_body(&request.body)?;
    let total = span("serve/dataset", || {
        handle.with_store(|st| {
            span("store/append", || st.append_batch(&records))?;
            Ok(st.len())
        })
    })?;
    respond(format!(
        "{{\"dataset\":\"{DATASET}\",\"appended\":{},\"total\":{total}}}",
        records.len()
    ));
    Ok(records.len())
}

fn anonymize(handle: &DatasetHandle, pool: &WorkerPool, cfg: &DisassociationConfig) -> Res<()> {
    parse_http(&raw_request("POST", "/datasets/q/anonymize?k=5&m=2", b""))?;
    job_handoff(pool)?;
    let partial = handle.dir().join("publication.chunks.json.partial");
    handle.with_store(|store| {
        handle.with_publication(|chunk_dir| {
            let mut file_sink = Traced {
                inner: span("sink/json", || JsonChunksSink::create(&partial, cfg))?,
                name: "sink/json",
            };
            let mut dir_sink = Traced {
                inner: chunk_dir,
                name: "store/chunkdir/commit",
            };
            let mut sinks = MultiSink::new();
            sinks.push(&mut dir_sink);
            sinks.push(&mut file_sink);
            let mut source = Traced {
                inner: store.source(BATCH),
                name: "store/scan",
            };
            span("pipeline/driver", || {
                Pipeline::new(cfg.clone())
                    .source(&mut source)
                    .sink(&mut sinks)
                    .threads(1)
                    .run()
            })?;
            drop(sinks);
            drop(file_sink);
            span("store/publish/commit", || {
                std::fs::rename(&partial, handle.publication_path())
            })?;
            Ok(())
        })
    })?;
    respond("{}".to_owned());
    Ok(())
}

/// One `POST /datasets/q/append` job body; returns the dirty fraction.
fn append(
    handle: &DatasetHandle,
    pool: &WorkerPool,
    cfg: &DisassociationConfig,
    raw: &[u8],
) -> Res<f64> {
    let request = parse_http(raw)?;
    let records = parse_body(&request.body)?;
    job_handoff(pool)?;
    let partial = handle.dir().join("publication.chunks.json.partial");
    let outcome = handle.with_store(|store| {
        let mut pipeline = span("core/incremental/build", || {
            let mut source = Traced {
                inner: store.source(BATCH),
                name: "store/scan",
            };
            IncrementalPipeline::build(cfg.clone(), &mut source)
        })?;
        let options = AppendOptions {
            max_dirty_fraction: 1.0,
        };
        let outcome = span("core/incremental/append", || {
            pipeline.append_with(&records, &options)
        });
        span("store/append", || store.append_batch(&records))?;
        span("store/flush", || store.flush())?;
        handle.with_publication(|chunk_dir| {
            span("store/chunkdir/commit", || {
                if chunk_dir.is_empty() {
                    pipeline.publish_all(chunk_dir)
                } else {
                    pipeline.publish_dirty(chunk_dir)
                }
            })?;
            Ok(())
        })?;
        span("sink/json/republish", || -> Result<(), ServeError> {
            let mut sink = JsonChunksSink::create(&partial, cfg)?;
            pipeline.publish_all(&mut sink)?;
            drop(sink);
            std::fs::rename(&partial, handle.publication_path())?;
            Ok(())
        })?;
        Ok(outcome)
    })?;
    respond(format!(
        "{{\"dataset\":\"{DATASET}\",\"appended\":{}}}",
        outcome.appended_records
    ));
    Ok(outcome.dirty_fraction())
}

/// One term-filtered `GET /datasets/q/chunks?term=t`; returns the number of
/// clusters in the response.
fn read(handle: &DatasetHandle, term: u32) -> Res<usize> {
    let request = parse_http(&raw_request(
        "GET",
        &format!("/datasets/q/chunks?term={term}"),
        b"",
    ))?;
    let term: u32 = request.query_param("term").ok_or("no term")?.parse()?;
    let filtered = handle.with_publication(|chunk_dir| {
        Ok(span("store/chunkdir/filter", || {
            chunk_dir.combined_filtered(TermId::new(term))
        })?)
    })?;
    let dataset = filtered.ok_or("read before the first publication")?;
    let returned = dataset.clusters.len();
    span("serve/encode", || -> Res<()> {
        let body = serde_json::to_string_pretty(&dataset)?;
        let mut wire = Vec::new();
        Response::json(200, body).write_to(&mut wire)?;
        Ok(())
    })?;
    Ok(returned)
}

/// Clusters a term-filtered read scans: every cluster of the committed
/// chunk set.
fn published_clusters(handle: &DatasetHandle) -> Res<usize> {
    let combined = handle.with_publication(|chunk_dir| Ok(chunk_dir.combined_dataset()?))?;
    Ok(combined.map_or(0, |d| d.clusters.len()))
}

fn read_lines(path: &Path) -> Res<Vec<String>> {
    Ok(std::fs::read_to_string(path)?
        .lines()
        .map(str::to_owned)
        .collect())
}

fn replay_daemon(a: &DaemonArgs) -> Res<()> {
    let cfg = config();
    let registry = Registry::open(a.dir.join("data"))?;
    let pool = WorkerPool::start(1)?;
    let handle = registry.get_or_create(DATASET)?;

    // Set-up: ingest the base in one body, then anonymize it.
    let base = std::fs::read(&a.base)?;
    trace::set_request(1);
    span("request/ingest", || {
        ingest(&handle, &raw_request("POST", "/datasets/q/records", &base))
    })?;
    trace::set_request(2);
    span("request/anonymize", || anonymize(&handle, &pool, &cfg))?;
    require_equal(
        "replayed base publication",
        &handle.publication_path(),
        &a.expect_base,
    )?;

    let core_out = a.dir.join("core.chunks.json");
    trace::set_request(3);
    let core = span("request/core_replay", || {
        handle.with_store(|st| {
            core_replay(&cfg, st, &core_out).map_err(|e| ServeError::Internal(e.to_string()))
        })
    })?;
    require_equal("serial core replay", &core_out, &a.expect_base)?;
    std::fs::remove_file(&core_out)?;

    // The measured script, request by request.
    let pool_lines = read_lines(&a.pool)?;
    // `I first n` / `A first n`: a body of pool records first..first+n.
    let body = |args: &[usize]| -> Res<Vec<u8>> {
        let [first, n] = args else {
            return Err("script lines look like `I 120 17`".into());
        };
        let lines = pool_lines
            .get(*first..first + n)
            .ok_or("record pool exhausted")?;
        Ok((lines.join("\n") + "\n").into_bytes())
    };
    let mut kinds: Vec<(u64, char)> = Vec::new();
    let (mut dirty, mut appends) = (0.0, 0usize);
    let (mut scanned, mut returned) = (0usize, 0usize);
    let mut clusters = published_clusters(&handle)?;
    for (i, line) in read_lines(&a.script)?.iter().enumerate() {
        let id = 10 + i as u64;
        let mut words = line.split(' ');
        let op = words.next().unwrap_or_default();
        let args = words.map(str::parse).collect::<Result<Vec<usize>, _>>()?;
        trace::set_request(id);
        match op {
            "I" => {
                let body = body(&args)?;
                span("request/ingest", || {
                    ingest(&handle, &raw_request("POST", "/datasets/q/records", &body))
                })?;
                kinds.push((id, 'I'));
            }
            "A" => {
                let body = body(&args)?;
                let target = "/datasets/q/append?k=5&m=2";
                dirty += span("request/append", || {
                    append(&handle, &pool, &cfg, &raw_request("POST", target, &body))
                })?;
                appends += 1;
                kinds.push((id, 'A'));
                clusters = published_clusters(&handle)?;
            }
            "P" => {
                span("request/anonymize", || anonymize(&handle, &pool, &cfg))?;
                clusters = published_clusters(&handle)?;
            }
            "R" => {
                let term = *args.first().ok_or("script lines look like `R 17`")?;
                returned += span("request/read", || read(&handle, term as u32))?;
                scanned += clusters;
                kinds.push((id, 'R'));
            }
            other => return Err(format!("unknown script op {other:?}").into()),
        }
    }
    trace::set_request(4);
    span("request/drain", || {
        span("store/flush", || registry.shutdown_flush())
    });
    pool.drain();
    require_equal(
        "replayed final publication",
        &handle.publication_path(),
        &a.expect_final,
    )?;
    let spans = trace::take();

    let mut m = layer_metrics(&spans, core);
    let info = Store::open(handle.store_dir(), StoreConfig::default())?.info()?;
    m.insert(
        "store.segment.bytes_per_record".to_owned(),
        ratio(
            (info.segment_bytes() + info.wal_bytes) as f64,
            info.records as f64,
        ),
    );
    m.insert(
        "core.incremental.dirty_frac".to_owned(),
        ratio(dirty, appends as f64),
    );
    m.insert(
        "store.chunkdir.clusters_scanned_per_returned".to_owned(),
        ratio(scanned as f64, returned as f64),
    );
    m.insert("records_total".to_owned(), info.records as f64);
    m.insert(
        "sink.json.bytes".to_owned(),
        std::fs::metadata(handle.publication_path())?.len() as f64,
    );
    let attributed = trace::attributed_by_request(&spans);
    // Per-request attributed seconds, in script order, by kind.
    let mut out = format!(
        ",\"attributed_base_ingest\":{}",
        attributed.get(&1).copied().unwrap_or(0.0)
    );
    for kind in ['I', 'A', 'R'] {
        let list: Vec<String> = kinds
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(id, _)| attributed.get(id).copied().unwrap_or(0.0).to_string())
            .collect();
        out.push_str(&format!(",\"attributed_{kind}\":[{}]", list.join(",")));
    }
    trace::write_jsonl(&spans, &a.spans)?;
    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{{}{out}}}", body.join(","));
    Ok(())
}
