//! # disassoc-cli — command-line front end
//!
//! A small, dependency-free command-line interface around the
//! [`disassociation`] library so the anonymizer can be used on plain
//! transaction files without writing Rust:
//!
//! ```text
//! disassoc generate  --kind quest --records 10000 --domain 1000 --out data.dat
//! disassoc stats     --input data.dat
//! disassoc anonymize --input data.dat --k 5 --m 2 --out-prefix published
//! disassoc reconstruct --chunks published.chunks.json --out sample.dat
//! disassoc evaluate  --input data.dat --k 5 --m 2
//! ```
//!
//! Every anonymization arm routes through the unified
//! [`disassociation::pipeline::Pipeline`] API — a [`RecordSource`] per input
//! kind (file, store, in-memory), a [`ChunkSink`] per output, `--threads N`
//! for parallel batch execution — and errors stay typed end to end:
//! [`CliError`] preserves the cause chain, usage errors exit with status 2,
//! runtime (I/O, store, pipeline) errors with status 1.
//!
//! The argument parser is hand-rolled (the offline crate set has no CLI
//! parser); [`Command::parse`] is exercised directly by the unit tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use datagen::{QuestConfig, QuestGenerator, RealDataset};
use disassoc_obs::trace::Attr;
use disassoc_store::publish::{AppendJob, DEFAULT_BATCH_SIZE};
use disassoc_store::{ChunkDir, Store, StoreConfig};
use disassociation::pipeline::{
    ChunkSink, CollectSink, DatasetSource, Pipeline, ReaderSource, RecordSource, RunSummary,
};
use disassociation::{
    reconstruct_many, AppendOptions, ConfigError, DisassociationConfig, DisassociationOutput,
};
use metrics::{InformationLoss, LossConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use transact::{Dataset, DatasetStats, Record};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic dataset.
    Generate {
        /// `quest`, `pos`, `wv1` or `wv2`.
        kind: String,
        /// Number of records (Quest only; profiles use their published size / scale).
        records: usize,
        /// Domain size (Quest only).
        domain: usize,
        /// Average record length (Quest only).
        avg_len: f64,
        /// Down-scaling factor for the real-dataset profiles.
        scale: usize,
        /// RNG seed.
        seed: u64,
        /// Output path.
        out: PathBuf,
    },
    /// Print the Figure 6 statistics of a dataset.
    Stats {
        /// Input transaction file.
        input: PathBuf,
    },
    /// Anonymize a dataset by disassociation.
    Anonymize {
        /// Input transaction file (`None` when reading from a store).
        input: Option<PathBuf>,
        /// Store directory to read from instead of a file.
        store: Option<PathBuf>,
        /// Records per streaming batch (0 = one batch for file input, the
        /// default batch size for store input).
        batch_size: usize,
        /// Privacy parameter k.
        k: usize,
        /// Privacy parameter m.
        m: usize,
        /// Maximum cluster size (0 = default).
        max_cluster_size: usize,
        /// Disable the refining step.
        no_refine: bool,
        /// Batches anonymized concurrently (1 = one worker, 0 = one per core).
        threads: usize,
        /// Output prefix (writes `<prefix>.chunks.json`).
        out_prefix: PathBuf,
        /// Observability: metrics snapshot / trace / profile summary.
        obs: ObsOptions,
    },
    /// Incrementally append new records to an already-ingested store,
    /// re-anonymizing only the clusters they land in.
    Append {
        /// Transaction file holding the records to append.
        input: PathBuf,
        /// Store directory holding the base dataset (must exist).
        store: PathBuf,
        /// Records per streaming batch (0 = the default store batch size).
        batch_size: usize,
        /// Privacy parameter k.
        k: usize,
        /// Privacy parameter m.
        m: usize,
        /// Maximum cluster size (0 = default).
        max_cluster_size: usize,
        /// Disable the refining step.
        no_refine: bool,
        /// Cap on the fraction of existing clusters the append may dirty.
        max_dirty_fraction: f64,
        /// Chunk directory to (re)publish only the dirty batches into.
        publish: Option<PathBuf>,
        /// Also write the combined publication as `<prefix>.chunks.json`.
        out_prefix: Option<PathBuf>,
        /// Observability: metrics snapshot / trace / profile summary.
        obs: ObsOptions,
    },
    /// Stream a transaction file into a persistent record store.
    Ingest {
        /// Input transaction file.
        input: PathBuf,
        /// Store directory (created if absent).
        store: PathBuf,
        /// Records appended per WAL batch.
        batch_size: usize,
        /// Memtable capacity in records (spill threshold).
        memtable: usize,
        /// Run a compaction pass after ingesting.
        compact: bool,
        /// Observability: metrics snapshot / trace / profile summary.
        obs: ObsOptions,
    },
    /// Print the state of a persistent record store.
    StoreInfo {
        /// Store directory.
        store: PathBuf,
    },
    /// Sample reconstructions from a published chunk file.
    Reconstruct {
        /// The `.chunks.json` file produced by `anonymize`.
        chunks: PathBuf,
        /// Output path (suffix `.N` added when more than one sample).
        out: PathBuf,
        /// Number of reconstructions.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Anonymize and report the information-loss metrics.
    Evaluate {
        /// Input transaction file (`None` when reading from a store).
        input: Option<PathBuf>,
        /// Store directory to read from instead of a file.
        store: Option<PathBuf>,
        /// Records per streaming batch (same semantics as `anonymize`).
        batch_size: usize,
        /// Privacy parameter k.
        k: usize,
        /// Privacy parameter m.
        m: usize,
        /// Batches anonymized concurrently (1 = one worker, 0 = one per core).
        threads: usize,
        /// Observability: metrics snapshot / trace / profile summary.
        obs: ObsOptions,
    },
    /// Run the anonymization service daemon.
    Serve {
        /// Listen address, e.g. `127.0.0.1:7070` (`:0` for an ephemeral port).
        listen: String,
        /// Service data directory (one subdirectory per dataset).
        data_dir: PathBuf,
        /// The daemon's limits: [`disassoc_serve::ServeConfig::default`]
        /// overridden by the flags given.
        config: disassoc_serve::ServeConfig,
        /// Stream a JSONL trace of the daemon's spans/events here.
        trace: Option<PathBuf>,
    },
    /// Print usage information.
    Help,
}

/// The shared observability flags of `anonymize`/`append`/`ingest`:
/// `--metrics-out FILE` (JSON counter snapshot), `--trace FILE` (JSONL
/// span/event trace) and `--profile` (human-readable summary on stdout).
/// All default to off, leaving the instrumented code on its single-branch
/// disabled path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsOptions {
    /// Write a JSON metrics snapshot here after the run.
    pub metrics_out: Option<PathBuf>,
    /// Stream a JSONL trace of spans/events here during the run.
    pub trace: Option<PathBuf>,
    /// Print a human-readable counter summary after the run.
    pub profile: bool,
}

impl ObsOptions {
    fn from_flags(flags: &BTreeMap<String, String>) -> ObsOptions {
        ObsOptions {
            metrics_out: flags.get("metrics-out").map(PathBuf::from),
            trace: flags.get("trace").map(PathBuf::from),
            profile: flags.contains_key("profile"),
        }
    }

    /// Whether any observability output was requested.
    pub fn is_active(&self) -> bool {
        self.metrics_out.is_some() || self.trace.is_some() || self.profile
    }

    /// Starts collection: resets the counters, enables the metrics registry
    /// and opens the trace sink.  A no-op session when no flag was given.
    fn start(&self) -> Result<ObsSession, CliError> {
        if !self.is_active() {
            return Ok(ObsSession { options: None });
        }
        if let Some(path) = &self.trace {
            disassoc_obs::trace::init_file(path)?;
        }
        disassoc_obs::metrics::reset_all();
        disassoc_obs::metrics::enable();
        Ok(ObsSession {
            options: Some(self.clone()),
        })
    }
}

/// An active observability collection window; [`ObsSession::finish`] writes
/// the requested outputs and returns the registry to its disabled state.
struct ObsSession {
    options: Option<ObsOptions>,
}

impl ObsSession {
    fn finish(self, out: &mut dyn std::io::Write) -> Result<(), CliError> {
        let Some(options) = self.options else {
            return Ok(());
        };
        disassoc_obs::metrics::disable();
        let snapshot = disassoc_obs::metrics::snapshot();
        if options.trace.is_some() {
            disassoc_obs::trace::shutdown()?;
        }
        if let Some(path) = &options.metrics_out {
            std::fs::write(path, snapshot.to_json())?;
            writeln!(out, "metrics snapshot: {}", path.display())?;
        }
        if let Some(path) = &options.trace {
            writeln!(out, "trace: {}", path.display())?;
        }
        if options.profile {
            write!(out, "{}", snapshot.render_summary())?;
        }
        Ok(())
    }

    /// Tears collection down on an error path without writing any outputs.
    fn abort(self) {
        if self.options.is_some() {
            disassoc_obs::metrics::disable();
            disassoc_obs::trace::shutdown().ok();
        }
    }
}

/// A CLI failure, split by who must act: [`CliError::Usage`] /
/// [`CliError::Config`] mean the command line was wrong (exit status 2),
/// everything else is a runtime failure (exit status 1).
///
/// Causes are preserved — [`std::error::Error::source`] walks from the CLI
/// wrapper down to the original I/O/parse/store error, and `main` prints the
/// whole chain as `caused by:` lines.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments: unknown flag/subcommand, missing value, bad integer.
    Usage(String),
    /// Invalid privacy parameters (`--k`, `--m`).
    Config(ConfigError),
    /// An I/O failure outside the pipeline (writing reports, reading JSON).
    Io(std::io::Error),
    /// A dataset file could not be read or written.
    Transact(transact::TransactError),
    /// The persistent store failed.
    Store(disassoc_store::StoreError),
    /// A chunk file could not be parsed.
    Json(serde_json::Error),
    /// A pipeline run failed (source, sink or configuration).
    Pipeline(disassociation::Error),
}

impl CliError {
    /// The process exit status this error calls for: 2 for usage errors
    /// (bad flags, invalid parameters), 1 for runtime failures.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) | CliError::Config(_) => 2,
            _ => 1,
        }
    }

    /// Renders the error and its full cause chain (`caused by:` lines).
    pub fn render_chain(&self) -> String {
        disassociation::error::render_chain(self)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Config(e) => write!(f, "invalid privacy parameters: {e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Transact(e) => write!(f, "{e}"),
            CliError::Store(e) => write!(f, "{e}"),
            CliError::Json(e) => write!(f, "invalid JSON: {e}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        // Each variant's Display already shows the wrapped error's own line,
        // so the next hop in the chain is that error's cause.
        match self {
            CliError::Usage(_) | CliError::Config(_) | CliError::Json(_) => None,
            CliError::Io(e) => e.source(),
            CliError::Transact(e) => e.source(),
            CliError::Store(e) => e.source(),
            CliError::Pipeline(e) => e.source(),
        }
    }
}

impl From<transact::TransactError> for CliError {
    fn from(e: transact::TransactError) -> Self {
        CliError::Transact(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}
impl From<disassoc_store::StoreError> for CliError {
    fn from(e: disassoc_store::StoreError) -> Self {
        CliError::Store(e)
    }
}
impl From<disassociation::Error> for CliError {
    fn from(e: disassociation::Error) -> Self {
        CliError::Pipeline(e)
    }
}
impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::Config(e)
    }
}
impl From<disassociation::SourceError> for CliError {
    fn from(e: disassociation::SourceError) -> Self {
        CliError::Pipeline(disassociation::Error::Source(e))
    }
}
impl From<disassociation::SinkError> for CliError {
    fn from(e: disassociation::SinkError) -> Self {
        CliError::Pipeline(disassociation::Error::Sink(e))
    }
}

/// The usage text printed by `disassoc help`.
pub const USAGE: &str = "disassoc — privacy preservation by disassociation (VLDB 2012)

USAGE:
  disassoc generate   --kind quest|pos|wv1|wv2 [--records N] [--domain N]
                      [--avg-len F] [--scale N] [--seed N] --out FILE
  disassoc stats      --input FILE
  disassoc ingest     --input FILE --store DIR [--batch-size N]
                      [--memtable N] [--compact] [OBS FLAGS]
  disassoc append     --input FILE --store DIR --k K --m M [--batch-size N]
                      [--max-cluster-size N] [--no-refine]
                      [--max-dirty-frac F] [--publish DIR] [--out-prefix PREFIX]
                      [OBS FLAGS]
  disassoc store-info --store DIR
  disassoc anonymize  (--input FILE | --store DIR) --k K --m M
                      [--batch-size N] [--max-cluster-size N] [--threads N]
                      [--no-refine] --out-prefix PREFIX [OBS FLAGS]
  disassoc reconstruct --chunks FILE.chunks.json --out FILE [--samples N] [--seed N]
  disassoc evaluate   (--input FILE | --store DIR) --k K --m M
                      [--batch-size N] [--threads N] [OBS FLAGS]
  disassoc serve      --listen ADDR --data-dir DIR [--workers N]
                      [--queue-depth N] [--batch-size N] [--max-connections N]
                      [--max-body-bytes N] [--read-timeout-ms N]
                      [--write-timeout-ms N] [--job-timeout-ms N]
                      [--trace FILE]
  disassoc help

Store-backed runs stream the dataset in batches (out-of-core anonymization):
`--batch-size 0` keeps file input monolithic and selects the default batch
(8192 records) for store input.  `--threads N` anonymizes up to N batches
concurrently (default 1 worker, 0 = one per core) with byte-identical
output; it is the run's only parallelism.  The chunk
file is streamed to disk batch by batch, so neither input nor output
residency grows with the dataset.

`append` routes new records into the existing clustering (same HORPART
split criteria), re-runs VERPART/REFINE only on the clusters they land in
(bounded by --max-dirty-frac, default 0.2), persists them to the store, and
with --publish rewrites only the chunk files of dirty batches — committed by
one atomic manifest replace, so a crash leaves the old or the new chunk set,
never a mix.

`serve` runs the daemon: each dataset under --data-dir is its own locked
store plus chunk publication.  Ingest is acknowledged once the records are
in the WAL: they survive kill -9, but the WAL is not fsynced per request,
so power loss can drop them.  Anonymize/append run on a bounded worker
pool (503 + Retry-After over the per-dataset --queue-depth), and SIGTERM
drains in-flight jobs, flushes every store, and exits 0.  Served
publications are byte-identical to `anonymize` on the same records and
batch size.  Jobs past --job-timeout-ms answer 504; --trace streams the
daemon's JSONL span/event trace for its whole lifetime.  Worker, queue,
connection and timeout values must be at least 1.
Setting DISASSOC_FAULTS arms the deterministic failpoint registry inside
the daemon (testing only — see crates/faults/README.md for the syntax).

OBS FLAGS — observability, off by default (zero-cost disabled path):
  --metrics-out FILE   write a JSON snapshot of every counter after the run
  --trace FILE         stream a JSONL trace of spans/events during the run
                       (spans: core.horpart, core.verpart, core.refine per
                       batch; cli.ingest / cli.append per command)
  --profile            print a human-readable counter summary on stdout
Collection never changes the published output — chunk files are
byte-identical with and without the flags.  `store-info` always lists the
store-side counters (zero in a fresh process).

Exit status: 2 for usage errors (bad flags or privacy parameters), 1 for
runtime failures (I/O, corrupt store, failed pipeline) — printed with their
full `caused by:` chain.
";

/// The flags each subcommand accepts (space-separated, without the leading
/// `--`); any other flag is a usage error, so a misspelt option cannot
/// silently fall back to its default.
const SUBCOMMAND_FLAGS: &[(&str, &str)] = &[
    ("generate", "kind records domain avg-len scale seed out"),
    ("stats", "input"),
    (
        "ingest",
        "input store batch-size memtable compact metrics-out trace profile",
    ),
    (
        "append",
        "input store k m batch-size max-cluster-size no-refine max-dirty-frac \
         publish out-prefix metrics-out trace profile",
    ),
    ("store-info", "store"),
    (
        "anonymize",
        "input store k m batch-size max-cluster-size threads no-refine out-prefix \
         metrics-out trace profile",
    ),
    ("reconstruct", "chunks out samples seed"),
    (
        "evaluate",
        "input store k m batch-size threads metrics-out trace profile",
    ),
    (
        "serve",
        "listen data-dir workers queue-depth batch-size max-connections max-body-bytes \
         read-timeout-ms write-timeout-ms job-timeout-ms trace",
    ),
    ("help", ""),
];

impl Command {
    /// Parses a command line (without the program name).
    pub fn parse(args: &[String]) -> Result<Command, CliError> {
        let mut it = args.iter();
        let sub = it.next().map(String::as_str).unwrap_or("help");
        let rest: Vec<String> = it.cloned().collect();
        let flags = parse_flags(&rest)?;
        if let Some((_, known)) = SUBCOMMAND_FLAGS.iter().find(|(name, _)| *name == sub) {
            if let Some(flag) = flags
                .keys()
                .find(|flag| !known.split_whitespace().any(|k| k == flag.as_str()))
            {
                return Err(CliError::Usage(format!(
                    "unknown flag --{flag} for `{sub}` (see `disassoc help`)"
                )));
            }
        }
        let get = |name: &str| flags.get(name).cloned();
        let req = |name: &str| {
            get(name).ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
        };
        let parse_usize = |name: &str, v: &str| {
            v.parse::<usize>()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got {v:?}")))
        };
        let parse_u64 = |name: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got {v:?}")))
        };
        match sub {
            "generate" => Ok(Command::Generate {
                kind: req("kind")?,
                records: parse_usize("records", &get("records").unwrap_or_else(|| "10000".into()))?,
                domain: parse_usize("domain", &get("domain").unwrap_or_else(|| "1000".into()))?,
                avg_len: get("avg-len")
                    .unwrap_or_else(|| "10".into())
                    .parse()
                    .map_err(|_| CliError::Usage("--avg-len expects a number".into()))?,
                scale: parse_usize("scale", &get("scale").unwrap_or_else(|| "100".into()))?,
                seed: parse_u64("seed", &get("seed").unwrap_or_else(|| "42".into()))?,
                out: PathBuf::from(req("out")?),
            }),
            "stats" => Ok(Command::Stats {
                input: PathBuf::from(req("input")?),
            }),
            "anonymize" => {
                let (input, store) = input_or_store(&flags)?;
                Ok(Command::Anonymize {
                    input,
                    store,
                    batch_size: parse_usize(
                        "batch-size",
                        &get("batch-size").unwrap_or_else(|| "0".into()),
                    )?,
                    k: parse_usize("k", &req("k")?)?,
                    m: parse_usize("m", &req("m")?)?,
                    max_cluster_size: parse_usize(
                        "max-cluster-size",
                        &get("max-cluster-size").unwrap_or_else(|| "0".into()),
                    )?,
                    no_refine: flags.contains_key("no-refine"),
                    threads: parse_usize("threads", &get("threads").unwrap_or_else(|| "1".into()))?,
                    out_prefix: PathBuf::from(req("out-prefix")?),
                    obs: ObsOptions::from_flags(&flags),
                })
            }
            "append" => Ok(Command::Append {
                input: PathBuf::from(req("input")?),
                store: PathBuf::from(req("store")?),
                batch_size: parse_usize(
                    "batch-size",
                    &get("batch-size").unwrap_or_else(|| "0".into()),
                )?,
                k: parse_usize("k", &req("k")?)?,
                m: parse_usize("m", &req("m")?)?,
                max_cluster_size: parse_usize(
                    "max-cluster-size",
                    &get("max-cluster-size").unwrap_or_else(|| "0".into()),
                )?,
                no_refine: flags.contains_key("no-refine"),
                max_dirty_fraction: get("max-dirty-frac")
                    .unwrap_or_else(|| "0.2".into())
                    .parse::<f64>()
                    .ok()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or_else(|| {
                        CliError::Usage("--max-dirty-frac expects a number in 0..=1".into())
                    })?,
                publish: get("publish").map(PathBuf::from),
                out_prefix: get("out-prefix").map(PathBuf::from),
                obs: ObsOptions::from_flags(&flags),
            }),
            "ingest" => Ok(Command::Ingest {
                input: PathBuf::from(req("input")?),
                store: PathBuf::from(req("store")?),
                batch_size: parse_usize(
                    "batch-size",
                    &get("batch-size").unwrap_or_else(|| "1024".into()),
                )?,
                memtable: get("memtable")
                    .map(|v| parse_usize("memtable", &v))
                    .transpose()?
                    .unwrap_or(StoreConfig::default().memtable_capacity),
                compact: flags.contains_key("compact"),
                obs: ObsOptions::from_flags(&flags),
            }),
            "store-info" => Ok(Command::StoreInfo {
                store: PathBuf::from(req("store")?),
            }),
            "reconstruct" => Ok(Command::Reconstruct {
                chunks: PathBuf::from(req("chunks")?),
                out: PathBuf::from(req("out")?),
                samples: parse_usize("samples", &get("samples").unwrap_or_else(|| "1".into()))?,
                seed: parse_u64("seed", &get("seed").unwrap_or_else(|| "7".into()))?,
            }),
            "evaluate" => {
                let (input, store) = input_or_store(&flags)?;
                Ok(Command::Evaluate {
                    input,
                    store,
                    batch_size: parse_usize(
                        "batch-size",
                        &get("batch-size").unwrap_or_else(|| "0".into()),
                    )?,
                    k: parse_usize("k", &req("k")?)?,
                    m: parse_usize("m", &req("m")?)?,
                    threads: parse_usize("threads", &get("threads").unwrap_or_else(|| "1".into()))?,
                    obs: ObsOptions::from_flags(&flags),
                })
            }
            "serve" => {
                let defaults = disassoc_serve::ServeConfig::default();
                // A zero worker count, queue depth, connection cap or
                // timeout would leave the daemon unable to serve anything.
                let positive = |name: &str| {
                    get(name)
                        .map(|v| match parse_usize(name, &v)? {
                            0 => Err(CliError::Usage(format!("--{name} must be at least 1"))),
                            n => Ok(n),
                        })
                        .transpose()
                };
                let millis = |name: &str, default| {
                    Ok::<_, CliError>(
                        positive(name)?
                            .map_or(default, |ms| std::time::Duration::from_millis(ms as u64)),
                    )
                };
                let config = disassoc_serve::ServeConfig {
                    workers: positive("workers")?.unwrap_or(defaults.workers),
                    queue_depth: positive("queue-depth")?.unwrap_or(defaults.queue_depth),
                    max_body_bytes: get("max-body-bytes")
                        .map(|v| parse_u64("max-body-bytes", &v))
                        .transpose()?
                        .unwrap_or(defaults.max_body_bytes),
                    read_timeout: millis("read-timeout-ms", defaults.read_timeout)?,
                    write_timeout: millis("write-timeout-ms", defaults.write_timeout)?,
                    max_connections: positive("max-connections")?
                        .unwrap_or(defaults.max_connections),
                    // `--batch-size 0` selects the default, as for `anonymize`.
                    batch_size: get("batch-size")
                        .map(|v| parse_usize("batch-size", &v))
                        .transpose()?
                        .filter(|&n| n != 0)
                        .unwrap_or(defaults.batch_size),
                    job_reply_timeout: millis("job-timeout-ms", defaults.job_reply_timeout)?,
                };
                Ok(Command::Serve {
                    listen: req("listen")?,
                    data_dir: PathBuf::from(req("data-dir")?),
                    config,
                    trace: get("trace").map(PathBuf::from),
                })
            }
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(CliError::Usage(format!(
                "unknown subcommand {other:?}\n{USAGE}"
            ))),
        }
    }

    /// Executes the command, writing human-readable progress to `out`.
    pub fn run(&self, out: &mut dyn std::io::Write) -> Result<(), CliError> {
        // Failpoints arm from the environment for every subcommand so the
        // torture harness (and operators rehearsing failures) can inject
        // faults into real publication runs, not just the daemon; unset,
        // this leaves the registry disabled.
        disassoc_faults::arm_from_env()
            .map_err(|e| CliError::Usage(format!("bad {}: {e}", disassoc_faults::ENV_VAR)))?;
        match self {
            Command::Help => {
                writeln!(out, "{USAGE}")?;
                Ok(())
            }
            Command::Generate {
                kind,
                records,
                domain,
                avg_len,
                scale,
                seed,
                out: path,
            } => {
                let dataset = match kind.as_str() {
                    "quest" => {
                        let config = QuestConfig {
                            num_transactions: *records,
                            domain_size: *domain,
                            avg_transaction_len: *avg_len,
                            seed: *seed,
                            ..QuestConfig::default()
                        };
                        config.validate().map_err(CliError::Usage)?;
                        QuestGenerator::generate_with(config)
                    }
                    "pos" => RealDataset::Pos.generate_scaled(*scale),
                    "wv1" => RealDataset::Wv1.generate_scaled(*scale),
                    "wv2" => RealDataset::Wv2.generate_scaled(*scale),
                    other => {
                        return Err(CliError::Usage(format!("unknown dataset kind {other:?}")))
                    }
                };
                transact::io::write_numeric_transactions_path(&dataset, path)?;
                writeln!(
                    out,
                    "wrote {} records over {} terms to {}",
                    dataset.len(),
                    dataset.domain_size(),
                    path.display()
                )?;
                Ok(())
            }
            Command::Stats { input } => {
                let dataset = transact::io::read_numeric_transactions_path(input)?;
                let stats = DatasetStats::compute(&dataset);
                writeln!(out, "{}", stats.figure6_row(&input.display().to_string()))?;
                writeln!(
                    out,
                    "max term support {}  median term support {}  rare-term fraction {:.3}",
                    stats.max_term_support, stats.median_term_support, stats.fraction_rare_terms
                )?;
                Ok(())
            }
            Command::Anonymize {
                input,
                store,
                batch_size,
                k,
                m,
                max_cluster_size,
                no_refine,
                threads,
                out_prefix,
                obs,
            } => {
                let config = DisassociationConfig {
                    k: *k,
                    m: *m,
                    max_cluster_size: *max_cluster_size,
                    enable_refine: !no_refine,
                    ..Default::default()
                };
                config.validate()?;
                let session = obs.start()?;
                let chunks_path = out_prefix.with_extension("chunks.json");
                // The chunk file is streamed batch by batch: together with
                // the chunked sources this bounds BOTH original-record and
                // published-chunk residency by the batch size, not the
                // dataset size.  `publish_flat_file` replaces `chunks_path`
                // only after a successful run, and the sink is created only
                // after the source opened, so a missing input leaves no
                // stray output at all.
                let result = with_source(input.as_deref(), store.as_deref(), *batch_size, |src| {
                    disassoc_store::publish::publish_flat_file(
                        &chunks_path,
                        &config,
                        None,
                        |sink| run_pipeline(&config, src, sink, *threads),
                    )
                });
                let summary = match result {
                    Ok(done) => done,
                    Err(e) => {
                        session.abort();
                        return Err(e);
                    }
                };
                writeln!(
                    out,
                    "anonymized {} records into {} simple clusters ({} record chunks, {} shared chunks) in {:.2}s",
                    summary.records,
                    summary.simple_clusters,
                    summary.record_chunks,
                    summary.shared_chunks,
                    summary.total_seconds()
                )?;
                if !summary.refine_converged {
                    disassoc_obs::warn(
                        disassoc_obs::names::WARN_REFINE_PASS_CAP,
                        &format!(
                            "refining hit its pass limit after {} passes without converging; \
                             the publication is valid but further joint clusters may have been possible",
                            summary.refine_passes
                        ),
                        &[("passes", Attr::U64(summary.refine_passes as u64))],
                    );
                }
                writeln!(out, "published chunks: {}", chunks_path.display())?;
                session.finish(out)?;
                Ok(())
            }
            Command::Append {
                input,
                store,
                batch_size,
                k,
                m,
                max_cluster_size,
                no_refine,
                max_dirty_fraction,
                publish,
                out_prefix,
                obs,
            } => {
                let config = DisassociationConfig {
                    k: *k,
                    m: *m,
                    max_cluster_size: *max_cluster_size,
                    enable_refine: !no_refine,
                    ..Default::default()
                };
                config.validate()?;
                let session = obs.start()?;
                let chunks_path = out_prefix
                    .as_ref()
                    .map(|prefix| prefix.with_extension("chunks.json"));
                let (result, seconds) =
                    disassoc_obs::trace::span(disassoc_obs::names::SPAN_CLI_APPEND, || {
                        let mut st = open_existing_store(store)?;
                        let mut reader = ReaderSource::open(input, 0)?;
                        let mut new_records: Vec<Record> = Vec::new();
                        while let Some(batch) = reader.next_batch()? {
                            new_records.extend(batch);
                        }
                        let mut chunks = publish.as_deref().map(ChunkDir::open).transpose()?;
                        let before: BTreeMap<usize, u64> = chunks
                            .as_ref()
                            .map(|c| c.generations().into_iter().collect())
                            .unwrap_or_default();
                        // Rebuild the incremental state from the store's
                        // current contents, then route the appended records
                        // into it: only the clusters they land in are
                        // re-anonymized, and only the batch files whose bytes
                        // changed are rewritten (`ChunkDir` skips the rest).
                        let job = AppendJob {
                            config: &config,
                            options: AppendOptions {
                                max_dirty_fraction: *max_dirty_fraction,
                            },
                            batch_size: store_batch_size(*batch_size),
                            threads: 1,
                        };
                        let appended = job.run::<CliError>(
                            &mut st,
                            &new_records,
                            chunks.as_mut(),
                            chunks_path.as_deref(),
                        )?;
                        let rewritten = chunks.map(|c| {
                            c.generations()
                                .into_iter()
                                .filter(|(batch, generation)| before.get(batch) != Some(generation))
                                .count()
                        });
                        Ok::<_, CliError>((appended, rewritten))
                    });
                let (appended, rewritten) = match result {
                    Ok(done) => done,
                    Err(e) => {
                        session.abort();
                        return Err(e);
                    }
                };
                let outcome = appended.outcome;
                writeln!(
                    out,
                    "appended {} records: {} clusters re-anonymized, {} reused untouched, \
                     {} new, {} chunks republished ({} clusters total) in {:.2}s",
                    outcome.appended_records,
                    outcome.dirty_clusters,
                    outcome.reused_clusters,
                    outcome.new_clusters,
                    outcome.republished_chunks,
                    outcome.total_clusters,
                    seconds
                )?;
                if let (Some(dir), Some(rewritten)) = (publish, rewritten) {
                    writeln!(
                        out,
                        "republished {rewritten} of {} batches to {}",
                        appended.batches,
                        dir.display()
                    )?;
                }
                if let Some(chunks_path) = chunks_path {
                    writeln!(out, "published chunks: {}", chunks_path.display())?;
                }
                session.finish(out)?;
                Ok(())
            }
            Command::Ingest {
                input,
                store,
                batch_size,
                memtable,
                compact,
                obs,
            } => {
                let session = obs.start()?;
                let (result, seconds) =
                    disassoc_obs::trace::span(disassoc_obs::names::SPAN_CLI_INGEST, || {
                        let mut st = Store::open(
                            store,
                            StoreConfig {
                                memtable_capacity: (*memtable).max(1),
                                ..StoreConfig::default()
                            },
                        )?;
                        if st.recovered_records() > 0 {
                            disassoc_obs::warn(
                                disassoc_obs::names::WARN_STORE_WAL_RECOVERY,
                                &format!(
                                    "recovered {} unsealed records from the write-ahead log",
                                    st.recovered_records()
                                ),
                                &[("records", Attr::U64(st.recovered_records()))],
                            );
                        }
                        let before = st.len();
                        let mut reader = ReaderSource::open(input, (*batch_size).max(1))?;
                        while let Some(batch) = reader.next_batch()? {
                            st.append_batch(&batch)?;
                        }
                        st.flush()?;
                        Ok::<_, CliError>((st, before))
                    });
                let (mut st, before) = result?;
                writeln!(
                    out,
                    "ingested {} records into {} ({} total) in {:.2}s",
                    st.len() - before,
                    store.display(),
                    st.len(),
                    seconds
                )?;
                if *compact {
                    let stats = st.compact()?;
                    writeln!(
                        out,
                        "compacted {} segments into {} ({} merges, amplification {:.2})",
                        stats.segments_before,
                        stats.segments_after,
                        stats.merges,
                        stats.amplification()
                    )?;
                }
                session.finish(out)?;
                Ok(())
            }
            Command::StoreInfo { store } => {
                let st = open_existing_store(store)?;
                let info = st.info()?;
                writeln!(
                    out,
                    "store {}: {} records ({} sealed in {} segments, {} in memtable)",
                    store.display(),
                    info.records,
                    info.records_in_segments,
                    info.segments.len(),
                    info.memtable_records
                )?;
                writeln!(
                    out,
                    "segment bytes {}  wal bytes {}  terms [{}..{}] distinct<= {} occurrences {}",
                    info.segment_bytes(),
                    info.wal_bytes,
                    info.terms.min_term.map_or("-".into(), |t| t.to_string()),
                    info.terms.max_term.map_or("-".into(), |t| t.to_string()),
                    info.terms.distinct_terms,
                    info.terms.term_occurrences
                )?;
                for (entry, meta) in &info.segments {
                    writeln!(
                        out,
                        "  segment {:>6}  {:>10} records  {:>12} bytes  {}",
                        entry.id, entry.records, entry.bytes, meta.terms.term_occurrences
                    )?;
                }
                // The store-side obs counters: all zero in a fresh process
                // (collection is off by default), populated when an earlier
                // command in this process ran with an obs flag.
                writeln!(out, "obs counters (process-wide):")?;
                for counter in disassoc_obs::metrics::counters::ALL {
                    if counter.name().starts_with("store.") {
                        writeln!(out, "  {:<32} {}", counter.name(), counter.get())?;
                    }
                }
                Ok(())
            }
            Command::Reconstruct {
                chunks,
                out: path,
                samples,
                seed,
            } => {
                let bytes = std::fs::read(chunks)?;
                let published: disassociation::DisassociatedDataset =
                    serde_json::from_slice(&bytes)?;
                drop(bytes);
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(*seed);
                let reconstructions = reconstruct_many(&published, (*samples).max(1), &mut rng);
                for (i, d) in reconstructions.iter().enumerate() {
                    let target = if reconstructions.len() == 1 {
                        path.clone()
                    } else {
                        path.with_extension(format!("{i}.dat"))
                    };
                    transact::io::write_numeric_transactions_path(d, &target)?;
                    writeln!(out, "reconstruction {} -> {}", i, target.display())?;
                }
                // The process exits next: freeing every record of the
                // publication and the reconstructions one by one would only
                // delay that (~0.1 s on a 200k-record publication).
                std::mem::forget(reconstructions);
                std::mem::forget(published);
                Ok(())
            }
            Command::Evaluate {
                input,
                store,
                batch_size,
                k,
                m,
                threads,
                obs,
            } => {
                let config = DisassociationConfig {
                    k: *k,
                    m: *m,
                    ..Default::default()
                };
                config.validate()?;
                let session = obs.start()?;
                let result = (|| -> Result<InformationLoss, CliError> {
                    // The loss metrics compare against the original records,
                    // so `evaluate` materializes the dataset regardless of
                    // source (it is an offline analysis tool, not the ingest
                    // path).
                    let dataset = match (input, store) {
                        (Some(path), _) => transact::io::read_numeric_transactions_path(path)?,
                        (None, Some(dir)) => {
                            let st = open_existing_store(dir)?;
                            let mut records: Vec<Record> = Vec::new();
                            let mut source = st.source(DEFAULT_BATCH_SIZE);
                            while let Some(batch) = source.next_batch()? {
                                records.extend(batch);
                            }
                            Dataset::from_records(records)
                        }
                        (None, None) => unreachable!("parser enforces input xor store"),
                    };
                    // Same batch-size semantics as `anonymize`, so the metrics
                    // describe the publication `anonymize` would actually
                    // write: 0 = monolithic for file input, default batch for
                    // store.
                    let effective_batch = if store.is_some() {
                        store_batch_size(*batch_size)
                    } else {
                        *batch_size
                    };
                    let mut source = DatasetSource::new(&dataset, effective_batch);
                    let mut sink = CollectSink::for_config(&config);
                    run_pipeline(&config, &mut source, &mut sink, *threads)?;
                    let output: DisassociationOutput = sink.into_output();
                    Ok(InformationLoss::evaluate(
                        &dataset,
                        &output,
                        &LossConfig::default(),
                    ))
                })();
                let loss = match result {
                    Ok(loss) => loss,
                    Err(e) => {
                        session.abort();
                        return Err(e);
                    }
                };
                writeln!(out, "{}", loss.table_row(&format!("k={k} m={m}")))?;
                session.finish(out)?;
                Ok(())
            }
            Command::Serve {
                listen,
                data_dir,
                config,
                trace,
            } => {
                if let Some(path) = trace {
                    disassoc_obs::trace::init_file(path)?;
                }
                // SIGTERM/SIGINT become a graceful drain instead of a kill.
                disassoc_serve::signal::install()?;
                let server =
                    disassoc_serve::Server::bind(listen.as_str(), data_dir, config.clone())?;
                let addr = server.local_addr()?;
                // The daemon tests (and humans backgrounding the process)
                // read this line to learn the bound port, so it must hit the
                // pipe before the accept loop starts blocking.
                writeln!(out, "listening on {addr} (data dir {})", data_dir.display())?;
                out.flush()?;
                let run_result = server.run();
                if trace.is_some() {
                    disassoc_obs::trace::shutdown()?;
                }
                run_result?;
                writeln!(out, "drained and shut down cleanly")?;
                Ok(())
            }
        }
    }
}

/// Runs a fully-configured pipeline over an already-built source and sink.
fn run_pipeline(
    config: &DisassociationConfig,
    source: &mut dyn RecordSource,
    sink: &mut dyn ChunkSink,
    threads: usize,
) -> Result<RunSummary, CliError> {
    Ok(Pipeline::new(config.clone())
        .source(source)
        .sink(sink)
        .threads(threads)
        .run()?)
}

/// Builds the [`RecordSource`] matching the `--input FILE` / `--store DIR`
/// choice and hands it to `f`: file input streams through [`ReaderSource`]
/// (`batch_size == 0` = one monolithic batch, the historical behaviour),
/// store input through [`Store::source`] (see [`store_batch_size`]).
/// Identical record sequences with identical batch sizes publish
/// byte-identical datasets regardless of source.
fn with_source<T>(
    input: Option<&Path>,
    store: Option<&Path>,
    batch_size: usize,
    f: impl FnOnce(&mut dyn RecordSource) -> Result<T, CliError>,
) -> Result<T, CliError> {
    match (input, store) {
        (Some(path), _) => {
            let mut source = ReaderSource::open(path, batch_size)?;
            f(&mut source)
        }
        (None, Some(dir)) => {
            let st = open_existing_store(dir)?;
            let mut source = st.source(store_batch_size(batch_size));
            f(&mut source)
        }
        (None, None) => Err(CliError::Usage(
            "one of --input or --store is required".into(),
        )),
    }
}

/// The pipeline batch size of a store-backed run: `--batch-size 0` selects
/// [`DEFAULT_BATCH_SIZE`], the daemon's default too.
fn store_batch_size(batch_size: usize) -> usize {
    if batch_size == 0 {
        DEFAULT_BATCH_SIZE
    } else {
        batch_size
    }
}

/// Opens a store for reading, refusing to conjure an empty one out of a
/// missing/uninitialized directory (only `ingest` creates stores).
fn open_existing_store(dir: &Path) -> Result<Store, CliError> {
    if !Store::exists(dir) {
        return Err(CliError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!(
                "no store at {} (run `disassoc ingest` first)",
                dir.display()
            ),
        )));
    }
    Ok(Store::open(dir, StoreConfig::default())?)
}

/// Resolves the mutually exclusive `--input FILE` / `--store DIR` pair.
fn input_or_store(
    flags: &BTreeMap<String, String>,
) -> Result<(Option<PathBuf>, Option<PathBuf>), CliError> {
    match (flags.get("input"), flags.get("store")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--input and --store are mutually exclusive".into(),
        )),
        (None, None) => Err(CliError::Usage(
            "one of --input or --store is required".into(),
        )),
        (input, store) => Ok((input.map(PathBuf::from), store.map(PathBuf::from))),
    }
}

/// Parses `--flag value` and boolean `--flag` arguments.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, CliError> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(CliError::Usage(format!("unexpected argument {arg:?}")));
        };
        let is_boolean = name == "no-refine" || name == "compact" || name == "profile";
        if is_boolean {
            flags.insert(name.to_owned(), "true".to_owned());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
            flags.insert(name.to_owned(), value.clone());
            i += 2;
        }
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_generate() {
        let cmd = Command::parse(&args(
            "generate --kind quest --records 100 --domain 50 --out /tmp/x.dat",
        ))
        .unwrap();
        match cmd {
            Command::Generate {
                kind,
                records,
                domain,
                ..
            } => {
                assert_eq!(kind, "quest");
                assert_eq!(records, 100);
                assert_eq!(domain, 50);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_anonymize_with_flags() {
        let cmd = Command::parse(&args(
            "anonymize --input d.dat --k 5 --m 2 --no-refine --threads 4 --out-prefix pub",
        ))
        .unwrap();
        match cmd {
            Command::Anonymize {
                k,
                m,
                no_refine,
                threads,
                ..
            } => {
                assert_eq!((k, m), (5, 2));
                assert!(no_refine);
                assert_eq!(threads, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --threads defaults to 1 (serial).
        match Command::parse(&args("evaluate --input d.dat --k 5 --m 2")).unwrap() {
            Command::Evaluate { threads, .. } => assert_eq!(threads, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_required_flag_is_a_usage_error() {
        let err =
            Command::parse(&args("anonymize --input d.dat --k 5 --out-prefix pub")).unwrap_err();
        assert!(err.to_string().contains("--m"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_flag() {
        for (line, flag) in [
            (
                "anonymize --input d.dat --k 5 --m 2 --thread 2 --out-prefix pub",
                "--thread",
            ),
            (
                "append --input d.dat --store s --k 5 --m 2 --max-dirty-fraction 0.5",
                "--max-dirty-fraction",
            ),
            // Valid for another subcommand, still unknown here.
            ("stats --input d.dat --k 5", "--k"),
            (
                "serve --listen 127.0.0.1:0 --data-dir d --profile",
                "--profile",
            ),
        ] {
            let err = Command::parse(&args(line)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{line}");
            assert!(err.to_string().contains(flag), "{line}: {err}");
        }
        // The real spellings parse.
        match Command::parse(&args(
            "append --input d.dat --store s --k 5 --m 2 --max-dirty-frac 0.5",
        ))
        .unwrap()
        {
            Command::Append {
                max_dirty_fraction, ..
            } => assert_eq!(max_dirty_fraction, 0.5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn max_dirty_frac_outside_unit_interval_is_a_usage_error() {
        for value in ["NaN", "-3", "7", "inf", "1.5", "-0.1", "x"] {
            let line =
                format!("append --input d.dat --store s --k 5 --m 2 --max-dirty-frac {value}");
            let err = Command::parse(&args(&line)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{line}");
            assert!(
                err.to_string().contains("--max-dirty-frac"),
                "{line}: {err}"
            );
        }
        for value in ["0", "1", "0.25"] {
            let line =
                format!("append --input d.dat --store s --k 5 --m 2 --max-dirty-frac {value}");
            assert!(Command::parse(&args(&line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn serve_flags_default_to_serve_config_and_reject_zero() {
        let base = "serve --listen 127.0.0.1:0 --data-dir d";
        let parsed = |extra: &str| match Command::parse(&args(&format!("{base} {extra}"))) {
            Ok(Command::Serve { config, .. }) => Ok(config),
            Ok(other) => panic!("unexpected {other:?}"),
            Err(e) => Err(e),
        };
        let defaults = disassoc_serve::ServeConfig::default();
        assert_eq!(parsed("").unwrap(), defaults);
        assert_eq!(parsed("--batch-size 0").unwrap(), defaults);
        let set = parsed("--workers 3 --read-timeout-ms 7 --batch-size 64").unwrap();
        assert_eq!(set.workers, 3);
        assert_eq!(set.read_timeout, std::time::Duration::from_millis(7));
        assert_eq!(set.batch_size, 64);
        assert_eq!(set.queue_depth, defaults.queue_depth);
        for flag in [
            "--workers",
            "--queue-depth",
            "--max-connections",
            "--read-timeout-ms",
            "--write-timeout-ms",
            "--job-timeout-ms",
        ] {
            let err = parsed(&format!("{flag} 0")).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flag}");
            assert!(err.to_string().contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(Command::parse(&args("frobnicate")).is_err());
    }

    #[test]
    fn bad_integer_is_an_error() {
        let err = Command::parse(&args("evaluate --input d.dat --k five --m 2")).unwrap_err();
        assert!(err.to_string().contains("--k"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn empty_command_line_is_help() {
        assert_eq!(Command::parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn positional_arguments_are_rejected() {
        assert!(Command::parse(&args("stats input.dat")).is_err());
    }

    #[test]
    fn exit_codes_split_usage_from_runtime() {
        // Usage: bad flags and invalid privacy parameters.
        assert_eq!(CliError::Usage("nope".into()).exit_code(), 2);
        assert_eq!(
            CliError::Config(ConfigError::KTooSmall { k: 1 }).exit_code(),
            2
        );
        // Runtime: I/O, store, pipeline.
        assert_eq!(CliError::Io(std::io::Error::other("boom")).exit_code(), 1);
        assert_eq!(
            CliError::Store(disassoc_store::StoreError::corrupt("bad")).exit_code(),
            1
        );
        // `--k 1` flows through run() as a Config error, not a panic.
        let mut sink = Vec::new();
        let err = Command::parse(&args("evaluate --input d.dat --k 1 --m 2"))
            .unwrap()
            .run(&mut sink)
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("k must be at least 2"));
    }

    #[test]
    fn runtime_errors_render_their_cause_chain() {
        // A missing input file: CliError::Pipeline -> SourceError -> io.
        let prefix = std::env::temp_dir().join(format!("cli_chain_test_{}", std::process::id()));
        let mut sink = Vec::new();
        let err = Command::parse(&args(&format!(
            "anonymize --input /nonexistent/x.dat --k 3 --m 2 --out-prefix {}",
            prefix.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let chain = err.render_chain();
        assert!(chain.contains("caused by:"), "{chain}");
        assert!(chain.contains("/nonexistent/x.dat"), "{chain}");
        // The sink is created only after the source opened: a missing input
        // must leave no output file behind, partial or otherwise.
        assert!(!prefix.with_extension("chunks.json").exists());
        assert!(!prefix.with_extension("chunks.json.partial").exists());
    }

    #[test]
    fn failed_rerun_preserves_an_existing_publication() {
        let dir = std::env::temp_dir().join(format!("cli_rerun_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.dat");
        let prefix = dir.join("pub");
        let mut sink = Vec::new();
        Command::parse(&args(&format!(
            "generate --kind quest --records 120 --domain 40 --out {}",
            data.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        Command::parse(&args(&format!(
            "anonymize --input {} --k 3 --m 2 --out-prefix {}",
            data.display(),
            prefix.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        let chunks = prefix.with_extension("chunks.json");
        let good = std::fs::read(&chunks).unwrap();

        // Re-run against a now-corrupt input: the run fails, and the
        // previous publication survives byte-for-byte (the stream went to a
        // `.partial` sibling that is removed on failure).
        std::fs::write(&data, "1 2\nnot numbers\n").unwrap();
        let err = Command::parse(&args(&format!(
            "anonymize --input {} --k 3 --m 2 --out-prefix {}",
            data.display(),
            prefix.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert_eq!(std::fs::read(&chunks).unwrap(), good);
        assert!(!prefix.with_extension("chunks.json.partial").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_append() {
        let cmd = Command::parse(&args(
            "append --input d.dat --store /tmp/s --k 3 --m 2 --max-dirty-frac 0.1 \
             --publish /tmp/chunks --out-prefix pub",
        ))
        .unwrap();
        match cmd {
            Command::Append {
                k,
                m,
                max_dirty_fraction,
                publish,
                out_prefix,
                ..
            } => {
                assert_eq!((k, m), (3, 2));
                assert_eq!(max_dirty_fraction, 0.1);
                assert_eq!(publish, Some(PathBuf::from("/tmp/chunks")));
                assert_eq!(out_prefix, Some(PathBuf::from("pub")));
            }
            other => panic!("unexpected {other:?}"),
        }
        // --store and --input are both required; k/m validate like anonymize.
        let err = Command::parse(&args("append --input d.dat --k 3 --m 2")).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let mut sink = Vec::new();
        let err = Command::parse(&args("append --input d.dat --store /tmp/s --k 1 --m 2"))
            .unwrap()
            .run(&mut sink)
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        // Appending to a missing store is a runtime error, not store creation.
        let missing = std::env::temp_dir().join("disassoc_cli_append_missing_store");
        std::fs::remove_dir_all(&missing).ok();
        let err = Command::parse(&args(&format!(
            "append --input d.dat --store {} --k 3 --m 2",
            missing.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("no store at"));
        assert!(!missing.exists());
    }

    #[test]
    fn end_to_end_append_republishes_only_dirty_batches() {
        let dir =
            std::env::temp_dir().join(format!("disassoc_cli_append_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.dat");
        let delta = dir.join("delta.dat");
        let store = dir.join("store");
        let chunks_dir = dir.join("chunks");
        let mut sink = Vec::new();

        Command::parse(&args(&format!(
            "generate --kind quest --records 400 --domain 90 --out {}",
            data.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        Command::parse(&args(&format!(
            "generate --kind quest --records 20 --domain 90 --seed 99 --out {}",
            delta.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        Command::parse(&args(&format!(
            "ingest --input {} --store {}",
            data.display(),
            store.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();

        // First append against a fresh chunk dir publishes everything and
        // grows the store; batches are sized so the base spans 4 batches.
        let prefix = dir.join("published");
        Command::parse(&args(&format!(
            "append --input {} --store {} --k 3 --m 2 --batch-size 100 --publish {} --out-prefix {}",
            delta.display(),
            store.display(),
            chunks_dir.display(),
            prefix.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        let manifest_v1 = std::fs::read_to_string(chunks_dir.join("CHUNKS.json")).unwrap();
        let chunks_path = prefix.with_extension("chunks.json");
        assert!(chunks_path.exists());

        // The combined publication reconstructs to the full record count.
        let recon = dir.join("recon.dat");
        Command::parse(&args(&format!(
            "reconstruct --chunks {} --out {}",
            chunks_path.display(),
            recon.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        let reconstructed = transact::io::read_numeric_transactions_path(&recon).unwrap();
        assert_eq!(reconstructed.len(), 420);

        // A second append republishes only the dirty batches: at least one
        // clean batch keeps its committed file name.
        Command::parse(&args(&format!(
            "append --input {} --store {} --k 3 --m 2 --batch-size 100 --publish {}",
            delta.display(),
            store.display(),
            chunks_dir.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        let manifest_v2 = std::fs::read_to_string(chunks_dir.join("CHUNKS.json")).unwrap();
        assert_ne!(manifest_v1, manifest_v2);

        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("appended 20 records"), "{text}");
        assert!(text.contains("republished"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_obs_flags() {
        let cmd = Command::parse(&args(
            "anonymize --input d.dat --k 5 --m 2 --out-prefix pub \
             --metrics-out m.json --trace t.jsonl --profile",
        ))
        .unwrap();
        match cmd {
            Command::Anonymize { obs, .. } => {
                assert_eq!(obs.metrics_out, Some(PathBuf::from("m.json")));
                assert_eq!(obs.trace, Some(PathBuf::from("t.jsonl")));
                assert!(obs.profile);
                assert!(obs.is_active());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: everything off, session is a no-op.
        match Command::parse(&args(
            "anonymize --input d.dat --k 5 --m 2 --out-prefix pub",
        ))
        .unwrap()
        {
            Command::Anonymize { obs, .. } => assert!(!obs.is_active()),
            other => panic!("unexpected {other:?}"),
        }
        match Command::parse(&args("ingest --input d.dat --store /tmp/s --profile")).unwrap() {
            Command::Ingest { obs, .. } => assert!(obs.profile && obs.metrics_out.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn obs_flags_do_not_change_the_publication() {
        let dir =
            std::env::temp_dir().join(format!("disassoc_cli_obs_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.dat");
        let mut sink = Vec::new();
        Command::parse(&args(&format!(
            "generate --kind quest --records 300 --domain 80 --out {}",
            data.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();

        // Plain run, then a run with every obs flag on.
        let plain = dir.join("plain");
        Command::parse(&args(&format!(
            "anonymize --input {} --k 3 --m 2 --out-prefix {}",
            data.display(),
            plain.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        let observed = dir.join("observed");
        let metrics_path = dir.join("m.json");
        let trace_path = dir.join("t.jsonl");
        let mut obs_out = Vec::new();
        Command::parse(&args(&format!(
            "anonymize --input {} --k 3 --m 2 --out-prefix {} \
             --metrics-out {} --trace {} --profile",
            data.display(),
            observed.display(),
            metrics_path.display(),
            trace_path.display()
        )))
        .unwrap()
        .run(&mut obs_out)
        .unwrap();

        // Identical publication bytes; parseable metrics; nonempty JSONL trace.
        assert_eq!(
            std::fs::read(plain.with_extension("chunks.json")).unwrap(),
            std::fs::read(observed.with_extension("chunks.json")).unwrap(),
            "obs flags must not change the published chunks"
        );
        let metrics: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let counters = metrics.get("counters").expect("counters object");
        assert!(counters.get("core.anonymize_runs").is_some());
        let trace_text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(!trace_text.trim().is_empty(), "trace should record events");
        for line in trace_text.lines() {
            let parsed: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
            assert!(parsed.get("ts_us").is_some() && parsed.get("name").is_some());
        }
        let text = String::from_utf8(obs_out).unwrap();
        assert!(text.contains("metrics snapshot:"), "{text}");
        assert!(text.contains("core.anonymize_runs"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_ingest_and_store_info() {
        let cmd = Command::parse(&args(
            "ingest --input d.dat --store /tmp/s --batch-size 500 --memtable 2000 --compact",
        ))
        .unwrap();
        match cmd {
            Command::Ingest {
                batch_size,
                memtable,
                compact,
                ..
            } => {
                assert_eq!(batch_size, 500);
                assert_eq!(memtable, 2000);
                assert!(compact);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = Command::parse(&args("store-info --store /tmp/s")).unwrap();
        assert!(matches!(cmd, Command::StoreInfo { .. }));
    }

    #[test]
    fn ingest_memtable_defaults_to_the_store_config() {
        let cmd = Command::parse(&args("ingest --input d.dat --store /tmp/s")).unwrap();
        match cmd {
            Command::Ingest { memtable, .. } => {
                assert_eq!(memtable, StoreConfig::default().memtable_capacity);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn usage_states_the_default_batch_size() {
        let stated = format!("({DEFAULT_BATCH_SIZE} records)");
        assert!(USAGE.contains(&stated), "USAGE must say {stated}");
    }

    #[test]
    fn anonymize_accepts_store_or_input_but_not_both() {
        let cmd = Command::parse(&args(
            "anonymize --store /tmp/s --k 3 --m 2 --batch-size 64 --out-prefix p",
        ))
        .unwrap();
        match cmd {
            Command::Anonymize {
                input,
                store,
                batch_size,
                ..
            } => {
                assert!(input.is_none());
                assert_eq!(store, Some(PathBuf::from("/tmp/s")));
                assert_eq!(batch_size, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = Command::parse(&args(
            "anonymize --input d.dat --store /tmp/s --k 3 --m 2 --out-prefix p",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        assert_eq!(err.exit_code(), 2);
        let err = Command::parse(&args("evaluate --k 3 --m 2")).unwrap_err();
        assert!(err.to_string().contains("--input or --store"));
    }

    #[test]
    fn reading_a_missing_store_is_an_error_not_an_empty_store() {
        let dir = std::env::temp_dir().join("disassoc_cli_missing_store");
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = Vec::new();
        for cmd in [
            format!("store-info --store {}", dir.display()),
            format!(
                "anonymize --store {} --k 3 --m 2 --out-prefix {}",
                dir.display(),
                std::env::temp_dir()
                    .join("disassoc_cli_missing_store_pub")
                    .display()
            ),
            format!("evaluate --store {} --k 3 --m 2", dir.display()),
        ] {
            let err = Command::parse(&args(&cmd))
                .unwrap()
                .run(&mut sink)
                .unwrap_err();
            assert!(err.to_string().contains("no store at"), "{cmd}: {err}");
            assert_eq!(err.exit_code(), 1, "{cmd}");
        }
        assert!(!dir.exists(), "read commands must not create the store");
        // The anonymize attempt failed before its sink was created: no
        // chunk file (partial or otherwise) may exist.
        let pub_prefix = std::env::temp_dir().join("disassoc_cli_missing_store_pub");
        assert!(!pub_prefix.with_extension("chunks.json").exists());
        assert!(!pub_prefix.with_extension("chunks.json.partial").exists());
    }

    #[test]
    fn end_to_end_ingest_store_info_anonymize_from_store() {
        let dir = std::env::temp_dir().join("disassoc_cli_store_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.dat");
        let store = dir.join("store");
        let mut sink = Vec::new();

        Command::parse(&args(&format!(
            "generate --kind quest --records 200 --domain 60 --out {}",
            data.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();

        Command::parse(&args(&format!(
            "ingest --input {} --store {} --batch-size 16 --memtable 32 --compact",
            data.display(),
            store.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();

        Command::parse(&args(&format!("store-info --store {}", store.display())))
            .unwrap()
            .run(&mut sink)
            .unwrap();

        let prefix = dir.join("published");
        Command::parse(&args(&format!(
            "anonymize --store {} --k 3 --m 2 --batch-size 64 --out-prefix {}",
            store.display(),
            prefix.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        assert!(prefix.with_extension("chunks.json").exists());

        // A parallel run must produce the byte-identical chunk file.
        let prefix4 = dir.join("published4");
        Command::parse(&args(&format!(
            "anonymize --store {} --k 3 --m 2 --batch-size 64 --threads 4 --out-prefix {}",
            store.display(),
            prefix4.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        assert_eq!(
            std::fs::read(prefix.with_extension("chunks.json")).unwrap(),
            std::fs::read(prefix4.with_extension("chunks.json")).unwrap(),
            "--threads 4 must publish byte-identically to --threads 1"
        );

        Command::parse(&args(&format!(
            "evaluate --store {} --k 3 --m 2 --batch-size 64 --threads 2",
            store.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();

        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("ingested 200 records"), "{text}");
        assert!(text.contains("compacted"), "{text}");
        assert!(text.contains("store"), "{text}");
        assert!(text.contains("anonymized 200 records"), "{text}");
        assert!(text.contains("tKd"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_generate_anonymize_reconstruct_evaluate() {
        let dir = std::env::temp_dir().join("disassoc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.dat");
        let prefix = dir.join("published");
        let mut sink = Vec::new();

        Command::parse(&args(&format!(
            "generate --kind quest --records 300 --domain 80 --out {}",
            data.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        assert!(data.exists());

        Command::parse(&args(&format!("stats --input {}", data.display())))
            .unwrap()
            .run(&mut sink)
            .unwrap();

        Command::parse(&args(&format!(
            "anonymize --input {} --k 3 --m 2 --out-prefix {}",
            data.display(),
            prefix.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();
        let chunks = prefix.with_extension("chunks.json");
        assert!(chunks.exists());

        let recon = dir.join("recon.dat");
        Command::parse(&args(&format!(
            "reconstruct --chunks {} --out {} --samples 2",
            chunks.display(),
            recon.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();

        Command::parse(&args(&format!(
            "evaluate --input {} --k 3 --m 2",
            data.display()
        )))
        .unwrap()
        .run(&mut sink)
        .unwrap();

        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("anonymized 300 records"));
        assert!(text.contains("tKd"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
