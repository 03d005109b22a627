//! The unified, fallible pipeline API: one composable entry point for every
//! way of running the disassociation transformation.
//!
//! A run is a **source → pipeline → sink** composition:
//!
//! * a [`RecordSource`] yields record batches and may fail mid-stream
//!   (file parse errors, store corruption) — failures are typed
//!   ([`SourceError`]) and abort the run;
//! * the [`Pipeline`] anonymizes each batch independently (HorPart, VerPart,
//!   Refine — see [`crate::Disassociator`]) on a bounded pool of
//!   [`Pipeline::threads`] workers, while the calling thread pulls the
//!   source and feeds the sink;
//! * a [`ChunkSink`] receives every finished [`BatchOutput`] **in batch
//!   order** (regardless of worker completion order) and may itself fail
//!   ([`SinkError`]), also aborting the run.
//!
//! Peak original-record residency is bounded by the batch size times the
//! number of live batches (fewer than `2 × threads`: queued, running or
//! waiting for their turn at the sink; one for a single worker), never the
//! dataset size;
//! with a streaming sink such as [`JsonChunksSink`] the published output is
//! written out incrementally too, so both sides of the run are out-of-core.
//!
//! Determinism: a batch's output depends only on its records and the
//! configuration, and sinks observe batches in stream order, so the published
//! dataset is **byte-identical** for any thread count and any source/sink
//! pair yielding the same record sequence and batch size.
//!
//! ```
//! use disassociation::pipeline::{CollectSink, DatasetSource, Pipeline};
//! use disassociation::DisassociationConfig;
//! use transact::{Dataset, Record, TermId};
//!
//! # fn main() -> Result<(), disassociation::Error> {
//! let dataset = Dataset::from_records(
//!     (0..30)
//!         .map(|i| Record::from_ids([TermId::new(i % 5), TermId::new(5 + i % 3)]))
//!         .collect(),
//! );
//! let config = DisassociationConfig { k: 2, m: 2, ..Default::default() };
//!
//! let mut source = DatasetSource::new(&dataset, 10); // three 10-record batches
//! let mut sink = CollectSink::for_config(&config);
//! let summary = Pipeline::new(config)
//!     .source(&mut source)
//!     .sink(&mut sink)
//!     .threads(2)
//!     .run()?;
//!
//! assert_eq!(summary.records, 30);
//! assert_eq!(summary.batches, 3);
//! assert!(summary.simple_clusters > 0);
//! assert_eq!(sink.into_output().dataset.total_records(), 30);
//! # Ok(())
//! # }
//! ```

use crate::error::{Error, SinkError, SourceError};
use crate::incremental::{IncrementalPipeline, IncrementalRun};
use crate::model::ClusterNode;
use crate::{
    DisassociatedDataset, DisassociationConfig, DisassociationOutput, Disassociator, PhaseTimings,
};
use disassoc_obs::metrics::{gauges as obs_gauges, histograms as obs_histograms};
use disassoc_obs::trace::{self as obs_trace, Attr};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::{mpsc, Mutex, PoisonError};
use transact::io::RecordReader;
use transact::{Dataset, Record};

// ---------------------------------------------------------------------------
// The traits
// ---------------------------------------------------------------------------

/// A fallible producer of record batches, pulled one batch at a time.
///
/// Implementations exist for in-memory datasets ([`DatasetSource`]),
/// streaming transaction files ([`ReaderSource`]), infallible iterators
/// ([`IterSource`]) and — in `disassoc-store` — chunked store scans.
///
/// Contract: `Ok(None)` means the stream is exhausted (the pipeline stops
/// pulling); an `Err` aborts the run and is surfaced as
/// [`Error::Source`].  Empty batches are permitted and
/// skipped.  After an error the source will not be pulled again.
pub trait RecordSource {
    /// Pulls the next batch, `Ok(None)` at end of stream.
    fn next_batch(&mut self) -> Result<Option<Vec<Record>>, SourceError>;
}

impl<S: RecordSource + ?Sized> RecordSource for &mut S {
    fn next_batch(&mut self) -> Result<Option<Vec<Record>>, SourceError> {
        (**self).next_batch()
    }
}

/// A fallible consumer of anonymized batches.
///
/// The pipeline calls [`accept`](ChunkSink::accept) once per batch, in batch
/// order, and [`finish`](ChunkSink::finish) exactly once after the last
/// batch of a **successful** run (a failed run never calls `finish`, so a
/// file sink's partial output stays visibly truncated rather than
/// well-formed but silently short).
pub trait ChunkSink {
    /// Consumes one anonymized batch.  An `Err` aborts the run.
    fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError>;

    /// Seals the sink after a successful run (flush buffers, write
    /// trailers).  Default: no-op.
    fn finish(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
}

impl<S: ChunkSink + ?Sized> ChunkSink for &mut S {
    fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError> {
        (**self).accept(batch)
    }
    fn finish(&mut self) -> Result<(), SinkError> {
        (**self).finish()
    }
}

/// One anonymized batch, as delivered to a [`ChunkSink`].
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// 0-based index of the batch in the stream.
    pub batch_index: usize,
    /// Ordinal of the batch's first record in the overall stream.
    pub record_offset: usize,
    /// The batch's anonymization result.  `cluster_assignment` indices are
    /// *batch-local*; add [`BatchOutput::record_offset`] for stream-wide
    /// ordinals.
    pub output: DisassociationOutput,
}

/// Totals of a finished pipeline run: what was read and what was published.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Batches processed.
    pub batches: usize,
    /// Records processed.
    pub records: usize,
    /// Largest single batch seen (the per-batch bound on original-record
    /// residency).
    pub peak_batch_records: usize,
    /// Simple clusters published.
    pub simple_clusters: usize,
    /// Record chunks published.
    pub record_chunks: usize,
    /// Shared chunks published.
    pub shared_chunks: usize,
    /// Summed per-phase seconds across batches.
    pub phases: PhaseTimings,
    /// Highest refining pass count any batch used.
    pub refine_passes: usize,
    /// Whether every batch's refining step converged before its pass limit.
    pub refine_converged: bool,
}

impl Default for RunSummary {
    fn default() -> Self {
        RunSummary {
            batches: 0,
            records: 0,
            peak_batch_records: 0,
            simple_clusters: 0,
            record_chunks: 0,
            shared_chunks: 0,
            phases: PhaseTimings::default(),
            refine_passes: 0,
            // An empty run trivially converged.
            refine_converged: true,
        }
    }
}

impl RunSummary {
    /// Total anonymization time in seconds (sum over phases and batches).
    pub fn total_seconds(&self) -> f64 {
        self.phases.total()
    }

    /// Folds one batch's publication and telemetry into the totals: the one
    /// accumulator behind [`Pipeline::run`]'s summary and [`CollectSink`].
    fn add_output(&mut self, output: &DisassociationOutput) {
        let dataset = &output.dataset;
        self.simple_clusters += dataset.simple_clusters().len();
        self.record_chunks += dataset.num_record_chunks();
        self.shared_chunks += dataset.shared_chunks().len();
        self.phases.accumulate(output.phases);
        self.refine_passes = self.refine_passes.max(output.refine_passes);
        self.refine_converged &= output.refine_converged;
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// A lazy [`RecordSource`] over a borrowed in-memory [`Dataset`]: each call
/// clones out one `batch_size`-record slice, so peak *extra* residency is one
/// batch, not a second copy of the dataset (`batch_size == 0` means a single
/// batch).
///
/// Also an exact-size [`Iterator`] of `Vec<Record>` batches.
#[derive(Debug, Clone)]
pub struct DatasetSource<'a> {
    records: &'a [Record],
    pos: usize,
    batch_size: usize,
}

impl<'a> DatasetSource<'a> {
    /// Creates a source over `dataset` yielding `batch_size`-record batches
    /// (`0` = one batch holding the entire dataset).
    pub fn new(dataset: &'a Dataset, batch_size: usize) -> Self {
        Self::from_records(dataset.records(), batch_size)
    }

    /// Creates a source over a plain record slice.
    pub fn from_records(records: &'a [Record], batch_size: usize) -> Self {
        DatasetSource {
            records,
            pos: 0,
            batch_size: if batch_size == 0 {
                records.len().max(1)
            } else {
                batch_size
            },
        }
    }
}

impl Iterator for DatasetSource<'_> {
    type Item = Vec<Record>;

    fn next(&mut self) -> Option<Vec<Record>> {
        if self.pos >= self.records.len() {
            return None;
        }
        let end = (self.pos + self.batch_size).min(self.records.len());
        let batch = self.records[self.pos..end].to_vec();
        self.pos = end;
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.records.len() - self.pos).div_ceil(self.batch_size);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for DatasetSource<'_> {}

impl RecordSource for DatasetSource<'_> {
    fn next_batch(&mut self) -> Result<Option<Vec<Record>>, SourceError> {
        Ok(self.next())
    }
}

/// Adapts any infallible iterator of batches into a [`RecordSource`].
#[derive(Debug)]
pub struct IterSource<I> {
    iter: I,
}

impl<I> IterSource<I> {
    /// Wraps an iterator (anything convertible into batches of records).
    pub fn new<B, T>(iter: T) -> IterSource<I>
    where
        T: IntoIterator<Item = B, IntoIter = I>,
        I: Iterator<Item = B>,
        B: Into<Vec<Record>>,
    {
        IterSource {
            iter: iter.into_iter(),
        }
    }
}

impl<B, I> RecordSource for IterSource<I>
where
    B: Into<Vec<Record>>,
    I: Iterator<Item = B>,
{
    fn next_batch(&mut self) -> Result<Option<Vec<Record>>, SourceError> {
        Ok(self.iter.next().map(Into::into))
    }
}

/// A [`RecordSource`] streaming a numeric transaction file through
/// [`transact::io::RecordReader`]: one reused line buffer, `batch_size`
/// records per pull (`0` = the whole file as one batch).
///
/// Parse and I/O failures surface as [`SourceError`]s carrying the
/// [`transact::TransactError`] cause (with its line number) — the pipeline
/// aborts instead of silently publishing a prefix of the file.
#[derive(Debug)]
pub struct ReaderSource<R: BufRead> {
    reader: RecordReader<R>,
    batch_size: usize,
    done: bool,
}

impl ReaderSource<std::io::BufReader<std::fs::File>> {
    /// Opens a numeric transaction file for streaming.
    pub fn open<P: AsRef<std::path::Path>>(
        path: P,
        batch_size: usize,
    ) -> Result<Self, SourceError> {
        let path = path.as_ref();
        let reader = RecordReader::open(path).map_err(|e| {
            SourceError::new(format!("opening transaction file {}", path.display()), e)
        })?;
        Ok(ReaderSource::new(reader, batch_size))
    }
}

impl<R: BufRead> ReaderSource<R> {
    /// Wraps an already-open [`RecordReader`].
    pub fn new(reader: RecordReader<R>, batch_size: usize) -> Self {
        ReaderSource {
            reader,
            batch_size: if batch_size == 0 {
                usize::MAX
            } else {
                batch_size
            },
            done: false,
        }
    }
}

impl<R: BufRead> RecordSource for ReaderSource<R> {
    fn next_batch(&mut self) -> Result<Option<Vec<Record>>, SourceError> {
        if self.done {
            return Ok(None);
        }
        match self.reader.next_batch(self.batch_size) {
            Ok(batch) if batch.is_empty() => {
                self.done = true;
                Ok(None)
            }
            Ok(batch) => Ok(Some(batch)),
            Err(e) => {
                self.done = true;
                Err(SourceError::new(
                    format!(
                        "reading transaction file (around line {})",
                        self.reader.line_number()
                    ),
                    e,
                ))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Collects every batch into one combined [`DisassociationOutput`]: cluster
/// nodes concatenated in stream order, assignment indices rebased to
/// stream-wide ordinals, telemetry folded as in [`RunSummary`].
///
/// The combined output is exactly what the monolithic
/// [`Disassociator::anonymize`] produces when the whole stream fits one
/// batch; for smaller batches it is the batched publication (one independent
/// cluster forest per batch, concatenated).
#[derive(Debug)]
pub struct CollectSink {
    k: usize,
    m: usize,
    clusters: Vec<ClusterNode>,
    cluster_assignment: Vec<Vec<usize>>,
    totals: RunSummary,
}

impl CollectSink {
    /// Creates a collector publishing under the given `k` and `m`.
    pub fn new(k: usize, m: usize) -> Self {
        CollectSink {
            k,
            m,
            clusters: Vec::new(),
            cluster_assignment: Vec::new(),
            totals: RunSummary::default(),
        }
    }

    /// Creates a collector matching a pipeline configuration.
    pub fn for_config(config: &DisassociationConfig) -> Self {
        CollectSink::new(config.k, config.m)
    }

    /// The combined output collected so far.  Refine telemetry aggregates
    /// across batches: the pass count is the worst (highest) batch, and the
    /// run converged only if every batch did.
    pub fn into_output(self) -> DisassociationOutput {
        DisassociationOutput {
            dataset: DisassociatedDataset {
                k: self.k,
                m: self.m,
                clusters: self.clusters,
            },
            cluster_assignment: self.cluster_assignment,
            phases: self.totals.phases,
            refine_passes: self.totals.refine_passes,
            refine_converged: self.totals.refine_converged,
        }
    }
}

impl ChunkSink for CollectSink {
    fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError> {
        let offset = batch.record_offset;
        let output = batch.output;
        self.totals.add_output(&output);
        self.clusters.extend(output.dataset.clusters);
        self.cluster_assignment.extend(
            output
                .cluster_assignment
                .into_iter()
                .map(|indices| indices.into_iter().map(|i| i + offset).collect()),
        );
        Ok(())
    }
}

/// Wraps an infallible callback as a [`ChunkSink`].
#[derive(Debug)]
pub struct FnSink<F: FnMut(BatchOutput)> {
    f: F,
}

impl<F: FnMut(BatchOutput)> FnSink<F> {
    /// Wraps a callback.
    pub fn new(f: F) -> Self {
        FnSink { f }
    }
}

impl<F: FnMut(BatchOutput)> ChunkSink for FnSink<F> {
    fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError> {
        (self.f)(batch);
        Ok(())
    }
}

/// A streaming `.chunks.json` writer: each batch's cluster nodes are
/// serialized and written **as they arrive**, so published-output residency
/// is bounded by one batch — the whole-file JSON document is never held in
/// memory.  Each top-level node is rendered straight from the typed model by
/// the serde shim's compact JSON writer into one reused buffer that is then
/// written out whole.
///
/// The finished file is compact JSON, **byte-identical** to
/// `serde_json::to_vec(&DisassociatedDataset)` of the equivalent collected
/// output (regression-tested), so downstream consumers
/// (`disassoc reconstruct`, the metrics) cannot tell the difference.
///
/// The header is written lazily and the `]}`-trailer only by
/// [`finish`](ChunkSink::finish): a run that aborts mid-stream leaves a
/// file that **fails to parse** instead of a valid-looking but silently
/// truncated publication.
pub struct JsonChunksSink<W: Write> {
    writer: W,
    k: usize,
    m: usize,
    clusters_written: usize,
    finished: bool,
    /// One cluster node's rendering, reused across nodes.
    buf: Vec<u8>,
}

impl<W: Write> JsonChunksSink<W> {
    /// A numeric-term sink writing to `writer`.
    pub fn numeric(writer: W, config: &DisassociationConfig) -> Self {
        JsonChunksSink {
            writer,
            k: config.k,
            m: config.m,
            clusters_written: 0,
            finished: false,
            buf: Vec::new(),
        }
    }
}

impl JsonChunksSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a numeric-term chunk file at `path`.
    pub fn create<P: AsRef<std::path::Path>>(
        path: P,
        config: &DisassociationConfig,
    ) -> Result<Self, SinkError> {
        let path = path.as_ref();
        let file = std::fs::File::create(path)
            .map_err(|e| SinkError::new(format!("creating chunk file {}", path.display()), e))?;
        Ok(JsonChunksSink::numeric(
            std::io::BufWriter::new(file),
            config,
        ))
    }
}

impl<W: Write> JsonChunksSink<W> {
    /// Consumes the sink, returning the writer (after [`ChunkSink::finish`]
    /// this holds the complete document).
    pub fn into_writer(self) -> W {
        self.writer
    }

    fn write_cluster(&mut self, node: &ClusterNode) -> Result<(), SinkError> {
        let out = &mut self.buf;
        out.clear();
        if self.clusters_written == 0 {
            // The document prefix of `DisassociatedDataset { k, m, clusters }`.
            let prefix = format!("{{\"k\":{},\"m\":{},\"clusters\":[", self.k, self.m);
            out.extend_from_slice(prefix.as_bytes());
        } else {
            out.push(b',');
        }
        serde::Serialize::serialize(node, &mut serde_json::JsonWriter::compact(out));
        self.writer
            .write_all(out)
            .map_err(|e| SinkError::new("writing published chunks", e))?;
        self.clusters_written += 1;
        Ok(())
    }
}

impl<W: Write> ChunkSink for JsonChunksSink<W> {
    fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError> {
        for node in &batch.output.dataset.clusters {
            self.write_cluster(node)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        if self.finished {
            return Ok(());
        }
        let tail = if self.clusters_written == 0 {
            format!("{{\"k\":{},\"m\":{},\"clusters\":[]}}", self.k, self.m)
        } else {
            "]}".to_owned()
        };
        self.writer
            .write_all(tail.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| SinkError::new("sealing the chunk file", e))?;
        self.finished = true;
        Ok(())
    }
}

/// Fans every batch out to several sinks in order (a *tee*): sink `i + 1`
/// sees a batch only after sink `i` accepted it, and the first failure
/// aborts the run.
///
/// ```
/// use disassociation::pipeline::{ChunkSink, CollectSink, MultiSink};
/// let mut a = CollectSink::new(3, 2);
/// let mut b = CollectSink::new(3, 2);
/// let mut tee = MultiSink::new();
/// tee.push(&mut a);
/// tee.push(&mut b);
/// // pipeline.sink(&mut tee) now feeds both collectors.
/// ```
#[derive(Default)]
pub struct MultiSink<'a> {
    sinks: Vec<&'a mut dyn ChunkSink>,
}

impl<'a> MultiSink<'a> {
    /// An empty tee (accepts everything, writes nowhere).
    pub fn new() -> Self {
        MultiSink { sinks: Vec::new() }
    }

    /// Adds a downstream sink.
    pub fn push(&mut self, sink: &'a mut dyn ChunkSink) {
        self.sinks.push(sink);
    }
}

impl ChunkSink for MultiSink<'_> {
    fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError> {
        let Some((last, rest)) = self.sinks.split_last_mut() else {
            return Ok(());
        };
        for sink in rest {
            sink.accept(batch.clone())?;
        }
        last.accept(batch)
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        for sink in &mut self.sinks {
            sink.finish()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// Builder and executor of a disassociation run: configuration, a
/// [`RecordSource`], an optional [`ChunkSink`] and a thread count, composed
/// with method chaining and executed by [`run`](Pipeline::run) (or, to
/// retain per-batch state for appends, by
/// [`build_incremental`](Pipeline::build_incremental)).
///
/// Up to [`threads`](Pipeline::threads) batches are anonymized concurrently
/// on a bounded worker pool while the source is pulled and the sink is fed
/// from the calling thread; sink delivery stays in batch order, so the
/// output is byte-identical for every thread count.  The thread count is the
/// run's whole anonymization budget: each batch is anonymized on one
/// worker.
pub struct Pipeline<'a> {
    config: DisassociationConfig,
    source: Option<&'a mut dyn RecordSource>,
    sink: Option<&'a mut dyn ChunkSink>,
    threads: usize,
}

impl<'a> Pipeline<'a> {
    /// Starts a pipeline under `config` (validated by [`run`](Self::run)).
    pub fn new(config: DisassociationConfig) -> Self {
        Pipeline {
            config,
            source: None,
            sink: None,
            threads: 1,
        }
    }

    /// Sets the record source (required).
    pub fn source(mut self, source: &'a mut dyn RecordSource) -> Self {
        self.source = Some(source);
        self
    }

    /// Sets the chunk sink.  A pipeline without a sink still runs — useful
    /// for timing and validation — and simply discards the batch outputs.
    pub fn sink(mut self, sink: &'a mut dyn ChunkSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Number of worker threads anonymizing batches concurrently (`0` = one
    /// per available core; the default `1` is one worker beside the calling
    /// thread, which pulls the source and feeds the sink).  Fewer than
    /// `2 × threads` batches are live at once (`2 × threads − 1`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Executes the run: validates the configuration, pulls every batch from
    /// the source, anonymizes, delivers outputs to the sink in batch order
    /// and seals the sink.
    ///
    /// On failure the typed [`Error`] tells which stage failed and preserves
    /// the cause chain; every batch accepted by the sink before the failure
    /// stays accepted, and [`ChunkSink::finish`] is *not* called.
    pub fn run(self) -> Result<RunSummary, Error> {
        let Pipeline {
            config,
            source,
            mut sink,
            threads,
        } = self;
        let disassociator = Disassociator::try_new(config)?;
        let source = source.ok_or(Error::MissingSource)?;
        let summary = drive(
            source,
            threads,
            |records| disassociator.anonymize_owned(Dataset::from_records(records)),
            |done| match sink.as_mut() {
                Some(sink) => sink
                    .accept(BatchOutput {
                        batch_index: done.index,
                        record_offset: done.offset,
                        output: done.output,
                    })
                    .map_err(Error::Sink),
                None => Ok(()),
            },
        )?;
        if let Some(sink) = sink {
            sink.finish().map_err(Error::Sink)?;
        }
        Ok(summary)
    }

    /// Runs [`IncrementalRun::build`] on every batch of the source under the
    /// same thread budget as [`run`](Self::run), retaining each batch's
    /// state so later appends re-anonymize only what they touch.
    ///
    /// Nothing is delivered here: the returned pipeline starts with every
    /// batch dirty and publishes through
    /// [`IncrementalPipeline::publish_all`] /
    /// [`publish_dirty`](IncrementalPipeline::publish_dirty), so a sink set
    /// on this builder is not used.  Each batch's publication is
    /// byte-identical to [`run`](Self::run)'s for any thread count.
    pub fn build_incremental(self) -> Result<IncrementalPipeline, Error> {
        let disassociator = Disassociator::try_new(self.config)?;
        let source = self.source.ok_or(Error::MissingSource)?;
        let mut runs = Vec::new();
        drive(
            source,
            self.threads,
            |records| IncrementalRun::build(disassociator.clone(), Dataset::from_records(records)),
            |done| {
                runs.push(done.output);
                Ok(())
            },
        )?;
        Ok(IncrementalPipeline::from_runs(disassociator, runs))
    }
}

/// What a batch job returns: anything carrying its per-phase timings, which
/// the driver reports per batch, and what it adds to the run's totals.
trait BatchResult: Send {
    fn phases(&self) -> PhaseTimings;
    fn tally(&self, summary: &mut RunSummary);
}

impl BatchResult for DisassociationOutput {
    fn phases(&self) -> PhaseTimings {
        self.phases
    }
    fn tally(&self, summary: &mut RunSummary) {
        summary.add_output(self);
    }
}

impl BatchResult for IncrementalRun {
    fn phases(&self) -> PhaseTimings {
        IncrementalRun::phases(self)
    }
    /// A build publishes nothing yet (its summary is discarded), so only the
    /// driver's record and batch counts apply.
    fn tally(&self, _summary: &mut RunSummary) {}
}

/// One finished batch: its position in the stream and its job's result.
struct Done<O> {
    index: usize,
    offset: usize,
    len: usize,
    output: O,
}

/// The batch driver shared by [`Pipeline::run`] and
/// [`Pipeline::build_incremental`]: runs `job` on every non-empty batch of
/// `source` on a pool of `threads` workers (`0` = one per core) while the
/// calling thread pulls the source and hands each result to `consume` in
/// batch order.  The first source or `consume` error aborts the run; a
/// panicking job is re-raised on the calling thread.
fn drive<O, J, C>(
    source: &mut dyn RecordSource,
    threads: usize,
    job: J,
    mut consume: C,
) -> Result<RunSummary, Error>
where
    O: BatchResult,
    J: Fn(Vec<Record>) -> O + Sync,
    C: FnMut(Done<O>) -> Result<(), Error>,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    } else {
        threads
    };
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<WorkerResult<O>>();
    let job = &job;
    // The scope joins every worker before it returns.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = &job_rx;
            let tx = done_tx.clone();
            scope.spawn(move || loop {
                // The lock is released as soon as `recv` returns: holding it
                // across the blocking wait is what makes the shared receiver
                // act as a work queue.  Nothing panics while holding it, so a
                // poisoned lock still guards a valid receiver.
                let next = { rx.lock().unwrap_or_else(PoisonError::into_inner).recv() };
                let Ok(Job {
                    index,
                    offset,
                    records,
                }) = next
                else {
                    break;
                };
                let len = records.len();
                // A panicking batch is shipped back to the driver instead of
                // unwinding here: with other workers still parked on the job
                // queue, a local unwind would leave the driver blocked on
                // `done_rx.recv()` forever (deadlock, not failure).
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(records)));
                let poisoned = result.is_err();
                let done = result.map(|output| Done {
                    index,
                    offset,
                    len,
                    output,
                });
                if tx.send(done).is_err() || poisoned {
                    break; // driver gave up (error path) or this worker died
                }
            });
        }
        drop(done_tx);
        // On an early error return the channels are dropped here, which
        // unblocks every worker (recv/send fail) before the scope joins.
        feed(source, &mut consume, job_tx, done_rx, threads)
    })
}

/// Reports one finished batch, folds it into the totals and hands it to
/// `consume`.
fn deliver<O: BatchResult>(
    consume: &mut impl FnMut(Done<O>) -> Result<(), Error>,
    summary: &mut RunSummary,
    done: Done<O>,
) -> Result<(), Error> {
    let batch_seconds = done.output.phases().total();
    let (index, records) = (done.index, done.len);
    obs_gauges::CORE_LAST_BATCH_RECORDS.set(records as u64);
    obs_histograms::CORE_BATCH_MICROS.record((batch_seconds * 1e6) as u64);
    if obs_trace::enabled() {
        obs_trace::event(
            disassoc_obs::names::EVENT_PIPELINE_BATCH,
            &[
                ("batch", Attr::U64(index as u64)),
                ("records", Attr::U64(records as u64)),
                ("total_s", Attr::F64(batch_seconds)),
            ],
        );
    }
    done.output.tally(summary);
    consume(done)?;
    summary.batches += 1;
    summary.records += records;
    summary.peak_batch_records = summary.peak_batch_records.max(records);
    Ok(())
}

struct Job {
    index: usize,
    offset: usize,
    records: Vec<Record>,
}

/// What a worker sends back: a finished batch, or the panic payload of a
/// batch that unwound (re-raised on the driver thread).
type WorkerResult<O> = Result<Done<O>, Box<dyn std::any::Any + Send + 'static>>;

fn feed<O: BatchResult>(
    source: &mut dyn RecordSource,
    consume: &mut impl FnMut(Done<O>) -> Result<(), Error>,
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<WorkerResult<O>>,
    threads: usize,
) -> Result<RunSummary, Error> {
    // The submission window is measured from the *consumer frontier*
    // (`next_deliver`), not from worker completions: it caps in-flight jobs
    // AND the reorder buffer together, so live batches stay bounded even
    // when the head-of-line batch is much slower than its successors
    // (otherwise `pending` could grow towards the whole dataset).  It holds
    // the head-of-line batch plus, for each other worker, one batch running
    // and one finished ahead of the head: 2 × threads − 1 in all, which is
    // one batch at a time for a single worker.
    let window = threads * 2 - 1;
    let mut summary = RunSummary::default();
    let mut pending: BTreeMap<usize, Done<O>> = BTreeMap::new();
    let mut next_deliver = 0usize;
    let mut submitted = 0usize;
    let mut offset = 0usize;
    let mut in_flight = 0usize;
    let mut source_done = false;
    loop {
        while !source_done && submitted - next_deliver < window {
            match source.next_batch().map_err(Error::Source)? {
                None => source_done = true,
                Some(r) if r.is_empty() => {}
                Some(records) => {
                    let job = Job {
                        index: submitted,
                        offset,
                        records,
                    };
                    offset += job.records.len();
                    submitted += 1;
                    in_flight += 1;
                    // lint:allow(panic, "workers hold the receiver for the scope lifetime; a worker panic is re-raised at the scope join")
                    job_tx.send(job).expect("worker pool unavailable");
                }
            }
        }
        if in_flight == 0 && source_done {
            break;
        }
        let done = match done_rx
            .recv()
            // lint:allow(panic, "workers hold the sender while jobs are in flight; a worker panic is re-raised at the scope join")
            .expect("a worker exited while batches were in flight")
        {
            Ok(done) => done,
            // Re-raise a worker panic on the driver thread; unwinding drops
            // the channels, which unblocks the remaining workers before the
            // scope joins them.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        in_flight -= 1;
        pending.insert(done.index, done);
        while let Some(done) = pending.remove(&next_deliver) {
            next_deliver += 1;
            deliver(consume, &mut summary, done)?;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfigError;
    use transact::TermId;

    fn rec(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    fn workload(n: u32) -> Dataset {
        Dataset::from_records(
            (0..n)
                .map(|i| rec(&[i % 5, 5 + (i % 3), 10 + (i % 7), 20 + (i % 2)]))
                .collect(),
        )
    }

    fn config() -> DisassociationConfig {
        DisassociationConfig {
            k: 3,
            m: 2,
            max_cluster_size: 8,
            seed: 11,
            ..Default::default()
        }
    }

    fn collect_run(threads: usize, batch: usize, n: u32) -> (DisassociationOutput, RunSummary) {
        let d = workload(n);
        let mut source = DatasetSource::new(&d, batch);
        let mut sink = CollectSink::for_config(&config());
        let summary = Pipeline::new(config())
            .source(&mut source)
            .sink(&mut sink)
            .threads(threads)
            .run()
            .unwrap();
        (sink.into_output(), summary)
    }

    #[test]
    fn serial_pipeline_matches_the_monolithic_path() {
        let d = workload(40);
        let mono = Disassociator::new(config()).anonymize(&d);
        let (out, summary) = collect_run(1, 0, 40);
        assert_eq!(summary.batches, 1);
        assert_eq!(summary.records, 40);
        assert_eq!(out.dataset, mono.dataset);
        assert_eq!(out.cluster_assignment, mono.cluster_assignment);
    }

    #[test]
    fn thread_count_does_not_change_the_output() {
        // Everything but the wall-clock phase timings must agree.
        let untimed = |s: RunSummary| RunSummary {
            phases: PhaseTimings::default(),
            ..s
        };
        let (serial, s1) = collect_run(1, 16, 50);
        for threads in [2, 4, 0] {
            let (parallel, sn) = collect_run(threads, 16, 50);
            assert_eq!(serial.dataset, parallel.dataset, "threads {threads}");
            assert_eq!(serial.cluster_assignment, parallel.cluster_assignment);
            assert_eq!(untimed(s1), untimed(sn));
        }
    }

    #[test]
    fn parallel_delivery_is_in_batch_order_with_correct_offsets() {
        let d = workload(55);
        let mut source = DatasetSource::new(&d, 10);
        let mut seen = Vec::new();
        let mut sink = FnSink::new(|b: BatchOutput| {
            seen.push((b.batch_index, b.record_offset));
        });
        let summary = Pipeline::new(config())
            .source(&mut source)
            .sink(&mut sink)
            .threads(4)
            .run()
            .unwrap();
        assert_eq!(summary.batches, 6);
        assert_eq!(summary.peak_batch_records, 10);
        assert_eq!(
            seen,
            vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]
        );
    }

    #[test]
    fn missing_source_is_a_typed_error() {
        match Pipeline::new(config()).run() {
            Err(Error::MissingSource) => {}
            other => panic!("expected MissingSource, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let d = workload(10);
        let mut source = DatasetSource::new(&d, 0);
        let err = Pipeline::new(DisassociationConfig {
            k: 1,
            ..Default::default()
        })
        .source(&mut source)
        .run()
        .unwrap_err();
        assert!(matches!(
            err,
            Error::Config(ConfigError::KTooSmall { k: 1 })
        ));
    }

    /// A source that fails after yielding `ok_batches` batches.
    struct FailingSource {
        inner: Vec<Vec<Record>>,
        pos: usize,
        ok_batches: usize,
    }

    impl RecordSource for FailingSource {
        fn next_batch(&mut self) -> Result<Option<Vec<Record>>, SourceError> {
            if self.pos >= self.ok_batches {
                return Err(SourceError::new(
                    format!("synthetic failure after batch {}", self.pos),
                    std::io::Error::other("simulated media error"),
                ));
            }
            let batch = self.inner.get(self.pos).cloned();
            self.pos += 1;
            Ok(batch)
        }
    }

    #[test]
    fn source_failure_aborts_and_preserves_the_cause() {
        for threads in [1, 3] {
            let d = workload(40);
            let mut source = FailingSource {
                inner: DatasetSource::new(&d, 10).collect(),
                pos: 0,
                ok_batches: 2,
            };
            let mut sink = CollectSink::for_config(&config());
            let err = Pipeline::new(config())
                .source(&mut source)
                .sink(&mut sink)
                .threads(threads)
                .run()
                .unwrap_err();
            let rendered = crate::error::render_chain(&err);
            assert!(rendered.contains("synthetic failure"), "{rendered}");
            assert!(rendered.contains("simulated media error"), "{rendered}");
        }
    }

    /// A sink that rejects batch `fail_at`.
    struct FailingSink {
        accepted: usize,
        fail_at: usize,
        finished: bool,
    }

    impl ChunkSink for FailingSink {
        fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError> {
            if batch.batch_index >= self.fail_at {
                return Err(SinkError::message("no space left on synthetic device"));
            }
            self.accepted += 1;
            Ok(())
        }
        fn finish(&mut self) -> Result<(), SinkError> {
            self.finished = true;
            Ok(())
        }
    }

    #[test]
    fn sink_failure_aborts_without_sealing() {
        for threads in [1, 4] {
            let d = workload(60);
            let mut source = DatasetSource::new(&d, 10);
            let mut sink = FailingSink {
                accepted: 0,
                fail_at: 2,
                finished: false,
            };
            let err = Pipeline::new(config())
                .source(&mut source)
                .sink(&mut sink)
                .threads(threads)
                .run()
                .unwrap_err();
            assert!(matches!(err, Error::Sink(_)), "{err:?}");
            assert_eq!(sink.accepted, 2, "in-order delivery up to the failure");
            assert!(!sink.finished, "a failed run must not seal the sink");
        }
    }

    #[test]
    fn empty_stream_yields_an_empty_summary_and_sealed_sink() {
        let empty = Dataset::new();
        let mut source = DatasetSource::new(&empty, 4);
        let mut sink = CollectSink::for_config(&config());
        let summary = Pipeline::new(config())
            .source(&mut source)
            .sink(&mut sink)
            .run()
            .unwrap();
        assert_eq!(summary, RunSummary::default());
        assert_eq!(sink.into_output().dataset.total_records(), 0);
    }

    #[test]
    fn empty_batches_are_skipped() {
        let batches: Vec<Vec<Record>> = vec![vec![], vec![rec(&[1]); 6], vec![]];
        let mut source = IterSource::new(batches);
        let mut sink = CollectSink::for_config(&config());
        let summary = Pipeline::new(config())
            .source(&mut source)
            .sink(&mut sink)
            .run()
            .unwrap();
        assert_eq!(summary.batches, 1);
        assert_eq!(sink.into_output().dataset.total_records(), 6);
    }

    #[test]
    fn reader_source_streams_files_and_reports_line_numbers() {
        let input = "1 2 3\n4 5\n6\nbad line\n";
        let mut source = ReaderSource::new(RecordReader::new(input.as_bytes()), 2);
        assert_eq!(source.next_batch().unwrap().unwrap().len(), 2);
        let err = source.next_batch().unwrap_err();
        let rendered = crate::error::render_chain(&err);
        assert!(rendered.contains("line 4"), "{rendered}");
        // Fused after failure.
        assert!(source.next_batch().unwrap().is_none());
    }

    #[test]
    fn dataset_source_is_lazy_and_exact_sized() {
        let d = workload(10);
        let mut src = DatasetSource::new(&d, 4);
        assert_eq!(src.len(), 3);
        assert_eq!(src.next().unwrap().len(), 4);
        assert_eq!(src.len(), 2);
        assert_eq!(DatasetSource::new(&d, 0).len(), 1);
        assert_eq!(DatasetSource::new(&Dataset::new(), 4).len(), 0);
        let flat: Vec<Record> = DatasetSource::new(&d, 3).flatten().collect();
        assert_eq!(flat, d.records());
    }

    #[test]
    fn multi_sink_tees_batches_to_every_branch() {
        let d = workload(30);
        let mut a = CollectSink::for_config(&config());
        let mut b = CollectSink::for_config(&config());
        {
            let mut tee = MultiSink::new();
            tee.push(&mut a);
            tee.push(&mut b);
            let mut source = DatasetSource::new(&d, 8);
            Pipeline::new(config())
                .source(&mut source)
                .sink(&mut tee)
                .run()
                .unwrap();
        }
        let (a, b) = (a.into_output(), b.into_output());
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.dataset.total_records(), 30);
    }

    #[test]
    fn json_chunks_sink_matches_the_collected_pretty_serialization() {
        let d = workload(45);
        for (threads, batch) in [(1, 0), (1, 16), (4, 16)] {
            let mut collect = CollectSink::for_config(&config());
            let mut file = JsonChunksSink::numeric(Vec::new(), &config());
            {
                let mut tee = MultiSink::new();
                tee.push(&mut collect);
                tee.push(&mut file);
                let mut source = DatasetSource::new(&d, batch);
                Pipeline::new(config())
                    .source(&mut source)
                    .sink(&mut tee)
                    .threads(threads)
                    .run()
                    .unwrap();
            }
            let streamed = file.into_writer();
            let collected = collect.into_output().dataset;
            assert_eq!(
                streamed,
                serde_json::to_vec(&collected).unwrap(),
                "threads {threads} batch {batch}: streamed chunk file must be byte-identical"
            );
            // The pretty rendering of what was streamed is the collected
            // output's pretty rendering: the compact file loses nothing.
            let decoded: DisassociatedDataset = serde_json::from_slice(&streamed).unwrap();
            assert_eq!(
                serde_json::to_vec_pretty(&decoded).unwrap(),
                serde_json::to_vec_pretty(&collected).unwrap()
            );
        }
    }

    #[test]
    fn json_chunks_sink_empty_run_produces_the_empty_document() {
        let empty = Dataset::new();
        let mut sink = JsonChunksSink::numeric(Vec::new(), &config());
        let mut source = DatasetSource::new(&empty, 4);
        Pipeline::new(config())
            .source(&mut source)
            .sink(&mut sink)
            .run()
            .unwrap();
        let written = sink.into_writer();
        let expected = serde_json::to_vec(&DisassociatedDataset {
            k: config().k,
            m: config().m,
            clusters: Vec::new(),
        })
        .unwrap();
        assert_eq!(written, expected);
    }

    #[test]
    fn run_summary_totals_match_the_published_dataset() {
        let d = workload(40);
        for threads in [1, 3] {
            let mut sink = CollectSink::for_config(&config());
            let mut source = DatasetSource::new(&d, 20);
            let summary = Pipeline::new(config())
                .source(&mut source)
                .sink(&mut sink)
                .threads(threads)
                .run()
                .unwrap();
            let out = sink.into_output();
            assert_eq!(summary.records, 40);
            assert_eq!(summary.records, out.dataset.total_records());
            assert!(summary.simple_clusters > 0);
            assert_eq!(summary.simple_clusters, out.dataset.simple_clusters().len());
            assert_eq!(summary.record_chunks, out.dataset.num_record_chunks());
            assert_eq!(summary.shared_chunks, out.dataset.shared_chunks().len());
            assert_eq!(summary.phases, out.phases);
            assert!(summary.total_seconds() >= 0.0);
        }
    }

    #[test]
    fn refine_telemetry_aggregates_across_batches() {
        let d = workload(60);
        let mut collect = CollectSink::for_config(&config());
        let mut source = DatasetSource::new(&d, 20);
        let summary = Pipeline::new(config())
            .source(&mut source)
            .sink(&mut collect)
            .run()
            .unwrap();
        let out = collect.into_output();
        assert!(
            out.refine_passes >= 1,
            "refining ran on multi-cluster batches"
        );
        assert!(
            out.refine_converged,
            "this workload converges well below the cap"
        );
        assert_eq!(summary.refine_passes, out.refine_passes);
        assert_eq!(summary.refine_converged, out.refine_converged);
        // An empty run reports trivial convergence.
        assert!(RunSummary::default().refine_converged);
        assert_eq!(RunSummary::default().refine_passes, 0);
    }

    /// A batch whose job panics: the payload reaches the caller, every
    /// earlier batch is delivered in order first, and nothing is sealed.
    #[test]
    fn worker_panic_is_re_raised_after_in_order_delivery_without_sealing() {
        use std::sync::Condvar;
        use std::time::Duration;
        // Batch `i` is ten copies of the record `{i}`.
        let batches: Vec<Vec<Record>> = (0..5).map(|i| vec![rec(&[i]); 10]).collect();
        for threads in [1, 3] {
            let disassociator = Disassociator::new(config());
            // Batches delivered so far, and its change signal.
            let delivered = (Mutex::new(0usize), Condvar::new());
            let job = |records: Vec<Record>| {
                if records[0] == rec(&[2]) {
                    // Panic only once batches 0 and 1 reached the sink, so
                    // the order of worker completions cannot hide them.
                    let (count, changed) = &delivered;
                    let guard = count.lock().unwrap();
                    let timeout = Duration::from_secs(30);
                    drop(
                        changed
                            .wait_timeout_while(guard, timeout, |n| *n < 2)
                            .unwrap(),
                    );
                    panic!("synthetic failure in batch 2");
                }
                disassociator.anonymize_owned(Dataset::from_records(records))
            };
            let mut source = IterSource::new(batches.clone());
            let mut seen = Vec::new();
            let mut sink = FailingSink {
                accepted: 0,
                fail_at: usize::MAX,
                finished: false,
            };
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The body of `Pipeline::run`: deliver in order, then seal.
                drive(&mut source, threads, job, |done| {
                    seen.push(done.index);
                    sink.accept(BatchOutput {
                        batch_index: done.index,
                        record_offset: done.offset,
                        output: done.output,
                    })
                    .map_err(Error::Sink)?;
                    *delivered.0.lock().unwrap() += 1;
                    delivered.1.notify_all();
                    Ok(())
                })?;
                sink.finish().map_err(Error::Sink)
            }))
            .expect_err("the worker panic reaches the caller");
            let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "synthetic failure in batch 2", "threads {threads}");
            assert_eq!(seen, vec![0, 1], "threads {threads}");
            assert!(
                !sink.finished,
                "threads {threads}: a panicked run is not sealed"
            );
        }
    }
}
