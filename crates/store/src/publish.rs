//! Atomic publication of anonymized chunks, one file per pipeline batch.
//!
//! A [`ChunkDir`] is the durable output side of a store-backed run: each
//! batch's published clusters live in their own `batch-<i>.g<gen>.json`
//! file, and a small manifest (`CHUNKS.json`) names the current file of
//! every batch.  Writes are two-phase:
//!
//! 1. [`accept`](ChunkDir::accept) stages each batch file (write + fsync)
//!    under a generation-tagged name the manifest does not yet reference;
//! 2. [`finish`](ChunkDir::finish) commits them all with one atomic
//!    manifest replace (write temp, fsync, rename).
//!
//! The manifest rename is the *only* commit point, so a crash anywhere in a
//! republish leaves the directory with either the complete old chunk set or
//! the complete new one — never a mix.  Orphans of a crash (staged files, a
//! temp manifest) are swept on the next [`ChunkDir::open`], by the store's
//! one commit protocol (`commit.rs`) that also commits the flat file below.
//!
//! An incremental append republishes only dirty batches: unchanged batches
//! keep their old files byte-for-byte (and their manifest entries), which
//! makes "clean chunks were not rewritten" directly observable from the
//! file system.
//!
//! Term-filtered reads ([`ChunkDir::filtered_json`], the daemon's
//! `GET /datasets/{name}/chunks?term=`) are served from an in-memory read
//! index keyed by committed file name: per batch, its `k`/`m`, the compact
//! JSON of every top-level cluster in one buffer, and term → cluster
//! postings.  A batch is decoded into the index on the first filtered read
//! that reaches it (`store.chunk_index_loads`); after that a read only
//! copies the matching clusters' bytes.  File names carry the generation
//! and a committed file is never rewritten, so an entry cannot go stale;
//! a commit drops the entries of the files it replaced.  The index costs
//! about the compact publication's size, held as long as the `ChunkDir`.
//!
//! The module also holds the publication protocol the CLI and the daemon
//! share: [`publish_flat_file`] (the single-file `.chunks.json`
//! publication, optionally teed with a [`ChunkDir`]: stage as `.partial`,
//! commit with [`commit_flat_file`], remove on error), which both a full
//! anonymization and an [`AppendJob`] (rebuild from the store, append,
//! persist, republish) publish through, at the one default batch size
//! [`DEFAULT_BATCH_SIZE`].

use crate::commit::{self, ManifestFile};
use crate::failpoints::{self, CLI_PUBLISH_RENAME, CLI_PUBLISH_SYNC};
use crate::{Result, Store, StoreError};
use disassoc_obs::metrics::counters as obs_counters;
use disassociation::model::DisassociatedDataset;
use disassociation::pipeline::{JsonChunksSink, MultiSink};
use disassociation::{
    AppendOptions, AppendOutcome, BatchOutput, ChunkSink, DisassociationConfig, Pipeline, SinkError,
};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use transact::{Record, TermId};

/// File name of the chunk manifest inside a publication directory.
pub const CHUNK_MANIFEST_FILE: &str = "CHUNKS.json";
/// Current chunk-manifest format version.
pub const CHUNK_MANIFEST_VERSION: u32 = 1;

/// The chunk manifest's file names and failpoint sites.
const FILE: ManifestFile = ManifestFile {
    name: CHUNK_MANIFEST_FILE,
    tmp: "CHUNKS.tmp",
    owns: ("batch-", ".json"),
    write: failpoints::PUBLISH_COMMIT_WRITE,
    sync: failpoints::PUBLISH_COMMIT_SYNC,
    rename: failpoints::PUBLISH_COMMIT_RENAME,
    gc: failpoints::PUBLISH_GC,
};

/// One published batch, as recorded in the chunk manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkEntry {
    /// Pipeline batch index this file publishes.
    pub batch_index: usize,
    /// Offset of the batch's first record in the canonical record order.
    pub record_offset: usize,
    /// File name relative to the publication directory.
    pub file: String,
    /// The publish generation that wrote this file.
    pub generation: u64,
}

/// The chunk manifest document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkManifest {
    /// Format version (for forward compatibility).
    pub version: u32,
    /// The last committed publish generation (0 = nothing published).
    pub generation: u64,
    /// Current file of every published batch, sorted by batch index.
    pub batches: Vec<ChunkEntry>,
}

impl Default for ChunkManifest {
    fn default() -> Self {
        ChunkManifest {
            version: CHUNK_MANIFEST_VERSION,
            generation: 0,
            batches: Vec::new(),
        }
    }
}

/// Commits a fully written `.partial` file onto `final_path`: fsync, atomic
/// rename (the commit point), directory fsync.  Every flat-file publication
/// — the CLI's and the daemon's — routes through here via
/// [`publish_flat_file`] under the [`failpoints::CLI_SITES`] seam, so a
/// crash leaves the complete old or the complete new publication.  On error
/// the staged file is left in place for the caller to clean up.
pub fn commit_flat_file(partial: &Path, final_path: &Path) -> Result<()> {
    commit::sync_and_rename(partial, final_path, CLI_PUBLISH_SYNC, CLI_PUBLISH_RENAME)
}

/// Publishes a flat `.chunks.json` file at `final_path`, and to
/// `chunk_dir` when one is given.
///
/// `write` streams the publication into one sink: a [`JsonChunksSink`] over
/// the `<final_path>.partial` sibling, or — with a `chunk_dir` — a
/// [`MultiSink`] tee feeding the [`ChunkDir`] first and the file second, so
/// a sealed tee commits the directory before the file.  The file is sealed
/// and committed with [`commit_flat_file`] only after `write` succeeded.
/// On any error the partial file is removed, so a failed run never destroys
/// an existing publication nor leaves a valid-looking truncated one behind.
pub fn publish_flat_file<T, E>(
    final_path: &Path,
    config: &DisassociationConfig,
    chunk_dir: Option<&mut ChunkDir>,
    write: impl FnOnce(&mut dyn ChunkSink) -> std::result::Result<T, E>,
) -> std::result::Result<T, E>
where
    E: From<StoreError> + From<SinkError>,
{
    let mut partial = final_path.as_os_str().to_owned();
    partial.push(".partial");
    let partial = PathBuf::from(partial);
    let result = JsonChunksSink::create(&partial, config)
        .map_err(E::from)
        .and_then(|mut file| {
            let value = match chunk_dir {
                Some(dir) => {
                    let mut tee = MultiSink::new();
                    tee.push(dir);
                    tee.push(&mut file);
                    write(&mut tee)?
                }
                None => write(&mut file)?,
            };
            file.finish()?;
            drop(file);
            commit_flat_file(&partial, final_path)?;
            Ok(value)
        });
    if result.is_err() {
        std::fs::remove_file(&partial).ok();
    }
    result
}

/// Records per pipeline batch when the caller names none: the batching of
/// `disassoc anonymize --store`, `disassoc append` and the daemon's jobs
/// alike, so their publications match byte for byte.
pub const DEFAULT_BATCH_SIZE: usize = 8192;

/// One incremental append against a record store — the protocol shared by
/// `disassoc append` and the daemon's append job.
#[derive(Debug, Clone)]
pub struct AppendJob<'a> {
    /// The anonymization parameters of the publication.
    pub config: &'a DisassociationConfig,
    /// How far the append may dirty existing clusters.
    pub options: AppendOptions,
    /// Store-scan batch size of the rebuild (the publication's batching).
    pub batch_size: usize,
    /// Thread budget of the rebuild (`0` = one per core), as in
    /// [`Pipeline::threads`].
    pub threads: usize,
}

/// What an [`AppendJob`] did.
#[derive(Debug, Clone, Copy)]
pub struct Appended {
    /// The incremental append's outcome.
    pub outcome: AppendOutcome,
    /// Pipeline batches after the append.
    pub batches: usize,
}

impl AppendJob<'_> {
    /// Rebuilds the incremental state from `store`'s records, routes
    /// `records` into it, persists them (`append_batch` + `flush`), then
    /// republishes once: as the flat file `flat_file` via
    /// [`publish_flat_file`] (teed with `chunk_dir`), or to `chunk_dir`
    /// alone.  The rebuild leaves every batch dirty, so every batch is
    /// delivered to `chunk_dir`; what leaves clean batch files untouched is
    /// [`ChunkDir`]'s skip of byte-identical content.
    pub fn run<E>(
        &self,
        store: &mut Store,
        records: &[Record],
        chunk_dir: Option<&mut ChunkDir>,
        flat_file: Option<&Path>,
    ) -> std::result::Result<Appended, E>
    where
        E: From<StoreError> + From<SinkError> + From<disassociation::Error>,
    {
        let mut pipeline = {
            let mut source = store.source(self.batch_size);
            Pipeline::new(self.config.clone())
                .source(&mut source)
                .threads(self.threads)
                .build_incremental()?
        };
        let outcome = pipeline.append_with(records, &self.options);
        store.append_batch(records)?;
        store.flush()?;
        match (flat_file, chunk_dir) {
            (Some(path), chunk_dir) => {
                publish_flat_file(path, self.config, chunk_dir, |sink| {
                    pipeline.publish_all(sink).map_err(E::from)
                })?;
            }
            (None, Some(chunk_dir)) => {
                pipeline.publish_all(chunk_dir)?;
            }
            (None, None) => {}
        }
        Ok(Appended {
            outcome,
            batches: pipeline.batch_count(),
        })
    }
}

/// The on-disk content of one published batch file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchChunks {
    /// Pipeline batch index.
    pub batch_index: usize,
    /// Offset of the batch's first record in the canonical record order.
    pub record_offset: usize,
    /// The batch's published clusters.
    pub dataset: DisassociatedDataset,
}

/// The compact JSON of `batch` as a [`BatchChunks`], written field by field
/// from the borrowed batch so staging never copies its clusters.
fn batch_file_bytes(batch: &BatchOutput) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut out = serde_json::JsonWriter::compact(&mut bytes);
    out.begin_object();
    out.field("batch_index", &batch.batch_index);
    out.field("record_offset", &batch.record_offset);
    out.field("dataset", &batch.output.dataset);
    out.end_object();
    bytes
}

/// A manifest-committed directory of published chunk files — the
/// [`ChunkSink`] for store-backed (and incremental) runs.
///
/// Accepted batches are staged; nothing becomes visible until `finish`
/// commits the manifest.  Dropping a `ChunkDir` with staged, uncommitted
/// batches simply leaves orphan files for the next open to collect — the
/// previously committed chunk set stays intact.
#[derive(Debug)]
pub struct ChunkDir {
    dir: PathBuf,
    manifest: ChunkManifest,
    staged: Vec<ChunkEntry>,
    /// The read index of committed batch files, keyed by file name; filled
    /// by the first filtered read of each.  Its only updates are inserting
    /// a fully built entry and dropping entries, so a guard poisoned by a
    /// panic elsewhere still holds a valid index and is recovered.
    index: Mutex<HashMap<String, BatchIndex>>,
}

/// One committed batch file as the term-filtered read serves it.
#[derive(Debug)]
struct BatchIndex {
    k: usize,
    m: usize,
    /// The compact JSON of every top-level cluster, back to back.
    bytes: Vec<u8>,
    /// End offset in `bytes` of each cluster.
    ends: Vec<usize>,
    /// Term → ascending indices of the clusters that mention it, by
    /// `ClusterNode::any_term` (the walk of `mentions_term`).
    postings: HashMap<TermId, Vec<usize>>,
}

impl BatchIndex {
    fn build(dataset: &DisassociatedDataset) -> BatchIndex {
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(dataset.clusters.len());
        let mut postings: HashMap<TermId, Vec<usize>> = HashMap::new();
        for (i, cluster) in dataset.clusters.iter().enumerate() {
            cluster.serialize(&mut serde_json::JsonWriter::compact(&mut bytes));
            ends.push(bytes.len());
            cluster.any_term(&mut |term| {
                let list = postings.entry(term).or_default();
                if list.last() != Some(&i) {
                    list.push(i);
                }
                false
            });
        }
        BatchIndex {
            k: dataset.k,
            m: dataset.m,
            bytes,
            ends,
            postings,
        }
    }

    /// Appends the clusters that mention `term` to `out`, each preceded by
    /// a `,` unless `out` ends with the opening `[`.
    fn write_matching(&self, term: TermId, out: &mut Vec<u8>) {
        for &i in self.postings.get(&term).into_iter().flatten() {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            if out.last() != Some(&b'[') {
                out.push(b',');
            }
            out.extend_from_slice(&self.bytes[start..self.ends[i]]);
        }
    }
}

/// Checks that `entry` was published under the (k, m) of the batches
/// before it.
fn same_params(entry: &ChunkEntry, found: (usize, usize), expected: (usize, usize)) -> Result<()> {
    if found == expected {
        return Ok(());
    }
    Err(StoreError::corrupt(format!(
        "batch {} was published with (k={}, m={}), expected (k={}, m={})",
        entry.batch_index, found.0, found.1, expected.0, expected.1
    )))
}

impl ChunkDir {
    /// Opens (creating if needed) a publication directory, loading its
    /// manifest and sweeping the `batch-*.json` files and temp manifest a
    /// crashed publish left unreferenced.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ChunkDir> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let manifest = FILE.load_json_or_default(&dir, |m: &ChunkManifest| match m.version {
            CHUNK_MANIFEST_VERSION => Ok(()),
            v => Err(format!("unsupported chunk manifest version {v}")),
        })?;
        FILE.sweep(&dir, manifest.batches.iter().map(|b| b.file.as_str()))?;
        Ok(ChunkDir {
            dir,
            manifest,
            staged: Vec::new(),
            index: Mutex::default(),
        })
    }

    /// The publication directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed manifest.
    pub fn manifest(&self) -> &ChunkManifest {
        &self.manifest
    }

    /// True when no publish has ever been committed here.
    pub fn is_empty(&self) -> bool {
        self.manifest.batches.is_empty()
    }

    /// Per committed batch: its publish generation, sorted by batch index.
    /// A batch whose generation did not move was not rewritten.
    pub fn generations(&self) -> Vec<(usize, u64)> {
        self.manifest
            .batches
            .iter()
            .map(|b| (b.batch_index, b.generation))
            .collect()
    }

    /// Reads the committed chunk file of `batch_index`.
    pub fn read_batch(&self, batch_index: usize) -> Result<BatchChunks> {
        let entry = self
            .manifest
            .batches
            .iter()
            .find(|b| b.batch_index == batch_index)
            .ok_or_else(|| StoreError::corrupt(format!("batch {batch_index} is not published")))?;
        self.read_entry(entry)
    }

    fn read_entry(&self, entry: &ChunkEntry) -> Result<BatchChunks> {
        commit::read_json(&self.dir.join(&entry.file), |_| Ok(()))
    }

    /// The combined published dataset across all committed batches, in
    /// batch order; every batch must have been published under the same
    /// (k, m).  Returns `None` when nothing is published.
    pub fn combined_dataset(&self) -> Result<Option<DisassociatedDataset>> {
        let mut combined: Option<DisassociatedDataset> = None;
        for entry in &self.manifest.batches {
            let batch = self.read_entry(entry)?.dataset;
            match &mut combined {
                None => combined = Some(batch),
                Some(d) => {
                    same_params(entry, (batch.k, batch.m), (d.k, d.m))?;
                    d.clusters.extend(batch.clusters);
                }
            }
        }
        Ok(combined)
    }

    /// [`Self::filtered_json`], decoded.
    pub fn combined_filtered(&self, term: TermId) -> Result<Option<DisassociatedDataset>> {
        self.filtered_json(term)?
            .map(|bytes| {
                serde_json::from_slice(&bytes).map_err(|e| StoreError::corrupt(e.to_string()))
            })
            .transpose()
    }

    /// The compact JSON of the combined published dataset restricted to
    /// the clusters that mention `term` (in a record-chunk domain,
    /// shared-chunk domain, or term chunk) — the service layer's
    /// term-filtered read path.  Byte-identical to encoding
    /// [`Self::combined_dataset`] with the other clusters dropped, but
    /// written from the read index: only batch files not yet indexed are
    /// read and decoded.  Returns `None` when nothing is published.
    pub fn filtered_json(&self, term: TermId) -> Result<Option<Vec<u8>>> {
        let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        let mut expected = None;
        let mut out = Vec::new();
        for entry in &self.manifest.batches {
            let batch = match index.entry(entry.file.clone()) {
                Entry::Occupied(hit) => hit.into_mut(),
                Entry::Vacant(slot) => {
                    let chunks = self.read_entry(entry)?;
                    obs_counters::STORE_CHUNK_INDEX_LOADS.inc();
                    slot.insert(BatchIndex::build(&chunks.dataset))
                }
            };
            match expected {
                None => {
                    expected = Some((batch.k, batch.m));
                    out.extend_from_slice(
                        format!("{{\"k\":{},\"m\":{},\"clusters\":[", batch.k, batch.m).as_bytes(),
                    );
                }
                Some(expected) => same_params(entry, (batch.k, batch.m), expected)?,
            }
            batch.write_matching(term, &mut out);
        }
        Ok(expected.map(|_| {
            out.extend_from_slice(b"]}");
            out
        }))
    }

    fn file_name(batch_index: usize, generation: u64) -> String {
        format!("batch-{batch_index:06}.g{generation:06}.json")
    }

    /// The generation the next `finish` will commit.
    pub fn next_generation(&self) -> u64 {
        self.manifest.generation + 1
    }

    fn stage(&mut self, batch: &BatchOutput) -> Result<()> {
        let generation = self.next_generation();
        let file = Self::file_name(batch.batch_index, generation);
        let bytes = batch_file_bytes(batch);
        // Re-publishing content identical to the committed file is a no-op:
        // the committed entry (name, generation, bytes) stays as it is.
        // This keeps "clean chunks are never rewritten" true even for
        // callers that rebuilt their pipeline state from scratch (a fresh
        // `disassoc append` process re-delivers every batch; only the ones
        // whose content actually changed hit the disk).
        if let Some(committed) = self
            .manifest
            .batches
            .iter()
            .find(|b| b.batch_index == batch.batch_index)
        {
            if let Ok(existing) = std::fs::read(self.dir.join(&committed.file)) {
                if existing == bytes {
                    obs_counters::STORE_CHUNKS_SKIPPED.inc();
                    self.staged.retain(|s| s.batch_index != batch.batch_index);
                    return Ok(());
                }
            }
        }
        commit::write_synced(
            &self.dir.join(&file),
            &bytes,
            failpoints::PUBLISH_STAGE_WRITE,
            failpoints::PUBLISH_STAGE_SYNC,
        )?;
        obs_counters::STORE_CHUNKS_STAGED.inc();
        self.staged.retain(|s| s.batch_index != batch.batch_index);
        self.staged.push(ChunkEntry {
            batch_index: batch.batch_index,
            record_offset: batch.record_offset,
            file,
            generation,
        });
        Ok(())
    }

    fn commit(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let mut next = self.manifest.clone();
        next.generation = self.next_generation();
        let mut replaced: Vec<String> = Vec::new();
        for entry in self.staged.drain(..) {
            if let Some(old) = next
                .batches
                .iter_mut()
                .find(|b| b.batch_index == entry.batch_index)
            {
                replaced.push(std::mem::replace(old, entry).file);
            } else {
                next.batches.push(entry);
            }
        }
        next.batches.sort_by_key(|b| b.batch_index);
        FILE.replace(&self.dir, &next, replaced)?;
        self.manifest = next;
        let batches = &self.manifest.batches;
        self.index
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|file, _| batches.iter().any(|b| &b.file == file));
        obs_counters::STORE_CHUNK_COMMITS.inc();
        Ok(())
    }
}

impl ChunkSink for ChunkDir {
    fn accept(&mut self, batch: BatchOutput) -> std::result::Result<(), SinkError> {
        self.stage(&batch)
            .map_err(|e| SinkError::new(format!("stage chunk batch {}", batch.batch_index), e))
    }

    fn finish(&mut self) -> std::result::Result<(), SinkError> {
        self.commit()
            .map_err(|e| SinkError::new("commit chunk manifest", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disassociation::model::{Cluster, ClusterNode, RecordChunk, TermChunk};
    use transact::{Record, TermId};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("disassoc_publish_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn output(tag: u32) -> disassociation::DisassociationOutput {
        let record = || Record::from_ids([TermId::new(tag)]);
        let chunk = RecordChunk::new(vec![TermId::new(tag)], vec![record(), record()]);
        disassociation::DisassociationOutput {
            dataset: DisassociatedDataset {
                k: 2,
                m: 2,
                clusters: vec![ClusterNode::Simple(Cluster {
                    size: 2,
                    record_chunks: vec![chunk],
                    term_chunk: TermChunk::new(Vec::new()),
                })],
            },
            cluster_assignment: vec![vec![0, 1]],
            phases: disassociation::PhaseTimings::default(),
            refine_passes: 0,
            refine_converged: true,
        }
    }

    fn batch(i: usize, tag: u32) -> BatchOutput {
        BatchOutput {
            batch_index: i,
            record_offset: i * 2,
            output: output(tag),
        }
    }

    #[test]
    fn publish_commit_and_reload() {
        let dir = tmpdir("roundtrip");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        chunks.accept(batch(0, 10)).unwrap();
        chunks.accept(batch(1, 20)).unwrap();
        chunks.finish().unwrap();
        assert_eq!(chunks.manifest().generation, 1);

        let reopened = ChunkDir::open(&dir).unwrap();
        assert_eq!(reopened.manifest(), chunks.manifest());
        let combined = reopened.combined_dataset().unwrap().unwrap();
        assert_eq!(combined.clusters.len(), 2);
        assert_eq!(reopened.read_batch(1).unwrap().record_offset, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn staged_bytes_are_the_compact_json_of_batch_chunks() {
        let staged = batch(1, 20);
        let derived = serde_json::to_vec(&BatchChunks {
            batch_index: 1,
            record_offset: 2,
            dataset: staged.output.dataset.clone(),
        })
        .unwrap();
        assert_eq!(batch_file_bytes(&staged), derived);
    }

    #[test]
    fn partial_republish_keeps_clean_files() {
        let dir = tmpdir("partial");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        chunks.accept(batch(0, 10)).unwrap();
        chunks.accept(batch(1, 20)).unwrap();
        chunks.finish().unwrap();
        let file0 = chunks.manifest().batches[0].file.clone();

        chunks.accept(batch(1, 21)).unwrap();
        chunks.finish().unwrap();
        assert_eq!(chunks.manifest().generation, 2);
        assert_eq!(chunks.generations(), vec![(0, 1), (1, 2)]);
        assert_eq!(chunks.manifest().batches[0].file, file0);
        let reloaded = chunks.read_batch(1).unwrap();
        assert_eq!(reloaded.dataset, output(21).dataset);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_stage_is_invisible_and_collected() {
        let dir = tmpdir("orphan");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        chunks.accept(batch(0, 10)).unwrap();
        chunks.finish().unwrap();
        let committed = chunks.manifest().clone();

        // Stage a replacement but never finish: simulated crash.
        chunks.accept(batch(0, 11)).unwrap();
        drop(chunks);

        let reopened = ChunkDir::open(&dir).unwrap();
        assert_eq!(reopened.manifest(), &committed);
        let combined = reopened.combined_dataset().unwrap().unwrap();
        assert_eq!(combined, output(10).dataset);
        // Exactly the one committed file remains.
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("batch-"))
            .collect();
        assert_eq!(files.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restaging_identical_content_is_a_no_op() {
        let dir = tmpdir("identical");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        chunks.accept(batch(0, 10)).unwrap();
        chunks.accept(batch(1, 20)).unwrap();
        chunks.finish().unwrap();
        let committed = chunks.manifest().clone();

        // Re-delivering the same content (as a fresh `disassoc append`
        // process does) rewrites nothing: nothing staged, manifest
        // untouched.
        chunks.accept(batch(0, 10)).unwrap();
        chunks.accept(batch(1, 20)).unwrap();
        chunks.finish().unwrap();
        assert_eq!(chunks.manifest(), &committed);

        // A mixed delivery rewrites only the batch whose content changed.
        chunks.accept(batch(0, 10)).unwrap();
        chunks.accept(batch(1, 21)).unwrap();
        chunks.finish().unwrap();
        assert_eq!(chunks.generations(), vec![(0, 1), (1, 2)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn combined_filtered_keeps_only_clusters_mentioning_the_term() {
        let dir = tmpdir("filtered");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        chunks.accept(batch(0, 10)).unwrap();
        chunks.accept(batch(1, 20)).unwrap();
        chunks.finish().unwrap();

        let hits = chunks.combined_filtered(TermId::new(10)).unwrap().unwrap();
        assert_eq!(hits.clusters.len(), 1);
        assert!(hits.clusters[0].mentions_term(TermId::new(10)));
        let misses = chunks.combined_filtered(TermId::new(999)).unwrap().unwrap();
        assert!(misses.clusters.is_empty());
        assert_eq!((misses.k, misses.m), (2, 2), "header survives the filter");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_utf8_or_unsorted_batch_files_are_corrupt_naming_the_file() {
        let dir = tmpdir("corrupt");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        chunks.accept(batch(0, 10)).unwrap();
        chunks.finish().unwrap();
        let path = dir.join(&chunks.manifest().batches[0].file);
        let good = std::fs::read_to_string(&path).unwrap();
        let unsorted = good.replace(
            r#""term_chunk":{"terms":[]}"#,
            r#""term_chunk":{"terms":[5,1]}"#,
        );
        assert_ne!(unsorted, good);
        for (bytes, needle) in [
            (b"{\"batch_index\":\xff}".to_vec(), "at byte 15"),
            (
                unsorted.into_bytes(),
                "term ids of `TermChunk` must strictly increase",
            ),
        ] {
            std::fs::write(&path, bytes).unwrap();
            match chunks.combined_filtered(TermId::new(10)) {
                Err(StoreError::Corrupt { file, message }) => {
                    assert_eq!(file, path.display().to_string());
                    assert!(message.contains(needle), "{message}");
                }
                other => panic!("expected a corrupt-file error, got {other:?}"),
            }
            assert!(indexed(&chunks).is_empty(), "a failed load caches nothing");
        }
        std::fs::write(&path, good).unwrap();
        let hits = chunks.combined_filtered(TermId::new(10)).unwrap().unwrap();
        assert_eq!(hits, output(10).dataset);
        assert_eq!(indexed(&chunks), committed_files(&chunks));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The files the read index holds, sorted.
    fn indexed(chunks: &ChunkDir) -> Vec<String> {
        let mut files: Vec<String> = chunks.index.lock().unwrap().keys().cloned().collect();
        files.sort();
        files
    }

    fn committed_files(chunks: &ChunkDir) -> Vec<String> {
        let mut files: Vec<String> = chunks
            .manifest()
            .batches
            .iter()
            .map(|b| b.file.clone())
            .collect();
        files.sort();
        files
    }

    #[test]
    fn filtered_reads_serve_the_old_publication_until_a_commit_succeeds() {
        let dir = tmpdir("coherent");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        chunks.accept(batch(0, 10)).unwrap();
        chunks.accept(batch(1, 20)).unwrap();
        chunks.finish().unwrap();
        let read = |chunks: &ChunkDir, term: u32| {
            let body = chunks.filtered_json(TermId::new(term)).unwrap().unwrap();
            String::from_utf8(body).unwrap()
        };
        let old = (read(&chunks, 10), read(&chunks, 11));
        assert!(old.0.contains("[10]"), "{}", old.0);
        assert_eq!(old.1, r#"{"k":2,"m":2,"clusters":[]}"#);

        // Staged, not committed: the reads do not see it.
        chunks.accept(batch(0, 11)).unwrap();
        assert_eq!((read(&chunks, 10), read(&chunks, 11)), old);

        // The manifest rename fails: the old publication stays served.
        let scope = dir.display().to_string();
        disassoc_faults::arm(
            failpoints::PUBLISH_COMMIT_RENAME,
            disassoc_faults::Policy::error().when_path_contains(scope),
        );
        let failed = chunks.finish();
        disassoc_faults::disarm(failpoints::PUBLISH_COMMIT_RENAME);
        assert!(failed.is_err());
        assert_eq!((read(&chunks, 10), read(&chunks, 11)), old);
        assert_eq!(indexed(&chunks), committed_files(&chunks));

        // The retried commit is what the next read serves.
        chunks.accept(batch(0, 11)).unwrap();
        chunks.finish().unwrap();
        assert_eq!(read(&chunks, 10), old.1);
        assert_eq!(read(&chunks, 11), old.0.replace("10", "11"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batches_published_under_different_params_fail_every_read_alike() {
        let dir = tmpdir("params");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        let mut other = batch(1, 20);
        other.output.dataset.k = 3;
        chunks.accept(batch(0, 10)).unwrap();
        chunks.accept(other).unwrap();
        chunks.finish().unwrap();
        let expected = "corrupt store data: batch 1 was published with (k=3, m=2), \
                        expected (k=2, m=2)";
        let combined = chunks.combined_dataset().unwrap_err().to_string();
        let filtered = chunks.filtered_json(TermId::new(10)).unwrap_err();
        assert_eq!(
            (combined.as_str(), filtered.to_string().as_str()),
            (expected, expected)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_read_index_holds_exactly_the_committed_files_over_republishes() {
        let dir = tmpdir("republishes");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        for i in 0..3 {
            chunks.accept(batch(i, 10 + i as u32)).unwrap();
        }
        chunks.finish().unwrap();
        for round in 0..20u32 {
            let tag = 100 + round;
            chunks.accept(batch(round as usize % 3, tag)).unwrap();
            chunks.finish().unwrap();
            let hits = chunks.combined_filtered(TermId::new(tag)).unwrap().unwrap();
            assert_eq!(hits.clusters.len(), 1, "round {round}");
            assert_eq!(indexed(&chunks), committed_files(&chunks), "round {round}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_finish_commits_nothing() {
        let dir = tmpdir("empty");
        let mut chunks = ChunkDir::open(&dir).unwrap();
        chunks.finish().unwrap();
        assert_eq!(chunks.manifest().generation, 0);
        assert!(!dir.join(CHUNK_MANIFEST_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
