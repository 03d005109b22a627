//! Size-tiered compaction.
//!
//! Ingestion produces many small segments (one per memtable spill).  Scans
//! pay a per-segment cost (open, footer validation, buffer churn), so the
//! store periodically merges runs of small segments into bigger ones.
//!
//! Unlike a key-ordered LSM tree, this store is an *ordered record log*:
//! scan order must equal ingestion order (the streaming anonymization path
//! relies on it for determinism).  Compaction therefore only merges segments
//! that are **adjacent in manifest order**, concatenating their records —
//! there is no key interleaving, so the merge is a pure streaming rewrite
//! with O(batch) memory.

use crate::manifest::{Manifest, SegmentEntry};
use crate::segment::{Segment, SegmentWriter, DEFAULT_INDEX_EVERY};
use crate::Result;
use std::path::Path;

/// Segments at or above this size are left alone by compaction.
pub(crate) const MAX_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// What a compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Segments before the pass.
    pub segments_before: usize,
    /// Segments after the pass.
    pub segments_after: usize,
    /// Number of merge operations performed.
    pub merges: usize,
    /// Bytes read from the merged input segments.
    pub bytes_read: u64,
    /// Bytes written to the replacement segments.
    pub bytes_written: u64,
}

impl CompactionStats {
    /// Write amplification of the pass: bytes written per byte of input
    /// data rewritten (1.0 = no overhead; 0 merges yields 0).
    pub fn amplification(&self) -> f64 {
        if self.bytes_read == 0 {
            0.0
        } else {
            self.bytes_written as f64 / self.bytes_read as f64
        }
    }
}

/// Runs one size-tiered compaction pass over the manifest's segments,
/// merging every maximal run of at least `min_segments` (values below 2 are
/// treated as 2) adjacent segments that are each smaller than
/// `max_segment_bytes` ([`MAX_SEGMENT_BYTES`] outside tests).
///
/// The input manifest is left untouched; a successor manifest is returned
/// for the caller to commit, along with the replaced files to delete after
/// the commit.  An error mid-pass therefore leaves the store's state fully
/// valid (newly written merge segments become orphans, cleaned up on the
/// next open), and a crash at any point leaves either the old or the new
/// state.
pub(crate) fn compact_pass(
    dir: &Path,
    manifest: &Manifest,
    min_segments: usize,
    max_segment_bytes: u64,
) -> Result<(CompactionStats, Vec<String>, Manifest)> {
    let mut stats = CompactionStats {
        segments_before: manifest.segments.len(),
        ..CompactionStats::default()
    };
    let min_run = min_segments.max(2);
    let mut replaced: Vec<String> = Vec::new();
    let mut output: Vec<SegmentEntry> = Vec::new();
    let mut run: Vec<SegmentEntry> = Vec::new();

    let flush_run = |run: &mut Vec<SegmentEntry>,
                     output: &mut Vec<SegmentEntry>,
                     replaced: &mut Vec<String>,
                     manifest_next_id: &mut u64,
                     stats: &mut CompactionStats|
     -> Result<()> {
        if run.len() < min_run {
            output.append(run);
            return Ok(());
        }
        let id = *manifest_next_id;
        *manifest_next_id += 1;
        let file = Manifest::segment_file_name(id);
        let path = dir.join(&file);
        let mut writer = SegmentWriter::create(&path, DEFAULT_INDEX_EVERY)?;
        let mut records = 0u64;
        for entry in run.iter() {
            let seg = Segment::open(dir.join(&entry.file))?;
            for r in seg.records()? {
                writer.add(&r?)?;
            }
            stats.bytes_read += entry.bytes;
            records += entry.records;
        }
        let meta = writer.finish()?;
        debug_assert_eq!(meta.record_count, records);
        let bytes = std::fs::metadata(&path)?.len();
        stats.bytes_written += bytes;
        stats.merges += 1;
        replaced.extend(run.iter().map(|e| e.file.clone()));
        run.clear();
        output.push(SegmentEntry {
            id,
            file,
            records,
            bytes,
        });
        Ok(())
    };

    let mut next_id = manifest.next_segment_id;
    for entry in manifest.segments.iter().cloned() {
        if entry.bytes < max_segment_bytes {
            run.push(entry);
        } else {
            flush_run(
                &mut run,
                &mut output,
                &mut replaced,
                &mut next_id,
                &mut stats,
            )?;
            output.push(entry);
        }
    }
    flush_run(
        &mut run,
        &mut output,
        &mut replaced,
        &mut next_id,
        &mut stats,
    )?;
    stats.segments_after = output.len();
    let successor = Manifest {
        version: manifest.version,
        next_segment_id: next_id,
        records_in_segments: manifest.records_in_segments,
        segments: output,
    };
    Ok((stats, replaced, successor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_of_an_idle_pass_is_zero() {
        assert_eq!(CompactionStats::default().amplification(), 0.0);
    }
}
