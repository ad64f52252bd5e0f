//! The one pipeline behind both front ends, `implicate` and
//! `implicate-serve`: the checkpoint's way in and out ([`restore`],
//! [`write_checkpoint`]), the row makers that turn a line's field
//! fingerprints into engine rows ([`pair_rows`] for plain mode,
//! [`flat_rows`] for catalog mode), and the plain-mode engine,
//! [`Pipeline`]: `implicate` without `--query-file` and serve's
//! standalone and edge roles feed pre-hashed `(h_a, b_fp)` batches to
//! one, which reaches the same state, bit for bit, at any `--threads`.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use imp_core::wire;
use imp_core::{
    Estimate, EstimatorConfig, ImplicationEstimator, MetricsHandle, PairHasher, ShardedEstimator,
};

use crate::text::{project, wanted_columns};

/// Restores the checkpoint at `path` (a VERSION 2 snapshot or a full
/// wire frame) to run under `config`, and refuses one whose
/// [`MergeKey`](imp_core::MergeKey) differs from the configuration's,
/// naming the first mismatched field: its flags would be silently
/// ignored, and its estimates could not merge with its peers'.
pub fn restore(path: &str, config: &EstimatorConfig) -> Result<ImplicationEstimator, String> {
    let raw = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut est = wire::decode_compat(raw.into()).map_err(|e| format!("{path}: {e}"))?;
    if let Some(field) = config.merge_key().mismatch(&est.merge_key()) {
        return Err(format!(
            "{path}: configuration mismatch: {field} (the checkpoint was built with other flags)"
        ));
    }
    // A snapshot restores against an unlimited budget; re-arm the
    // requested ceiling before ingestion continues.
    est.set_memory_budget(config.memory_budget_limit());
    Ok(est)
}

/// Writes a checkpoint to `path` whole or not at all: into `path.tmp`,
/// synced, then renamed over `path`, so a failed write leaves the
/// previous file as it was. Syncing the directory after the rename
/// makes the new name durable too, so a crash leaves the old checkpoint
/// or the new one, never an empty file.
pub fn write_checkpoint(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = match Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// A row maker: appends the engine row built from a line's field
/// fingerprints (the columns its `wanted` mask selects) to a batch, or
/// returns `false` for a row too short for it, which counts as skipped.
/// Each parser thread or connection runs a clone of its own.
pub trait MakeRow<W>: FnMut(&[u64], &mut Vec<W>) -> bool + Clone + Send {}

impl<W, F: FnMut(&[u64], &mut Vec<W>) -> bool + Clone + Send> MakeRow<W> for F {}

/// Plain mode's row maker and its `wanted` mask: the `lhs` and `rhs`
/// projections hashed by `hasher` into the `(h_a, b_fp)` pair the
/// estimator ingests.
pub fn pair_rows(
    lhs: &[usize],
    rhs: &[usize],
    hasher: PairHasher,
) -> (Vec<bool>, impl MakeRow<(u64, u64)>) {
    let wanted = wanted_columns(&[lhs, rhs]);
    let (lhs, rhs) = (lhs.to_vec(), rhs.to_vec());
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    let make_row = move |row: &[u64], batch: &mut Vec<(u64, u64)>| {
        let projected = project(row, &lhs, &mut buf_a) && project(row, &rhs, &mut buf_b);
        if projected {
            batch.push(hasher.hash_pair(&buf_a, &buf_b));
        }
        projected
    };
    (wanted, make_row)
}

/// Catalog mode's row maker and its `wanted` mask: the first `arity`
/// fingerprints, copied flat, so a query registered at any time is
/// answered from the same pass.
pub fn flat_rows(arity: usize) -> (Vec<bool>, impl MakeRow<u64>) {
    let make_row = move |row: &[u64], batch: &mut Vec<u64>| {
        let whole = row.len() >= arity;
        if whole {
            batch.extend_from_slice(&row[..arity]);
        }
        whole
    };
    (vec![true; arity], make_row)
}

/// One estimator at `--threads 1`, else its bitmaps sharded over lanes.
// One Pipeline exists per process, so the size spread between variants
// is irrelevant — boxing would only add a pointer chase per batch.
#[allow(clippy::large_enum_variant)]
pub enum Pipeline {
    /// One estimator, updated on the calling thread.
    Sequential(ImplicationEstimator),
    /// The estimator's bitmaps partitioned over worker lanes.
    Sharded(ShardedEstimator),
}

impl Pipeline {
    /// `est` alone when `threads` is 1, else sharded over `threads` lanes.
    pub fn new(est: ImplicationEstimator, threads: usize) -> Self {
        if threads > 1 {
            Pipeline::Sharded(ShardedEstimator::new(est, threads))
        } else {
            Pipeline::Sequential(est)
        }
    }

    /// Applies a batch of pairs hashed by the estimator's
    /// [`pair_hasher`](ImplicationEstimator::pair_hasher), in order.
    pub fn apply(&mut self, batch: &[(u64, u64)]) {
        match self {
            Pipeline::Sequential(est) => est.update_hashed_batch(batch),
            Pipeline::Sharded(sharded) => sharded.update_hashed_batch(batch),
        }
    }

    /// Publishes a read view and returns its epoch. When sharded, the
    /// view does not wait for the lanes (see [`ShardedEstimator::publish`]).
    pub fn publish(&mut self) -> u64 {
        match self {
            Pipeline::Sequential(est) => est.publish(),
            Pipeline::Sharded(sharded) => sharded.publish(),
        }
    }

    /// The estimate over every row applied so far, identical in both
    /// variants. When sharded this barriers the lanes and publishes the
    /// settled view, so it is for report boundaries, not routine reads.
    pub fn estimate(&mut self) -> Estimate {
        match self {
            Pipeline::Sequential(est) => est.estimate_now(),
            Pipeline::Sharded(sharded) => {
                sharded.barrier();
                sharded.publish();
                sharded.reader().estimate()
            }
        }
    }

    /// The metrics registry the estimator (or every lane) records into.
    pub fn metrics(&self) -> &MetricsHandle {
        match self {
            Pipeline::Sequential(est) => est.metrics(),
            Pipeline::Sharded(sharded) => sharded.metrics(),
        }
    }

    /// Applied-row lag behind the accepted stream (always 0 when
    /// sequential).
    pub fn backlog(&self) -> u64 {
        match self {
            Pipeline::Sequential(_) => 0,
            Pipeline::Sharded(sharded) => sharded.backlog(),
        }
    }

    /// Ships partially-filled router buffers to the lanes (no-op when
    /// sequential).
    pub fn flush(&mut self) {
        if let Pipeline::Sharded(sharded) = self {
            sharded.flush();
        }
    }

    /// The owned estimator when sequential (checkpoints and edge
    /// captures encode it; the sharded pipeline cannot without
    /// quiescing).
    pub fn sequential(&self) -> Option<&ImplicationEstimator> {
        match self {
            Pipeline::Sequential(est) => Some(est),
            Pipeline::Sharded(_) => None,
        }
    }

    /// Drains and, if sharded, reassembles the pipeline into the owning
    /// estimator.
    pub fn finish(self) -> ImplicationEstimator {
        match self {
            Pipeline::Sequential(est) => est,
            // finish() barriers, merges, and republishes the merged state
            // on the inherited channel.
            Pipeline::Sharded(sharded) => sharded.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_read_back_whole_and_leave_no_temp_file() {
        let root = std::env::temp_dir().join(format!("implicate-ckpt-{}", std::process::id()));
        let dir = root.join("nested").join("dir");
        std::fs::create_dir_all(&dir).expect("create dir");
        let path = dir.join("state.imps");
        let path = path.to_str().expect("UTF-8 temp path");
        for bytes in [&b"first checkpoint"[..], b"second, over the first"] {
            write_checkpoint(path, bytes).expect("write checkpoint");
            assert_eq!(std::fs::read(path).expect("read back"), bytes);
            assert!(
                !Path::new(&format!("{path}.tmp")).exists(),
                "left a temp file"
            );
        }
        let missing = root.join("missing").join("state.imps");
        assert!(write_checkpoint(missing.to_str().expect("UTF-8"), b"x").is_err());
        std::fs::remove_dir_all(&root).expect("clean up");
    }
}
