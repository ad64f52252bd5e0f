//! The plain-mode engine of both front ends: `implicate` without
//! `--query-file`, and `implicate-serve`'s standalone and edge roles feed
//! pre-hashed `(h_a, b_fp)` batches to one [`Pipeline`], which reaches
//! the same state, bit for bit, at any `--threads`.

use imp_core::{Estimate, ImplicationEstimator, MetricsHandle, ShardedEstimator};

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
