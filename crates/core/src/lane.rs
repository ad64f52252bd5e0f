//! The lane runtime both sharded front-ends run on.
//!
//! [`ShardedEstimator`](crate::ShardedEstimator) partitions bitmaps and
//! [`ShardedCatalog`](crate::ShardedCatalog) partitions queries; each
//! keeps its own routing and hand-off, and both run their lanes here:
//! one worker thread per lane fed over an SPSC ring ([`crate::ring`]) of
//! [`RING_DEPTH`] messages (a full ring makes the router's push spin),
//! one message loop, one reusable ack ring per lane for barriers (so a
//! barrier allocates nothing), and drop-and-join on
//! [`finish`](Lanes::finish). A dead worker makes the next push or
//! barrier panic with "… exited early", and `finish` with "… panicked".

use std::thread::JoinHandle;

use crate::ring;

/// Bound, in messages, of each lane's forward ring (back-pressure).
pub const RING_DEPTH: usize = 8;

/// The state one lane's worker thread owns, and what it does with each
/// message.
pub(crate) trait LaneWorker: Send + 'static {
    /// What the router ships down the lane.
    type Batch: Send + 'static;

    /// Applies one batch, in lane order.
    fn apply(&mut self, batch: Self::Batch);

    /// Publishes this lane's read views.
    fn publish(&mut self) {}

    /// Called when the worker finds its ring empty and has to wait.
    fn idle(&self) {}
}

enum LaneMsg<B> {
    Batch(B),
    Publish,
    /// Acknowledged once everything pushed before it has been applied
    /// (the lane is FIFO).
    Barrier,
}

/// One lane per [`LaneWorker`], each on its own thread.
#[derive(Debug)]
pub(crate) struct Lanes<W: LaneWorker> {
    lanes: Vec<ring::Producer<LaneMsg<W::Batch>>>,
    /// Barrier acks, one ring per lane: a dead worker drops its end,
    /// which fails the wait instead of hanging it.
    acks: Vec<ring::Consumer<()>>,
    workers: Vec<JoinHandle<W>>,
    /// Names the worker in panics ("ingestion worker", "catalog worker").
    role: &'static str,
}

impl<W: LaneWorker> Lanes<W> {
    /// Starts one lane per worker state.
    pub(crate) fn spawn(workers: impl IntoIterator<Item = W>, role: &'static str) -> Self {
        let (mut lanes, mut acks, mut handles) = (Vec::new(), Vec::new(), Vec::new());
        for mut worker in workers {
            let (tx, rx) = ring::ring::<LaneMsg<W::Batch>>(RING_DEPTH);
            let (ack, ack_rx) = ring::ring::<()>(1);
            lanes.push(tx);
            acks.push(ack_rx);
            handles.push(std::thread::spawn(move || loop {
                // Count the waits that find the ring empty: they tell a
                // router-bound pipeline from a worker-bound one.
                let msg = match rx.try_pop() {
                    Some(msg) => msg,
                    None => {
                        worker.idle();
                        match rx.pop() {
                            Some(msg) => msg,
                            None => return worker,
                        }
                    }
                };
                match msg {
                    LaneMsg::Batch(batch) => worker.apply(batch),
                    LaneMsg::Publish => worker.publish(),
                    LaneMsg::Barrier => {
                        let _ = ack.push(());
                    }
                }
            }));
        }
        Self {
            lanes,
            acks,
            workers: handles,
            role,
        }
    }

    /// Number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Ships one batch down lane `lane`.
    pub(crate) fn send(&self, lane: usize, batch: W::Batch) {
        self.push(lane, LaneMsg::Batch(batch));
    }

    /// Asks every lane to publish at its next message boundary.
    pub(crate) fn publish(&self) {
        for lane in 0..self.len() {
            self.push(lane, LaneMsg::Publish);
        }
    }

    /// Blocks until every lane has applied everything pushed so far.
    pub(crate) fn barrier(&self) {
        for lane in 0..self.len() {
            self.push(lane, LaneMsg::Barrier);
        }
        for ack in &self.acks {
            ack.pop()
                .unwrap_or_else(|| panic!("{} exited early", self.role));
        }
    }

    /// Closes the lanes, lets each worker drain, and returns the worker
    /// states in lane order.
    pub(crate) fn finish(self) -> Vec<W> {
        let role = self.role;
        // Dropping the producers closes the lanes: each worker drains its
        // remaining occupancy, then its blocking pop returns `None`.
        drop(self.lanes);
        self.workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| panic!("{role} panicked")))
            .collect()
    }

    fn push(&self, lane: usize, msg: LaneMsg<W::Batch>) {
        self.lanes[lane]
            .push(msg)
            .unwrap_or_else(|_| panic!("{} exited early", self.role));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Sums its batches and counts publishes.
    struct Summer {
        sum: u64,
        publishes: u64,
        seen: Arc<AtomicU64>,
    }

    impl LaneWorker for Summer {
        type Batch = u64;

        fn apply(&mut self, batch: u64) {
            self.sum += batch;
            self.seen.fetch_add(batch, Ordering::Relaxed);
        }

        fn publish(&mut self) {
            self.publishes += 1;
        }
    }

    fn summers(n: usize, seen: &Arc<AtomicU64>) -> Vec<Summer> {
        (0..n)
            .map(|_| Summer {
                sum: 0,
                publishes: 0,
                seen: Arc::clone(seen),
            })
            .collect()
    }

    #[test]
    fn barrier_settles_every_lane_and_finish_returns_them_in_order() {
        let seen = Arc::new(AtomicU64::new(0));
        let lanes = Lanes::spawn(summers(3, &seen), "test worker");
        for i in 1..=300u64 {
            lanes.send((i % 3) as usize, i);
        }
        lanes.barrier();
        assert_eq!(seen.load(Ordering::Relaxed), 300 * 301 / 2);
        lanes.publish();
        lanes.barrier();
        let done = lanes.finish();
        let sums: Vec<u64> = done.iter().map(|w| w.sum).collect();
        let expect: Vec<u64> = (0..3u64)
            .map(|k| (1..=300).filter(|i| i % 3 == k).sum())
            .collect();
        assert_eq!(sums, expect);
        assert!(done.iter().all(|w| w.publishes == 1));
    }

    #[test]
    fn finish_drains_what_was_still_in_flight() {
        let seen = Arc::new(AtomicU64::new(0));
        let lanes = Lanes::spawn(summers(2, &seen), "test worker");
        for i in 0..1_000u64 {
            lanes.send((i % 2) as usize, 1);
        }
        let done = lanes.finish();
        assert_eq!(done.iter().map(|w| w.sum).sum::<u64>(), 1_000);
    }

    struct Bomb;

    impl LaneWorker for Bomb {
        type Batch = ();

        fn apply(&mut self, _: ()) {
            panic!("boom");
        }
    }

    #[test]
    #[should_panic(expected = "test worker exited early")]
    fn a_dead_worker_fails_the_barrier_instead_of_hanging_it() {
        let lanes = Lanes::spawn([Bomb], "test worker");
        lanes.send(0, ());
        lanes.barrier();
    }
}
