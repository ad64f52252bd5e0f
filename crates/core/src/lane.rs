//! The lane runtime both sharded front-ends run on.
//!
//! [`ShardedEstimator`](crate::ShardedEstimator) partitions bitmaps and
//! [`ShardedCatalog`](crate::ShardedCatalog) partitions queries; each
//! keeps its own routing, and both hand their batches to the lanes here:
//! one named worker thread per lane fed over a bounded blocking queue
//! ([`queue`]) of [`LANE_DEPTH`] messages (a full queue blocks the
//! router), one message loop, one reusable ack queue per lane for
//! barriers (so a barrier allocates nothing), and drop-and-join on
//! [`finish`](Lanes::finish). A lane with nothing to do parks its thread
//! rather than spinning on an idle core. A dead worker makes the next
//! push or barrier panic with "… exited early", and `finish` with "…
//! panicked".
//!
//! The runtime owns the hand-off too. Every batch travels in an `Arc`
//! from one pool made at spawn, and a worker reads it as `&B`. The router
//! ships a batch with [`send`](Lanes::send) (one lane) or
//! [`broadcast`](Lanes::broadcast) (every lane): its contents move into
//! the first pooled `Arc` no lane still holds, and that buffer's old
//! contents come back in their place for the router to refill. A lane
//! holds at most `LANE_DEPTH + 1` batches (its queue and the one it is
//! applying), so a pool of one more than all lanes can hold always has a
//! free buffer, and steady-state shipping allocates nothing. A broadcast
//! batch is held by every lane at once, so broadcasts only ever cycle
//! through the first `LANE_DEPTH + 2` buffers of the pool.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Bound, in messages, of each lane's forward queue (back-pressure).
pub const LANE_DEPTH: usize = 8;

/// Busy-wait rounds a waiting side makes before it yields; round `r`
/// spins `2^r` times, so a queue that is empty only for a moment is
/// picked up again without a system call.
const SPIN_ROUNDS: u32 = 6;

/// `yield_now` calls after the spins, before the waiting side parks.
const YIELDS: u32 = 4;

/// A bounded single-producer/single-consumer FIFO: a `VecDeque` sized at
/// construction (so pushing within capacity never allocates) behind a
/// lock, plus one `Condvar` the waiting side parks on.
///
/// Dropping the [`Sender`] lets the [`Receiver`] drain what is left and
/// then get `None`; dropping the `Receiver` makes every push fail and
/// hand its value back. Payloads still queued when both are gone drop
/// with the queue.
struct Queue<T> {
    state: Mutex<QueueState<T>>,
    wake: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    sender: bool,
    receiver: bool,
    /// Sides waiting on `wake`. A side signals only while it runs, so a
    /// nonzero count it sees is the other side, parked or woken but not
    /// yet running again (a woken side stays counted until it relocks).
    parked: u8,
}

impl<T> Queue<T> {
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        // `Drop` takes the lock too and must not panic. No step panics
        // while holding it and each leaves the state valid, so a poisoned
        // lock still guards a sound queue.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `step` under the lock until it settles, and then wakes the
    /// other side if it is parked. A blocking caller spins, then yields,
    /// then parks between attempts; a non-blocking one makes one attempt.
    fn settle<R>(
        &self,
        block: bool,
        mut step: impl FnMut(&mut QueueState<T>) -> Option<R>,
    ) -> Option<R> {
        let mut state = self.lock();
        let mut round = 0;
        loop {
            if let Some(done) = step(&mut state) {
                if state.parked > 0 {
                    self.wake.notify_one();
                }
                return Some(done);
            }
            if !block {
                return None;
            }
            if round < SPIN_ROUNDS + YIELDS {
                drop(state);
                if round < SPIN_ROUNDS {
                    (0..1u32 << round).for_each(|_| std::hint::spin_loop());
                } else {
                    std::thread::yield_now();
                }
                round += 1;
                state = self.lock();
            } else {
                state.parked += 1;
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.parked -= 1;
            }
        }
    }
}

/// The sending half of a [`queue`].
pub(crate) struct Sender<T>(Arc<Queue<T>>);

/// The receiving half of a [`queue`].
pub(crate) struct Receiver<T>(Arc<Queue<T>>);

/// A [`Queue`] of at most `capacity` (at least one) items.
pub(crate) fn queue<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let capacity = capacity.max(1);
    let queue = Arc::new(Queue {
        state: Mutex::new(QueueState {
            items: VecDeque::with_capacity(capacity),
            sender: true,
            receiver: true,
            parked: 0,
        }),
        wake: Condvar::new(),
        capacity,
    });
    (Sender(Arc::clone(&queue)), Receiver(queue))
}

impl<T> Sender<T> {
    /// Pushes `value`, blocking while the queue is full; hands it back if
    /// the receiver is gone.
    pub(crate) fn push(&self, value: T) -> Result<(), T> {
        let mut value = Some(value);
        let capacity = self.0.capacity;
        self.0.settle(true, |s| {
            let room = s.items.len() < capacity;
            if s.receiver && room {
                s.items.extend(value.take());
            }
            (room || !s.receiver).then_some(())
        });
        value.map_or(Ok(()), Err)
    }
}

impl<T> Receiver<T> {
    /// The oldest item, blocking while the queue is empty; `None` once the
    /// sender is gone and everything it pushed has been taken.
    pub(crate) fn pop(&self) -> Option<T> {
        self.recv(true)
    }

    /// The oldest item, if there is one.
    pub(crate) fn try_pop(&self) -> Option<T> {
        self.recv(false)
    }

    fn recv(&self, block: bool) -> Option<T> {
        self.0
            .settle(block, |s| match s.items.pop_front() {
                Some(item) => Some(Some(item)),
                None => (!s.sender).then_some(None),
            })
            .flatten()
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.0.settle(false, |s| {
            s.sender = false;
            Some(())
        });
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.settle(false, |s| {
            s.receiver = false;
            Some(())
        });
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Sender").field(&self.0.capacity).finish()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Receiver").field(&self.0.capacity).finish()
    }
}

/// The state one lane's worker thread owns, and what it does with each
/// message.
pub(crate) trait LaneWorker: Send + 'static {
    /// What the router ships down the lane, in a pooled `Arc`; `Default`
    /// is the empty buffer the router gets back if the pool ever runs dry.
    type Batch: Default + Send + Sync + 'static;

    /// Applies one batch, in lane order.
    fn apply(&mut self, batch: &Self::Batch);

    /// Publishes this lane's read views.
    fn publish(&mut self) {}

    /// Called when the worker finds its queue empty and has to wait.
    fn idle(&self) {}
}

enum LaneMsg<B> {
    Batch(Arc<B>),
    Publish,
    /// Acknowledged once everything pushed before it has been applied
    /// (the lane is FIFO).
    Barrier,
}

/// One lane per [`LaneWorker`], each on its own thread.
#[derive(Debug)]
pub(crate) struct Lanes<W: LaneWorker> {
    lanes: Vec<Sender<LaneMsg<W::Batch>>>,
    /// Barrier acks, one queue per lane: a dead worker drops its end,
    /// which fails the wait instead of hanging it.
    acks: Vec<Receiver<()>>,
    workers: Vec<JoinHandle<W>>,
    /// Names the worker in panics ("ingestion worker", "catalog worker").
    role: &'static str,
    /// The batch buffers, `len() * (LANE_DEPTH + 1) + 1` of them: one more
    /// than the lanes can hold at once.
    pool: Vec<Arc<W::Batch>>,
}

impl<W: LaneWorker> Lanes<W> {
    /// Starts one lane per worker state, with a pool of buffers made by
    /// `seed`; lane `k`'s thread is named `{thread}-{k}` (Linux keeps the
    /// first 15 bytes).
    pub(crate) fn spawn(
        workers: impl IntoIterator<Item = W>,
        role: &'static str,
        thread: &'static str,
        seed: impl FnMut() -> W::Batch,
    ) -> Self {
        let (mut lanes, mut acks, mut handles) = (Vec::new(), Vec::new(), Vec::new());
        for (k, mut worker) in workers.into_iter().enumerate() {
            let (tx, rx) = queue::<LaneMsg<W::Batch>>(LANE_DEPTH);
            let (ack, ack_rx) = queue::<()>(1);
            lanes.push(tx);
            acks.push(ack_rx);
            let lane = move || loop {
                // Count the waits that find the queue empty: they tell a
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
                    LaneMsg::Batch(batch) => worker.apply(&batch),
                    LaneMsg::Publish => worker.publish(),
                    LaneMsg::Barrier => {
                        let _ = ack.push(());
                    }
                }
            };
            let handle = std::thread::Builder::new()
                .name(format!("{thread}-{k}"))
                .spawn(lane)
                .unwrap_or_else(|e| panic!("cannot start {role}: {e}"));
            handles.push(handle);
        }
        let pool = std::iter::repeat_with(seed)
            .map(Arc::new)
            .take(lanes.len() * (LANE_DEPTH + 1) + 1)
            .collect();
        Self {
            lanes,
            acks,
            workers: handles,
            role,
            pool,
        }
    }

    /// Number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Ships `batch` down lane `lane` and leaves in its place a buffer no
    /// lane holds any more, with a previous batch's contents to refill.
    pub(crate) fn send(&mut self, lane: usize, batch: &mut W::Batch) {
        let shared = self.pooled(batch);
        self.push(lane, LaneMsg::Batch(shared));
    }

    /// Ships `batch` down every lane, shared, and leaves a free buffer in
    /// its place as [`send`](Self::send) does.
    pub(crate) fn broadcast(&mut self, batch: &mut W::Batch) {
        let shared = self.pooled(batch);
        for lane in 0..self.len() {
            self.push(lane, LaneMsg::Batch(Arc::clone(&shared)));
        }
    }

    /// Moves `batch` into the first pooled `Arc` no lane holds, handing
    /// that buffer's old contents back through `batch`. Taking the first
    /// keeps broadcasts within the first `LANE_DEPTH + 2` buffers.
    fn pooled(&mut self, batch: &mut W::Batch) -> Arc<W::Batch> {
        // A plain load skips held buffers; `get_mut` then claims a free
        // one with the atomic update that orders it after the lane's drop.
        for slot in self.pool.iter_mut().filter(|s| Arc::strong_count(s) == 1) {
            if let Some(free) = Arc::get_mut(slot) {
                std::mem::swap(free, batch);
                return Arc::clone(slot);
            }
        }
        // The pool outnumbers what the lanes can hold, so this is not
        // reached; allocate rather than wait if it ever is.
        Arc::new(std::mem::take(batch))
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
        // Dropping the senders closes the lanes: each worker drains what
        // is queued, then its blocking pop returns `None`.
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

    impl<W: LaneWorker> Lanes<W> {
        /// What the pooled buffers hold, for tests of the pool's bounds.
        pub(crate) fn pool(&self) -> impl Iterator<Item = &W::Batch> {
            self.pool.iter().map(|b| &**b)
        }
    }

    /// Sums its batches and counts publishes.
    struct Summer {
        sum: u64,
        publishes: u64,
        seen: Arc<AtomicU64>,
    }

    impl LaneWorker for Summer {
        type Batch = u64;

        fn apply(&mut self, &batch: &u64) {
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
        let mut lanes = Lanes::spawn(summers(3, &seen), "test worker", "test-lane", u64::default);
        for i in 1..=300u64 {
            lanes.send((i % 3) as usize, &mut { i });
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
        let mut lanes = Lanes::spawn(summers(2, &seen), "test worker", "test-lane", u64::default);
        for i in 0..1_000u64 {
            lanes.send((i % 2) as usize, &mut 1);
        }
        let done = lanes.finish();
        assert_eq!(done.iter().map(|w| w.sum).sum::<u64>(), 1_000);
    }

    struct Bomb;

    impl LaneWorker for Bomb {
        type Batch = ();

        fn apply(&mut self, _: &()) {
            panic!("boom");
        }
    }

    #[test]
    #[should_panic(expected = "test worker exited early")]
    fn a_dead_worker_fails_the_barrier_instead_of_hanging_it() {
        let mut lanes = Lanes::spawn([Bomb], "test worker", "test-lane", <()>::default);
        lanes.send(0, &mut ());
        lanes.barrier();
    }

    /// Applies batch `id` only once the test has opened the gate to it,
    /// then counts the lanes done with each id.
    struct Gated {
        open: Arc<AtomicU64>,
        applied: Arc<Vec<AtomicU64>>,
    }

    impl LaneWorker for Gated {
        type Batch = u64;

        fn apply(&mut self, &id: &u64) {
            while self.open.load(Ordering::Acquire) < id {
                std::thread::yield_now();
            }
            self.applied[id as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Batch ids shipped through [`Gated`] lanes; 0 marks a seeded buffer.
    const IDS: u64 = 300;

    /// Ships ids `1..=IDS` through `n` gated lanes, round-robin or by
    /// broadcast. The gate keeps every lane holding `LANE_DEPTH` batches
    /// the router has shipped since (so the router never waits on it), and
    /// each buffer handed back must carry a batch every lane it went to
    /// has applied. Returns the lanes, settled.
    fn ship_gated(n: usize, broadcast: bool) -> Lanes<Gated> {
        let open = Arc::new(AtomicU64::new(0));
        let applied: Arc<Vec<AtomicU64>> = Arc::new((0..=IDS).map(|_| AtomicU64::new(0)).collect());
        let workers = (0..n).map(|_| Gated {
            open: Arc::clone(&open),
            applied: Arc::clone(&applied),
        });
        let mut lanes = Lanes::spawn(workers, "test worker", "test-lane", u64::default);
        // Ids shipped per id a lane gets, and lanes that get each id.
        let (stride, holders) = if broadcast {
            (1, n as u64)
        } else {
            (n as u64, 1)
        };
        let mut recycled = 0;
        for id in 1..=IDS {
            let held = stride * LANE_DEPTH as u64;
            open.store(id.saturating_sub(held + 1), Ordering::Release);
            let mut batch = id;
            if broadcast {
                lanes.broadcast(&mut batch);
            } else {
                lanes.send(id as usize % n, &mut batch);
            }
            if batch != 0 {
                recycled += 1;
                let done = applied[batch as usize].load(Ordering::Relaxed);
                assert_eq!(
                    done, holders,
                    "batch {batch} came back while a lane held it"
                );
            }
        }
        assert!(
            recycled >= IDS - lanes.pool.len() as u64,
            "the pool recycles"
        );
        open.store(IDS, Ordering::Release);
        lanes.barrier();
        lanes
    }

    #[test]
    fn a_buffer_comes_back_only_once_no_lane_holds_it() {
        for broadcast in [false, true] {
            ship_gated(3, broadcast).finish();
        }
    }

    #[test]
    fn with_every_pooled_buffer_held_the_router_allocates_instead_of_waiting() {
        const SEEDED: u64 = 1_000;
        let seen = Arc::new(AtomicU64::new(0));
        let mut lanes = Lanes::spawn(summers(2, &seen), "test worker", "test-lane", || SEEDED);
        let held: Vec<Arc<u64>> = lanes.pool.iter().map(Arc::clone).collect();
        let mut batch = 5;
        lanes.send(0, &mut batch);
        assert_eq!(batch, 0, "a new buffer, not a held one");
        let mut batch = 7;
        lanes.broadcast(&mut batch);
        assert_eq!(batch, 0, "a new buffer, not a held one");
        lanes.barrier();
        assert_eq!(seen.load(Ordering::Relaxed), 5 + 2 * 7);
        assert_eq!(lanes.pool.len(), held.len(), "the pool does not grow");
        assert!(
            held.iter().all(|b| **b == SEEDED),
            "held buffers are untouched"
        );
        drop(held);
        let mut batch = 9;
        lanes.send(1, &mut batch);
        assert_eq!(batch, SEEDED, "a released buffer is pooled again");
        lanes.finish();
    }

    #[test]
    fn broadcasts_fill_at_most_lane_depth_plus_two_buffers() {
        const LANES: usize = 4;
        let lanes = ship_gated(LANES, true);
        assert_eq!(lanes.pool.len(), LANES * (LANE_DEPTH + 1) + 1);
        // The gate keeps `LANE_DEPTH` batches held at every ship, so at
        // least one more buffer than that has been filled.
        let filled = lanes.pool().filter(|&&b| b != 0).count();
        assert!(
            (LANE_DEPTH + 1..=LANE_DEPTH + 2).contains(&filled),
            "broadcasts filled {filled} buffers"
        );
        lanes.finish();
    }

    #[test]
    fn queue_is_fifo() {
        let (tx, rx) = queue::<u32>(2);
        for round in 0..5 {
            tx.push(2 * round).unwrap();
            tx.push(2 * round + 1).unwrap();
            assert_eq!(rx.try_pop(), Some(2 * round));
            assert_eq!(rx.try_pop(), Some(2 * round + 1));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn a_full_queue_blocks_until_an_item_leaves() {
        let (tx, rx) = queue::<u32>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        let shared = Arc::clone(&tx.0);
        let sender = std::thread::spawn(move || tx.push(3));
        until_parked(&shared);
        assert!(!sender.is_finished(), "a push into a full queue waits");
        assert_eq!(shared.lock().items.len(), 2);
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(sender.join().unwrap(), Ok(()));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn cross_thread_transfer_preserves_every_payload() {
        // A one-slot queue makes both sides park often, in turn.
        const N: u64 = 100_000;
        for capacity in [1, LANE_DEPTH] {
            let (tx, rx) = queue::<u64>(capacity);
            let producer = std::thread::spawn(move || {
                for i in 0..N {
                    tx.push(i).expect("receiver alive");
                }
            });
            let mut expect = 0u64;
            while let Some(v) = rx.pop() {
                assert_eq!(v, expect, "payloads must arrive in order");
                expect += 1;
            }
            assert_eq!(expect, N, "every payload must arrive exactly once");
            producer.join().unwrap();
        }
    }

    #[test]
    fn receiver_drains_the_queue_after_the_sender_drops() {
        let (tx, rx) = queue::<u32>(8);
        tx.push(7).unwrap();
        tx.push(8).unwrap();
        drop(tx);
        assert_eq!(rx.pop(), Some(7));
        assert_eq!(rx.pop(), Some(8));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn push_fails_once_the_receiver_is_gone() {
        let (tx, rx) = queue::<u32>(2);
        tx.push(1).unwrap();
        drop(rx);
        assert_eq!(tx.push(2), Err(2));
    }

    /// Waits until a side has parked on `queue`'s condvar.
    fn until_parked<T>(queue: &Queue<T>) {
        while queue.lock().parked == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_parked_side_wakes_when_the_other_side_drops() {
        let (tx, rx) = queue::<u32>(1);
        let shared = Arc::clone(&tx.0);
        let receiver = std::thread::spawn(move || rx.pop());
        until_parked(&shared);
        drop(tx);
        assert_eq!(receiver.join().unwrap(), None);

        let (tx, rx) = queue::<u32>(1);
        tx.push(1).unwrap();
        let shared = Arc::clone(&tx.0);
        let sender = std::thread::spawn(move || tx.push(2));
        until_parked(&shared);
        drop(rx);
        assert_eq!(sender.join().unwrap(), Err(2));
    }

    #[test]
    fn queued_payloads_drop_with_the_queue() {
        let payload = Arc::new(());
        let (tx, rx) = queue::<Arc<()>>(4);
        for _ in 0..3 {
            tx.push(Arc::clone(&payload)).unwrap();
        }
        drop(rx.pop());
        assert_eq!(Arc::strong_count(&payload), 3);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }
}
