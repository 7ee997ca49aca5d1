//! A bounded multi-producer batch queue: the per-shard mailbox between
//! client sessions and the shard's drain worker, and the claim that
//! decides which thread executes the shard's work.
//!
//! Producers [`offer`](BatchQueue::offer) one item at a time and are
//! rejected (not blocked) once the queue reaches its high-water mark —
//! backpressure is the *caller's* problem, surfaced as a retry-after
//! hint by the server layer. The single consumer
//! [`take_batch`](BatchQueue::take_batch)es up to a configured number of
//! items at once, so one lock acquisition amortizes over a whole batch.
//!
//! Execution is a [`Claim`], held by at most one thread at a time: the
//! consumer holds it while it works through a batch, and a producer that
//! finds the queue idle can [`try_claim`](BatchQueue::try_claim) it and
//! run its item itself instead of queueing it. A claim is granted only
//! when nothing is queued, so work still runs in arrival order.
//!
//! Closing the queue ([`close`](BatchQueue::close)) stops admission
//! immediately but never drops queued items: the consumer keeps draining
//! until the queue is empty and only then observes an empty closing
//! batch — the mechanism behind the server's lose-nothing shutdown
//! drain.
//!
//! Waking a parked thread costs a syscall, and on an idle host the
//! wake-up of a halted CPU, so the queue notifies its consumer only when
//! the consumer is parked *and* could now proceed.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why an [`offer`](BatchQueue::offer) was not accepted. The rejected
/// item is handed back so callers need no `Clone` bound to retry.
#[derive(Debug)]
pub enum OfferError<T> {
    /// The queue is at or above the high-water mark. Retry later.
    Rejected {
        /// The item, returned unconsumed.
        item: T,
        /// Queue depth observed at rejection time.
        depth: usize,
    },
    /// The queue is closed; no further items will ever be accepted.
    Closed(T),
}

/// One drained batch, taken under the queue's execution claim: the
/// claim is released when the batch is dropped.
#[derive(Debug)]
pub struct Batch<'q, T> {
    /// The items, in arrival order.
    pub items: Vec<T>,
    /// `true` once the queue is closed: after the items above are
    /// processed (and any the next calls return), the consumer may stop.
    /// An *empty* closing batch means the drain is complete.
    pub closing: bool,
    /// The execution claim, held until the batch is dropped.
    pub(crate) claim: Claim<'q, T>,
}

/// The right to execute a queue's work. At most one claim per queue
/// exists at a time; dropping it (also while unwinding) releases it and
/// wakes the consumer if items queued up meanwhile.
#[must_use = "dropping a claim releases it at once"]
pub(crate) struct Claim<'q, T> {
    queue: &'q BatchQueue<T>,
}

impl<T> Claim<'_, T> {
    /// Whether this is `queue`'s claim.
    pub(crate) fn is_for(&self, queue: &BatchQueue<T>) -> bool {
        std::ptr::eq(self.queue, queue)
    }
}

impl<T> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        let mut st = self.queue.lock();
        st.executing = false;
        let wake = st.consumer_needs_wake();
        drop(st);
        if wake {
            self.queue.cv.notify_one();
        }
    }
}

impl<T> std::fmt::Debug for Claim<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Claim").finish_non_exhaustive()
    }
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    paused: bool,
    /// A [`Claim`] is outstanding.
    executing: bool,
    /// The consumer is parked in `take_batch`.
    waiting: bool,
}

impl<T> State<T> {
    /// Whether `take_batch` may hand out a batch now.
    fn consumer_may_run(&self) -> bool {
        !self.executing && (self.closed || (!self.paused && !self.items.is_empty()))
    }

    /// The consumer is parked although it could proceed: it must be
    /// notified. Every state change that can make `consumer_may_run`
    /// true checks this under the lock, and the consumer sets `waiting`
    /// under the same lock before it parks, so no wake-up is lost.
    fn consumer_needs_wake(&self) -> bool {
        self.waiting && self.consumer_may_run()
    }
}

/// The bounded batch queue. One consumer, any number of producers.
pub struct BatchQueue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

impl<T> Default for BatchQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BatchQueue<T> {
    /// An empty, open, unpaused queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                paused: false,
                executing: false,
                waiting: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `item` unless the queue is closed or at the high-water
    /// mark. On success returns the depth *after* the push.
    ///
    /// # Errors
    ///
    /// [`OfferError::Rejected`] at or above `high_water`,
    /// [`OfferError::Closed`] after [`close`](Self::close); both return
    /// the item unconsumed.
    pub fn offer(&self, item: T, high_water: usize) -> Result<usize, OfferError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(OfferError::Closed(item));
        }
        if st.items.len() >= high_water {
            let depth = st.items.len();
            return Err(OfferError::Rejected { item, depth });
        }
        st.items.push_back(item);
        let depth = st.items.len();
        let wake = st.consumer_needs_wake();
        drop(st);
        if wake {
            self.cv.notify_one();
        }
        Ok(depth)
    }

    /// Takes the execution claim if the queue is idle: nothing queued,
    /// no claim outstanding, neither paused nor closed. The holder may
    /// run work it would otherwise have offered; nothing queued is ahead
    /// of it, and nothing else executes until the claim drops.
    pub(crate) fn try_claim(&self) -> Option<Claim<'_, T>> {
        let mut st = self.lock();
        if st.executing || st.paused || st.closed || !st.items.is_empty() {
            return None;
        }
        st.executing = true;
        Some(Claim { queue: self })
    }

    /// Blocks until items are available (or the queue closes) and no
    /// other claim is outstanding, then takes the claim and drains up to
    /// `max` items. While paused, nothing is handed out until
    /// [`resume`](Self::resume) — except that closing overrides pausing,
    /// so a shutdown drain can never hang on a paused server.
    pub fn take_batch(&self, max: usize) -> Batch<'_, T> {
        let mut st = self.lock();
        while !st.consumer_may_run() {
            st.waiting = true;
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.waiting = false;
        }
        st.executing = true;
        let n = st.items.len().min(max.max(1));
        let items: Vec<T> = st.items.drain(..n).collect();
        Batch {
            items,
            closing: st.closed,
            claim: Claim { queue: self },
        }
    }

    /// Closes admission. Queued items remain drainable; the consumer
    /// sees `closing` batches until an empty one signals completion.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Stops the consumer from draining and callers from claiming
    /// (admission continues): the deterministic way to fill a queue up
    /// to its high-water mark.
    pub fn pause(&self) {
        self.lock().paused = true;
    }

    /// Undoes [`pause`](Self::pause).
    pub fn resume(&self) {
        self.lock().paused = false;
        self.cv.notify_all();
    }

    /// Current depth (racy, for reporting).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty (racy, for reporting).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::fmt::Debug for BatchQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("BatchQueue")
            .field("depth", &st.items.len())
            .field("closed", &st.closed)
            .field("paused", &st.paused)
            .field("executing", &st.executing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offers_accumulate_and_drain_in_order() {
        let q = BatchQueue::new();
        for i in 0..5 {
            assert_eq!(q.offer(i, 16).unwrap(), i as usize + 1);
        }
        let b = q.take_batch(3);
        assert_eq!(b.items, vec![0, 1, 2]);
        assert!(!b.closing);
        drop(b);
        let b = q.take_batch(16);
        assert_eq!(b.items, vec![3, 4]);
    }

    #[test]
    fn high_water_rejection_is_exact_and_returns_the_item() {
        let q = BatchQueue::new();
        q.pause();
        for i in 0..4 {
            q.offer(i, 4).unwrap();
        }
        match q.offer(99, 4) {
            Err(OfferError::Rejected { item, depth }) => {
                assert_eq!(item, 99);
                assert_eq!(depth, 4);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Draining one slot re-opens admission at the same mark.
        q.resume();
        assert_eq!(q.take_batch(1).items, vec![0]);
        assert!(q.offer(99, 4).is_ok());
    }

    #[test]
    fn close_stops_admission_but_not_draining() {
        let q = BatchQueue::new();
        q.offer(1, 8).unwrap();
        q.offer(2, 8).unwrap();
        q.close();
        assert!(matches!(q.offer(3, 8), Err(OfferError::Closed(3))));
        let b = q.take_batch(1);
        assert_eq!(b.items, vec![1]);
        assert!(b.closing, "batches after close must carry the flag");
        drop(b);
        let b = q.take_batch(8);
        assert_eq!(b.items, vec![2]);
        drop(b);
        let b = q.take_batch(8);
        assert!(
            b.items.is_empty() && b.closing,
            "empty closing batch ends the drain"
        );
    }

    #[test]
    fn pause_holds_items_until_resume() {
        let q = std::sync::Arc::new(BatchQueue::new());
        q.pause();
        q.offer(7, 8).unwrap();
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.take_batch(8).items);
        // The consumer must be parked; give it a moment then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!h.is_finished(), "take_batch must block while paused");
        q.resume();
        assert_eq!(h.join().unwrap(), vec![7]);
    }

    #[test]
    fn close_overrides_pause() {
        let q = BatchQueue::<u32>::new();
        q.pause();
        q.close();
        let b = q.take_batch(8);
        assert!(b.items.is_empty() && b.closing);
    }

    #[test]
    fn claim_is_exclusive_and_granted_only_when_idle() {
        let q = BatchQueue::new();
        let claim = q.try_claim().expect("an idle queue grants the claim");
        assert!(q.try_claim().is_none(), "one claim at a time");
        assert_eq!(q.offer(1, 8).unwrap(), 1, "a claimed queue still admits");
        drop(claim);
        assert!(q.try_claim().is_none(), "an item is queued ahead");
        let batch = q.take_batch(8);
        assert_eq!(batch.items, vec![1]);
        assert!(q.try_claim().is_none(), "the consumer holds the claim");
        drop(batch);
        drop(q.try_claim().expect("idle again"));
        q.pause();
        assert!(q.try_claim().is_none(), "a paused queue grants no claim");
        q.resume();
        q.close();
        assert!(q.try_claim().is_none(), "a closed queue grants no claim");
    }

    /// Lost-wakeup stress: in each round several producers race a
    /// consumer that has drained the queue and parked. Each producer
    /// offers one item and tries to run another itself under a claim,
    /// so both wake paths fire against the parking consumer: a push,
    /// and a claim released with items queued behind it. The round ends
    /// only when every item has arrived, so a single lost wake-up leaves
    /// the consumer parked for good and the watchdog fails the test.
    #[test]
    fn parked_consumer_never_misses_a_wakeup() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;

        let _watchdog =
            citrus_api::testkit::stress_watchdog("queue::parked_consumer_never_misses_a_wakeup");
        const PRODUCERS: usize = 3;
        const ROUNDS: u64 = 2_000;
        let q = BatchQueue::new();
        let arrived = AtomicU64::new(0);
        // Per producer, the last sequence number seen by either path,
        // and every out-of-order arrival.
        let order: Mutex<(Vec<Option<u64>>, Vec<String>)> =
            Mutex::new((vec![None; PRODUCERS], Vec::new()));
        let record = |p: usize, seq: u64| {
            let mut order = order.lock().unwrap();
            let (last, bad) = &mut *order;
            if last[p] >= Some(seq) {
                bad.push(format!("producer {p}: {seq} after {:?}", last[p]));
            }
            last[p] = Some(seq);
            arrived.fetch_add(1, Ordering::SeqCst);
        };
        let round = Barrier::new(PRODUCERS + 1);
        std::thread::scope(|s| {
            let consumer = s.spawn(|| loop {
                let batch = q.take_batch(4);
                if batch.items.is_empty() {
                    return batch.closing;
                }
                for &(p, seq) in &batch.items {
                    record(p, seq);
                }
            });
            for p in 0..PRODUCERS {
                let (q, record, round) = (&q, &record, &round);
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        round.wait();
                        for i in 0..2 {
                            let seq = 2 * r + i;
                            if i == r % 2 {
                                if let Some(_claim) = q.try_claim() {
                                    record(p, seq);
                                    continue;
                                }
                            }
                            q.offer((p, seq), usize::MAX).expect("the queue is open");
                        }
                        round.wait();
                    }
                });
            }
            for r in 1..=ROUNDS {
                round.wait();
                round.wait();
                let expected = r * 2 * PRODUCERS as u64;
                while arrived.load(Ordering::SeqCst) < expected {
                    std::thread::yield_now();
                }
            }
            q.close();
            assert!(consumer.join().unwrap(), "only the closing batch is empty");
        });
        let (_, bad) = order.into_inner().unwrap();
        assert!(bad.is_empty(), "out of order: {bad:?}");
        assert_eq!(arrived.into_inner(), ROUNDS * 2 * PRODUCERS as u64);
    }
}
