//! The server proper: per-shard executors over a [`CitrusForest`], plus
//! the client-side [`ServeSession`] that makes the whole pipeline look
//! like an ordinary [`MapSession`].
//!
//! # Shape
//!
//! Each forest shard has a [`BatchQueue`] mailbox, one executor state (a
//! long-lived `ForestSession` opened on first use) and one drain worker
//! thread. Clients route each request to its shard with the forest's own
//! router ([`CitrusForest::shard_for`]). Whoever holds the queue's
//! [`Claim`] executes the shard's requests with its executor state, so
//! at most one thread executes a shard at a time:
//!
//! - **Run to completion when idle.** If the shard is idle (nothing
//!   queued, nothing executing, not paused or closed), `submit` takes
//!   the claim and executes the request on the calling thread, returning
//!   a ticket that is already resolved. No thread is woken.
//! - **Queue when busy.** Otherwise the request is queued; the worker
//!   takes the claim per batch, drains up to `batch_max` requests per
//!   queue-lock acquisition and executes them in arrival order.
//!
//! A request runs inline only when nothing is queued ahead of it, so
//! each shard still executes its requests in submission order.
//!
//! # Correctness at this boundary
//!
//! Each response is delivered *after* its request executes, so every
//! operation's linearization point falls inside its invocation/response
//! window and the server composition preserves the forest's
//! linearizability — that is exactly what the end-to-end lincheck suite
//! verifies, and what the planted `serve/drain/ack-before-apply` mutant
//! (which acknowledges a write with a predicted result before executing
//! it) deliberately breaks.

use std::cell::UnsafeCell;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use citrus::{CitrusForest, ForestSession, RcuFlavor, ScalableRcu};
use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos as chaos;
use citrus_obs::Stopwatch;

use crate::config::ServeConfig;
use crate::metrics::ServeMetrics;
use crate::queue::{BatchQueue, Claim, OfferError};

/// The three latency classes a request falls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Point reads: `get`, `contains`.
    Read,
    /// Point writes: `insert`, `remove`.
    Write,
    /// Ordered traversals: `range_scan`, `successor`, `predecessor`.
    Scan,
}

impl OpClass {
    /// Stable label used in benchmark rows and metric names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Read => "get",
            OpClass::Write => "write",
            OpClass::Scan => "scan",
        }
    }

    /// All classes, in report order.
    pub const ALL: [OpClass; 3] = [OpClass::Read, OpClass::Write, OpClass::Scan];
}

/// One client request. Scans route by their low bound, every other op by
/// its key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request<K, V> {
    /// `get(key)`.
    Get(K),
    /// `contains(key)`.
    Contains(K),
    /// `insert(key, value)`.
    Insert(K, V),
    /// `remove(key)`.
    Remove(K),
    /// `range_scan(lo, hi)` (inclusive bounds).
    Scan(K, K),
    /// `successor(key)`.
    Successor(K),
    /// `predecessor(key)`.
    Predecessor(K),
}

impl<K, V> Request<K, V> {
    /// The latency class this request is accounted under.
    #[must_use]
    pub fn class(&self) -> OpClass {
        match self {
            Request::Get(_) | Request::Contains(_) => OpClass::Read,
            Request::Insert(..) | Request::Remove(_) => OpClass::Write,
            Request::Scan(..) | Request::Successor(_) | Request::Predecessor(_) => OpClass::Scan,
        }
    }

    /// `true` for the mutating requests (insert/remove).
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.class() == OpClass::Write
    }

    /// The key the request routes by.
    #[must_use]
    pub fn route_key(&self) -> &K {
        match self {
            Request::Get(k)
            | Request::Contains(k)
            | Request::Insert(k, _)
            | Request::Remove(k)
            | Request::Scan(k, _)
            | Request::Successor(k)
            | Request::Predecessor(k) => k,
        }
    }
}

/// The result of one [`Request`], with one variant per result shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response<K, V> {
    /// `get` → the value, if present.
    Value(Option<V>),
    /// `contains` / `insert` / `remove` → the boolean outcome.
    Flag(bool),
    /// `range_scan` → the matching entries in ascending key order.
    Entries(Vec<(K, V)>),
    /// `successor` / `predecessor` → the neighbouring entry, if any.
    Entry(Option<(K, V)>),
}

/// Why a submission did not produce a [`Ticket`]. Both variants hand the
/// request back so the caller can retry without cloning.
#[derive(Debug)]
pub enum SubmitError<K, V> {
    /// The target shard queue is at its high-water mark. Back off for
    /// `retry_after`, then resubmit.
    Rejected {
        /// The request, returned unconsumed.
        req: Request<K, V>,
        /// How long the server suggests waiting before the retry.
        retry_after: Duration,
        /// Shard queue depth observed at rejection time.
        depth: usize,
    },
    /// The server is shutting down (or has shut down); the request was
    /// not enqueued and never will be.
    Closed(Request<K, V>),
}

/// The session-level terminal error: the server closed underneath us.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerClosed;

impl std::fmt::Display for ServerClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("citrus-serve: server is shut down")
    }
}

impl std::error::Error for ServerClosed {}

/// The response rendezvous: the worker delivers into it, the client waits
/// on it.
struct Slot<K, V> {
    state: Mutex<SlotState<K, V>>,
    cv: Condvar,
}

struct SlotState<K, V> {
    resp: Option<Response<K, V>>,
    /// The ticket holder is parked in `wait`: only then does delivery
    /// need a (syscall-priced) notify.
    waiting: bool,
}

impl<K, V> Slot<K, V> {
    fn new(resp: Option<Response<K, V>>) -> Self {
        Self {
            state: Mutex::new(SlotState {
                resp,
                waiting: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn deliver(&self, resp: Response<K, V>) {
        let mut g = self.lock();
        g.resp = Some(resp);
        let wake = g.waiting;
        drop(g);
        if wake {
            self.cv.notify_one();
        }
    }
}

/// A claim check for one accepted request. Every accepted request is
/// eventually delivered — including during a shutdown drain — so
/// [`wait`](Ticket::wait) always returns. A request that ran on the
/// submitting thread comes back with its ticket already resolved.
/// Dropping a ticket abandons the response harmlessly (the request is
/// still executed).
pub struct Ticket<K, V> {
    slot: Arc<Slot<K, V>>,
}

impl<K, V> std::fmt::Debug for Ticket<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl<K, V> Ticket<K, V> {
    /// Blocks until this request's response is delivered.
    #[must_use]
    pub fn wait(self) -> Response<K, V> {
        let mut g = self.slot.lock();
        loop {
            if let Some(r) = g.resp.take() {
                return r;
            }
            g.waiting = true;
            g = self.slot.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// `true` once the response has been delivered (non-blocking).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.slot.lock().resp.is_some()
    }
}

struct Envelope<K, V> {
    req: Request<K, V>,
    slot: Arc<Slot<K, V>>,
}

/// Always-on counters (plain atomics, *not* `stats`-gated): the
/// correctness suites assert on these, so they must exist in every build.
#[derive(Debug, Default)]
pub struct ServeCounters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    executed: AtomicU64,
    inline_executed: AtomicU64,
    acked_writes: AtomicU64,
    recycled_sessions: AtomicU64,
}

impl ServeCounters {
    /// Requests admitted: queued for a shard worker or executed on the
    /// submitting thread.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Requests turned away at the high-water mark.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Batches executed: drained by shard workers, plus one per request
    /// executed on the submitting thread, so `executed / batches` is the
    /// mean batch size.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Requests executed against the forest.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Requests executed on the submitting thread because their shard
    /// was idle (a subset of [`executed`](Self::executed)).
    #[must_use]
    pub fn inline_executed(&self) -> u64 {
        self.inline_executed.load(Ordering::Relaxed)
    }

    /// Write responses delivered to clients. The shutdown-drain contract
    /// is about exactly these: every one of them is visible in the final
    /// forest state.
    #[must_use]
    pub fn acked_writes(&self) -> u64 {
        self.acked_writes.load(Ordering::Relaxed)
    }

    /// Executor forest-sessions dropped and reopened by the
    /// `recycle_ops` churn knob.
    #[must_use]
    pub fn recycled_sessions(&self) -> u64 {
        self.recycled_sessions.load(Ordering::Relaxed)
    }
}

struct ServerInner<K: 'static, V: 'static, F: RcuFlavor> {
    /// Declared before `forest`: each shard's executor session borrows
    /// the forest, so it must be dropped first.
    shards: Vec<Shard<K, V, F>>,
    forest: CitrusForest<K, V, F>,
    config: ServeConfig,
    counters: ServeCounters,
    metrics: ServeMetrics,
}

/// One shard's mailbox and the executor state that the holder of the
/// mailbox's [`Claim`] executes requests with.
struct Shard<K: 'static, V: 'static, F: RcuFlavor> {
    queue: BatchQueue<Envelope<K, V>>,
    executor: UnsafeCell<Executor<K, V, F>>,
}

// SAFETY: `executor` is reached only through `Shard::executor`, which
// requires this shard's queue claim, and the queue grants at most one
// claim at a time, taking and releasing it under the queue mutex. So no
// two threads ever access an executor at once (`Sync`), and each holder
// happens-after the previous one. An executor does move between threads
// (`Send`): from one claim holder to the next, and to whichever thread
// drops the server. Field by field:
// - `session`: a `ForestSession`, not `Send` because its per-shard RCU
//   reader and EBR participant slots must not migrate inside a read-side
//   section or an epoch pin. Every session operation enters and leaves
//   both within the call, so between operations — the only points where
//   a claim changes hands — read-side nesting and pin depth are zero and
//   the slots carry no per-thread state. Its unflushed retire lists and
//   `Leak`-mode graveyard hold unlinked nodes of `K` and `V`, which may
//   be freed on any thread because `K, V: Send`. Its references to the
//   forest and its trees may cross threads because the forest is `Sync`
//   for `K, V: Send + Sync`; the forest outlives the session (see
//   `ServerInner::execute`).
// - `stashed`: a `Request<K, V>`, `Send` because `K, V: Send`.
// - `since_recycle`: a plain integer.
// `queue` is `Send + Sync` whenever `Envelope<K, V>` is `Send`, i.e. for
// `K, V: Send`.
unsafe impl<K, V, F> Send for Shard<K, V, F>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
    F: RcuFlavor,
{
}
// SAFETY: as for `Send` above.
unsafe impl<K, V, F> Sync for Shard<K, V, F>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
    F: RcuFlavor,
{
}

impl<K: 'static, V: 'static, F: RcuFlavor> Shard<K, V, F> {
    fn new() -> Self {
        Self {
            queue: BatchQueue::new(),
            executor: UnsafeCell::new(Executor {
                session: None,
                since_recycle: 0,
                stashed: None,
            }),
        }
    }

    /// The executor state, for as long as `claim` — this shard's queue
    /// claim — stays borrowed.
    fn executor<'c>(
        &'c self,
        claim: &'c mut Claim<'_, Envelope<K, V>>,
    ) -> &'c mut Executor<K, V, F> {
        assert!(
            claim.is_for(&self.queue),
            "executor access needs this shard's claim"
        );
        // SAFETY: the claim is this queue's, so no other thread holds
        // one, and the exclusive borrow of it lasts as long as the
        // returned reference, so this thread cannot obtain a second
        // reference either (see the `Sync` impl above).
        unsafe { &mut *self.executor.get() }
    }
}

/// What a shard's requests execute with, owned by the holder of the
/// shard's claim: the worker for a batch, or a submitting caller for one
/// request on an idle shard.
struct Executor<K: 'static, V: 'static, F: RcuFlavor> {
    /// Opened on first use, so building a server opens no session. The
    /// `'static` stands for "as long as the server's forest", see
    /// [`ServerInner::execute`].
    session: Option<ForestSession<'static, K, V, F>>,
    /// Requests executed since the session was last opened.
    since_recycle: u64,
    /// The `serve/drain/ack-before-apply` mutant stashes at most one
    /// acknowledged-but-unexecuted write here. The stash is applied after
    /// the *next* request executes (that misordering is the planted bug),
    /// before a session recycle, and when the worker exits — so even the
    /// mutant never loses an acknowledged write, it only reorders it.
    stashed: Option<Request<K, V>>,
}

impl<K, V, F: RcuFlavor> Executor<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Applies the mutant's stashed write, if any.
    fn apply_stash(&mut self) {
        if let (Some(req), Some(session)) = (self.stashed.take(), self.session.as_mut()) {
            let _ = exec(session, req);
        }
    }
}

impl<K, V, F> ServerInner<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    /// Executes `req` with shard `idx`'s executor state, under that
    /// shard's `claim`, and returns its response — counted as executed
    /// (and as an acked write) before the caller can deliver it. The
    /// workers and inline submits both execute through here.
    fn execute(
        &self,
        idx: usize,
        claim: &mut Claim<'_, Envelope<K, V>>,
        req: Request<K, V>,
    ) -> Response<K, V> {
        let executor = self.shards[idx].executor(claim);
        let session = executor.session.get_or_insert_with(|| {
            // SAFETY: only the lifetime changes. The session borrows
            // `self.forest`, which sits beside the executor in this
            // `ServerInner`, inside an `Arc` that never moves it while a
            // session exists: `shards` is declared before `forest`, so an
            // in-place drop closes every session first, and
            // `Server::into_forest` drops the shards before it moves the
            // forest out.
            unsafe {
                std::mem::transmute::<ForestSession<'_, K, V, F>, ForestSession<'static, K, V, F>>(
                    self.forest.session(),
                )
            }
        });
        let stashed = executor.stashed.take();
        if chaos::mutant_enabled("serve/drain/ack-before-apply") && req.is_write() {
            if let Some(prev) = stashed {
                let _ = exec(session, prev);
            }
            let predicted = match &req {
                Request::Insert(k, _) => Response::Flag(!session.contains(k)),
                Request::Remove(k) => Response::Flag(session.contains(k)),
                _ => unreachable!("is_write() covers exactly insert/remove"),
            };
            self.counters.acked_writes.fetch_add(1, Ordering::Relaxed);
            executor.stashed = Some(req);
            return predicted;
        }
        let is_write = req.is_write();
        let resp = exec(session, req);
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
        if is_write {
            self.counters.acked_writes.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(prev) = stashed {
            let _ = exec(session, prev);
        }
        executor.since_recycle += 1;
        if self.config.recycle_ops > 0 && executor.since_recycle >= self.config.recycle_ops {
            executor.session = None;
            self.counters
                .recycled_sessions
                .fetch_add(1, Ordering::Relaxed);
            executor.since_recycle = 0;
        }
        resp
    }
}

/// Executes one request against a forest session, consuming the request.
fn exec<K, V, S>(session: &mut S, req: Request<K, V>) -> Response<K, V>
where
    S: MapSession<K, V> + OrderedMapSession<K, V>,
{
    match req {
        Request::Get(k) => Response::Value(session.get(&k)),
        Request::Contains(k) => Response::Flag(session.contains(&k)),
        Request::Insert(k, v) => Response::Flag(session.insert(k, v)),
        Request::Remove(k) => Response::Flag(session.remove(&k)),
        Request::Scan(lo, hi) => Response::Entries(session.range_scan(&lo, &hi)),
        Request::Successor(k) => Response::Entry(session.successor(&k)),
        Request::Predecessor(k) => Response::Entry(session.predecessor(&k)),
    }
}

fn worker_loop<K, V, F>(inner: &ServerInner<K, V, F>, shard: usize)
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    loop {
        let mut batch = inner.shards[shard].queue.take_batch(inner.config.batch_max);
        if batch.closing {
            chaos::point!("serve/shutdown/drain");
            if batch.items.is_empty() {
                inner.shards[shard].executor(&mut batch.claim).apply_stash();
                return;
            }
        }
        chaos::point!("serve/batch/drain");
        inner.counters.batches.fetch_add(1, Ordering::Relaxed);
        inner.metrics.batch_size.record(batch.items.len() as u64);
        for env in batch.items {
            env.slot
                .deliver(inner.execute(shard, &mut batch.claim, env.req));
        }
    }
}

/// The batched, backpressured request layer over a [`CitrusForest`].
///
/// Construction spawns one named worker thread per shard; [`Drop`] (or an
/// explicit [`shutdown`](Server::shutdown)) closes admission, drains every
/// queued request, and joins the workers — no acknowledged write is ever
/// lost to a shutdown.
pub struct Server<K, V, F: RcuFlavor = ScalableRcu>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    inner: Arc<ServerInner<K, V, F>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    closed: AtomicBool,
}

impl<K, V> Server<K, V, ScalableRcu>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Serves `forest` with the default [`ServeConfig`].
    #[must_use]
    pub fn new(forest: CitrusForest<K, V>) -> Self {
        Self::with_config(forest, ServeConfig::default())
    }
}

impl<K, V, F> Server<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    /// Takes ownership of `forest` and spawns one drain worker per shard
    /// (threads named `citrus-serve-<shard>`).
    #[must_use]
    pub fn with_config(forest: CitrusForest<K, V, F>, config: ServeConfig) -> Self {
        let shards = forest.shard_count();
        let inner = Arc::new(ServerInner {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            forest,
            config,
            counters: ServeCounters::default(),
            metrics: ServeMetrics::new(),
        });
        let workers = (0..shards)
            .map(|shard| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("citrus-serve-{shard}"))
                    .spawn(move || worker_loop(&inner, shard))
                    .expect("spawn citrus-serve worker")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(workers),
            closed: AtomicBool::new(false),
        }
    }

    /// Routes `req` to its shard. If the shard is idle — nothing queued,
    /// nothing executing, not paused, not closed — the request executes
    /// on the calling thread and the returned [`Ticket`] is already
    /// resolved. Otherwise it joins the shard's queue for the worker. On
    /// success the ticket will always resolve; on rejection the caller
    /// owns the back-off (the blocking [`ServeSession`] API does it for
    /// you).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] past the high-water mark,
    /// [`SubmitError::Closed`] after shutdown began.
    pub fn submit(&self, req: Request<K, V>) -> Result<Ticket<K, V>, SubmitError<K, V>> {
        let inner = &*self.inner;
        let idx = inner.forest.shard_for(req.route_key());
        let shard = &inner.shards[idx];
        if let Some(mut claim) = shard.queue.try_claim() {
            chaos::point!("serve/inline/execute");
            inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
            inner.counters.batches.fetch_add(1, Ordering::Relaxed);
            inner
                .counters
                .inline_executed
                .fetch_add(1, Ordering::Relaxed);
            inner.metrics.batch_size.record(1);
            let resp = inner.execute(idx, &mut claim, req);
            let slot = Arc::new(Slot::new(Some(resp)));
            // Releasing wakes the worker only if requests queued behind
            // this one.
            drop(claim);
            return Ok(Ticket { slot });
        }
        chaos::point!("serve/batch/enqueue");
        let slot = Arc::new(Slot::new(None));
        let env = Envelope {
            req,
            slot: Arc::clone(&slot),
        };
        match shard.queue.offer(env, inner.config.high_water) {
            Ok(depth) => {
                inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
                inner.metrics.depth_hwm.observe(depth as u64);
                Ok(Ticket { slot })
            }
            Err(OfferError::Rejected { item, depth }) => {
                chaos::point!("serve/admission/reject");
                inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Rejected {
                    req: item.req,
                    retry_after: inner.config.retry_after,
                    depth,
                })
            }
            Err(OfferError::Closed(item)) => Err(SubmitError::Closed(item.req)),
        }
    }

    /// Number of shards (== worker threads, == queues).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard `key` routes to (the forest router's verdict).
    #[must_use]
    pub fn shard_for(&self, key: &K) -> usize {
        self.inner.forest.shard_for(key)
    }

    /// Current depth of one shard queue (racy, for reporting/tests).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    #[must_use]
    pub fn queue_len(&self, shard: usize) -> usize {
        self.inner.shards[shard].queue.len()
    }

    /// The always-on request counters.
    #[must_use]
    pub fn counters(&self) -> &ServeCounters {
        &self.inner.counters
    }

    /// The `stats`-gated latency/batch instruments.
    #[must_use]
    pub fn metrics(&self) -> &ServeMetrics {
        &self.inner.metrics
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Freezes execution on every shard (admission continues, and every
    /// admitted request is queued): the deterministic way to fill queues
    /// up to the high-water mark in tests. A request already executing
    /// finishes. Shutdown overrides a pause, so a paused server still
    /// drains cleanly.
    pub fn pause(&self) {
        for shard in &self.inner.shards {
            shard.queue.pause();
        }
    }

    /// Undoes [`pause`](Server::pause).
    pub fn resume(&self) {
        for shard in &self.inner.shards {
            shard.queue.resume();
        }
    }

    /// Graceful shutdown: closes admission, lets every worker drain its
    /// queue to empty (delivering all outstanding responses), and joins
    /// the worker threads. Idempotent; also run by [`Drop`].
    pub fn shutdown(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.inner.shards {
            // A paused worker must still drain: resume before closing.
            shard.queue.resume();
            shard.queue.close();
        }
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for w in workers {
            // A worker that panicked already delivered or abandoned its
            // batch; surface the panic instead of hiding it.
            if let Err(e) = w.join() {
                std::panic::resume_unwind(e);
            }
        }
    }

    /// Shuts down (draining as above) and hands back the forest, e.g. for
    /// `validate_structure` / `to_vec_quiescent` replay checks.
    #[must_use]
    pub fn into_forest(self) -> CitrusForest<K, V, F> {
        self.shutdown();
        let mut inner = Arc::clone(&self.inner);
        drop(self);
        let Some(owned) = Arc::get_mut(&mut inner) else {
            unreachable!("workers are joined; no other owners remain")
        };
        // Close the executors' sessions while the forest they borrow is
        // still in place: unwrapping the `Arc` below moves it.
        owned.shards.clear();
        match Arc::try_unwrap(inner) {
            Ok(inner) => inner.forest,
            Err(_) => unreachable!("workers are joined; no other owners remain"),
        }
    }
}

impl<K, V, F> Drop for Server<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<K, V, F> std::fmt::Debug for Server<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("shards", &self.shard_count())
            .field("config", &self.inner.config)
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

/// A client handle: submits each request through [`Server::submit`] —
/// executed on this thread when its shard is idle, queued for the shard
/// worker otherwise — and blocks for each response, honoring
/// `retry-after` back-off on rejection. This is the adapter the
/// end-to-end lincheck and conformance suites drive — through it,
/// `citrus-serve` *is* a [`ConcurrentMap`].
pub struct ServeSession<'s, K, V, F: RcuFlavor = ScalableRcu>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    server: &'s Server<K, V, F>,
    rejections: u64,
}

impl<'s, K, V, F> ServeSession<'s, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn new(server: &'s Server<K, V, F>) -> Self {
        Self {
            server,
            rejections: 0,
        }
    }

    /// How many times this session has been turned away at the high-water
    /// mark (and backed off as told).
    #[must_use]
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Submits `req`, sleeping `retry_after` and resubmitting on each
    /// rejection, and blocks for the response.
    ///
    /// # Errors
    ///
    /// [`ServerClosed`] if the server shut down before the request was
    /// admitted.
    pub fn try_call(&mut self, mut req: Request<K, V>) -> Result<Response<K, V>, ServerClosed> {
        let class = req.class();
        let sw = Stopwatch::start();
        loop {
            match self.server.submit(req) {
                Ok(ticket) => {
                    let resp = ticket.wait();
                    self.server
                        .inner
                        .metrics
                        .latency(class)
                        .record(sw.elapsed_ns());
                    return Ok(resp);
                }
                Err(SubmitError::Rejected {
                    req: returned,
                    retry_after,
                    ..
                }) => {
                    self.rejections += 1;
                    std::thread::sleep(retry_after);
                    req = returned;
                }
                Err(SubmitError::Closed(_)) => return Err(ServerClosed),
            }
        }
    }

    fn call(&mut self, req: Request<K, V>) -> Response<K, V> {
        self.try_call(req)
            .expect("citrus-serve: server shut down under a live session")
    }
}

impl<K, V, F> MapSession<K, V> for ServeSession<'_, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn get(&mut self, key: &K) -> Option<V> {
        match self.call(Request::Get(key.clone())) {
            Response::Value(v) => v,
            _ => unreachable!("Get always yields Value"),
        }
    }

    fn contains(&mut self, key: &K) -> bool {
        match self.call(Request::Contains(key.clone())) {
            Response::Flag(b) => b,
            _ => unreachable!("Contains always yields Flag"),
        }
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        match self.call(Request::Insert(key, value)) {
            Response::Flag(b) => b,
            _ => unreachable!("Insert always yields Flag"),
        }
    }

    fn remove(&mut self, key: &K) -> bool {
        match self.call(Request::Remove(key.clone())) {
            Response::Flag(b) => b,
            _ => unreachable!("Remove always yields Flag"),
        }
    }
}

impl<K, V, F> OrderedMapSession<K, V> for ServeSession<'_, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        match self.call(Request::Scan(lo.clone(), hi.clone())) {
            Response::Entries(entries) => entries,
            _ => unreachable!("Scan always yields Entries"),
        }
    }

    fn successor(&mut self, key: &K) -> Option<(K, V)> {
        match self.call(Request::Successor(key.clone())) {
            Response::Entry(e) => e,
            _ => unreachable!("Successor always yields Entry"),
        }
    }

    fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        match self.call(Request::Predecessor(key.clone())) {
            Response::Entry(e) => e,
            _ => unreachable!("Predecessor always yields Entry"),
        }
    }
}

impl<K, V, F> ConcurrentMap<K, V> for Server<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    type Session<'a>
        = ServeSession<'a, K, V, F>
    where
        Self: 'a;

    const NAME: &'static str = "citrus-serve";

    fn session(&self) -> Self::Session<'_> {
        ServeSession::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citrus::ReclaimMode;

    fn small_server() -> Server<u64, u64> {
        let forest = CitrusForest::with_options(4, 7, ReclaimMode::Epoch, false);
        Server::new(forest)
    }

    #[test]
    fn point_ops_round_trip_through_the_pipeline() {
        let server = small_server();
        let mut s = server.session();
        assert!(s.insert(5, 50));
        assert!(
            !s.insert(5, 51),
            "duplicate insert must report absent=false"
        );
        assert_eq!(s.get(&5), Some(50));
        assert!(s.contains(&5));
        assert!(s.remove(&5));
        assert_eq!(s.get(&5), None);
        assert!(server.counters().accepted() >= 6);
        assert_eq!(server.counters().acked_writes(), 3);
    }

    #[test]
    fn ordered_ops_cross_shards() {
        let server = small_server();
        let mut s = server.session();
        for k in 0..64u64 {
            s.insert(k, k * 10);
        }
        let entries = s.range_scan(&10, &13);
        assert_eq!(entries, vec![(10, 100), (11, 110), (12, 120), (13, 130)]);
        assert_eq!(s.successor(&13), Some((14, 140)));
        assert_eq!(s.predecessor(&10), Some((9, 90)));
    }

    #[test]
    fn shutdown_then_submit_is_closed() {
        let server = small_server();
        {
            let mut s = server.session();
            s.insert(1, 1);
        }
        server.shutdown();
        server.shutdown(); // idempotent
        match server.submit(Request::Get(1)) {
            Err(SubmitError::Closed(Request::Get(1))) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn into_forest_reflects_acked_writes() {
        let server = small_server();
        {
            let mut s = server.session();
            for k in 0..32u64 {
                assert!(s.insert(k, k + 1000));
            }
            assert!(s.remove(&7));
        }
        let acked = server.counters().acked_writes();
        assert_eq!(acked, 33);
        let mut forest = server.into_forest();
        forest.validate_structure().expect("forest invariants hold");
        let contents = forest.to_vec_quiescent();
        assert_eq!(contents.len(), 31);
        assert!(!contents.iter().any(|(k, _)| *k == 7));
    }

    #[test]
    fn pause_defers_execution_until_resume() {
        let server = small_server();
        server.pause();
        let ticket = server.submit(Request::Insert(3, 30)).unwrap();
        assert_eq!(
            server.queue_len(server.shard_for(&3)),
            1,
            "a paused shard queues instead of executing on the caller"
        );
        std::thread::sleep(Duration::from_millis(10));
        assert!(!ticket.is_ready(), "paused workers must not execute");
        assert_eq!(server.counters().executed(), 0);
        server.resume();
        assert_eq!(ticket.wait(), Response::Flag(true));
        assert_eq!(server.counters().inline_executed(), 0);
    }

    #[test]
    fn request_classes_and_routing_keys() {
        let req: Request<u64, u64> = Request::Scan(4, 9);
        assert_eq!(req.class(), OpClass::Scan);
        assert_eq!(*req.route_key(), 4, "scans route by their low bound");
        assert!(Request::<u64, u64>::Insert(1, 2).is_write());
        assert!(!Request::<u64, u64>::Contains(1).is_write());
        assert_eq!(OpClass::Write.label(), "write");
    }
}
