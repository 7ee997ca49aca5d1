//! `citrus-serve`: a batched, backpressured ordered-KV request layer over
//! [`CitrusForest`](citrus::CitrusForest).
//!
//! The forest gives linearizable point ops and ordered scans per shard;
//! this crate puts a serving front end on it:
//!
//! - **Run to completion when idle** — each shard has one executor state
//!   (a long-lived forest session) and a bounded mailbox
//!   ([`BatchQueue`]); requests route to shards with the forest's own
//!   router. A request whose shard is idle executes on the submitting
//!   thread and returns an already-resolved [`Ticket`], with no thread
//!   hand-off; whoever holds the queue's execution claim is the only thread
//!   executing that shard.
//! - **Per-shard batching** — a request that finds its shard busy is
//!   queued; the shard's drain worker takes the claim and drains up to
//!   `batch_max` requests per queue-lock acquisition, executing them in
//!   arrival order.
//! - **Admission control** — a shard queue at its `high_water` mark
//!   rejects with [`SubmitError::Rejected`] carrying a `retry_after`
//!   hint instead of queueing unboundedly; the blocking
//!   [`ServeSession`] honors the hint automatically.
//! - **Graceful shutdown** — closing the server drains every queued
//!   request and delivers its response before the forest is dropped:
//!   an acknowledged write is never lost.
//!
//! Correctness is proven *at this boundary*: [`Server`] implements
//! [`ConcurrentMap`](citrus_api::ConcurrentMap), so the WGL
//! linearizability checker and the oracle-conformance harness drive the
//! full submit → (inline execution | queue → batch) → respond pipeline,
//! not just the underlying map. A planted `serve/drain/ack-before-apply` mutant
//! (acknowledge a write with a predicted result before executing it)
//! exists purely so the test suite can demonstrate the checker rejects a
//! server that reorders responses.
//!
//! # Example
//!
//! ```
//! use citrus::{CitrusForest, ReclaimMode};
//! use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
//! use citrus_serve::Server;
//!
//! let server = Server::new(CitrusForest::with_config(2, 42, ReclaimMode::Epoch));
//! let mut client = server.session();
//! client.insert(7, 700);
//! client.insert(9, 900);
//! assert_eq!(client.get(&7), Some(700));
//! assert_eq!(client.range_scan(&0, &10), vec![(7, 700), (9, 900)]);
//! server.shutdown(); // drains queued requests, then joins workers
//! ```

#![warn(missing_docs)]

mod config;
mod metrics;
mod queue;
mod server;

pub use config::ServeConfig;
pub use metrics::ServeMetrics;
pub use queue::{Batch, BatchQueue, OfferError};
pub use server::{
    OpClass, Request, Response, ServeCounters, ServeSession, Server, ServerClosed, SubmitError,
    Ticket,
};
