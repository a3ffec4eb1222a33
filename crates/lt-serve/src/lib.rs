//! λ-Tune as a service: a multi-tenant tuning server over `std::net`.
//!
//! The research pipeline in [`lambda_tune`] tunes one database per process
//! invocation. This crate wraps it in a long-lived HTTP service:
//!
//! - [`http`] — a minimal, bounded HTTP/1.1 subset (close by default,
//!   opt-in keep-alive, `Content-Length` bodies, JSON in and out) and the
//!   one server front end — accept loop, connection cap, keep-alive loop —
//!   that the daemon and the coordinator share;
//! - [`session`] — request parsing/validation, the per-session state
//!   machine (`Queued → Tuning → Done/Failed/Cancelled`) and the registry;
//! - [`cache`] — the cross-session tuning cache: an exact request key to
//!   the outcome of a finished cold tune;
//! - [`pool`] — a fixed-size worker pool behind a bounded, tenant-fair
//!   (deficit-round-robin) queue; admission control (429), graceful drain
//!   on shutdown, and a `catch_unwind` backstop so one poisoned request
//!   cannot take down a worker thread;
//! - [`server`] — the daemon's routes and admission control;
//! - [`load`] — the load generator behind the `lt-serve-load` binary;
//! - [`ring`] — the consistent-hash ring placing sessions on shards;
//! - [`coord`] — the coordinator: global admission, session routing over
//!   the ring, health probing, and fleet-wide `/metrics` aggregation;
//! - [`fleet`] — multi-process fabric spawning (N shard daemons + one
//!   coordinator) for the sharded benchmark and its CI smoke.
//!
//! Determinism contract: each session owns its own simulated database,
//! seeded from the request. With the session seed fixed, the resulting best
//! configuration is byte-identical regardless of worker-pool size or
//! request interleaving — progress observers stream state out of the
//! pipeline but never feed anything back in except cancellation.

pub mod cache;
pub mod coord;
pub mod fleet;
pub mod http;
pub mod load;
pub mod pool;
pub mod ring;
pub mod server;
pub mod session;
pub mod wal;

pub use coord::{start_coordinator, CoordinatorConfig, CoordinatorHandle, ShardSpec};
pub use fleet::Fleet;
pub use pool::{SubmitError, WorkerPool};
pub use ring::HashRing;
pub use server::{start, ServerConfig, ServerHandle};
pub use session::{DriftStatus, ServingState, Session, SessionRegistry, SessionState, TuneRequest};
