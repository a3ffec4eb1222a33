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
//! - [`coord`] — the coordinator: global admission, session routing (a
//!   session id names its shard: ids are dealt to the shards in turn),
//!   health probing, and fleet-wide `/metrics` aggregation;
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
pub mod server;
pub mod session;
pub mod wal;

pub use coord::{start_coordinator, CoordinatorConfig, CoordinatorHandle, ShardSpec};
pub use fleet::Fleet;
pub use pool::{SubmitError, WorkerPool};
pub use server::{start, ServerConfig, ServerHandle};
pub use session::{DriftStatus, ServingState, Session, SessionRegistry, SessionState, TuneRequest};

#[cfg(test)]
/// Session placement. The shards, sorted by id, form a ring that session
/// ids are dealt round in turn: id `n` belongs to entry `(n − 1) mod N`,
/// and allocation passes over the ids of dead shards (see [`coord`]).
mod ring {
    mod tests {
        use crate::coord::CoordState;
        use std::collections::HashMap;

        /// `n` shard ids with gaps between them, in ascending order.
        fn gapped(n: u32) -> Vec<u32> {
            (0..n).map(|i| 10 * i + 3).collect()
        }

        #[test]
        fn single_shard_owns_everything() {
            let state = CoordState::unreachable(&[4]);
            assert!((1..=2000).all(|id| state.owner_id(id) == 4));
            let ids: Vec<u64> = (0..5).map(|_| state.allocate().unwrap()).collect();
            assert_eq!(ids, [1, 2, 3, 4, 5], "no id is skipped");
        }

        #[test]
        fn placement_is_deterministic_and_order_independent() {
            for n in 1..=8u32 {
                let ascending = gapped(n);
                let mut shuffled = ascending.clone();
                shuffled.reverse();
                shuffled.rotate_left(n as usize / 2);
                let a = CoordState::unreachable(&ascending);
                let again = CoordState::unreachable(&ascending);
                let b = CoordState::unreachable(&shuffled);
                for id in 1..=2000 {
                    let shard = a.owner_id(id);
                    assert_eq!(shard, again.owner_id(id), "id {id} at {n} shards");
                    assert_eq!(shard, b.owner_id(id), "id {id} at {n} shards");
                }
            }
            let state = CoordState::unreachable(&[7, 2, 5]);
            let order: Vec<u32> = (1..=6).map(|id| state.owner_id(id)).collect();
            assert_eq!(order, [2, 5, 7, 2, 5, 7], "turns follow the shard ids");
        }

        #[test]
        fn load_spread_within_bound_for_1_to_8_shards() {
            const IDS: u64 = 2000;
            for n in 1..=8u32 {
                let state = CoordState::unreachable(&gapped(n));
                let mut counts: HashMap<u32, u64> = HashMap::new();
                for id in 1..=IDS {
                    *counts.entry(state.owner_id(id)).or_default() += 1;
                }
                let fair = IDS / u64::from(n);
                assert_eq!(counts.len(), n as usize);
                assert!(
                    counts.values().all(|&c| c == fair || c == fair + 1),
                    "{n} shards: {counts:?}"
                );
            }
        }

        #[test]
        fn owner_filtered_routes_around_dead_shard() {
            let state = CoordState::unreachable(&[0, 1, 2]);
            state.set_alive(1, false);
            let ids: Vec<u64> = (0..6).map(|_| state.allocate().unwrap()).collect();
            assert_eq!(ids, [1, 3, 4, 6, 7, 9], "shard 1's ids are skipped");
            assert!(ids.iter().all(|&id| state.owner_id(id) != 1));
            state.set_alive(1, true);
            let ids: Vec<u64> = (0..3).map(|_| state.allocate().unwrap()).collect();
            assert_eq!(ids, [10, 11, 12], "a recovered shard gets its turns back");
            assert_eq!(state.owner_id(11), 1);
        }

        #[test]
        fn all_shards_dead_yields_none() {
            let state = CoordState::unreachable(&[0, 1, 2]);
            for _ in 0..9 {
                state.allocate().unwrap();
            }
            for shard in [0, 1, 2] {
                state.set_alive(shard, false);
            }
            assert_eq!(state.allocate(), None);
            assert_eq!(state.allocate(), None);
            assert_eq!(
                state.next_id(),
                10,
                "no id is used up while every shard is dead"
            );
            state.set_alive(1, true);
            assert_eq!(state.allocate(), Some(11));
        }
    }
}
