//! Shared substrate for the λ-Tune reproduction.
//!
//! Everything in this workspace that measures time measures **virtual time**:
//! the DBMS simulator charges costs to a [`time::VirtualClock`] instead of
//! sleeping, which makes the full SIGMOD evaluation matrix reproducible in
//! seconds while preserving every timeout/interrupt interaction the paper's
//! algorithms rely on.

pub mod env;
pub mod error;
pub mod hash;
pub mod ids;
pub mod json;
pub mod lru;
pub mod obs;
pub mod rng;
pub mod time;
pub mod wal;

pub use error::{LtError, Result};
pub use hash::{crc32, hash_one, Fingerprint, FxHasher};
pub use ids::{ColumnId, IndexId, QueryId, TableId};
pub use lru::LruMap;
pub use rng::{derive_seed, seeded_rng, Rng};
pub use time::{secs, Secs, VirtualClock};
