//! `lt-store`: a real persistent storage engine as a second tuning target.
//!
//! The rest of the workspace tunes [`lt_dbms::SimDb`], a virtual-time
//! simulator. This crate provides a target whose costs are *measured*, not
//! modelled: slotted heap pages with checksums ([`page`]), a clock-eviction
//! buffer pool whose hit rate genuinely responds to `shared_buffers`-style
//! sizing ([`buffer`]), a B+tree with secondary-index support ([`btree`]),
//! physical redo logging on the shared WAL frame layer ([`redo`]), and a
//! chunked executor whose sorts and hash joins spill to real temp files when
//! `work_mem` is exceeded ([`exec`]).
//!
//! [`StoreDb`] wires those into [`lt_dbms::TuningTarget`]: it *plans*
//! through an embedded `SimDb` of the same full-scale catalog and seed, its
//! planner twin (so plan trees, prompts and snippet extraction are the
//! simulator's by construction), then *executes* each plan against a
//! scaled-down physical replica (1/500 of the rows), mapping memory knobs
//! proportionally. Because data size and memory budgets shrink by the same
//! factor, cache-fit and spill behaviour mirror the full-scale deployment.
//! [`Backend`] opens either engine by name (`sim` | `store`).
//!
//! The `store_bench` binary (in `lt-bench`) closes the loop: it sweeps
//! knobs on lt-store, fits the simulator's [`lt_dbms::CostConstants`], and
//! reports per-benchmark residuals to `results/BENCH_store.json`.

pub mod btree;
pub mod buffer;
pub mod datagen;
pub mod db;
pub mod exec;
pub mod heap;
pub mod page;
pub mod redo;

pub use btree::BTree;
pub use buffer::{BpStats, BufferPool};
pub use db::{Backend, StoreDb};
pub use heap::{Heap, Schema};
pub use redo::RedoLog;
