//! Simulated OLAP database management system.
//!
//! The λ-Tune paper tunes PostgreSQL 12 and MySQL 8 on an EC2 instance. This
//! crate replaces that testbed with a simulator that exposes exactly the
//! surface the tuning algorithms interact with:
//!
//! * a **catalog** with table/column statistics,
//! * a **knob registry** mirroring the relevant PostgreSQL / MySQL
//!   configuration parameters,
//! * a cost-based **optimizer** (Selinger-style dynamic-programming join
//!   ordering + access-path selection) whose choices respond to optimizer
//!   knobs such as `random_page_cost` and `effective_cache_size`,
//! * an **execution-time model** that converts a plan into simulated seconds
//!   as a function of the *resource* knobs (buffer pool, work memory,
//!   parallelism) and charges them to a virtual clock, with support for
//!   timeouts and interrupts,
//! * **configuration scripts** (`ALTER SYSTEM SET` / `SET GLOBAL` /
//!   `CREATE INDEX`) parsed and applied the way a DBA (or an LLM) would
//!   write them.
//!
//! Everything a tuner can observe — `EXPLAIN` cost estimates, wall-clock
//! query times, index-creation times, timeout interrupts — comes out of this
//! crate, so λ-Tune and all baselines run unmodified against it. That
//! surface is one trait, [`TuningTarget`]; [`SimDb`] implements it, and its
//! impl is the simulator's whole surface (lt-store's `StoreDb` implements
//! it too, planning through an embedded `SimDb`).

pub mod catalog;
pub mod config;
pub mod db;
pub mod executor;
pub mod hardware;
pub mod knobs;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod plan_cache;
pub mod stats;
pub mod target;

pub use catalog::{Catalog, ColumnMeta, TableBuilder, TableMeta};
pub use config::{ConfigCommand, Configuration, IndexSpec};
pub use db::{QueryOutcome, SimDb};
pub use executor::CostConstants;
pub use hardware::Hardware;
pub use knobs::{Dbms, KnobCategory, KnobDef, KnobSet, KnobValue};
pub use optimizer::{Optimizer, DP_ONLY_RELATION_LIMIT, DP_RELATION_LIMIT};
pub use physical::{Index, IndexCatalog};
pub use plan::{PlanNode, PlanOp};
pub use plan_cache::CacheStats;
pub use target::TuningTarget;
