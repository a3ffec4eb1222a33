//! Benchmark workloads for the λ-Tune reproduction.
//!
//! The paper evaluates on TPC-H (scale factors 1 and 10), TPC-DS (scale
//! factor 1) and the Join Order Benchmark (JOB). This crate generates, for
//! each benchmark, (a) a catalog with realistic row counts and column
//! statistics for the simulated DBMS and (b) the analytical query texts.
//! Query text follows the original benchmarks' join structure and filter
//! shapes; constructs outside our SQL dialect (outer joins, `substring`)
//! are replaced by equivalents with the same table/column footprint, which
//! is the only property the tuning pipeline consumes.

pub mod job;
pub mod obfuscate;
pub mod tpcds;
pub mod tpch;
pub mod workload;

pub use obfuscate::Obfuscator;
pub use workload::{measure_workload, Benchmark, Workload, WorkloadQuery};
