//! Workload container and benchmark registry.

use lt_common::{LtError, QueryId, Result, Secs};
use lt_dbms::{Catalog, TuningTarget};
use lt_sql::ast::Query;
use std::fmt;

/// One query of a workload: its id, original SQL text and parsed form.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// Position within the workload.
    pub id: QueryId,
    /// Benchmark-native label, e.g. `"q1"` or `"1a"`.
    pub label: String,
    /// SQL text.
    pub sql: String,
    /// Parsed query.
    pub parsed: Query,
}

/// A benchmark workload: catalog plus queries.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name, e.g. `"TPC-H 1GB"`.
    pub name: String,
    /// Schema and statistics at the benchmark's scale factor.
    pub catalog: Catalog,
    /// The analytical queries.
    pub queries: Vec<WorkloadQuery>,
}

impl Workload {
    /// Builds a workload from `(label, sql)` pairs, parsing each query.
    pub fn from_sql(
        name: impl Into<String>,
        catalog: Catalog,
        queries: &[(&str, String)],
    ) -> Result<Workload> {
        let mut out = Vec::with_capacity(queries.len());
        for (i, (label, sql)) in queries.iter().enumerate() {
            let parsed = lt_sql::parse_query(sql)
                .map_err(|e| LtError::Parse(format!("query {label}: {e}")))?;
            out.push(WorkloadQuery {
                id: QueryId::from(i),
                label: (*label).to_string(),
                sql: sql.clone(),
                parsed,
            });
        }
        Ok(Workload {
            name: name.into(),
            catalog,
            queries: out,
        })
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Looks a query up by its benchmark label.
    pub fn by_label(&self, label: &str) -> Option<&WorkloadQuery> {
        self.queries.iter().find(|q| q.label == label)
    }
}

/// The benchmarks of the paper's evaluation (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// TPC-H at scale factor 1 (~1 GB).
    TpchSf1,
    /// TPC-H at scale factor 10 (~10 GB).
    TpchSf10,
    /// TPC-DS at scale factor 1.
    TpcdsSf1,
    /// Join Order Benchmark over the IMDB schema.
    Job,
}

impl Benchmark {
    /// Every benchmark in the paper's scenario matrix.
    pub fn all() -> [Benchmark; 4] {
        [
            Benchmark::TpchSf1,
            Benchmark::TpchSf10,
            Benchmark::TpcdsSf1,
            Benchmark::Job,
        ]
    }

    /// Display name used in tables and figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::TpchSf1 => "TPC-H 1GB",
            Benchmark::TpchSf10 => "TPC-H 10GB",
            Benchmark::TpcdsSf1 => "TPC-DS",
            Benchmark::Job => "JOB",
        }
    }

    /// Generates the workload (catalog + queries).
    pub fn load(self) -> Workload {
        match self {
            Benchmark::TpchSf1 => crate::tpch::workload(1.0),
            Benchmark::TpchSf10 => crate::tpch::workload(10.0),
            Benchmark::TpcdsSf1 => crate::tpcds::workload(),
            Benchmark::Job => crate::job::workload(),
        }
    }

    /// Resolves a benchmark from an external name — display names
    /// (`"TPC-H 1GB"`), kebab slugs (`"tpch-sf1"`) and common shorthands
    /// (`"tpch"`, `"job"`) all work, case-insensitively. Unknown names are
    /// an [`LtError::Config`], so a client-supplied benchmark string can
    /// never panic a server.
    pub fn parse(name: &str) -> Result<Benchmark> {
        let normalized: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        match normalized.as_str() {
            "tpch" | "tpchsf1" | "tpch1" | "tpch1gb" | "tpch1g" => Ok(Benchmark::TpchSf1),
            "tpchsf10" | "tpch10" | "tpch10gb" | "tpch10g" => Ok(Benchmark::TpchSf10),
            "tpcds" | "tpcdssf1" | "tpcds1" => Ok(Benchmark::TpcdsSf1),
            "job" | "joinorder" | "joinorderbenchmark" => Ok(Benchmark::Job),
            _ => Err(LtError::Config(format!(
                "unknown benchmark {name:?} (expected one of: tpch-sf1, tpch-sf10, tpcds, job)"
            ))),
        }
    }
}

/// Executes the full workload under the database's *current* configuration
/// with a total-time cap. Returns the total time and whether all queries
/// finished; under `Secs::INFINITY` every query runs to the end.
pub fn measure_workload(db: &mut dyn TuningTarget, workload: &Workload, cap: Secs) -> (Secs, bool) {
    let mut total = Secs::ZERO;
    for wq in &workload.queries {
        let remaining = (cap - total).clamp_non_negative();
        let outcome = db.execute(&wq.parsed, remaining);
        total += outcome.time;
        if !outcome.completed {
            return (total, false);
        }
    }
    (total, true)
}

impl std::str::FromStr for Benchmark {
    type Err = LtError;

    fn from_str(s: &str) -> Result<Benchmark> {
        Benchmark::parse(s)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_load_and_parse() {
        for b in Benchmark::all() {
            let w = b.load();
            assert!(!w.is_empty(), "{b} has no queries");
            assert!(!w.catalog.tables().is_empty(), "{b} has no tables");
        }
    }

    #[test]
    fn by_label_finds_queries() {
        let w = Benchmark::TpchSf1.load();
        assert!(w.by_label("q1").is_some());
        assert!(w.by_label("nope").is_none());
    }

    #[test]
    fn parse_accepts_display_names_slugs_and_shorthands() {
        for b in Benchmark::all() {
            assert_eq!(Benchmark::parse(b.name()).unwrap(), b, "{b}");
        }
        assert_eq!(Benchmark::parse("tpch").unwrap(), Benchmark::TpchSf1);
        assert_eq!(Benchmark::parse("tpch-sf1").unwrap(), Benchmark::TpchSf1);
        assert_eq!(Benchmark::parse("TPCH_SF10").unwrap(), Benchmark::TpchSf10);
        assert_eq!(Benchmark::parse("tpc-ds").unwrap(), Benchmark::TpcdsSf1);
        assert_eq!(Benchmark::parse("JOB").unwrap(), Benchmark::Job);
        assert_eq!(
            "tpch-sf10".parse::<Benchmark>().unwrap(),
            Benchmark::TpchSf10
        );
    }

    #[test]
    fn parse_rejects_unknown_names_with_config_error() {
        for bad in ["", "tpcc", "imdb", "tpch-sf100", "🦀"] {
            let err = Benchmark::parse(bad).unwrap_err();
            assert_eq!(err.category(), "config", "{bad:?}");
            assert!(err.message().contains("unknown benchmark"), "{err}");
        }
    }

    #[test]
    fn sf10_has_ten_times_the_rows() {
        let sf1 = Benchmark::TpchSf1.load();
        let sf10 = Benchmark::TpchSf10.load();
        let li1 = sf1
            .catalog
            .table(sf1.catalog.table_by_name("lineitem").unwrap())
            .rows;
        let li10 = sf10
            .catalog
            .table(sf10.catalog.table_by_name("lineitem").unwrap())
            .rows;
        assert_eq!(li10, li1 * 10);
    }
}
