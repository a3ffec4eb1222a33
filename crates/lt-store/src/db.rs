//! [`StoreDb`]: the storage engine behind the [`TuningTarget`] trait, and
//! [`Backend`], which opens either engine by name.
//!
//! # Planning at full scale, executing on a replica
//!
//! A `StoreDb` wraps a [`SimDb`] of the same catalog and seed, its *planner
//! twin*, and plans, prices reconfiguration and keeps its knobs, index
//! catalog, clock and plan cache through it: plans, prompts and snippet
//! extraction are identical across backends by construction. It overrides
//! only what runs physically — query execution, index builds and drops,
//! and the memory knobs' effect on the buffer pool and `work_mem` — so the
//! *cost* of executing a plan changes, from modelled to measured, which is
//! why the fleet cache keys on the backend too.
//!
//! Physical execution runs against a scaled-down replica (1/500 of the
//! catalog's row counts) loaded with deterministic synthetic
//! data matching the catalog's statistics ([`crate::datagen`]). Memory
//! knobs are applied proportionally: the buffer pool holds
//! `shared_buffers × scale` bytes of frames and operators spill beyond
//! `work_mem × scale`. Because data and memory shrink by the same factor,
//! cache-fit and spill *behaviour* mirror the full-scale deployment, and
//! measured times are reported multiplied back by `1/scale`.
//!
//! # Determinism
//!
//! Query time charged to the clock is **proxy time** — a fixed linear
//! combination of real, deterministic counters (buffer-pool hits/misses,
//! spill pages, tuples, descents; see [`crate::exec::proxy_seconds`]) —
//! not the wall clock. Timeouts cut on the same proxy. Two runs of the
//! same workload produce byte-identical results at any thread count,
//! which is what lets `BENCH_store.smoke.json` sit in the determinism CI
//! gate next to the simulator's files.
//!
//! # Environment
//!
//! * `LT_STORE_DIR` — store directory. Unset, every instance loads into a
//!   fresh temp dir that is removed on drop; a directory named here is
//!   never removed.
//! * `LT_WAL_CRASH_AT` / `LT_WAL_CRASH_TORN` — crash injection in the redo
//!   log; see [`crate::redo`].

use crate::buffer::{BufferPool, MIN_FRAMES};
use crate::datagen;
use crate::exec::{proxy_seconds, ExecError, ExecStats, Executor, StoredIndex};
use crate::heap::{write_value, Heap, Schema};
use crate::page::PAGE_SIZE;
use lt_common::{derive_seed, env, obs, secs, IndexId, Secs, TableId};
use lt_dbms::plan::Plan;
use lt_dbms::stats::QueryPredicates;
use lt_dbms::{
    CacheStats, Catalog, Configuration, Dbms, Hardware, IndexCatalog, IndexSpec, KnobSet,
    QueryOutcome, SimDb, TuningTarget,
};
use lt_sql::ast::Query;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Replica scale: 1/500 of the catalog's row counts.
const REPLICA_SCALE: f64 = 0.002;

static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Which engine a tuning target runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Virtual-time simulator ([`SimDb`]); the determinism-gated default.
    #[default]
    Sim,
    /// lt-store physical storage engine ([`StoreDb`]): plans identically
    /// to the simulator, but query times are measured on a scaled-down
    /// on-disk replica.
    Store,
}

impl Backend {
    /// Lower-case name (`--backend`, the `"backend"` request field).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Store => "store",
        }
    }

    /// Inverse of [`Backend::name`], case-insensitive; also accepts
    /// `simulator` and `lt-store`.
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "sim" | "simulator" => Some(Backend::Sim),
            "store" | "lt-store" => Some(Backend::Store),
            _ => None,
        }
    }

    /// Opens a fresh database of this flavour.
    pub fn open(
        self,
        dbms: Dbms,
        catalog: Catalog,
        hardware: Hardware,
        seed: u64,
    ) -> Box<dyn TuningTarget + Send> {
        match self {
            Backend::Sim => Box::new(SimDb::new(dbms, catalog, hardware, seed)),
            Backend::Store => Box::new(StoreDb::new(dbms, catalog, hardware, seed)),
        }
    }
}

/// A persistent storage engine instance serving as a tuning target.
pub struct StoreDb {
    /// The planner twin: catalog, knobs, index catalog, clock, plan cache
    /// and reconfiguration charges (see the module docs).
    sim: SimDb,
    queries_executed: u64,
    queries_completed: u64,
    // ---- physical state ----
    scale: f64,
    dir: PathBuf,
    owns_dir: bool,
    pool: BufferPool,
    heaps: BTreeMap<TableId, Heap>,
    stored: BTreeMap<IndexId, StoredIndex>,
    work_mem_eff: u64,
    totals: ExecStats,
}

impl StoreDb {
    /// Creates a store over `catalog`, loading the scaled replica. `seed`
    /// fixes the misestimation pattern (the planner twin's) and the
    /// synthetic data.
    ///
    /// Panics on I/O failure: the store is a benchmark fixture, and a disk
    /// that cannot hold the replica is fatal to the run.
    pub fn new(dbms: Dbms, catalog: Catalog, hardware: Hardware, seed: u64) -> Self {
        let sim = SimDb::new(dbms, catalog, hardware, seed);
        let scale = REPLICA_SCALE;
        let (dir, owns_dir) = store_dir();
        std::fs::create_dir_all(&dir).expect("create store dir");
        let capacity = frames_for(sim.knobs().buffer_pool_bytes(), scale);
        let mut pool = BufferPool::open(&dir.join("data.pages"), &dir.join("redo.wal"), capacity)
            .expect("open store files");
        let data_seed = derive_seed(seed, 3);
        let mut heaps = BTreeMap::new();
        for t in sim.catalog().tables() {
            let heap = load_table(&mut pool, sim.catalog(), t.id, scale, data_seed);
            heaps.insert(t.id, heap);
        }
        // The data file is the checkpoint now; recovery starts clean.
        pool.checkpoint().expect("checkpoint after load");
        flush_pool_counters(&pool, 0, 0);
        let work_mem_eff = scaled_mem(sim.knobs().work_mem_bytes(), scale);
        StoreDb {
            sim,
            queries_executed: 0,
            queries_completed: 0,
            scale,
            dir,
            owns_dir,
            pool,
            heaps,
            stored: BTreeMap::new(),
            work_mem_eff,
            totals: ExecStats::default(),
        }
    }

    /// Replica scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Buffer-pool statistics (cumulative since construction).
    pub fn pool_stats(&self) -> crate::buffer::BpStats {
        self.pool.stats
    }

    /// Executor counters (rows, descents, spills, spill pages) accumulated
    /// over every query executed so far.
    pub fn exec_totals(&self) -> ExecStats {
        self.totals
    }

    /// Total redo-log appends so far.
    pub fn wal_appends(&self) -> u64 {
        self.pool.wal_appends()
    }

    /// Store directory (data file, redo log, spill temp files).
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Sizes the buffer pool and `work_mem` for the twin's current knobs.
    fn refresh_resources(&mut self) {
        let knobs = self.sim.knobs();
        let capacity = frames_for(knobs.buffer_pool_bytes(), self.scale);
        self.pool.resize(capacity).expect("pool resize");
        self.work_mem_eff = scaled_mem(knobs.work_mem_bytes(), self.scale);
    }

    /// Runs the plan physically; returns (completed, proxy seconds).
    fn run_plan(&mut self, plan: &Plan, preds: &QueryPredicates, timeout: Secs) -> (bool, f64) {
        let est = self.sim.estimator();
        let budget = if timeout.is_finite() {
            Some(timeout.as_f64() * self.scale)
        } else {
            None
        };
        let before = self.pool.stats;
        let mut ex = Executor::new(
            &mut self.pool,
            &self.heaps,
            &self.stored,
            &est,
            preds,
            self.work_mem_eff,
            &self.dir,
            budget,
        );
        let result = ex.run(&plan.root);
        let proxy = ex.elapsed_proxy();
        let stats = ex.stats();
        let completed = match result {
            Ok(_) => true,
            Err(ExecError::Timeout) => false,
            Err(ExecError::Io(e)) => panic!("store execution failed: {e}"),
        };
        self.totals.rows += stats.rows;
        self.totals.descents += stats.descents;
        self.totals.spills += stats.spills;
        self.totals.spill_pages += stats.spill_pages;
        flush_pool_counters(&self.pool, before.hits, before.evictions);
        (completed, proxy)
    }
}

impl TuningTarget for StoreDb {
    fn dbms(&self) -> Dbms {
        self.sim.dbms()
    }
    fn catalog(&self) -> &Catalog {
        self.sim.catalog()
    }
    fn hardware(&self) -> Hardware {
        self.sim.hardware()
    }
    fn knobs(&self) -> &KnobSet {
        self.sim.knobs()
    }
    fn indexes(&self) -> &IndexCatalog {
        self.sim.indexes()
    }
    fn catalog_fingerprint(&self) -> lt_common::Fingerprint {
        self.sim.catalog_fingerprint()
    }
    fn now(&self) -> Secs {
        self.sim.now()
    }
    fn clock_advance(&self, d: Secs) {
        self.sim.clock_advance(d);
    }
    fn queries_executed(&self) -> u64 {
        self.queries_executed
    }
    fn queries_completed(&self) -> u64 {
        self.queries_completed
    }

    fn apply_knobs(&mut self, config: &Configuration) {
        self.sim.apply_knobs(config);
        self.refresh_resources();
    }

    fn reset_knobs(&mut self) {
        self.sim.reset_knobs();
        self.refresh_resources();
    }

    fn create_index(&mut self, spec: &IndexSpec) -> (IndexId, Secs) {
        self.sim.create_index_with(spec, |_, index| {
            // Physically build over the leading key column (the executor's
            // probes and prefix scans only ever drive the leading column).
            let column = index.columns[0];
            let heap = self
                .heaps
                .get(&index.table)
                .expect("heap for indexed table");
            let before = self.pool.stats;
            let mut tree = crate::btree::BTree::create(&mut self.pool).expect("btree root");
            let schema = heap.schema.clone();
            let col = schema.find(column).expect("indexed column in schema");
            let mut entries: Vec<(u64, u64)> = Vec::with_capacity(heap.rows as usize);
            heap.clone()
                .for_each_row(&mut self.pool, |rid, row| {
                    entries.push((schema.value(row, col), rid));
                })
                .expect("index build scan");
            for (k, rid) in &entries {
                tree.insert(&mut self.pool, *k, *rid).expect("index insert");
            }
            let stats = ExecStats {
                rows: heap.rows,
                descents: heap.rows,
                ..ExecStats::default()
            };
            let proxy = proxy_seconds(
                self.pool.stats.hits - before.hits,
                self.pool.stats.misses - before.misses,
                &stats,
            );
            self.stored.insert(
                index.id,
                StoredIndex {
                    table: index.table,
                    column,
                    tree,
                },
            );
            flush_pool_counters(&self.pool, before.hits, before.evictions);
            secs((proxy / self.scale).max(0.05))
        })
    }

    fn estimate_index_build(&self, spec: &IndexSpec) -> Secs {
        self.sim.estimate_index_build(spec)
    }

    fn drop_index(&mut self, id: IndexId) -> bool {
        // Tree pages stay allocated in the data file (no free list); the
        // planner stops referencing them, which is what matters.
        self.stored.remove(&id);
        self.sim.drop_index(id)
    }

    fn drop_all_indexes(&mut self) {
        self.stored.clear();
        self.sim.drop_all_indexes();
    }

    fn execute(&mut self, query: &Query, timeout: Secs) -> QueryOutcome {
        let (preds, plan) = self.sim.plan(query);
        let (completed, proxy) = self.run_plan(&plan, &preds, timeout);
        self.queries_executed += 1;
        obs::counter("dbms.query_exec", 1);
        let time = secs(proxy / self.scale);
        if completed && time <= timeout {
            self.sim.clock_advance(time);
            self.queries_completed += 1;
            QueryOutcome {
                completed: true,
                time,
            }
        } else {
            self.sim.clock_advance(timeout.min(time));
            obs::counter("dbms.query_timeout", 1);
            QueryOutcome {
                completed: false,
                time: timeout.min(time),
            }
        }
    }

    fn explain(&self, query: &Query) -> Plan {
        self.sim.explain(query)
    }

    fn explain_with_indexes(&self, query: &Query, hypothetical: &IndexCatalog) -> Plan {
        self.sim.explain_with_indexes(query, hypothetical)
    }

    fn explain_with_knobs(&self, query: &Query, knobs: &KnobSet) -> Plan {
        self.sim.explain_with_knobs(query, knobs)
    }

    fn explain_analyze(&mut self, query: &Query) -> (String, QueryOutcome) {
        let plan = self.explain(query);
        let before = self.pool.stats;
        let outcome = self.execute(query, Secs::INFINITY);
        let after = self.pool.stats;
        let mut text = plan.explain();
        text.push_str(&format!(
            "Buffers: hits={} misses={} evictions={}\n",
            after.hits - before.hits,
            after.misses - before.misses,
            after.evictions - before.evictions,
        ));
        text.push_str(&format!("Execution Time: {:.3}\n", outcome.time));
        (text, outcome)
    }

    fn predicates(&self, query: &Query) -> Arc<QueryPredicates> {
        self.sim.predicates(query)
    }

    fn cache_stats(&self) -> CacheStats {
        self.sim.cache_stats()
    }

    fn cache_window_stats(&self) -> CacheStats {
        self.sim.cache_window_stats()
    }

    fn take_cache_window(&self) -> CacheStats {
        self.sim.take_cache_window()
    }
}

impl Drop for StoreDb {
    fn drop(&mut self) {
        let _ = self.pool.checkpoint();
        if self.owns_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

impl std::fmt::Debug for StoreDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreDb")
            .field("dbms", &self.sim.dbms())
            .field("scale", &self.scale)
            .field("dir", &self.dir)
            .field("pool", &self.pool.stats)
            .field("tables", &self.heaps.len())
            .field("indexes", &self.stored.len())
            .finish()
    }
}

/// Emits the `store.*` counter deltas accumulated since `prev_*`.
fn flush_pool_counters(pool: &BufferPool, prev_hits: u64, prev_evictions: u64) {
    let dh = pool.stats.hits - prev_hits;
    if dh > 0 {
        obs::counter("store.bp_hits", dh);
    }
    let de = pool.stats.evictions - prev_evictions;
    if de > 0 {
        obs::counter("store.bp_evictions", de);
    }
}

/// The store directory, and whether this instance owns (and so removes) it.
fn store_dir() -> (PathBuf, bool) {
    match env::opt("LT_STORE_DIR", &"a fresh temp dir", |_: &PathBuf| true) {
        Some(dir) => (dir, false),
        None => {
            let n = INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed);
            (
                std::env::temp_dir().join(format!("lt_store_{}_{n}", std::process::id())),
                true,
            )
        }
    }
}

/// Frames the pool gets for a full-scale `shared_buffers` of `bytes`.
fn frames_for(bytes: u64, scale: f64) -> usize {
    (((bytes as f64 * scale) / PAGE_SIZE as f64).round() as usize).max(MIN_FRAMES)
}

/// Effective (scaled) memory budget, floored at one page.
fn scaled_mem(bytes: u64, scale: f64) -> u64 {
    ((bytes as f64 * scale).round() as u64).max(PAGE_SIZE as u64)
}

/// Bulk-loads one table's scaled replica.
fn load_table(
    pool: &mut BufferPool,
    catalog: &Catalog,
    table: TableId,
    scale: f64,
    seed: u64,
) -> Heap {
    let meta = catalog.table(table);
    let rows = datagen::scaled_rows(meta.rows, scale);
    let schema = Schema::of_table(catalog, table);
    let cols: Vec<_> = meta
        .columns
        .iter()
        .map(|&c| catalog.column(c).clone())
        .collect();
    Heap::build(pool, table, schema.clone(), rows, |i, row| {
        for (ci, col) in cols.iter().enumerate() {
            let off = schema.cols[ci].offset;
            let w = schema.cols[ci].width;
            let v = datagen::column_value(seed, col, scale, i);
            write_value(&mut row[off..off + w], v);
        }
    })
    .expect("heap bulk load")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("lineitem", 6_000_000)
            .primary_key("l_orderkey", 8)
            .column("l_shipdate", 4, 2_500.0)
            .column("l_quantity", 8, 50.0)
            .column("l_pad", 100, 100.0)
            .finish();
        c.add_table("orders", 150_000)
            .primary_key("o_orderkey", 8)
            .column("o_pad", 60, 100.0)
            .finish();
        c
    }

    fn store() -> StoreDb {
        StoreDb::new(Dbms::Postgres, catalog(), Hardware::p3_2xlarge(), 99)
    }

    #[test]
    fn plans_match_the_simulator_exactly() {
        let sim = lt_dbms::SimDb::new(Dbms::Postgres, catalog(), Hardware::p3_2xlarge(), 99);
        let st = store();
        for sql in [
            "select count(*) from orders",
            "select * from lineitem, orders where l_orderkey = o_orderkey",
            "select * from lineitem where l_quantity = 5",
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(
                TuningTarget::explain(&st, &q),
                sim.explain(&q),
                "plan divergence on {sql}"
            );
        }
    }

    /// A `StoreDb` keeps its planner state through its twin: the same
    /// reconfiguration and DDL script leaves it with the simulator's knobs,
    /// indexes, predicates and what-if plans, charged the same times.
    #[test]
    fn reconfiguration_script_matches_the_simulator() {
        let mut sim = lt_dbms::SimDb::new(Dbms::Postgres, catalog(), Hardware::p3_2xlarge(), 99);
        let mut st = store();
        let config = Configuration::parse(
            "ALTER SYSTEM SET work_mem = '1GB';\n\
             ALTER SYSTEM SET random_page_cost = '1.1';",
            Dbms::Postgres,
            sim.catalog(),
        );
        let index = |c: &Catalog, table: &str, column: &str| IndexSpec {
            table: c.table_by_name(table).unwrap(),
            columns: vec![c.resolve_column(None, column).unwrap()],
            name: None,
        };
        let orders = index(sim.catalog(), "orders", "o_orderkey");
        let lineitem = index(sim.catalog(), "lineitem", "l_quantity");
        // Charges of everything but the physical build, which is measured,
        // in microseconds: the clocks differ by the build times, so their
        // differences round differently.
        let charges = |db: &mut dyn TuningTarget| {
            let mut out = Vec::new();
            let mut step = |db: &mut dyn TuningTarget, f: &dyn Fn(&mut dyn TuningTarget)| {
                let t = db.now();
                f(db);
                out.push(((db.now() - t).as_f64() * 1e6).round());
            };
            step(db, &|db| db.apply_knobs(&config));
            step(db, &|db| db.reset_knobs());
            step(db, &|db| db.apply_knobs(&config));
            let (id, _) = db.create_index(&orders);
            step(db, &|db| assert!(db.drop_index(id)));
            step(db, &|db| assert!(!db.drop_index(id)));
            db.create_index(&lineitem);
            db.create_index(&orders);
            step(db, &|db| db.drop_all_indexes());
            db.create_index(&lineitem);
            step(db, &|db| {
                db.create_index(&lineitem);
            });
            out
        };
        assert_eq!(charges(&mut sim), charges(&mut st));
        assert_eq!(sim.knobs(), st.knobs());
        assert_eq!(sim.indexes(), st.indexes());
        assert_eq!(st.stored.len(), 1);
        let mut hypothetical = IndexCatalog::new();
        hypothetical.add(orders.table, orders.columns.clone(), None);
        let knobs = KnobSet::defaults(Dbms::Postgres);
        for sql in [
            "select count(*) from orders",
            "select * from lineitem, orders where l_orderkey = o_orderkey",
            "select * from lineitem where l_quantity = 5",
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(sim.predicates(&q), st.predicates(&q), "{sql}");
            assert_eq!(
                sim.explain_with_indexes(&q, &hypothetical),
                st.explain_with_indexes(&q, &hypothetical),
                "{sql}"
            );
            assert_eq!(
                sim.explain_with_knobs(&q, &knobs),
                st.explain_with_knobs(&q, &knobs),
                "{sql}"
            );
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Sim, Backend::Store] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("simulator"), Some(Backend::Sim));
        assert_eq!(Backend::parse("LT-Store"), Some(Backend::Store));
        assert_eq!(Backend::parse("postgres"), None);
        assert_eq!(Backend::default(), Backend::Sim);
    }

    #[test]
    fn execute_is_deterministic_and_advances_the_clock() {
        let mut a = store();
        let mut b = store();
        let q =
            parse_query("select * from lineitem, orders where l_orderkey = o_orderkey").unwrap();
        let oa = a.execute(&q, Secs::INFINITY);
        let ob = b.execute(&q, Secs::INFINITY);
        assert!(oa.completed);
        assert_eq!(oa.time, ob.time, "proxy time must be deterministic");
        assert!(a.now() >= oa.time);
    }

    #[test]
    fn bigger_shared_buffers_raises_hit_rate() {
        let q = parse_query("select count(*) from lineitem").unwrap();
        let run = |knob: &str| {
            let mut db = store();
            let cfg = Configuration::parse(
                &format!("ALTER SYSTEM SET shared_buffers = '{knob}';"),
                Dbms::Postgres,
                db.catalog(),
            );
            db.apply_knobs(&cfg);
            let before = db.pool_stats();
            // Two passes: the second exposes whether the pool retained pages.
            db.execute(&q, Secs::INFINITY);
            db.execute(&q, Secs::INFINITY);
            let after = db.pool_stats();
            (after.hits - before.hits) as f64
                / ((after.hits - before.hits) + (after.misses - before.misses)).max(1) as f64
        };
        let small = run("128MB");
        let big = run("15GB");
        assert!(
            big > small,
            "hit rate must grow with shared_buffers: small={small:.3} big={big:.3}"
        );
    }

    #[test]
    fn work_mem_removes_spills_and_speeds_up_the_join() {
        let q =
            parse_query("select * from lineitem, orders where l_orderkey = o_orderkey").unwrap();
        let mut db = store();
        let t_default = db.execute(&q, Secs::INFINITY).time;
        let cfg = Configuration::parse(
            "ALTER SYSTEM SET work_mem = '4GB';\nALTER SYSTEM SET shared_buffers = '15GB';",
            Dbms::Postgres,
            db.catalog(),
        );
        db.apply_knobs(&cfg);
        let t_tuned = db.execute(&q, Secs::INFINITY).time;
        assert!(
            t_tuned < t_default,
            "tuned {t_tuned} should beat default {t_default}"
        );
    }

    #[test]
    fn index_probe_path_works_end_to_end() {
        let mut db = store();
        let spec = IndexSpec {
            table: db.catalog().table_by_name("orders").unwrap(),
            columns: vec![db.catalog().resolve_column(None, "o_orderkey").unwrap()],
            name: None,
        };
        let (id, t) = db.create_index(&spec);
        assert!(t >= secs(0.05));
        assert!(db.stored.contains_key(&id));
        let (id2, t2) = db.create_index(&spec);
        assert_eq!(id, id2);
        assert!(t2 <= secs(0.01));
        assert!(db.drop_index(id));
        assert!(db.stored.is_empty());
    }

    #[test]
    fn timeouts_cut_deterministically() {
        let mut db = store();
        let q =
            parse_query("select * from lineitem, orders where l_orderkey = o_orderkey").unwrap();
        let out = db.execute(&q, secs(1e-6));
        assert!(!out.completed);
        assert!(out.time <= secs(1e-6));
    }
}
