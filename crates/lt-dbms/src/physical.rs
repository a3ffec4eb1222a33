//! Physical design: secondary B-tree indexes.
//!
//! Indexes are the physical-design dimension λ-Tune tunes alongside system
//! parameters. The [`IndexCatalog`] tracks which indexes exist at any point
//! in time; the evaluator creates them lazily (paper §5.1) and drops them
//! when switching configurations.

use crate::catalog::{Catalog, PAGE_SIZE};
use lt_common::{ColumnId, Fingerprint, FxHasher, IndexId, TableId};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A (materialized or hypothetical) B-tree index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Index {
    /// Catalog-wide id (assigned by the [`IndexCatalog`]).
    pub id: IndexId,
    /// Indexed table.
    pub table: TableId,
    /// Key columns, leading column first.
    pub columns: Vec<ColumnId>,
    /// Index name (generated when the script does not provide one).
    pub name: String,
}

impl Index {
    /// The leading key column (drives lookup applicability).
    pub fn leading_column(&self) -> ColumnId {
        self.columns[0]
    }

    /// Estimated size of the index in pages (key width + 12-byte overhead
    /// per entry, PostgreSQL-like fill factor of 90%).
    pub fn pages(&self, catalog: &Catalog) -> u64 {
        let rows = catalog.table(self.table).rows;
        let key_width: u64 = self
            .columns
            .iter()
            .map(|c| catalog.column(*c).width as u64)
            .sum();
        let entry = key_width + 12;
        let per_page = ((PAGE_SIZE * 9 / 10) / entry.max(1)).max(1);
        rows.div_ceil(per_page)
    }

    /// Index size in bytes.
    pub fn bytes(&self, catalog: &Catalog) -> u64 {
        self.pages(catalog) * PAGE_SIZE
    }
}

/// The set of indexes that currently exist (or are being considered
/// hypothetically, for what-if optimization à la Dexter/DB2 Advisor).
#[derive(Debug, Clone, Default)]
pub struct IndexCatalog {
    indexes: BTreeMap<IndexId, Index>,
    next_id: u32,
    /// Bumped on every mutation; invalidates plan-cache entries keyed on the
    /// previous physical design.
    epoch: u64,
    /// Content fingerprint over (table, key columns) of every index, kept in
    /// sync on mutation. Two catalogs with identical index sets share a
    /// fingerprint, so what-if planning against a hypothetical catalog that
    /// matches the materialized one re-hits the same cache entries.
    fingerprint: Fingerprint,
}

impl PartialEq for IndexCatalog {
    fn eq(&self, other: &Self) -> bool {
        // Equality is content equality; the epoch is bookkeeping.
        self.indexes == other.indexes
    }
}

impl IndexCatalog {
    /// Empty index catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an index over `columns` of `table`. Returns the existing id
    /// if an identical index (same table, same key columns) already exists —
    /// creating a duplicate index is a no-op, like `IF NOT EXISTS`.
    pub fn add(&mut self, table: TableId, columns: Vec<ColumnId>, name: Option<String>) -> IndexId {
        assert!(!columns.is_empty(), "an index needs at least one column");
        if let Some(existing) = self.find(table, &columns) {
            return existing;
        }
        let id = IndexId(self.next_id);
        self.next_id += 1;
        let name = name.unwrap_or_else(|| format!("idx_{}_{}", table.0, id.0));
        self.indexes.insert(
            id,
            Index {
                id,
                table,
                columns,
                name,
            },
        );
        self.touch();
        id
    }

    /// Monotone mutation counter: any `add`/`remove`/`clear` that changes
    /// the catalog bumps it, signalling plan-cache invalidation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Fingerprint of the current index contents (see field docs).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Canonical fingerprint of the indexes on the given tables only.
    ///
    /// Plans depend solely on the indexes over the query's own tables, so
    /// keying the plan cache on this (rather than the whole-catalog
    /// fingerprint) stops lazy index creation on *unrelated* tables between
    /// tuning rounds from invalidating every cached plan. Unlike the global
    /// fingerprint this one hashes the index *ids* too: cached plans embed
    /// [`IndexId`]s, so a key match must guarantee that every id resolves to
    /// the same physical index. Ids are stable once assigned, so growing the
    /// catalog elsewhere still leaves this fingerprint untouched.
    pub fn fingerprint_for_tables(&self, tables: &[TableId]) -> Fingerprint {
        let mut h = FxHasher::new();
        for idx in self.indexes.values().filter(|i| tables.contains(&i.table)) {
            idx.id.hash(&mut h);
            idx.table.hash(&mut h);
            idx.columns.hash(&mut h);
        }
        Fingerprint(h.finish())
    }

    fn touch(&mut self) {
        self.epoch += 1;
        let mut h = FxHasher::new();
        for idx in self.indexes.values() {
            idx.table.hash(&mut h);
            idx.columns.hash(&mut h);
        }
        self.fingerprint = Fingerprint(h.finish());
    }

    /// Finds an index with exactly these key columns.
    pub fn find(&self, table: TableId, columns: &[ColumnId]) -> Option<IndexId> {
        self.indexes
            .values()
            .find(|i| i.table == table && i.columns == columns)
            .map(|i| i.id)
    }

    /// Removes an index. Returns whether it existed.
    pub fn remove(&mut self, id: IndexId) -> bool {
        let existed = self.indexes.remove(&id).is_some();
        if existed {
            self.touch();
        }
        existed
    }

    /// Drops every index.
    pub fn clear(&mut self) {
        if !self.indexes.is_empty() {
            self.indexes.clear();
            self.touch();
        }
    }

    /// Looks up an index by id.
    pub fn get(&self, id: IndexId) -> Option<&Index> {
        self.indexes.get(&id)
    }

    /// All indexes, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Index> {
        self.indexes.values()
    }

    /// Number of indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True when no index exists.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// The best index whose *leading* column is `column`, if any.
    pub fn with_leading_column(&self, column: ColumnId) -> Option<&Index> {
        self.indexes.values().find(|i| i.leading_column() == column)
    }

    /// Total size of all indexes in bytes.
    pub fn total_bytes(&self, catalog: &Catalog) -> u64 {
        self.indexes.values().map(|i| i.bytes(catalog)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("orders", 1_500_000)
            .primary_key("o_orderkey", 8)
            .foreign_key("o_custkey", 8, 100_000.0)
            .finish();
        c.add_table("lineitem", 6_000_000)
            .primary_key("l_orderkey", 8)
            .finish();
        c
    }

    #[test]
    fn add_and_find() {
        let c = catalog();
        let t = c.table_by_name("orders").unwrap();
        let col = c.resolve_column(None, "o_custkey").unwrap();
        let mut idx = IndexCatalog::new();
        let id = idx.add(t, vec![col], None);
        assert_eq!(idx.find(t, &[col]), Some(id));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(id).unwrap().leading_column(), col);
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let c = catalog();
        let t = c.table_by_name("orders").unwrap();
        let col = c.resolve_column(None, "o_custkey").unwrap();
        let mut idx = IndexCatalog::new();
        let a = idx.add(t, vec![col], None);
        let b = idx.add(t, vec![col], Some("other_name".into()));
        assert_eq!(a, b);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn remove_and_clear() {
        let c = catalog();
        let t = c.table_by_name("orders").unwrap();
        let k = c.resolve_column(None, "o_orderkey").unwrap();
        let f = c.resolve_column(None, "o_custkey").unwrap();
        let mut idx = IndexCatalog::new();
        let a = idx.add(t, vec![k], None);
        idx.add(t, vec![f], None);
        assert!(idx.remove(a));
        assert!(!idx.remove(a));
        assert_eq!(idx.len(), 1);
        idx.clear();
        assert!(idx.is_empty());
    }

    #[test]
    fn index_size_scales_with_rows() {
        let c = catalog();
        let t = c.table_by_name("orders").unwrap();
        let k = c.resolve_column(None, "o_orderkey").unwrap();
        let mut idx = IndexCatalog::new();
        let id = idx.add(t, vec![k], None);
        let pages = idx.get(id).unwrap().pages(&c);
        // 8-byte key + 12 overhead = 20 bytes/entry; ~368 entries/page.
        assert!(pages > 3_000 && pages < 5_000, "pages={pages}");
    }

    #[test]
    fn epoch_bumps_on_every_mutation_and_fingerprint_tracks_content() {
        let c = catalog();
        let t = c.table_by_name("orders").unwrap();
        let k = c.resolve_column(None, "o_orderkey").unwrap();
        let mut idx = IndexCatalog::new();
        let e0 = idx.epoch();
        let f0 = idx.fingerprint();
        let id = idx.add(t, vec![k], None);
        assert!(idx.epoch() > e0);
        assert_ne!(idx.fingerprint(), f0);
        let f1 = idx.fingerprint();
        // Duplicate add is a no-op: neither epoch nor fingerprint moves.
        let e1 = idx.epoch();
        idx.add(t, vec![k], None);
        assert_eq!(idx.epoch(), e1);
        // Remove then re-add: epoch keeps climbing, but the content
        // fingerprint returns to its previous value.
        idx.remove(id);
        assert!(idx.epoch() > e1);
        assert_eq!(idx.fingerprint(), f0);
        idx.add(t, vec![k], None);
        assert_eq!(idx.fingerprint(), f1);
        // An independent catalog with the same content fingerprints equal.
        let mut other = IndexCatalog::new();
        other.add(t, vec![k], Some("different_name".into()));
        assert_eq!(other.fingerprint(), idx.fingerprint());
    }

    #[test]
    fn fingerprint_for_tables_is_id_sensitive() {
        // Plans embed IndexIds, so the per-query fingerprint must distinguish
        // two catalogs whose content matches but whose ids were assigned
        // differently (e.g. one of them removed and re-created an index).
        let c = catalog();
        let t = c.table_by_name("orders").unwrap();
        let k = c.resolve_column(None, "o_orderkey").unwrap();
        let mut a = IndexCatalog::new();
        a.add(t, vec![k], None); // id 0
        let mut b = IndexCatalog::new();
        let first = b.add(t, vec![k], None);
        b.remove(first);
        b.add(t, vec![k], None); // same content, id 1
        assert_ne!(
            a.fingerprint_for_tables(&[t]),
            b.fingerprint_for_tables(&[t])
        );
    }

    #[test]
    fn fingerprint_for_tables_ignores_unrelated_indexes() {
        let c = catalog();
        let orders = c.table_by_name("orders").unwrap();
        let lineitem = c.table_by_name("lineitem").unwrap();
        let ok = c.resolve_column(None, "o_orderkey").unwrap();
        let lk = c.resolve_column(None, "l_orderkey").unwrap();
        let mut idx = IndexCatalog::new();
        idx.add(orders, vec![ok], None);
        let before = idx.fingerprint_for_tables(&[orders]);
        // An index on a table the query never touches must not move the
        // per-query fingerprint (the whole point: no spurious plan-cache
        // invalidation from lazy index creation elsewhere).
        idx.add(lineitem, vec![lk], None);
        assert_eq!(idx.fingerprint_for_tables(&[orders]), before);
        assert_ne!(idx.fingerprint(), before);
        // But an index on a referenced table does.
        let fk = c.resolve_column(None, "o_custkey").unwrap();
        idx.add(orders, vec![fk], None);
        assert_ne!(idx.fingerprint_for_tables(&[orders]), before);
        // Empty table list ⇒ stable empty fingerprint.
        assert_eq!(
            idx.fingerprint_for_tables(&[]),
            IndexCatalog::new().fingerprint_for_tables(&[])
        );
    }

    #[test]
    fn with_leading_column_matches_first_key_only() {
        let c = catalog();
        let t = c.table_by_name("orders").unwrap();
        let k = c.resolve_column(None, "o_orderkey").unwrap();
        let f = c.resolve_column(None, "o_custkey").unwrap();
        let mut idx = IndexCatalog::new();
        idx.add(t, vec![k, f], None);
        assert!(idx.with_leading_column(k).is_some());
        assert!(idx.with_leading_column(f).is_none());
    }
}
