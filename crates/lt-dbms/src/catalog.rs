//! Table and column catalog with optimizer statistics.
//!
//! The catalog plays the role of `pg_class` / `pg_statistic`: it records row
//! counts, row widths, per-column distinct counts and key properties. Column
//! names are globally unique across all three benchmark schemas (TPC-H,
//! TPC-DS subset, JOB), which lets the analyzer resolve unqualified column
//! references without scoping rules.

use lt_common::{ColumnId, Fingerprint, FxHasher, LtError, Result, TableId};
use std::collections::HashMap;
use std::hash::Hasher;

/// Default page size used by the cost model (PostgreSQL's 8 KiB).
pub const PAGE_SIZE: u64 = 8192;

/// Metadata for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Catalog-wide id.
    pub id: ColumnId,
    /// Owning table.
    pub table: TableId,
    /// Column name, lower-cased.
    pub name: String,
    /// Average stored width in bytes.
    pub width: u32,
    /// Number of distinct values (statistics estimate).
    pub ndv: f64,
    /// True when the column is (part of) the primary key.
    pub primary_key: bool,
    /// True when the column references another table's key.
    pub foreign_key: bool,
}

/// Metadata for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// Catalog-wide id.
    pub id: TableId,
    /// Table name, lower-cased.
    pub name: String,
    /// Row count (statistics estimate).
    pub rows: u64,
    /// Columns in declaration order.
    pub columns: Vec<ColumnId>,
}

impl TableMeta {
    /// Total row width in bytes (sum of column widths), given the catalog.
    pub fn row_width(&self, catalog: &Catalog) -> u64 {
        self.columns
            .iter()
            .map(|c| catalog.column(*c).width as u64)
            .sum()
    }

    /// Heap size in pages under [`PAGE_SIZE`].
    pub fn pages(&self, catalog: &Catalog) -> u64 {
        let width = self.row_width(catalog).max(1);
        let per_page = (PAGE_SIZE / width).max(1);
        self.rows.div_ceil(per_page)
    }
}

/// The schema + statistics of one simulated database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    columns: Vec<ColumnMeta>,
    table_names: HashMap<String, TableId>,
    column_names: HashMap<String, Vec<ColumnId>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts defining a table. Finish with [`TableBuilder::finish`].
    pub fn add_table(&mut self, name: &str, rows: u64) -> TableBuilder<'_> {
        let id = TableId::from(self.tables.len());
        let lname = name.to_ascii_lowercase();
        self.table_names.insert(lname.clone(), id);
        self.tables.push(TableMeta {
            id,
            name: lname,
            rows,
            columns: Vec::new(),
        });
        TableBuilder {
            catalog: self,
            table: id,
        }
    }

    /// Content fingerprint of the schema and statistics: table names, row
    /// counts and every per-column statistic the optimizer reads. Two
    /// catalogs with equal fingerprints plan identically (at equal seeds),
    /// which is what lets cross-session caches key on it.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FxHasher::new();
        for t in &self.tables {
            h.write(t.name.as_bytes());
            h.write_u64(t.rows);
            h.write_u64(t.columns.len() as u64);
        }
        for c in &self.columns {
            h.write(c.name.as_bytes());
            h.write_u32(c.width);
            h.write_u64(c.ndv.to_bits());
            h.write_u8(c.primary_key as u8);
            h.write_u8(c.foreign_key as u8);
        }
        Fingerprint(h.finish())
    }

    /// All tables.
    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// All columns.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// Table metadata by id. Panics on a foreign id (program error).
    pub fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id.index()]
    }

    /// Column metadata by id. Panics on a foreign id (program error).
    pub fn column(&self, id: ColumnId) -> &ColumnMeta {
        &self.columns[id.index()]
    }

    /// Looks a table up by name (case-insensitive).
    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.table_names.get(&name.to_ascii_lowercase()).copied()
    }

    /// Resolves a column reference. With a qualifier the column must belong
    /// to that table; without one the name must be unambiguous.
    pub fn resolve_column(&self, qualifier: Option<&str>, column: &str) -> Result<ColumnId> {
        let lcol = column.to_ascii_lowercase();
        let candidates = self
            .column_names
            .get(&lcol)
            .ok_or_else(|| LtError::Catalog(format!("unknown column {column}")))?;
        match qualifier {
            Some(q) => {
                let tid = self.table_by_name(q).ok_or_else(|| {
                    LtError::Catalog(format!("unknown table {q} (resolving {q}.{column})"))
                })?;
                candidates
                    .iter()
                    .copied()
                    .find(|c| self.column(*c).table == tid)
                    .ok_or_else(|| LtError::Catalog(format!("table {q} has no column {column}")))
            }
            None => {
                if candidates.len() == 1 {
                    Ok(candidates[0])
                } else {
                    Err(LtError::Catalog(format!("ambiguous column {column}")))
                }
            }
        }
    }

    /// Multiplies every table's row count and column NDV by `factor`,
    /// modelling a larger scale factor of the same schema.
    pub fn scale(&mut self, factor: f64) {
        assert!(factor > 0.0, "scale factor must be positive");
        for t in &mut self.tables {
            t.rows = ((t.rows as f64) * factor).round().max(1.0) as u64;
        }
        for c in &mut self.columns {
            // Key columns scale linearly; categorical columns saturate.
            if c.primary_key || c.foreign_key {
                c.ndv = (c.ndv * factor).max(1.0);
            } else {
                c.ndv = (c.ndv * factor.sqrt()).max(1.0);
            }
        }
    }

    /// Total heap size over all tables in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.pages(self) * PAGE_SIZE).sum()
    }
}

/// Fluent builder for one table's columns.
pub struct TableBuilder<'a> {
    catalog: &'a mut Catalog,
    table: TableId,
}

impl<'a> TableBuilder<'a> {
    /// Adds a plain column.
    pub fn column(self, name: &str, width: u32, ndv: f64) -> Self {
        self.push(name, width, ndv, false, false)
    }

    /// Adds a primary-key column (NDV is forced to the row count).
    pub fn primary_key(self, name: &str, width: u32) -> Self {
        let rows = self.catalog.tables[self.table.index()].rows as f64;
        self.push(name, width, rows.max(1.0), true, false)
    }

    /// Adds a foreign-key column referencing `ndv` distinct parent keys.
    pub fn foreign_key(self, name: &str, width: u32, ndv: f64) -> Self {
        self.push(name, width, ndv, false, true)
    }

    fn push(self, name: &str, width: u32, ndv: f64, pk: bool, fk: bool) -> Self {
        let id = ColumnId::from(self.catalog.columns.len());
        let lname = name.to_ascii_lowercase();
        self.catalog.columns.push(ColumnMeta {
            id,
            table: self.table,
            name: lname.clone(),
            width,
            ndv: ndv.max(1.0),
            primary_key: pk,
            foreign_key: fk,
        });
        self.catalog.column_names.entry(lname).or_default().push(id);
        self.catalog.tables[self.table.index()].columns.push(id);
        self
    }

    /// Finishes the table and returns its id.
    pub fn finish(self) -> TableId {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("orders", 1_500_000)
            .primary_key("o_orderkey", 8)
            .foreign_key("o_custkey", 8, 100_000.0)
            .column("o_totalprice", 8, 800_000.0)
            .finish();
        c.add_table("customer", 150_000)
            .primary_key("c_custkey", 8)
            .column("c_name", 25, 150_000.0)
            .finish();
        c
    }

    #[test]
    fn builder_registers_tables_and_columns() {
        let c = sample();
        assert_eq!(c.tables().len(), 2);
        assert_eq!(c.columns().len(), 5);
        let t = c.table(c.table_by_name("ORDERS").unwrap());
        assert_eq!(t.rows, 1_500_000);
        assert_eq!(t.columns.len(), 3);
    }

    #[test]
    fn primary_key_ndv_equals_rows() {
        let c = sample();
        let id = c.resolve_column(None, "o_orderkey").unwrap();
        assert_eq!(c.column(id).ndv, 1_500_000.0);
        assert!(c.column(id).primary_key);
    }

    #[test]
    fn resolve_qualified_and_bare() {
        let c = sample();
        let bare = c.resolve_column(None, "c_name").unwrap();
        let qual = c.resolve_column(Some("customer"), "c_name").unwrap();
        assert_eq!(bare, qual);
    }

    #[test]
    fn resolve_errors() {
        let c = sample();
        assert!(c.resolve_column(None, "nope").is_err());
        assert!(c.resolve_column(Some("orders"), "c_name").is_err());
        assert!(c.resolve_column(Some("nope"), "c_name").is_err());
    }

    #[test]
    fn pages_and_width() {
        let c = sample();
        let t = c.table(c.table_by_name("customer").unwrap());
        assert_eq!(t.row_width(&c), 33);
        // 8192 / 33 = 248 rows per page; 150000 / 248 = 605 pages (ceil).
        assert_eq!(t.pages(&c), 150_000u64.div_ceil(8192 / 33));
    }

    #[test]
    fn scale_multiplies_rows_and_key_ndv() {
        let mut c = sample();
        let before = c.table(c.table_by_name("orders").unwrap()).rows;
        c.scale(10.0);
        let t = c.table(c.table_by_name("orders").unwrap());
        assert_eq!(t.rows, before * 10);
        let pk = c.resolve_column(None, "o_orderkey").unwrap();
        assert_eq!(c.column(pk).ndv, 15_000_000.0);
        // Non-key NDV scales sub-linearly.
        let price = c.resolve_column(None, "o_totalprice").unwrap();
        assert!(c.column(price).ndv < 8_000_000.0 * 10.0);
    }

    #[test]
    fn total_bytes_is_positive() {
        let c = sample();
        assert!(c.total_bytes() > 0);
    }
}
