//! Deterministic synthetic data matching the catalog's statistics.
//!
//! The store loads a *scaled replica* of a benchmark schema: every table's
//! row count is multiplied by the replica scale, and column NDVs shrink the
//! same way [`Catalog::scale`] grows them — linearly for key columns,
//! sub-linearly (square root) for categorical ones. Values are pure
//! functions of `(seed, column, row index)`:
//!
//! * **primary key** → the row index itself (dense `0..rows`),
//! * **foreign key** → `mix(seed ^ column ^ row) % scaled_ndv`. Because fk
//!   NDV scales linearly and a full-scale fk NDV equals the parent's row
//!   count, the scaled domain is the parent's scaled pk domain — joins
//!   really match at the rate the planner's statistics predict,
//! * **other** → `mix(...) % scaled_ndv` over the sqrt-scaled domain.
//!
//! Determinism here is what makes `BENCH_store.smoke.json` byte-identical
//! across thread counts: two loads from equal `(catalog, seed, scale)`
//! produce equal bytes.

use lt_dbms::ColumnMeta;

/// Splitmix64 finalizer: uncorrelated value streams per (seed, column, row).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rows a table keeps in the scaled replica (mirrors [`Catalog::scale`]'s
/// rounding, floor 1).
///
/// [`Catalog::scale`]: lt_dbms::Catalog::scale
pub fn scaled_rows(full_rows: u64, scale: f64) -> u64 {
    ((full_rows as f64) * scale).round().max(1.0) as u64
}

/// Distinct values a column keeps in the scaled replica: linear for
/// key columns, square-root for categorical ones (mirrors
/// [`Catalog::scale`]).
///
/// [`Catalog::scale`]: lt_dbms::Catalog::scale
pub fn scaled_ndv(col: &ColumnMeta, scale: f64) -> u64 {
    let factor = if col.primary_key || col.foreign_key {
        scale
    } else {
        scale.sqrt()
    };
    ((col.ndv * factor).round().max(1.0)) as u64
}

/// The stored value of `col` in row `row` of its scaled table.
pub fn column_value(seed: u64, col: &ColumnMeta, scale: f64, row: u64) -> u64 {
    if col.primary_key {
        return row;
    }
    let ndv = scaled_ndv(col, scale).max(1);
    mix(seed ^ (col.id.index() as u64).wrapping_mul(0xA24B_AED4_963E_E407) ^ row) % ndv
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_dbms::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("orders", 1_000_000)
            .primary_key("o_orderkey", 8)
            .foreign_key("o_custkey", 8, 100_000.0)
            .column("o_status", 1, 3.0)
            .column("o_totalprice", 8, 800_000.0)
            .finish();
        c
    }

    #[test]
    fn scaling_mirrors_catalog_scale() {
        let mut full = catalog();
        let scale = 0.01;
        let pk = full.resolve_column(None, "o_orderkey").unwrap();
        let fk = full.resolve_column(None, "o_custkey").unwrap();
        let price = full.resolve_column(None, "o_totalprice").unwrap();
        let want_rows = scaled_rows(1_000_000, scale);
        let want_fk = scaled_ndv(full.column(fk), scale);
        let want_price = scaled_ndv(full.column(price), scale);
        // Catalog::scale applied to the same factor must agree.
        full.scale(scale);
        let t = full.table_by_name("orders").unwrap();
        assert_eq!(full.table(t).rows, want_rows);
        assert_eq!(full.column(fk).ndv.round() as u64, want_fk);
        assert_eq!(full.column(price).ndv.round() as u64, want_price);
        assert_eq!(full.column(pk).ndv.round() as u64, want_rows);
    }

    #[test]
    fn fk_values_land_in_parent_pk_domain() {
        let c = catalog();
        let fk = c.resolve_column(None, "o_custkey").unwrap();
        let col = c.column(fk);
        let scale = 0.005;
        let ndv = scaled_ndv(col, scale);
        assert_eq!(ndv, 500); // 100k customers × 0.005
        let mut seen = std::collections::HashSet::new();
        for row in 0..5000 {
            let v = column_value(42, col, scale, row);
            assert!(v < ndv);
            seen.insert(v);
        }
        // Plenty of rows per distinct value → near-full domain coverage.
        assert!(
            seen.len() > 450,
            "only {} of {ndv} fk values hit",
            seen.len()
        );
    }

    #[test]
    fn values_are_deterministic_and_seed_sensitive() {
        let c = catalog();
        let price = c.resolve_column(None, "o_totalprice").unwrap();
        let col = c.column(price);
        let a = column_value(42, col, 0.01, 7);
        assert_eq!(a, column_value(42, col, 0.01, 7));
        let diff =
            (0..64).any(|r| column_value(42, col, 0.01, r) != column_value(43, col, 0.01, r));
        assert!(diff, "seed must matter");
    }
}
