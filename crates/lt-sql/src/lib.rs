//! SQL front end for the λ-Tune reproduction.
//!
//! λ-Tune never executes SQL itself — it *analyzes* analytical queries to
//! extract join structure (for workload compression, §3.2 of the paper) and
//! column references (for lazy index relevance, §5.1). This crate provides a
//! hand-written lexer and recursive-descent parser covering the dialect used
//! by TPC-H, TPC-DS and the Join Order Benchmark, plus the analysis passes
//! the tuner needs.

pub mod analysis;
pub mod ast;
pub mod lexer;
pub mod parser;

pub use analysis::{JoinPair, QueryAnalysis};
pub use ast::{
    ColumnRef, Expr, JoinCondition, Literal, OrderItem, Query, SelectItem, SetQuantifier, TableRef,
};
pub use lexer::{tokenize, Token, TokenKind};
pub use parser::parse_query;

/// Splits SQL text on top-level semicolons, respecting string literals.
pub fn split_statements(sql: &str) -> Vec<String> {
    let mut stmts = Vec::new();
    let mut cur = String::new();
    let mut in_string = false;
    let chars = sql.chars().peekable();
    for c in chars {
        match c {
            '\'' => {
                in_string = !in_string;
                cur.push(c);
            }
            ';' if !in_string => {
                stmts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        stmts.push(cur);
    }
    stmts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_respects_string_literals() {
        let stmts = split_statements("select ';' from t; select 1");
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].contains("';'"));
    }
}
