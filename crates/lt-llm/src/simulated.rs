//! The simulated tuning LLM.
//!
//! [`SimulatedLlm`] stands in for GPT-4. It is **prompt-blind in the same
//! way a real API call is**: it receives only the prompt string, recovers
//! the target DBMS, the hardware description and the workload description
//! (compressed join-structure lines, or raw SQL in the no-compressor
//! ablation), and samples a complete configuration script. It holds no
//! reference to the workload, the catalog or the simulator — if the prompt
//! omits an expensive join, the model cannot index it.
//!
//! Sampling reproduces the empirical properties the paper reports for
//! GPT-4 (§6.3):
//!
//! * recommendations cluster around DBA folklore (buffer pool ≈ 25% of
//!   RAM, `effective_cache_size` ≈ 75%, `random_page_cost` ≈ 1.1 with
//!   indexes, parallel workers ≈ cores),
//! * temperature adds variance to every choice, and
//! * a configurable fraction of samples are **outliers** — configurations
//!   up to ~5× slower (tiny work memory, default buffer pool, no indexes).

use crate::api::LanguageModel;
use lt_common::{derive_seed, Result, Rng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Tuning parameters of the simulated model.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedLlmOptions {
    /// Probability (at temperature ≥ 0.7) that a sample is an outlier
    /// configuration. The paper observes outliers in roughly 1 of 7 GPT-4
    /// samples for TPC-H.
    pub outlier_rate: f64,
    /// Maximum number of index recommendations per configuration.
    pub max_indexes: usize,
}

impl Default for SimulatedLlmOptions {
    fn default() -> Self {
        SimulatedLlmOptions {
            outlier_rate: 0.15,
            max_indexes: 20,
        }
    }
}

/// GPT-4 stand-in. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct SimulatedLlm {
    options: SimulatedLlmOptions,
}

impl SimulatedLlm {
    /// Model with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Model with explicit options.
    pub fn with_options(options: SimulatedLlmOptions) -> Self {
        SimulatedLlm { options }
    }
}

impl LanguageModel for SimulatedLlm {
    fn complete(&self, prompt: &str, temperature: f64, seed: u64) -> Result<String> {
        let parsed = PromptFacts::parse(prompt);
        // Sampling is seeded by the prompt's *semantic content* (system,
        // hardware, workload structure), not its surface text: renaming
        // identifiers does not change the output distribution, matching the
        // paper's observation that obfuscation leaves performance
        // unchanged (§6.4.3).
        let mut hasher = DefaultHasher::new();
        parsed.mysql.hash(&mut hasher);
        parsed.memory_bytes.hash(&mut hasher);
        parsed.cores.hash(&mut hasher);
        parsed.params_only.hash(&mut hasher);
        parsed.join_columns.len().hash(&mut hasher);
        let mut rng = lt_common::seeded_rng(derive_seed(hasher.finish(), seed));
        Ok(generate(&parsed, temperature, &mut rng, self.options))
    }

    fn name(&self) -> &str {
        "simulated-gpt4"
    }
}

/// What the model recovers from the prompt text.
#[derive(Debug, Clone, Default, PartialEq)]
struct PromptFacts {
    mysql: bool,
    memory_bytes: u64,
    cores: u32,
    /// Join columns as `table.column` (or bare / obfuscated identifiers),
    /// in prompt order — most valuable first by compressor construction.
    join_columns: Vec<String>,
    /// True when the prompt forbids index recommendations (parameter-only
    /// tuning scenario).
    params_only: bool,
}

impl PromptFacts {
    fn parse(prompt: &str) -> PromptFacts {
        let lower = prompt.to_ascii_lowercase();
        let mut facts = PromptFacts {
            mysql: lower.contains("mysql"),
            memory_bytes: 8 * (1 << 30),
            cores: 4,
            join_columns: Vec::new(),
            params_only: lower.contains("do not recommend index")
                || lower.contains("only system parameters"),
        };
        for line in prompt.lines() {
            let trimmed = line.trim();
            let tl = trimmed.to_ascii_lowercase();
            if let Some(rest) = tl.strip_prefix("memory:") {
                if let Some(b) = parse_mem(rest.trim()) {
                    facts.memory_bytes = b;
                }
                continue;
            }
            if let Some(rest) = tl.strip_prefix("cores:") {
                if let Ok(c) = rest.trim().parse::<u32>() {
                    facts.cores = c;
                }
                continue;
            }
            if let Some(cols) = parse_join_line(trimmed) {
                facts.join_columns.extend(cols);
            }
        }
        // No compressed lines? The prompt may carry raw SQL instead.
        if facts.join_columns.is_empty() && lower.contains("select") {
            facts.join_columns = join_columns_from_sql(prompt);
        }
        dedup_preserving_order(&mut facts.join_columns);
        facts
    }
}

fn parse_mem(text: &str) -> Option<u64> {
    let digits: String = text
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    let value: f64 = digits.parse().ok()?;
    let unit = text[digits.len()..].trim().to_ascii_lowercase();
    let mult: f64 = match unit.as_str() {
        "" | "gb" | "gib" => (1u64 << 30) as f64,
        "mb" | "mib" => (1u64 << 20) as f64,
        "tb" | "tib" => (1u64 << 40) as f64,
        _ => return None,
    };
    Some((value * mult) as u64)
}

/// Recognizes a compressed-workload line: `A: B, C, D` where every element
/// is an identifier, optionally `table.column`-qualified.
fn parse_join_line(line: &str) -> Option<Vec<String>> {
    let (lhs, rhs) = line.split_once(':')?;
    let lhs = lhs.trim();
    if !is_identifier(lhs) {
        return None;
    }
    let mut cols = vec![lhs.to_string()];
    for part in rhs.split(',') {
        let p = part.trim();
        if p.is_empty() {
            continue;
        }
        if !is_identifier(p) {
            return None;
        }
        cols.push(p.to_string());
    }
    if cols.len() < 2 {
        return None;
    }
    Some(cols)
}

fn is_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
}

/// Extracts join columns from raw SQL in the prompt (the no-compressor
/// ablation sends full queries). Alias qualifiers are resolved by the SQL
/// analyzer; bare TPC-H-style columns are attributed to their table via
/// the benchmark's well-known prefix convention — knowledge a pre-trained
/// model genuinely has (obfuscated workloads never take this path since
/// obfuscation applies to extracted snippets).
fn join_columns_from_sql(prompt: &str) -> Vec<String> {
    let mut columns = Vec::new();
    for stmt in lt_sql::split_statements(prompt) {
        let Some(pos) = stmt.to_ascii_lowercase().find("select") else {
            continue;
        };
        let Ok(query) = lt_sql::parse_query(stmt[pos..].trim()) else {
            continue;
        };
        let analysis = lt_sql::analysis::analyze(&query);
        for pair in analysis.unique_join_pairs() {
            for col in [&pair.left, &pair.right] {
                let qualified = match &col.qualifier {
                    Some(q) => format!("{q}.{}", col.column),
                    None => match tpch_table_for(&col.column) {
                        Some(t) => format!("{t}.{}", col.column),
                        None => continue,
                    },
                };
                columns.push(qualified);
            }
        }
    }
    columns
}

fn tpch_table_for(column: &str) -> Option<&'static str> {
    let prefixes: &[(&str, &str)] = &[
        ("ps_", "partsupp"),
        ("l_", "lineitem"),
        ("o_", "orders"),
        ("p_", "part"),
        ("c_", "customer"),
        ("s_", "supplier"),
        ("n_", "nation"),
        ("r_", "region"),
    ];
    prefixes
        .iter()
        .find(|(p, _)| column.starts_with(p))
        .map(|(_, t)| *t)
}

fn dedup_preserving_order(v: &mut Vec<String>) {
    let mut seen = std::collections::HashSet::new();
    v.retain(|s| seen.insert(s.clone()));
}

// ---- configuration generation ----

fn generate(
    facts: &PromptFacts,
    temperature: f64,
    rng: &mut Rng,
    options: SimulatedLlmOptions,
) -> String {
    let heat = temperature.clamp(0.0, 2.0);
    let outlier_p = options.outlier_rate * (heat / 0.7).min(1.0);
    if rng.gen_bool(outlier_p.clamp(0.0, 1.0)) {
        return generate_outlier(facts, rng);
    }
    if facts.mysql {
        generate_mysql(facts, heat, rng, options)
    } else {
        generate_postgres(facts, heat, rng, options)
    }
}

fn gib(bytes: u64) -> u64 {
    bytes >> 30
}

fn pick<T: Copy>(rng: &mut Rng, heat: f64, default: T, alternatives: &[T]) -> T {
    if heat <= 1e-9 || alternatives.is_empty() || !rng.gen_bool((0.5 * heat).clamp(0.0, 1.0)) {
        default
    } else {
        *rng.choose(alternatives).expect("non-empty")
    }
}

fn generate_postgres(
    facts: &PromptFacts,
    heat: f64,
    rng: &mut Rng,
    options: SimulatedLlmOptions,
) -> String {
    let mem_gb = gib(facts.memory_bytes).max(1);
    let shared_pct = pick(rng, heat, 25, &[20, 30, 35, 40]);
    let shared = (mem_gb * shared_pct / 100).max(1);
    let cache_pct = pick(rng, heat, 75, &[50, 60, 70]);
    let cache = (mem_gb * cache_pct / 100).max(1);
    let work_mem_gb = pick(rng, heat, 1, &[1, 2]);
    let maintenance_gb = pick(rng, heat, 2, &[1, 2, 4]);
    let rpc = pick(rng, heat, 1.1, &[1.0, 1.2, 2.0]);
    let workers = pick(
        rng,
        heat,
        (facts.cores / 2).max(1),
        &[facts.cores.max(1), 2],
    );

    let mut out = String::from("-- Recommended configuration\n");
    out.push_str(&format!(
        "ALTER SYSTEM SET shared_buffers = '{shared}GB';\n"
    ));
    out.push_str(&format!("ALTER SYSTEM SET work_mem = '{work_mem_gb}GB';\n"));
    out.push_str(&format!(
        "ALTER SYSTEM SET effective_cache_size = '{cache}GB';\n"
    ));
    out.push_str(&format!(
        "ALTER SYSTEM SET maintenance_work_mem = '{maintenance_gb}GB';\n"
    ));
    out.push_str("ALTER SYSTEM SET checkpoint_completion_target = 0.9;\n");
    out.push_str("ALTER SYSTEM SET wal_buffers = '16MB';\n");
    out.push_str("ALTER SYSTEM SET default_statistics_target = 100;\n");
    if !rng.gen_bool((0.15 * heat).clamp(0.0, 1.0)) {
        out.push_str(&format!("ALTER SYSTEM SET random_page_cost = {rpc};\n"));
    }
    out.push_str("ALTER SYSTEM SET effective_io_concurrency = 200;\n");
    if !rng.gen_bool((0.15 * heat).clamp(0.0, 1.0)) {
        out.push_str(&format!(
            "ALTER SYSTEM SET max_parallel_workers_per_gather = {workers};\n"
        ));
        out.push_str(&format!(
            "ALTER SYSTEM SET max_parallel_workers = {};\n",
            facts.cores.max(1)
        ));
    }
    push_indexes(&mut out, facts, heat, rng, options);
    out
}

fn generate_mysql(
    facts: &PromptFacts,
    heat: f64,
    rng: &mut Rng,
    options: SimulatedLlmOptions,
) -> String {
    let mem_gb = gib(facts.memory_bytes).max(1);
    let pool_pct = pick(rng, heat, 65, &[50, 60, 70, 75]);
    let pool = (mem_gb * pool_pct / 100).max(1);
    let sort_mb = pick(rng, heat, 256, &[64, 128, 512]);
    let join_mb = pick(rng, heat, 256, &[64, 128, 512]);
    let tmp_gb = pick(rng, heat, 1, &[1, 2]);

    let mut out = String::from("-- Recommended configuration\n");
    out.push_str(&format!(
        "SET GLOBAL innodb_buffer_pool_size = '{pool}GB';\n"
    ));
    out.push_str(&format!("SET GLOBAL sort_buffer_size = '{sort_mb}MB';\n"));
    out.push_str(&format!("SET GLOBAL join_buffer_size = '{join_mb}MB';\n"));
    out.push_str(&format!("SET GLOBAL tmp_table_size = '{tmp_gb}GB';\n"));
    out.push_str(&format!("SET GLOBAL max_heap_table_size = '{tmp_gb}GB';\n"));
    out.push_str("SET GLOBAL innodb_log_file_size = '1GB';\n");
    out.push_str("SET GLOBAL innodb_flush_log_at_trx_commit = 2;\n");
    out.push_str("SET GLOBAL innodb_io_capacity = 2000;\n");
    out.push_str(&format!(
        "SET GLOBAL innodb_read_io_threads = {};\n",
        facts.cores.max(1)
    ));
    out.push_str(&format!(
        "SET GLOBAL innodb_parallel_read_threads = {};\n",
        facts.cores.max(1)
    ));
    push_indexes(&mut out, facts, heat, rng, options);
    out
}

fn push_indexes(
    out: &mut String,
    facts: &PromptFacts,
    heat: f64,
    rng: &mut Rng,
    options: SimulatedLlmOptions,
) {
    if facts.params_only || facts.join_columns.is_empty() {
        return;
    }
    // Occasionally a sample omits indexes entirely (mild under-performer).
    if rng.gen_bool((0.08 * heat).clamp(0.0, 1.0)) {
        return;
    }
    let max = options.max_indexes.min(facts.join_columns.len());
    let min = max.min(8);
    let count = if max > min {
        rng.gen_range(min..=max)
    } else {
        max
    };
    for col in facts.join_columns.iter().take(count) {
        // Small chance to skip one column (sampling noise).
        if rng.gen_bool((0.05 * heat).clamp(0.0, 1.0)) {
            continue;
        }
        match col.split_once('.') {
            Some((table, column)) => {
                out.push_str(&format!("CREATE INDEX ON {table} ({column});\n"));
            }
            None => {
                // Bare identifier (obfuscated or unqualified): still emit;
                // the caller's deobfuscation layer resolves the table.
                out.push_str(&format!("CREATE INDEX ON {col} ({col});\n"));
            }
        }
    }
}

fn generate_outlier(facts: &PromptFacts, rng: &mut Rng) -> String {
    // The failure modes real LLM samples exhibit: way too little work
    // memory, default-sized buffer pool, pessimistic planner costs, and no
    // physical-design help.
    let flavor = rng.gen_range(0..3u8);
    if facts.mysql {
        let mut out = String::from("-- Conservative configuration\n");
        out.push_str("SET GLOBAL innodb_buffer_pool_size = '256MB';\n");
        out.push_str("SET GLOBAL sort_buffer_size = '256kB';\n");
        out.push_str("SET GLOBAL join_buffer_size = '256kB';\n");
        if flavor == 1 {
            out.push_str("SET GLOBAL innodb_flush_log_at_trx_commit = 1;\n");
        }
        out
    } else {
        let mut out = String::from("-- Conservative configuration\n");
        out.push_str("ALTER SYSTEM SET shared_buffers = '128MB';\n");
        out.push_str("ALTER SYSTEM SET work_mem = '256kB';\n");
        match flavor {
            0 => out.push_str("ALTER SYSTEM SET random_page_cost = 8.0;\n"),
            1 => out.push_str("ALTER SYSTEM SET max_parallel_workers_per_gather = 0;\n"),
            _ => out.push_str("ALTER SYSTEM SET effective_cache_size = '512MB';\n"),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prompt(dbms: &str, lines: &str) -> String {
        format!(
            "Recommend some configuration parameters for {dbms} to optimize the \
             system's performance. Parameters might include system-level \
             configurations, like memory, query optimizer or physical design \
             configurations, like index recommendations.\n\
             Each row in the following list has the following format:\n\
             {{a join key A}}:{{all the joins with A in the workload}}\n\
             {lines}\n\
             The workload runs on a system with the following specs:\n\
             memory: 61GB\ncores: 8\n"
        )
    }

    #[test]
    fn parses_dbms_memory_cores() {
        let p = prompt("PostgreSQL", "lineitem.l_orderkey: orders.o_orderkey");
        let f = PromptFacts::parse(&p);
        assert!(!f.mysql);
        assert_eq!(f.memory_bytes, 61 * (1u64 << 30));
        assert_eq!(f.cores, 8);
        assert_eq!(f.join_columns.len(), 2);

        let p = prompt("MySQL", "a.x: b.y");
        assert!(PromptFacts::parse(&p).mysql);
    }

    #[test]
    fn instruction_braces_line_is_not_a_join_line() {
        let p = prompt("PostgreSQL", "t1.c1: t2.c2, t3.c3");
        let f = PromptFacts::parse(&p);
        assert_eq!(f.join_columns, vec!["t1.c1", "t2.c2", "t3.c3"]);
    }

    #[test]
    fn zero_temperature_is_deterministic_across_seeds() {
        let llm = SimulatedLlm::new();
        let p = prompt("PostgreSQL", "lineitem.l_orderkey: orders.o_orderkey");
        let a = llm.complete(&p, 0.0, 1).unwrap();
        let b = llm.complete(&p, 0.0, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_same_output_high_temperature() {
        let llm = SimulatedLlm::new();
        let p = prompt("PostgreSQL", "lineitem.l_orderkey: orders.o_orderkey");
        assert_eq!(
            llm.complete(&p, 1.0, 7).unwrap(),
            llm.complete(&p, 1.0, 7).unwrap()
        );
    }

    #[test]
    fn temperature_produces_variety() {
        let llm = SimulatedLlm::new();
        let p = prompt("PostgreSQL", "lineitem.l_orderkey: orders.o_orderkey");
        let outputs: std::collections::HashSet<String> =
            (0..20).map(|s| llm.complete(&p, 1.0, s).unwrap()).collect();
        assert!(outputs.len() > 3, "only {} distinct outputs", outputs.len());
    }

    #[test]
    fn recommends_25_percent_shared_buffers_at_zero_temp() {
        let llm = SimulatedLlm::new();
        let p = prompt("PostgreSQL", "lineitem.l_orderkey: orders.o_orderkey");
        let out = llm.complete(&p, 0.0, 0).unwrap();
        // 61GB * 25% = 15GB, the paper's Table 5 value.
        assert!(out.contains("shared_buffers = '15GB'"), "{out}");
        assert!(out.contains("random_page_cost = 1.1"), "{out}");
        assert!(out.contains("effective_io_concurrency = 200"), "{out}");
    }

    #[test]
    fn indexes_follow_the_prompt_columns() {
        let llm = SimulatedLlm::new();
        let p = prompt(
            "PostgreSQL",
            "lineitem.l_orderkey: orders.o_orderkey\nlineitem.l_partkey: part.p_partkey",
        );
        let out = llm.complete(&p, 0.0, 0).unwrap();
        assert!(
            out.contains("CREATE INDEX ON lineitem (l_orderkey)"),
            "{out}"
        );
        assert!(out.contains("CREATE INDEX ON part (p_partkey)"), "{out}");
    }

    #[test]
    fn no_indexes_for_columns_absent_from_prompt() {
        let llm = SimulatedLlm::new();
        let p = prompt("PostgreSQL", "lineitem.l_orderkey: orders.o_orderkey");
        let out = llm.complete(&p, 0.0, 0).unwrap();
        assert!(!out.contains("l_partkey"), "{out}");
    }

    #[test]
    fn params_only_mode_skips_indexes() {
        let llm = SimulatedLlm::new();
        let p = prompt("PostgreSQL", "lineitem.l_orderkey: orders.o_orderkey")
            + "\nDo not recommend indexes; only system parameters.\n";
        let out = llm.complete(&p, 0.0, 0).unwrap();
        assert!(!out.contains("CREATE INDEX"), "{out}");
    }

    #[test]
    fn mysql_gets_mysql_knobs() {
        let llm = SimulatedLlm::new();
        let p = prompt("MySQL", "lineitem.l_orderkey: orders.o_orderkey");
        let out = llm.complete(&p, 0.0, 0).unwrap();
        assert!(out.contains("innodb_buffer_pool_size"), "{out}");
        assert!(!out.contains("shared_buffers"), "{out}");
    }

    #[test]
    fn outliers_appear_at_the_configured_rate() {
        let llm = SimulatedLlm::with_options(SimulatedLlmOptions {
            outlier_rate: 0.5,
            max_indexes: 14,
        });
        let p = prompt("PostgreSQL", "lineitem.l_orderkey: orders.o_orderkey");
        let outliers = (0..100)
            .filter(|&s| {
                llm.complete(&p, 1.0, s)
                    .unwrap()
                    .contains("work_mem = '256kB'")
            })
            .count();
        assert!((25..=75).contains(&outliers), "outliers={outliers}");
    }

    #[test]
    fn raw_sql_prompts_yield_indexes_via_parsing() {
        let llm = SimulatedLlm::new();
        let p = "Recommend some configuration parameters for PostgreSQL.\n\
                 Here are the workload queries:\n\
                 select count(*) from lineitem, orders where l_orderkey = o_orderkey;\n\
                 memory: 61GB\ncores: 8\n";
        let out = llm.complete(p, 0.0, 0).unwrap();
        assert!(
            out.contains("CREATE INDEX ON lineitem (l_orderkey)"),
            "{out}"
        );
        assert!(out.contains("CREATE INDEX ON orders (o_orderkey)"), "{out}");
    }

    #[test]
    fn obfuscated_identifiers_are_used_verbatim() {
        let llm = SimulatedLlm::new();
        let p = prompt("PostgreSQL", "T0.C3: T1.C7");
        let out = llm.complete(&p, 0.0, 0).unwrap();
        assert!(out.contains("CREATE INDEX ON T0 (C3)"), "{out}");
    }
}
