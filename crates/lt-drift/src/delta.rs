//! Delta prompts: re-tuning on *what changed*, not on a stale prompt.
//!
//! The blind warm restart ([`crate::retune`] without a delta) feeds
//! the LLM the previous run's prompt verbatim — cheap, but the model
//! then tunes for the *reference* workload, not the drifted one. The
//! delta prompt is the middle path: compare the reference profile
//! against the window the monitor fired on, and build a fresh prompt
//! that (a) carries over the old prompt's hardware context, (b) names
//! the structural movement — tables gained and lost, join edges gained
//! and lost, filter-shape churn, selectivity shift — and (c) lists join
//! columns with the *gained* edges first, so the model's limited index
//! budget lands on the joins the drift introduced. The rendered prompt
//! is hard-bounded to the old prompt's token count (trailing join lines
//! are dropped first, then delta narration), so a delta re-tune never
//! bills more prompt tokens than the blind restart it replaces.
//!
//! Deltas are computed over [`LabeledProfile`]s — the same feature space
//! as the monitor's hashed [`crate::Profile`]s (each label hashes to
//! exactly the monitor's feature, see
//! [`crate::profile::feature_labels`]), kept as strings because a prompt
//! must *name* tables and joins and a hash cannot.

use crate::profile::feature_labels;
use lt_dbms::stats::QueryPredicates;
use lt_dbms::Catalog;
use lt_llm::count_tokens;
use lt_workloads::Workload;
use std::collections::BTreeMap;

/// A frequency vector over feature *labels*; the delta-side twin of the
/// monitor's hashed [`crate::Profile`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabeledProfile {
    counts: BTreeMap<String, u64>,
}

impl LabeledProfile {
    /// Empty profile.
    pub fn new() -> LabeledProfile {
        LabeledProfile::default()
    }

    /// Reference profile of a workload: every query counted once.
    pub fn from_workload(catalog: &Catalog, workload: &Workload) -> LabeledProfile {
        let mut p = LabeledProfile::new();
        for q in &workload.queries {
            p.add_query(catalog, &lt_dbms::stats::extract(&q.parsed, catalog));
        }
        p
    }

    /// Counts one query's predicate analysis into the profile.
    pub fn add_query(&mut self, catalog: &Catalog, preds: &QueryPredicates) {
        for label in feature_labels(catalog, preds) {
            *self.counts.entry(label).or_insert(0) += 1;
        }
    }

    /// True when nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Labels with `prefix`, with counts, in sorted label order.
    fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counts
            .iter()
            .filter(move |(label, _)| label.starts_with(prefix))
            .map(|(label, &count)| (&label[prefix.len()..], count))
    }

    /// Count-weighted mean selectivity bucket of the `s:` features.
    fn mean_bucket(&self) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0u64;
        for (bucket, count) in self.with_prefix("s:") {
            if let Ok(b) = bucket.parse::<i64>() {
                weighted += b as f64 * count as f64;
                total += count;
            }
        }
        if total == 0 {
            0.0
        } else {
            weighted / total as f64
        }
    }
}

/// Structural movement between a reference profile and the current one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadDelta {
    /// Table names present now but not in the reference.
    pub tables_gained: Vec<String>,
    /// Table names the current workload no longer touches.
    pub tables_lost: Vec<String>,
    /// Join edges (`a.x=b.y`, endpoints sorted) that appeared, with their
    /// current frequency, sorted by frequency descending (ties by name).
    pub joins_gained: Vec<(String, u64)>,
    /// Join edges that disappeared.
    pub joins_lost: Vec<String>,
    /// Join edges in both, with their *current* frequency, sorted by
    /// frequency descending (ties by name).
    pub joins_retained: Vec<(String, u64)>,
    /// Filter features (`table.column:shape`) that appeared.
    pub filters_gained: Vec<String>,
    /// Filter features that disappeared.
    pub filters_lost: Vec<String>,
    /// Mean selectivity-bucket movement, current − reference (positive =
    /// the workload got more selective).
    pub selectivity_shift: f64,
}

impl WorkloadDelta {
    /// Compares two labeled profiles feature-class by feature-class.
    pub fn between(reference: &LabeledProfile, current: &LabeledProfile) -> WorkloadDelta {
        let split = |prefix: &str| -> (Vec<String>, Vec<String>) {
            let gained = current
                .with_prefix(prefix)
                .filter(|(l, _)| !reference.counts.contains_key(&format!("{prefix}{l}")))
                .map(|(l, _)| l.to_string())
                .collect();
            let lost = reference
                .with_prefix(prefix)
                .filter(|(l, _)| !current.counts.contains_key(&format!("{prefix}{l}")))
                .map(|(l, _)| l.to_string())
                .collect();
            (gained, lost)
        };
        let (tables_gained, tables_lost) = split("t:");
        let (filters_gained, filters_lost) = split("f:");
        let mut joins_gained: Vec<(String, u64)> = current
            .with_prefix("j:")
            .filter(|(l, _)| !reference.counts.contains_key(&format!("j:{l}")))
            .map(|(l, c)| (l.to_string(), c))
            .collect();
        joins_gained.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let joins_lost: Vec<String> = reference
            .with_prefix("j:")
            .filter(|(l, _)| !current.counts.contains_key(&format!("j:{l}")))
            .map(|(l, _)| l.to_string())
            .collect();
        let mut joins_retained: Vec<(String, u64)> = current
            .with_prefix("j:")
            .filter(|(l, _)| reference.counts.contains_key(&format!("j:{l}")))
            .map(|(l, c)| (l.to_string(), c))
            .collect();
        joins_retained.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        WorkloadDelta {
            tables_gained,
            tables_lost,
            joins_gained,
            joins_lost,
            joins_retained,
            filters_gained,
            filters_lost,
            selectivity_shift: current.mean_bucket() - reference.mean_bucket(),
        }
    }

    /// True when nothing structural moved and the selectivity shift is
    /// negligible — a delta prompt would say nothing the old prompt does
    /// not, so callers should fall back to the blind warm restart.
    pub fn is_empty(&self) -> bool {
        self.tables_gained.is_empty()
            && self.tables_lost.is_empty()
            && self.joins_gained.is_empty()
            && self.joins_lost.is_empty()
            && self.filters_gained.is_empty()
            && self.filters_lost.is_empty()
            && self.selectivity_shift.abs() < 0.5
    }
}

/// Renders the delta re-tuning prompt; see the module docs. The result
/// is hard-bounded to `count_tokens(memory_prompt)`.
pub fn delta_prompt(memory_prompt: &str, delta: &WorkloadDelta) -> String {
    let budget = count_tokens(memory_prompt);

    // Carry over the old prompt's context the simulated model reads:
    // hardware lines and any params-only directive. The DBMS keyword
    // travels in the header below.
    let mut context: Vec<String> = Vec::new();
    for line in memory_prompt.lines() {
        let tl = line.trim().to_ascii_lowercase();
        if tl.starts_with("memory:")
            || tl.starts_with("cores:")
            || tl.contains("do not recommend index")
            || tl.contains("only system parameters")
        {
            context.push(line.trim().to_string());
        }
    }
    let dbms = if memory_prompt.to_ascii_lowercase().contains("mysql") {
        "mysql"
    } else {
        "postgres"
    };

    let mut narration: Vec<String> = Vec::new();
    let list = |items: &[String]| items.join(", ");
    if !delta.tables_gained.is_empty() {
        narration.push(format!(
            "tables gained since tuning: {}",
            list(&delta.tables_gained)
        ));
    }
    if !delta.tables_lost.is_empty() {
        narration.push(format!(
            "tables no longer queried: {}",
            list(&delta.tables_lost)
        ));
    }
    if !delta.joins_lost.is_empty() {
        narration.push(format!("join edges dropped: {}", list(&delta.joins_lost)));
    }
    if !delta.filters_gained.is_empty() {
        narration.push(format!(
            "new filter shapes: {}",
            list(&delta.filters_gained)
        ));
    }
    if !delta.filters_lost.is_empty() {
        narration.push(format!(
            "filter shapes dropped: {}",
            list(&delta.filters_lost)
        ));
    }
    if delta.selectivity_shift.abs() >= 0.5 {
        narration.push(format!(
            "selectivity moved {:+.1} log2 buckets",
            delta.selectivity_shift
        ));
    }

    // Join lines drive the model's index picks, first-listed first: rank
    // every edge the current workload still exercises — gained and
    // retained alike — by its frequency in that workload, so the heaviest
    // joins get indexed first. Ties favour gained edges (they are the news
    // the stale prompt cannot convey).
    let join_line =
        |edge: &str| -> Option<String> { edge.split_once('=').map(|(a, b)| format!("{a}: {b}")) };
    let mut ranked: Vec<(&str, u64, bool)> = delta
        .joins_gained
        .iter()
        .map(|(e, c)| (e.as_str(), *c, true))
        .chain(
            delta
                .joins_retained
                .iter()
                .map(|(e, c)| (e.as_str(), *c, false)),
        )
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(b.0)));
    let mut joins: Vec<String> = ranked.iter().filter_map(|(e, _, _)| join_line(e)).collect();

    // Keep the head of the prompt short and load-bearing: the DBMS
    // keyword and the hardware context must survive even a final
    // tail-truncation at a tiny budget.
    let render = |narration: &[String], joins: &[String]| -> String {
        let mut p = format!("{dbms} workload drifted; re-tune for the current workload.\n");
        for line in &context {
            p.push_str(line);
            p.push('\n');
        }
        for line in narration {
            p.push_str(line);
            p.push('\n');
        }
        for line in joins {
            p.push_str(line);
            p.push('\n');
        }
        p
    };

    // Enforce the token bound by dropping the least important trailing
    // content: join lines from the back, then narration.
    let mut prompt = render(&narration, &joins);
    while count_tokens(&prompt) > budget && !joins.is_empty() {
        joins.pop();
        prompt = render(&narration, &joins);
    }
    while count_tokens(&prompt) > budget && !narration.is_empty() {
        narration.pop();
        prompt = render(&narration, &joins);
    }
    if count_tokens(&prompt) > budget {
        prompt = lt_llm::truncate_to_tokens(&prompt, budget).to_string();
    }
    prompt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::drifted_workload;
    use lt_workloads::Benchmark;

    fn profiles() -> (LabeledProfile, LabeledProfile) {
        let tpch = Benchmark::TpchSf1.load();
        let drifted = drifted_workload().unwrap();
        let reference = LabeledProfile::from_workload(&tpch.catalog, &tpch);
        let current = LabeledProfile::from_workload(&tpch.catalog, &drifted);
        (reference, current)
    }

    #[test]
    fn delta_names_structural_movement() {
        let (reference, current) = profiles();
        let delta = WorkloadDelta::between(&reference, &current);
        assert!(!delta.is_empty());
        // The drifted workload is a lineitem/orders template pool plus
        // half of TPC-H: whole tables drop out of the reference support.
        assert!(!delta.tables_lost.is_empty(), "{delta:?}");
        assert!(!delta.joins_lost.is_empty(), "{delta:?}");
        assert!(delta
            .joins_retained
            .iter()
            .any(|(e, _)| e.contains("l_orderkey")));
        // Identical profiles produce an empty delta.
        let none = WorkloadDelta::between(&reference, &reference);
        assert!(none.is_empty(), "{none:?}");
    }

    #[test]
    fn delta_prompt_never_exceeds_the_memory_prompt_budget() {
        let (reference, current) = profiles();
        let delta = WorkloadDelta::between(&reference, &current);
        let memory_prompt = "Recommend a postgres configuration.\nmemory: 61GB\ncores: 8\n\
             lineitem.l_orderkey: orders.o_orderkey\n";
        let prompt = delta_prompt(memory_prompt, &delta);
        assert!(count_tokens(&prompt) <= count_tokens(memory_prompt));
        // The hardware context survives the rebuild.
        assert!(prompt.contains("memory: 61GB"), "{prompt}");
        assert!(prompt.contains("cores: 8"), "{prompt}");
    }

    #[test]
    fn join_lines_rank_by_current_frequency_with_gained_winning_ties() {
        let mut reference = LabeledProfile::new();
        let mut current = LabeledProfile::new();
        reference
            .counts
            .insert("j:lineitem.l_orderkey=orders.o_orderkey".to_string(), 9);
        current
            .counts
            .insert("j:lineitem.l_orderkey=orders.o_orderkey".to_string(), 9);
        // A heavy gained edge outranks the retained edge; a light gained
        // edge falls behind it. At equal weight the gained edge would win.
        current
            .counts
            .insert("j:part.p_partkey=partsupp.ps_partkey".to_string(), 20);
        current
            .counts
            .insert("j:customer.c_custkey=orders.o_custkey".to_string(), 1);
        let delta = WorkloadDelta::between(&reference, &current);
        let prompt = delta_prompt(
            &format!("memory: 61GB\ncores: 8\n{}", "pad ".repeat(200)),
            &delta,
        );
        let heavy_gained = prompt
            .find("part.p_partkey: partsupp.ps_partkey")
            .expect("heavy gained join line present");
        let retained = prompt
            .find("lineitem.l_orderkey: orders.o_orderkey")
            .expect("retained join line present");
        let light_gained = prompt
            .find("customer.c_custkey: orders.o_custkey")
            .expect("light gained join line present");
        assert!(
            heavy_gained < retained && retained < light_gained,
            "join lines must rank by current frequency:\n{prompt}"
        );
    }
}
