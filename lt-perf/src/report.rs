//! Metric declarations, per-workload results, the report file and the
//! `compare` verdicts.

use crate::stats::{median, quartiles, verdict, Better, Verdict};
use lt_common::json::{self, Value};
use std::collections::BTreeMap;

/// The benchmark declaration: metric names, units, directions and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and declared.
    pub name: &'static str,
    /// Unit as declared.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    lower("session_p50_ms", "ms"),
    higher("sessions_per_s", "1/s"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run of every workload.
pub const PER_LAYER: &[Metric] = &[
    lower("workloads.load_ms", "ms"),
    lower("dbms.open_ms", "ms"),
    lower("tune.snippets_ms", "ms"),
    lower("tune.compress_ms", "ms"),
    lower("tune.prompt_ms", "ms"),
    lower("tune.sample_ms", "ms"),
    lower("tune.select_ms", "ms"),
    lower("dbms.execute_us", "us"),
    lower("dbms.plan_us", "us"),
    lower("wal.append_sync_us", "us"),
    lower("ilp.nodes", "count"),
    lower("ilp.bound_prunes", "count"),
    higher("compress.memo_hit_ratio", "ratio"),
    lower("llm.prompt_tokens", "tokens"),
    lower("llm.completion_tokens", "tokens"),
    lower("tune.select_rounds", "count"),
    lower("tune.queries_executed", "count"),
    higher("dbms.plan_cache_hit_ratio", "ratio"),
    higher("dbms.global_plan_hit_ratio", "ratio"),
    lower("dbms.index_builds", "count"),
    higher("store.bp_hit_ratio", "ratio"),
    lower("store.bp_evictions", "count"),
    lower("store.spills", "count"),
    lower("store.wal_appends", "count"),
    higher("trace.coverage", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
];

/// Looks a declared metric up by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One correctness check of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is checked.
    pub name: String,
    /// The condition that must hold.
    pub bound: String,
    /// What was observed.
    pub value: String,
    /// Whether the condition held.
    pub pass: bool,
}

impl Check {
    /// A check from its parts.
    pub fn new(name: &str, bound: &str, value: impl Into<String>, pass: bool) -> Check {
        Check {
            name: name.to_string(),
            bound: bound.to_string(),
            value: value.into(),
            pass,
        }
    }

    /// The check as a JSON object.
    pub fn to_json(&self) -> Value {
        lt_common::json!({
            "name": self.name.as_str(),
            "bound": self.bound.as_str(),
            "value": self.value.as_str(),
            "pass": self.pass,
        })
    }

    /// Parses [`Check::to_json`] output.
    pub fn from_json(doc: &Value) -> Option<Check> {
        Some(Check {
            name: doc.get("name")?.as_str()?.to_string(),
            bound: doc.get("bound")?.as_str()?.to_string(),
            value: doc.get("value")?.as_str()?.to_string(),
            pass: doc.get("pass")?.as_bool()?,
        })
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// The `--seed` of the run.
    pub seed: u64,
    /// True for a traced run.
    pub trace: bool,
    /// Operations attempted (sessions, reads and writes).
    pub attempted: u64,
    /// Operations that failed: non-2xx answers, transport errors, timeouts
    /// and sessions without a winner.
    pub failed: u64,
    /// The declared metrics of this run, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Values that depend only on the seed (first K slots).
    pub deterministic: Value,
    /// Further measurements: sample counts, per-route latencies, gaps.
    pub detail: Value,
    /// Correctness checks.
    pub checks: Vec<Check>,
}

impl Default for WorkloadResult {
    fn default() -> Self {
        WorkloadResult {
            workload: String::new(),
            seed: 0,
            trace: false,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            deterministic: Value::Null,
            detail: Value::Null,
            checks: Vec::new(),
        }
    }
}

impl WorkloadResult {
    /// Serializes the result (one line, for the parent process).
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::from(self.workload.as_str())),
            ("seed".into(), Value::from(self.seed as i64)),
            ("trace".into(), Value::from(self.trace)),
            ("attempted".into(), Value::from(self.attempted)),
            ("failed".into(), Value::from(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
            ("deterministic".into(), self.deterministic.clone()),
            ("detail".into(), self.detail.clone()),
            (
                "checks".into(),
                Value::Array(self.checks.iter().map(Check::to_json).collect()),
            ),
        ])
    }

    /// Parses [`WorkloadResult::to_json`] output.
    pub fn from_json(doc: &Value) -> Option<WorkloadResult> {
        let metrics = doc
            .get("metrics")?
            .as_object()?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect();
        Some(WorkloadResult {
            workload: doc.get("workload")?.as_str()?.to_string(),
            seed: doc.get("seed")?.as_i64()? as u64,
            trace: doc.get("trace")?.as_bool()?,
            attempted: doc.get("attempted")?.as_i64()? as u64,
            failed: doc.get("failed")?.as_i64()? as u64,
            metrics,
            deterministic: doc.get("deterministic")?.clone(),
            detail: doc.get("detail")?.clone(),
            checks: doc
                .get("checks")?
                .as_array()?
                .iter()
                .filter_map(Check::from_json)
                .collect(),
        })
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The human-readable block printed for this workload.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {}) ==",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" }
        );
        for (name, value) in &self.metrics {
            let unit = metric(name).map_or("", |m| m.unit);
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        println!(
            "  {:<28} {:>16} ({} of {} operations)",
            "error_rate",
            format!("{:.6}", self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
        for check in &self.checks {
            println!(
                "  check {:<34} {} ({}; bound: {})",
                check.name,
                if check.pass { "pass" } else { "FAIL" },
                check.value,
                check.bound
            );
        }
    }
}

/// The report file: `{deterministic, measured, checks}` over the workloads
/// of one `run`.
pub fn report_file(results: &[WorkloadResult]) -> Value {
    let by_workload = |f: &dyn Fn(&WorkloadResult) -> Value| {
        Value::Object(results.iter().map(|r| (r.workload.clone(), f(r))).collect())
    };
    let checks: Vec<Value> = results
        .iter()
        .flat_map(|r| {
            r.checks.iter().map(move |c| {
                let mut c = c.clone();
                c.name = format!("{}.{}", r.workload, c.name);
                c.to_json()
            })
        })
        .collect();
    Value::Object(vec![
        (
            "deterministic".into(),
            by_workload(&|r| r.deterministic.clone()),
        ),
        ("measured".into(), by_workload(&|r| r.to_json())),
        ("checks".into(), Value::Array(checks)),
    ])
}

/// Reads the `measured` results of a report file.
pub fn read_report(path: &str) -> Result<Vec<WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let measured = doc
        .get("measured")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no \"measured\" block"))?;
    measured
        .iter()
        .map(|(_, r)| WorkloadResult::from_json(r).ok_or_else(|| format!("{path}: bad result")))
        .collect()
}

fn declaration() -> Value {
    json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// `run_seconds` of `BENCHMARK.json`: the default measured window.
pub fn declared_run_seconds() -> f64 {
    declaration()
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("BENCHMARK.json declares run_seconds")
}

/// `bound` of every declared end-to-end metric in `BENCHMARK.json`.
pub fn declared_bounds() -> BTreeMap<String, f64> {
    declaration()
        .get("end_to_end")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// The bound `compare` holds a metric to on a workload where it repeats
/// within a tenth between runs.
pub const TIGHT_BOUND: f64 = 0.10;

/// The metrics held to [`TIGHT_BOUND`] on `workload` instead of their
/// declared bound. A declared bound has to cover the noisiest workload,
/// and the HTTP workloads repeat far more closely than the CPU-bound ones.
/// The undeclared metrics among these (session p90, read and write
/// latency, writes per second) come from the run's `detail` block: a
/// declared metric must be reported by every workload, and only the HTTP
/// workloads read and write.
fn tight(workload: &str) -> Vec<Metric> {
    let http = [
        lower("session_p50_ms", "ms"),
        lower("session_p90_ms", "ms"),
        higher("sessions_per_s", "1/s"),
        lower("read_p50_ms", "ms"),
        lower("read_p90_ms", "ms"),
    ];
    let writes = [
        lower("write_p50_ms", "ms"),
        lower("write_p90_ms", "ms"),
        higher("writes_per_s", "1/s"),
    ];
    match workload {
        "serve-read" => http.to_vec(),
        "fabric-write" => http.iter().chain(&writes).copied().collect(),
        _ => Vec::new(),
    }
}

/// The metrics `compare` gates on `workload`, each with its bound.
pub fn gates(workload: &str) -> Vec<(Metric, f64)> {
    let bounds = declared_bounds();
    let tight = tight(workload);
    let mut gates: Vec<(Metric, f64)> = END_TO_END
        .iter()
        .filter(|m| !tight.iter().any(|t| t.name == m.name))
        .map(|m| (*m, bounds.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    gates.extend(tight.iter().map(|m| (*m, TIGHT_BOUND)));
    gates
}

/// A metric of a run: a declared one, or one from the `detail` block (at
/// its top level or in its `window`).
fn value(run: &WorkloadResult, name: &str) -> Option<f64> {
    let detail = |doc: &Value| doc.get(name).and_then(Value::as_f64);
    run.metrics
        .get(name)
        .copied()
        .or_else(|| detail(&run.detail))
        .or_else(|| run.detail.get("window").and_then(detail))
}

/// Compares two sets of run files metric by metric. Returns the printed
/// table and whether the new side passes: no regressed metric, no higher
/// error rate, and identical deterministic blocks for runs of equal seed.
pub fn compare(base: &[WorkloadResult], new: &[WorkloadResult]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in workloads {
        let side = |runs: &[WorkloadResult], traced: bool| -> Vec<WorkloadResult> {
            runs.iter()
                .filter(|r| r.workload == w && r.trace == traced)
                .cloned()
                .collect()
        };
        let (b, n) = (side(base, false), side(new, false));
        out.push_str(&format!(
            "== {w}: {} base runs, {} new runs ==\n",
            b.len(),
            n.len()
        ));
        for (m, bound) in gates(w) {
            let values = |runs: &[WorkloadResult]| -> Vec<f64> {
                runs.iter().filter_map(|r| value(r, m.name)).collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            if bv.is_empty() && nv.is_empty() {
                continue;
            }
            let v = verdict(&bv, &nv, m.better, bound);
            ok &= v != Verdict::Regressed;
            let summary = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
            };
            out.push_str(&format!(
                "  {:<22} {:>8}  base {}  new {}  bound {bound}  {}\n",
                m.name,
                m.unit,
                summary(&bv),
                summary(&nv),
                v.name()
            ));
        }
        let rate = |runs: &[WorkloadResult]| {
            let (f, a) = runs
                .iter()
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
            f as f64 / a.max(1) as f64
        };
        let (rb, rn) = (rate(&b), rate(&n));
        let rate_ok = rn <= rb;
        ok &= rate_ok;
        out.push_str(&format!(
            "  {:<22} {:>8}  base {rb:.6}  new {rn:.6}  {}\n",
            "error_rate",
            "ratio",
            if rate_ok { "unchanged" } else { "regressed" }
        ));
        for nr in new.iter().filter(|r| r.workload == w) {
            for br in base.iter().filter(|r| r.workload == w && r.seed == nr.seed) {
                if br.deterministic != nr.deterministic {
                    ok = false;
                    out.push_str(&format!(
                        "  deterministic block differs at seed {}\n",
                        nr.seed
                    ));
                }
            }
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String, String)> {
        declaration()
            .get(section)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| {
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_match_the_declaration() {
        assert_eq!(ours(END_TO_END), declared("end_to_end"));
        assert_eq!(ours(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name.chars().next().unwrap().is_ascii_alphanumeric()
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{}",
                m.name
            );
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        let bounds = declared_bounds();
        for m in END_TO_END {
            let b = bounds[m.name];
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", m.name);
        }
        let largest = bounds.values().cloned().fold(0.0, f64::max);
        assert_eq!(
            bounds["setup_s"], largest,
            "setup_s carries the largest bound"
        );
    }

    fn run(workload: &str, seed: u64, p50: f64, det: &str) -> WorkloadResult {
        let mut r = WorkloadResult {
            workload: workload.to_string(),
            seed,
            attempted: 10,
            deterministic: Value::from(det),
            detail: Value::Null,
            ..Default::default()
        };
        for m in END_TO_END {
            r.metrics.insert(m.name.to_string(), 100.0);
        }
        r.metrics.insert("session_p50_ms".to_string(), p50);
        r
    }

    #[test]
    fn compare_flags_regressions_and_determinism_breaks() {
        let base: Vec<_> = (0..5)
            .map(|i| run("w", i, 100.0 + i as f64 * 0.1, "d"))
            .collect();
        let same: Vec<_> = (0..5)
            .map(|i| run("w", i, 100.05 + i as f64 * 0.1, "d"))
            .collect();
        let (table, ok) = compare(&base, &same);
        assert!(ok, "{table}");
        assert!(table.contains("unchanged"));
        let slow: Vec<_> = (0..5)
            .map(|i| run("w", i, 150.0 + i as f64 * 0.1, "d"))
            .collect();
        let (table, ok) = compare(&base, &slow);
        assert!(!ok && table.contains("regressed"), "{table}");
        let drifted: Vec<_> = (0..5).map(|i| run("w", i, 100.0, "other")).collect();
        let (table, ok) = compare(&base, &drifted);
        assert!(
            !ok && table.contains("deterministic block differs"),
            "{table}"
        );
        let mut failing = same.clone();
        failing[0].failed = 1;
        assert!(!compare(&base, &failing).1);
    }

    #[test]
    fn compare_holds_http_metrics_to_the_tight_bound() {
        let with_read = |workload: &str, seed: u64, read: f64| {
            let mut r = run(workload, seed, 100.0 + seed as f64 * 0.1, "d");
            r.detail = lt_common::json!({ "read_p50_ms": read + seed as f64 * 0.01 });
            r
        };
        // 15 % slower is inside the declared 0.25 bound on a CPU-bound
        // workload...
        let slower = |w: &str| -> Vec<WorkloadResult> {
            (0..5)
                .map(|i| {
                    let mut r = with_read(w, i, 44.0);
                    r.metrics.insert("session_p50_ms".into(), 115.0);
                    r
                })
                .collect()
        };
        let base =
            |w: &str| -> Vec<WorkloadResult> { (0..5).map(|i| with_read(w, i, 44.0)).collect() };
        let (table, ok) = compare(&base("cold-job"), &slower("cold-job"));
        assert!(ok, "{table}");
        assert!(!table.contains("read_p50_ms"), "{table}");
        // ...but a regression on an HTTP workload.
        let (table, ok) = compare(&base("serve-read"), &slower("serve-read"));
        assert!(!ok && table.contains("regressed"), "{table}");
        // Undeclared metrics come from the detail block.
        let slow_reads: Vec<_> = (0..5).map(|i| with_read("serve-read", i, 50.0)).collect();
        let (table, ok) = compare(&base("serve-read"), &slow_reads);
        assert!(!ok, "{table}");
        let line = table.lines().find(|l| l.contains("read_p50_ms")).unwrap();
        assert!(line.contains("regressed"), "{table}");
    }

    #[test]
    fn results_round_trip_through_json() {
        let mut r = run("w", 7, 12.5, "d");
        r.checks.push(Check::new("c", "x == y", "x == y", true));
        let text = r.to_json().to_string_pretty();
        let back = WorkloadResult::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.checks, r.checks);
        assert_eq!(back.seed, 7);
    }
}
