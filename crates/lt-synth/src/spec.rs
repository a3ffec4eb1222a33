//! Declarative workload specifications.
//!
//! A [`WorkloadSpec`] describes a query workload by its *statistics*, not
//! its SQL: how many queries, over which benchmark schema, with which
//! join-shape mix (chain / star / clique and a depth range), which
//! predicate-selectivity band (the workload's cost/cardinality profile,
//! expressed in the same log₂ buckets the drift profiles use), how
//! skewed the table-access distribution is (Zipf over the join-graph
//! tables, heaviest tables first), and within which conformance
//! tolerance the compiled workload must land. The synthesis engine
//! ([`crate::Synthesizer`]) turns a spec into a concrete, catalog-valid
//! [`lt_workloads::Workload`].
//!
//! Specs cross process boundaries (the `POST /sessions/<id>/queries`
//! `"spec"` body, `synth_bench` scenario files), so they parse from and
//! render to JSON with the same strict-validation style as the serve
//! layer's `TuneRequest`.

use lt_common::json::Value;
use lt_common::{json, LtError, Result};
use lt_workloads::Benchmark;

/// Ceiling on `queries` so a client-supplied spec cannot request an
/// unbounded generation loop. Matches the serve layer's feed cap.
pub const MAX_SPEC_QUERIES: usize = 512;

/// Hard ceiling on join depth: the densest join graph we ship (TPC-DS)
/// supports stars of this order around its fact tables.
pub const MAX_SPEC_DEPTH: usize = 8;

/// Relative weights of the three join shapes a spec can ask for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinMix {
    /// Path-shaped joins: `a – b – c – …`.
    pub chain: f64,
    /// One anchor joined to `depth − 1` satellites.
    pub star: f64,
    /// Anchor + neighbours with *every* available edge among them.
    pub clique: f64,
}

impl Default for JoinMix {
    fn default() -> Self {
        JoinMix {
            chain: 0.5,
            star: 0.3,
            clique: 0.2,
        }
    }
}

impl JoinMix {
    /// Weights normalized to sum to 1, in `[chain, star, clique]` order.
    pub fn normalized(&self) -> [f64; 3] {
        let sum = (self.chain + self.star + self.clique).max(1e-12);
        [self.chain / sum, self.star / sum, self.clique / sum]
    }
}

/// Declarative description of one synthetic workload; see module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (also the label prefix of generated queries).
    pub name: String,
    /// Benchmark whose catalog (schema + statistics) the queries target.
    pub benchmark: Benchmark,
    /// Number of queries to generate (1 ..= [`MAX_SPEC_QUERIES`]).
    pub queries: usize,
    /// Seed of every draw the engine makes (defaults to [`DEFAULT_SEED`]).
    pub seed: u64,
    /// Join-shape mix for multi-table queries.
    pub join_mix: JoinMix,
    /// Minimum tables per query (≥ 1; 1 admits single-table scans).
    pub depth_min: usize,
    /// Maximum tables per query (≤ [`MAX_SPEC_DEPTH`]).
    pub depth_max: usize,
    /// Zipf exponent of the anchor-table distribution over the join
    /// graph's tables, heaviest (most rows) first. 0 = uniform.
    pub skew: f64,
    /// Fraction of queries carrying a filter predicate.
    pub filter_rate: f64,
    /// Target selectivity band: lowest log₂ bucket (1 bucket ≙ one
    /// halving of the filtered table's cardinality).
    pub bucket_min: i64,
    /// Highest log₂ bucket of the band.
    pub bucket_max: i64,
    /// Declared conformance tolerance: achieved shape-mix and
    /// anchor-frequency deviations must stay within this bound.
    pub tolerance: f64,
}

/// Base seed for specs that do not pin one.
pub const DEFAULT_SEED: u64 = 42;

/// Validation-retry cap of the generation loop: attempts per query before
/// the engine gives up.
pub const RETRY_MAX: usize = 4;

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "synth".to_string(),
            benchmark: Benchmark::TpchSf1,
            queries: 16,
            seed: DEFAULT_SEED,
            join_mix: JoinMix::default(),
            depth_min: 2,
            depth_max: 4,
            skew: 0.8,
            filter_rate: 0.75,
            bucket_min: 0,
            bucket_max: 8,
            tolerance: 0.2,
        }
    }
}

impl WorkloadSpec {
    /// Strictly validates the spec's internal consistency.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(LtError::Config(msg));
        if self.queries == 0 || self.queries > MAX_SPEC_QUERIES {
            return bad(format!(
                "spec queries must be in 1..={MAX_SPEC_QUERIES}, got {}",
                self.queries
            ));
        }
        if self.depth_min == 0 || self.depth_min > self.depth_max || self.depth_max > MAX_SPEC_DEPTH
        {
            return bad(format!(
                "spec depth range {}..={} invalid (1..={MAX_SPEC_DEPTH})",
                self.depth_min, self.depth_max
            ));
        }
        let [c, s, k] = self.join_mix.normalized();
        if !(c.is_finite() && s.is_finite() && k.is_finite()) || c < 0.0 || s < 0.0 || k < 0.0 {
            return bad("spec join_mix weights must be finite and non-negative".to_string());
        }
        if !(0.0..=2.0).contains(&self.skew) || !self.skew.is_finite() {
            return bad(format!("spec skew must be in 0..=2, got {}", self.skew));
        }
        if !(0.0..=1.0).contains(&self.filter_rate) {
            return bad(format!(
                "spec filter_rate must be in 0..=1, got {}",
                self.filter_rate
            ));
        }
        if self.bucket_min < 0 || self.bucket_min > self.bucket_max || self.bucket_max > 40 {
            return bad(format!(
                "spec bucket band {}..={} invalid (0..=40)",
                self.bucket_min, self.bucket_max
            ));
        }
        if !(0.0..=1.0).contains(&self.tolerance) {
            return bad(format!(
                "spec tolerance must be in 0..=1, got {}",
                self.tolerance
            ));
        }
        Ok(())
    }

    /// Parses a spec from its JSON form. Every field is optional — absent
    /// fields keep their [`Default`] — but present fields are strictly
    /// typed and range-checked, so a malformed client spec is a
    /// [`LtError::Config`], never a silently defaulted value.
    pub fn from_json(doc: &Value) -> Result<WorkloadSpec> {
        let bad = |msg: &str| LtError::Config(format!("bad workload spec: {msg}"));
        if doc.as_object().is_none() {
            return Err(bad("spec must be a JSON object"));
        }
        let mut spec = WorkloadSpec::default();
        let known = [
            "name",
            "benchmark",
            "queries",
            "seed",
            "join_mix",
            "depth_min",
            "depth_max",
            "skew",
            "filter_rate",
            "bucket_min",
            "bucket_max",
            "tolerance",
        ];
        for (key, _) in doc.as_object().expect("checked above") {
            if !known.contains(&key.as_str()) {
                return Err(bad(&format!("unknown field {key:?}")));
            }
        }
        if let Some(v) = doc.get("name") {
            spec.name = v
                .as_str()
                .ok_or_else(|| bad("\"name\" must be a string"))?
                .to_string();
        }
        if let Some(v) = doc.get("benchmark") {
            let name = v
                .as_str()
                .ok_or_else(|| bad("\"benchmark\" must be a string"))?;
            spec.benchmark = Benchmark::parse(name)?;
        }
        let uint = |v: &Value, field: &str| -> Result<usize> {
            match v.as_i64() {
                Some(n) if n >= 0 => Ok(n as usize),
                _ => Err(bad(&format!("{field:?} must be a non-negative integer"))),
            }
        };
        let float = |v: &Value, field: &str| -> Result<f64> {
            v.as_f64()
                .filter(|f| f.is_finite())
                .ok_or_else(|| bad(&format!("{field:?} must be a finite number")))
        };
        if let Some(v) = doc.get("queries") {
            spec.queries = uint(v, "queries")?;
        }
        if let Some(v) = doc.get("seed") {
            // Seeds are full 64-bit values (`derive_seed` uses the whole
            // range); JSON integers are i64, so the wire format is the
            // i64 bit-pattern — negative values round-trip, they are not
            // rejected.
            spec.seed = v
                .as_i64()
                .ok_or_else(|| bad("\"seed\" must be an integer"))? as u64;
        }
        if let Some(v) = doc.get("join_mix") {
            if v.as_object().is_none() {
                return Err(bad("\"join_mix\" must be an object"));
            }
            for (key, _) in v.as_object().expect("checked above") {
                if !["chain", "star", "clique"].contains(&key.as_str()) {
                    return Err(bad(&format!("unknown join_mix field {key:?}")));
                }
            }
            if let Some(c) = v.get("chain") {
                spec.join_mix.chain = float(c, "join_mix.chain")?;
            }
            if let Some(s) = v.get("star") {
                spec.join_mix.star = float(s, "join_mix.star")?;
            }
            if let Some(k) = v.get("clique") {
                spec.join_mix.clique = float(k, "join_mix.clique")?;
            }
        }
        if let Some(v) = doc.get("depth_min") {
            spec.depth_min = uint(v, "depth_min")?;
        }
        if let Some(v) = doc.get("depth_max") {
            spec.depth_max = uint(v, "depth_max")?;
        }
        if let Some(v) = doc.get("skew") {
            spec.skew = float(v, "skew")?;
        }
        if let Some(v) = doc.get("filter_rate") {
            spec.filter_rate = float(v, "filter_rate")?;
        }
        if let Some(v) = doc.get("bucket_min") {
            spec.bucket_min = uint(v, "bucket_min")? as i64;
        }
        if let Some(v) = doc.get("bucket_max") {
            spec.bucket_max = uint(v, "bucket_max")? as i64;
        }
        if let Some(v) = doc.get("tolerance") {
            spec.tolerance = float(v, "tolerance")?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec back to JSON ([`WorkloadSpec::from_json`]'s exact
    /// inverse; benchmark as its canonical display name).
    pub fn to_json(&self) -> Value {
        json!({
            "name": self.name.clone(),
            "benchmark": self.benchmark.name(),
            "queries": self.queries as i64,
            "seed": self.seed as i64,
            "join_mix": json!({
                "chain": self.join_mix.chain,
                "star": self.join_mix.star,
                "clique": self.join_mix.clique,
            }),
            "depth_min": self.depth_min as i64,
            "depth_max": self.depth_max as i64,
            "skew": self.skew,
            "filter_rate": self.filter_rate,
            "bucket_min": self.bucket_min,
            "bucket_max": self.bucket_max,
            "tolerance": self.tolerance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let spec = WorkloadSpec {
            name: "rt".to_string(),
            benchmark: Benchmark::Job,
            queries: 24,
            seed: 7,
            join_mix: JoinMix {
                chain: 0.2,
                star: 0.5,
                clique: 0.3,
            },
            depth_min: 2,
            depth_max: 5,
            skew: 1.25,
            filter_rate: 0.5,
            bucket_min: 1,
            bucket_max: 6,
            tolerance: 0.1,
        };
        let back = WorkloadSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // Derived seeds use the full u64 range; the i64 bit-pattern on
        // the wire must round-trip, not reject as negative.
        let wide = WorkloadSpec {
            seed: u64::MAX - 5,
            ..WorkloadSpec::default()
        };
        let back = WorkloadSpec::from_json(&wide.to_json()).unwrap();
        assert_eq!(back.seed, wide.seed);
    }

    #[test]
    fn absent_fields_default_and_unknown_fields_reject() {
        let spec = WorkloadSpec::from_json(&lt_common::json::parse("{}").unwrap()).unwrap();
        assert_eq!(spec, WorkloadSpec::default());
        let err = WorkloadSpec::from_json(&lt_common::json::parse(r#"{"quries": 3}"#).unwrap())
            .unwrap_err();
        assert!(err.message().contains("unknown field"), "{err}");
    }

    #[test]
    fn out_of_range_fields_reject() {
        for bad in [
            r#"{"queries": 0}"#,
            r#"{"queries": 100000}"#,
            r#"{"depth_min": 0}"#,
            r#"{"depth_min": 4, "depth_max": 2}"#,
            r#"{"depth_max": 99}"#,
            r#"{"skew": -1.0}"#,
            r#"{"filter_rate": 1.5}"#,
            r#"{"bucket_min": 9, "bucket_max": 3}"#,
            r#"{"tolerance": 2.0}"#,
            r#"{"benchmark": "tpcc"}"#,
            r#"{"seed": "x"}"#,
            r#"{"join_mix": {"chian": 1.0}}"#,
            r#"[1]"#,
        ] {
            let doc = lt_common::json::parse(bad).unwrap();
            assert!(WorkloadSpec::from_json(&doc).is_err(), "{bad} passed");
        }
    }

    #[test]
    fn mix_normalization_sums_to_one() {
        let [c, s, k] = JoinMix {
            chain: 2.0,
            star: 1.0,
            clique: 1.0,
        }
        .normalized();
        assert!((c + s + k - 1.0).abs() < 1e-12);
        assert!((c - 0.5).abs() < 1e-12);
    }
}
