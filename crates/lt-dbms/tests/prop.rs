//! Randomized property tests for the simulated DBMS: knob parsing
//! roundtrips, configuration-script robustness, and physically sensible
//! monotonicity of the execution model.
//!
//! Cases are generated from a seeded `lt_common::Rng` (the workspace builds
//! with zero external crates), so every run exercises the same cases.

use lt_common::{seeded_rng, Rng, Secs};
use lt_dbms::{Catalog, Configuration, Dbms, Hardware, SimDb, TuningTarget};

const CASES: usize = 64;

fn small_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table("t_small", 10_000)
        .primary_key("sk", 8)
        .column("sv", 8, 100.0)
        .finish();
    c.add_table("t_big", 2_000_000)
        .primary_key("bk", 8)
        .foreign_key("bfk", 8, 10_000.0)
        .column("bv", 8, 500.0)
        .column("bpad", 80, 100.0)
        .finish();
    c
}

/// Arbitrary text: printable ASCII plus whitespace, quotes and a few
/// multi-byte characters, to stress the parser with malformed scripts.
fn arbitrary_text(rng: &mut Rng, max_len: usize) -> String {
    let pool: Vec<char> = (' '..='~')
        .chain(['\n', '\t', 'é', 'λ', '→', '\''])
        .collect();
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| *rng.choose(&pool).unwrap()).collect()
}

/// Configuration parsing never panics on arbitrary script text.
#[test]
fn configuration_parse_never_panics() {
    let catalog = small_catalog();
    let mut rng = seeded_rng(0xD1);
    for _ in 0..CASES {
        let script = arbitrary_text(&mut rng, 300);
        let _ = Configuration::parse(&script, Dbms::Postgres, &catalog);
        let _ = Configuration::parse(&script, Dbms::Mysql, &catalog);
    }
}

/// Rendering a parsed configuration back to a script and reparsing it
/// preserves knobs and indexes.
#[test]
fn configuration_script_roundtrip() {
    let catalog = small_catalog();
    let mut rng = seeded_rng(0xD2);
    for _ in 0..CASES {
        let work_mem_mb = rng.gen_range(1..4096u64);
        let rpc = rng.gen_range(0.5..10.0);
        let with_index = rng.gen_bool(0.5);
        let mut script = format!(
            "ALTER SYSTEM SET work_mem = '{work_mem_mb}MB';\n\
             ALTER SYSTEM SET random_page_cost = {rpc};\n"
        );
        if with_index {
            script.push_str("CREATE INDEX ON t_big (bfk);\n");
        }
        let config = Configuration::parse(&script, Dbms::Postgres, &catalog);
        assert!(config.warnings.is_empty());
        let rendered = config.to_script(Dbms::Postgres, &catalog);
        let reparsed = Configuration::parse(&rendered, Dbms::Postgres, &catalog);
        assert!(reparsed.warnings.is_empty(), "{:?}", reparsed.warnings);
        assert_eq!(config.fingerprint(), reparsed.fingerprint());
    }
}

/// Knob text parsing is clamped: whatever value the script asks for,
/// the stored value is within the knob's legal range.
#[test]
fn knob_values_respect_ranges() {
    let mut rng = seeded_rng(0xD3);
    for _ in 0..CASES {
        let raw = rng.gen_range(0..u64::MAX / 2);
        let mut knobs = lt_dbms::KnobSet::defaults(Dbms::Postgres);
        knobs.set_text("work_mem", &format!("{raw}")).unwrap();
        let def = lt_dbms::knobs::knob_def(Dbms::Postgres, "work_mem").unwrap();
        let v = knobs.get_f64("work_mem");
        assert!(v >= def.min && v <= def.max);
    }
}

/// Execution time is positive, finite, and a query's time under a
/// timeout never exceeds the timeout.
#[test]
fn execution_respects_timeouts() {
    let mut rng = seeded_rng(0xD4);
    for _ in 0..CASES {
        let timeout_s = rng.gen_range(0.001..100.0);
        let seed = rng.gen_range(0..50u64);
        let catalog = small_catalog();
        let mut db = SimDb::new(Dbms::Postgres, catalog, Hardware::p3_2xlarge(), seed);
        let q =
            lt_sql::parse_query("select * from t_big, t_small where bfk = sk and bv < 10").unwrap();
        let outcome = db.execute(&q, lt_common::secs(timeout_s));
        assert!(outcome.time > Secs::ZERO);
        assert!(outcome.time <= lt_common::secs(timeout_s) + lt_common::secs(1e-9));
        // Unlimited execution completes.
        let unlimited = db.execute(&q, Secs::INFINITY);
        assert!(unlimited.completed);
        assert!(unlimited.time.is_finite());
    }
}

/// More work memory never makes the workload slower (spills only
/// disappear, never appear, as memory grows).
#[test]
fn work_mem_is_monotone() {
    let mut rng = seeded_rng(0xD5);
    for _ in 0..CASES {
        let mb_small = rng.gen_range(1..64u64);
        let factor = rng.gen_range(2..64u64);
        let catalog = small_catalog();
        let q = lt_sql::parse_query("select * from t_big, t_small where bfk = sk").unwrap();
        let time_with = |mb: u64| {
            let mut db = SimDb::new(Dbms::Postgres, small_catalog(), Hardware::p3_2xlarge(), 7);
            let cfg = Configuration::parse(
                &format!("ALTER SYSTEM SET work_mem = '{mb}MB';"),
                Dbms::Postgres,
                &catalog,
            );
            db.apply_knobs(&cfg);
            db.execute(&q, Secs::INFINITY).time
        };
        let slow = time_with(mb_small);
        let fast = time_with(mb_small * factor);
        // The configuration fingerprint feeds the ±6% execution noise, so
        // more memory must never be slower beyond the combined noise band.
        assert!(
            fast.as_f64() <= slow.as_f64() * 1.13 + 1e-6,
            "{fast} > {slow} beyond noise"
        );
    }
}
