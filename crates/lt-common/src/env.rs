//! The one reader of the `LT_*` environment knobs.
//!
//! Every crate reads its knobs through [`get`], [`opt`] or [`flag`], so all
//! of them follow one rule:
//!
//! - a knob that is unset, or empty after trimming surrounding whitespace,
//!   is unset;
//! - a value that does not parse, or that the caller's range check refuses
//!   (`LT_BENCH_THREADS=0`), is *rejected*: one `warning:` line on stderr
//!   names the knob, the value and the default used instead, and the knob
//!   then counts as unset. Stdout never changes.
//!
//! `parse` is that rule as a pure function of the raw string, so tests
//! need no process environment. DESIGN.md's "Knob inventory" lists every
//! knob, its default and what sets it.

use std::collections::BTreeSet;
use std::fmt::{self, Display};
use std::str::FromStr;
use std::sync::Mutex;

/// Parses one knob's raw value: `Ok(None)` when unset or blank,
/// `Ok(Some(v))` when `v` parses and passes `valid`, and `Err` with the
/// trimmed text when the value is rejected.
fn parse<T: FromStr>(raw: Option<&str>, valid: impl Fn(&T) -> bool) -> Result<Option<T>, String> {
    let Some(text) = raw.map(str::trim).filter(|t| !t.is_empty()) else {
        return Ok(None);
    };
    match text.parse::<T>() {
        Ok(value) if valid(&value) => Ok(Some(value)),
        _ => Err(text.to_string()),
    }
}

/// Reads knob `name`: `None` when unset, blank or rejected. `default`
/// describes what the caller uses instead; a rejection reports it on
/// stderr, once per knob and process.
pub fn opt<T: FromStr>(name: &str, default: &dyn Display, valid: impl Fn(&T) -> bool) -> Option<T> {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(raw.as_deref(), valid).unwrap_or_else(|rejected| {
        static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
        let first = WARNED
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(name.to_string());
        if first {
            eprintln!("warning: {name}={rejected:?} rejected; using the default ({default})");
        }
        None
    })
}

/// Reads knob `name`, or `default` when it is unset, blank or rejected.
pub fn get<T: FromStr + Display>(name: &str, default: T, valid: impl Fn(&T) -> bool) -> T {
    opt(name, &default, valid).unwrap_or(default)
}

/// Reads an on/off knob (`1`/`true`/`on` or `0`/`false`/`off`, any case);
/// off when unset or rejected.
pub fn flag(name: &str) -> bool {
    get(name, Switch(false), |_| true).0
}

/// The base seed of the benchmark binaries and the serving load generator
/// (`LT_SEED`, default 42).
pub fn base_seed() -> u64 {
    get("LT_SEED", 42, |_| true)
}

/// The value of an on/off knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Switch(bool);

impl FromStr for Switch {
    type Err = ();

    fn from_str(s: &str) -> Result<Switch, ()> {
        match s.to_ascii_lowercase().as_str() {
            "1" | "true" | "on" => Ok(Switch(true)),
            "0" | "false" | "off" => Ok(Switch(false)),
            _ => Err(()),
        }
    }
}

impl Display for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0 { "on" } else { "off" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any<T>(_: &T) -> bool {
        true
    }

    #[test]
    fn unset_and_blank_values_are_unset() {
        assert_eq!(parse::<u64>(None, any), Ok(None));
        assert_eq!(parse::<u64>(Some(""), any), Ok(None));
        assert_eq!(parse::<u64>(Some(" \t\n"), any), Ok(None));
    }

    #[test]
    fn surrounding_whitespace_is_trimmed() {
        assert_eq!(parse::<u64>(Some(" 17 "), any), Ok(Some(17)));
        assert_eq!(
            parse::<String>(Some("\t/data/lt \n"), any),
            Ok(Some("/data/lt".into()))
        );
    }

    #[test]
    fn unparseable_values_are_rejected_with_their_text() {
        assert_eq!(parse::<u64>(Some(" abc "), any), Err("abc".to_string()));
        assert_eq!(parse::<u64>(Some("-1"), any), Err("-1".to_string()));
        assert_eq!(parse::<u64>(Some("2.5"), any), Err("2.5".to_string()));
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let positive = |n: &usize| *n > 0;
        assert_eq!(parse(Some("0"), positive), Err("0".to_string()));
        assert_eq!(parse(Some("4"), positive), Ok(Some(4)));
    }

    #[test]
    fn switches_accept_on_off_spellings_only() {
        for on in ["1", "true", "ON", " on "] {
            assert_eq!(parse(Some(on), any), Ok(Some(Switch(true))), "{on:?}");
        }
        for off in ["0", "false", "Off"] {
            assert_eq!(parse(Some(off), any), Ok(Some(Switch(false))), "{off:?}");
        }
        assert_eq!(parse::<Switch>(Some("yes"), any), Err("yes".to_string()));
    }

    #[test]
    fn unset_knobs_read_as_their_defaults() {
        // Not an `LT_` name, so no run of the suite can have it set.
        let name = "LAMBDA_TUNE_ENV_TEST_UNSET";
        assert_eq!(get(name, 7u64, any), 7);
        assert_eq!(opt::<u64>(name, &"none", any), None);
        assert!(!flag(name));
    }
}
