//! Shared parsing for the repo's `ISE_*` environment pins.
//!
//! Every crate that reads an environment override (`ISE_CYCLE_SKIP` in
//! `ise-engine`, `ISE_WORKERS` in `ise-par`, `ISE_TRACE` /
//! `ISE_TRACE_CAP` in `ise-telemetry`) parses it through this module, so
//! the accepted spellings are identical everywhere and a malformed value
//! fails loudly instead of silently falling back to a default. A user
//! who sets `ISE_TRACE=true` wants tracing; treating that as "disabled"
//! (or treating `ISE_WORKERS=lots` as "1 worker") turns a typo into a
//! silently different run.
//!
//! Two layers:
//!
//! * [`parse_flag`] / [`parse_count`] — pure parsers returning
//!   `Result`, for callers that want to keep `Option` semantics (the
//!   legacy `parse_cycle_skip` / `parse_workers` surfaces).
//! * [`flag_from`] / [`count_from`] and the env-reading [`env_flag`] /
//!   [`env_count`] — the loud layer: unset means `None`, a recognised
//!   value parses, and anything else panics with the variable name and
//!   the accepted forms.

use std::num::NonZeroUsize;

/// Parses a boolean flag value: `0`/`off`/`false`/`no` and
/// `1`/`on`/`true`/`yes`, case-insensitively, surrounding whitespace
/// ignored.
///
/// # Errors
///
/// Returns a message describing the accepted forms for any other value.
pub fn parse_flag(value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "0" | "off" | "false" | "no" => Ok(false),
        "1" | "on" | "true" | "yes" => Ok(true),
        other => Err(format!(
            "expected 0/off/false/no or 1/on/true/yes, got `{other}`"
        )),
    }
}

/// Parses a positive integer count (whitespace-trimmed).
///
/// # Errors
///
/// Returns a message for zero, negative, or non-numeric values.
pub fn parse_count(value: &str) -> Result<NonZeroUsize, String> {
    value
        .trim()
        .parse::<NonZeroUsize>()
        .map_err(|_| format!("expected a positive integer, got `{}`", value.trim()))
}

/// [`parse_flag`] over an optional value, panicking loudly on garbage.
///
/// `None` (variable unset) stays `None`; a recognised value becomes
/// `Some(bool)`.
///
/// # Panics
///
/// Panics with `name` and the accepted forms on a malformed value.
pub fn flag_from(name: &str, value: Option<&str>) -> Option<bool> {
    value.map(|v| parse_flag(v).unwrap_or_else(|e| panic!("{name}: {e}")))
}

/// [`parse_count`] over an optional value, panicking loudly on garbage.
///
/// # Panics
///
/// Panics with `name` and the accepted forms on a malformed value.
pub fn count_from(name: &str, value: Option<&str>) -> Option<NonZeroUsize> {
    value.map(|v| parse_count(v).unwrap_or_else(|e| panic!("{name}: {e}")))
}

/// Reads the boolean environment variable `name` through [`flag_from`].
///
/// # Panics
///
/// Panics if the variable is set to something other than the recognised
/// flag spellings.
pub fn env_flag(name: &str) -> Option<bool> {
    flag_from(name, std::env::var(name).ok().as_deref())
}

/// Reads the positive-integer environment variable `name` through
/// [`count_from`].
///
/// # Panics
///
/// Panics if the variable is set to anything but a positive integer.
pub fn env_count(name: &str) -> Option<NonZeroUsize> {
    count_from(name, std::env::var(name).ok().as_deref())
}

/// Parses a positive cycle count (whitespace-trimmed). Distinct from
/// [`parse_count`] because cycle budgets are `u64` quantities that may
/// exceed what fits a collection index, and `0` would mean "no budget at
/// all" — reject it loudly rather than guess.
///
/// # Errors
///
/// Returns a message for zero, negative, or non-numeric values.
pub fn parse_cycles(value: &str) -> Result<u64, String> {
    match value.trim().parse::<u64>() {
        Ok(0) | Err(_) => Err(format!(
            "expected a positive cycle count, got `{}`",
            value.trim()
        )),
        Ok(n) => Ok(n),
    }
}

/// [`parse_cycles`] over an optional value, panicking loudly on garbage.
///
/// # Panics
///
/// Panics with `name` and the accepted forms on a malformed value.
pub fn cycles_from(name: &str, value: Option<&str>) -> Option<u64> {
    value.map(|v| parse_cycles(v).unwrap_or_else(|e| panic!("{name}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_accepts_all_spellings() {
        for v in ["0", "off", "OFF", "false", "no", " 0 "] {
            assert_eq!(parse_flag(v), Ok(false), "value {v:?}");
        }
        for v in ["1", "on", "true", "YES", " 1 ", "True"] {
            assert_eq!(parse_flag(v), Ok(true), "value {v:?}");
        }
    }

    #[test]
    fn flag_rejects_garbage_with_accepted_forms() {
        for v in ["2", "maybe", "", "yess"] {
            let e = parse_flag(v).unwrap_err();
            assert!(e.contains("expected 0/off/false/no"), "got: {e}");
        }
    }

    #[test]
    fn count_accepts_positive_integers_only() {
        assert_eq!(parse_count("4").map(NonZeroUsize::get), Ok(4));
        assert_eq!(parse_count(" 2 ").map(NonZeroUsize::get), Ok(2));
        for v in ["0", "-1", "lots", "", "1.5"] {
            assert!(parse_count(v).is_err(), "value {v:?} must be rejected");
        }
    }

    #[test]
    fn optional_layer_passes_unset_through() {
        assert_eq!(flag_from("ISE_TEST_FLAG", None), None);
        assert_eq!(count_from("ISE_TEST_COUNT", None), None);
        assert_eq!(flag_from("ISE_TEST_FLAG", Some("true")), Some(true));
        assert_eq!(
            count_from("ISE_TEST_COUNT", Some("8")).map(NonZeroUsize::get),
            Some(8)
        );
    }

    #[test]
    #[should_panic(expected = "ISE_TEST_FLAG: expected 0/off/false/no")]
    fn malformed_flag_panics_with_variable_name() {
        flag_from("ISE_TEST_FLAG", Some("maybe"));
    }

    #[test]
    #[should_panic(expected = "ISE_TEST_COUNT: expected a positive integer")]
    fn malformed_count_panics_with_variable_name() {
        count_from("ISE_TEST_COUNT", Some("lots"));
    }

    #[test]
    fn cycles_accepts_positive_u64_only() {
        assert_eq!(parse_cycles("1"), Ok(1));
        assert_eq!(parse_cycles(" 5000000 "), Ok(5_000_000));
        assert_eq!(parse_cycles("18446744073709551615"), Ok(u64::MAX));
        for v in ["0", "-3", "soon", "", "2.5"] {
            assert!(parse_cycles(v).is_err(), "value {v:?} must be rejected");
        }
    }

    #[test]
    fn cycles_optional_layer_passes_unset_through() {
        assert_eq!(cycles_from("ISE_CELL_BUDGET", None), None);
        assert_eq!(
            cycles_from("ISE_CELL_BUDGET", Some("250000")),
            Some(250_000)
        );
    }

    #[test]
    #[should_panic(expected = "ISE_CELL_BUDGET: expected a positive cycle count")]
    fn malformed_cycles_panics_with_variable_name() {
        cycles_from("ISE_CELL_BUDGET", Some("0"));
    }
}
