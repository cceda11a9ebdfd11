//! Clock-policy selection for the cycle-skipping simulator loops.
//!
//! Every per-cycle loop in the repo (the full-system loop in `ise-sim`,
//! the multicore harness in `ise-cpu`, the ASO sweep in `ise-aso`) has
//! two equivalent drivers: the *reference* clock that ticks `now += 1`
//! unconditionally, and the *cycle-skipping* clock that jumps `now`
//! straight to the earliest next wake-up. The skip clock is the default;
//! the reference clock is kept both as the differential-testing oracle
//! and as an escape hatch.
//!
//! The `ISE_CYCLE_SKIP` environment variable overrides whatever the
//! caller configured, mirroring the `ISE_WORKERS` convention from
//! `ise-par`: CI pins one differential leg to `ISE_CYCLE_SKIP=0`
//! (reference) and one to `ISE_CYCLE_SKIP=1` (skip) and asserts
//! byte-identical reports. The spellings are the shared ones from
//! [`ise_types::env`], and a malformed value aborts the run instead of
//! silently deferring to the configured default. [`skip_clock`] is the
//! single place that combines the override with the configuration.

use ise_types::config::SystemConfig;

/// Parses a cycle-skip override string: `Some(false)` for
/// `0`/`off`/`false`/`no`, `Some(true)` for `1`/`on`/`true`/`yes`
/// (case-insensitively), `None` for anything else (the pure-`Option`
/// surface; [`cycle_skip_override`] is the loud env-reading one).
pub fn parse_cycle_skip(value: Option<&str>) -> Option<bool> {
    value.and_then(|v| ise_types::env::parse_flag(v).ok())
}

/// The `ISE_CYCLE_SKIP` environment override. `Some(false)` forces the
/// reference per-cycle clock, `Some(true)` forces cycle skipping,
/// `None` (unset) defers to [`SystemConfig::reference_clock`] (see
/// [`skip_clock`]).
///
/// # Panics
///
/// Panics if `ISE_CYCLE_SKIP` is set to an unrecognised value — a typo
/// here would silently pick the wrong clock for a whole differential
/// leg.
pub fn cycle_skip_override() -> Option<bool> {
    ise_types::env::env_flag("ISE_CYCLE_SKIP")
}

/// The one clock decision every simulator loop defers to: `true` runs
/// the cycle-skipping clock, `false` the per-cycle reference clock.
/// `ISE_CYCLE_SKIP` wins when set; otherwise
/// [`SystemConfig::reference_clock`] decides (off by default, so the
/// skip clock is the default everywhere).
///
/// # Panics
///
/// As [`cycle_skip_override`], on a malformed `ISE_CYCLE_SKIP`.
pub fn skip_clock(cfg: &SystemConfig) -> bool {
    cycle_skip_override().unwrap_or(!cfg.reference_clock)
}

/// Parses a watchdog cell-budget string: `Some(cycles)` for a positive
/// integer, `None` for unset (the pure-`Option` surface;
/// [`cell_budget`] is the loud env-reading one).
///
/// # Panics
///
/// Panics with the variable name on zero or non-numeric values.
pub fn parse_cell_budget(value: Option<&str>) -> Option<crate::Cycle> {
    ise_types::env::cycles_from("ISE_CELL_BUDGET", value)
}

/// The `ISE_CELL_BUDGET` environment override: a watchdog ceiling, in
/// cycles, on one fuzz/chaos/adversary cell evaluation. Campaign cell
/// runners clamp their own per-run budget to it, and a cell that would
/// exceed the clamped budget degrades to a reported `Timeout` outcome
/// instead of hanging (or panicking out of) a campaign worker — the
/// containment story for pathological searched fault plans.
///
/// `None` (unset) leaves each campaign's configured budget as-is.
///
/// # Panics
///
/// Panics if `ISE_CELL_BUDGET` is set to anything but a positive
/// integer — a typo would silently run without a watchdog.
pub fn cell_budget() -> Option<crate::Cycle> {
    parse_cell_budget(std::env::var("ISE_CELL_BUDGET").ok().as_deref())
}

/// Parses a checkpoint-cadence string: `Some(cycles)` for a positive
/// integer, `None` for unset (the pure-`Option` surface;
/// [`ckpt_every`] is the loud env-reading one).
///
/// # Panics
///
/// Panics with the variable name on zero or non-numeric values.
pub fn parse_ckpt_every(value: Option<&str>) -> Option<crate::Cycle> {
    ise_types::env::cycles_from("ISE_CKPT_EVERY", value)
}

/// The `ISE_CKPT_EVERY` environment override: the cadence, in cycles,
/// at which `System::run_clocked` emits periodic checkpoints (into the
/// directory named by `ISE_CKPT_DIR`, default `ise-ckpt/`). `None`
/// (unset) disables periodic emission.
///
/// # Panics
///
/// Panics if `ISE_CKPT_EVERY` is set to anything but a positive
/// integer — a typo would silently disable checkpointing.
pub fn ckpt_every() -> Option<crate::Cycle> {
    parse_ckpt_every(std::env::var("ISE_CKPT_EVERY").ok().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_recognises_off_spellings() {
        for v in ["0", "off", "OFF", "false", "no", " 0 "] {
            assert_eq!(parse_cycle_skip(Some(v)), Some(false), "value {v:?}");
        }
    }

    #[test]
    fn parse_recognises_on_spellings() {
        for v in ["1", "on", "true", "YES", " 1 "] {
            assert_eq!(parse_cycle_skip(Some(v)), Some(true), "value {v:?}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_cycle_skip(Some("2")), None);
        assert_eq!(parse_cycle_skip(Some("maybe")), None);
        assert_eq!(parse_cycle_skip(Some("")), None);
        assert_eq!(parse_cycle_skip(None), None);
    }

    #[test]
    fn cell_budget_parses_positive_cycles() {
        assert_eq!(parse_cell_budget(None), None);
        assert_eq!(parse_cell_budget(Some("250000")), Some(250_000));
        assert_eq!(parse_cell_budget(Some(" 1 ")), Some(1));
    }

    #[test]
    #[should_panic(expected = "ISE_CELL_BUDGET: expected a positive cycle count")]
    fn cell_budget_rejects_zero_loudly() {
        parse_cell_budget(Some("0"));
    }

    #[test]
    fn ckpt_every_parses_positive_cycles() {
        assert_eq!(parse_ckpt_every(None), None);
        assert_eq!(parse_ckpt_every(Some("5000")), Some(5_000));
    }

    #[test]
    #[should_panic(expected = "ISE_CKPT_EVERY: expected a positive cycle count")]
    fn ckpt_every_rejects_zero_loudly() {
        parse_ckpt_every(Some("0"));
    }
}
