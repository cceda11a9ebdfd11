//! Unified telemetry: one metrics registry and one event-trace spine for
//! every stats/report surface in the reproduction.
//!
//! The paper's evaluation (§6, Tables 3/5/6, Figs. 5/6) is a counting
//! exercise over micro-events — FSB drains, exception deliveries,
//! deferred interrupts, fault activations. This crate gives those events
//! a single home:
//!
//! * [`Registry`] — typed metrics (monotonic counters, gauges,
//!   [`Summary`](ise_types::stats::Summary)-style streaming stats,
//!   latency [`Histogram`](ise_types::stats::Histogram)s), name-keyed
//!   and rendered in insertion order so snapshots are byte-deterministic
//!   and shard merges under `ise-par` reproduce the sequential bytes.
//! * [`TraceRing`] — a bounded, cycle-stamped ring of structured
//!   [`TraceEvent`]s, config-gated so disabled tracing compiles down to
//!   one predictable branch per record site.
//!
//! `SystemStats`, chaos reports, litmus summaries, and workload stats
//! all render through a [`Registry`] snapshot; the experiment binaries
//! share one emission path over the same snapshots (see
//! `ise-bench::emit_report`). Component counter sets are declared once
//! with `ise_types::counters!` and exported by iterating their generated
//! `fields()`, so a counter's registry key, JSON key and snapshot bytes
//! come from one list (the OS kernel's `silently_dropped` is the one
//! counter kept out of the registry). DESIGN.md §11 documents the
//! architecture, the event taxonomy, and the determinism rules.

#![deny(missing_docs)]

mod registry;
mod trace;

pub use registry::{MetricValue, Registry};
pub use trace::{TraceEvent, TraceEventKind, TraceRing};

/// How a component's telemetry is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether the event trace records (the registry is always on — it
    /// *is* the stats surface).
    pub trace: bool,
    /// Ring capacity when tracing is on.
    pub trace_capacity: usize,
}

impl TelemetryConfig {
    /// The default ring capacity (`ISE_TRACE_CAP` overrides).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Tracing off.
    pub fn disabled() -> Self {
        TelemetryConfig {
            trace: false,
            trace_capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Tracing on with the given ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn traced(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs capacity");
        TelemetryConfig {
            trace: true,
            trace_capacity: capacity,
        }
    }

    /// Reads the process-wide pins: `ISE_TRACE` (any of the shared
    /// [`ise_types::env`] on-spellings — `1`/`on`/`true`/`yes`) enables
    /// tracing, `ISE_TRACE_CAP=<n>` sizes the ring. Unset means
    /// disabled — the zero-overhead default.
    ///
    /// # Panics
    ///
    /// Panics on malformed values. `ISE_TRACE=true` used to be silently
    /// treated as *disabled*; now every recognised spelling works and a
    /// typo aborts instead of quietly dropping the trace.
    pub fn from_env() -> Self {
        Self::from_env_values(
            std::env::var("ISE_TRACE").ok().as_deref(),
            std::env::var("ISE_TRACE_CAP").ok().as_deref(),
        )
    }

    /// The value-level seam under [`from_env`], testable without
    /// touching the process environment.
    ///
    /// # Panics
    ///
    /// Panics (with the variable name) on a malformed flag or a
    /// non-positive capacity.
    pub fn from_env_values(trace: Option<&str>, cap: Option<&str>) -> Self {
        let trace = ise_types::env::flag_from("ISE_TRACE", trace).unwrap_or(false);
        let cap = ise_types::env::count_from("ISE_TRACE_CAP", cap)
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(Self::DEFAULT_CAPACITY);
        TelemetryConfig {
            trace,
            trace_capacity: cap,
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::disabled()
    }
}

/// A component's telemetry plane: its metrics and its event trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// The metrics registry (always collecting).
    pub registry: Registry,
    /// The event trace (records only when the config enables it).
    pub trace: TraceRing,
}

impl Telemetry {
    /// Builds a plane from a configuration.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            registry: Registry::new(),
            trace: if cfg.trace {
                TraceRing::new(cfg.trace_capacity)
            } else {
                TraceRing::disabled()
            },
        }
    }

    /// A plane with tracing off.
    pub fn disabled() -> Self {
        Telemetry::new(TelemetryConfig::disabled())
    }

    /// Records a trace event (no-op when tracing is off).
    #[inline]
    pub fn event(&mut self, cycle: u64, core: u32, kind: TraceEventKind) {
        self.trace.record(cycle, core, kind);
    }
}

impl ise_types::persist::Persist for Telemetry {
    fn save(&self, w: &mut ise_types::persist::Writer) {
        w.section(*b"TELE", |w| {
            self.registry.save(w);
            self.trace.save(w);
        });
    }
    fn restore(
        r: &mut ise_types::persist::Reader,
    ) -> Result<Self, ise_types::persist::PersistError> {
        r.section(*b"TELE", |r| {
            Ok(Telemetry {
                registry: ise_types::persist::Persist::restore(r)?,
                trace: ise_types::persist::Persist::restore(r)?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::ToJson;

    #[test]
    fn disabled_plane_keeps_registry_live() {
        let mut t = Telemetry::disabled();
        t.event(1, 0, TraceEventKind::InterruptDelivered);
        t.registry.incr("events");
        assert!(t.trace.is_empty());
        assert_eq!(t.registry.counter("events"), 1);
    }

    #[test]
    fn traced_plane_records() {
        let mut t = Telemetry::new(TelemetryConfig::traced(8));
        t.event(5, 1, TraceEventKind::PageWalk { page: 3 });
        assert_eq!(t.trace.len(), 1);
        assert!(t.trace.to_json().render().contains("\"page_walk\""));
    }

    #[test]
    fn config_parses_env_shapes() {
        // from_env reads the real environment; only exercise the
        // default path here (env mutation races other tests).
        let cfg = TelemetryConfig::default();
        assert!(!cfg.trace);
        assert_eq!(cfg.trace_capacity, TelemetryConfig::DEFAULT_CAPACITY);
        assert!(TelemetryConfig::traced(16).trace);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn traced_rejects_zero() {
        let _ = TelemetryConfig::traced(0);
    }

    #[test]
    fn every_on_spelling_enables_tracing() {
        // `ISE_TRACE=true` used to be silently treated as disabled.
        for v in ["1", "true", "on", "yes", "TRUE"] {
            let cfg = TelemetryConfig::from_env_values(Some(v), None);
            assert!(cfg.trace, "ISE_TRACE={v} must enable tracing");
        }
        for v in ["0", "false", "off", "no"] {
            let cfg = TelemetryConfig::from_env_values(Some(v), None);
            assert!(!cfg.trace, "ISE_TRACE={v} must disable tracing");
        }
        assert!(!TelemetryConfig::from_env_values(None, None).trace);
    }

    #[test]
    fn trace_cap_parses_and_defaults() {
        let cfg = TelemetryConfig::from_env_values(Some("1"), Some("128"));
        assert_eq!(cfg.trace_capacity, 128);
        let cfg = TelemetryConfig::from_env_values(Some("1"), None);
        assert_eq!(cfg.trace_capacity, TelemetryConfig::DEFAULT_CAPACITY);
    }

    #[test]
    #[should_panic(expected = "ISE_TRACE: expected 0/off/false/no")]
    fn malformed_trace_flag_is_loud() {
        let _ = TelemetryConfig::from_env_values(Some("maybe"), None);
    }

    #[test]
    #[should_panic(expected = "ISE_TRACE_CAP: expected a positive integer")]
    fn malformed_trace_cap_is_loud() {
        let _ = TelemetryConfig::from_env_values(Some("1"), Some("0"));
    }
}
