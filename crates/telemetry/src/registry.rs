//! The typed, name-keyed, insertion-ordered metrics registry.

use ise_types::json::{Json, ToJson};
use ise_types::persist::{Persist, PersistError, Reader, Writer};
use ise_types::stats::{Histogram, Summary};
use std::collections::HashMap;

/// One metric's current value.
///
/// The variants cover every quantity the report surfaces emit: monotonic
/// event counts, instantaneous level samples, streaming distributions,
/// bucketed latency distributions, and — for structured leaves like
/// per-core arrays — a pre-rendered JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter (events, cycles, stores, ...).
    Counter(u64),
    /// An instantaneous level (occupancy, ratio, ...); merge keeps the
    /// maximum, matching how high-water marks reduce across shards.
    Gauge(f64),
    /// A streaming mean/min/max accumulator.
    Summary(Summary),
    /// A power-of-two-bucketed latency histogram.
    Histogram(Histogram),
    /// A structured leaf (nested object/array) that merges by
    /// replacement. Used for per-core breakdowns and report rows.
    Value(Json),
}

impl ToJson for MetricValue {
    fn to_json(&self) -> Json {
        match self {
            MetricValue::Counter(v) => Json::from(*v),
            MetricValue::Gauge(v) => Json::from(*v),
            MetricValue::Summary(s) => s.to_json(),
            MetricValue::Histogram(h) => h.to_json(),
            MetricValue::Value(j) => j.clone(),
        }
    }
}

/// A name-keyed metrics registry with deterministic (insertion) order.
///
/// All lookups are by name; iteration, JSON rendering, and
/// [`Registry::merge`] all follow insertion order, so the rendered
/// snapshot is byte-identical no matter how many `ise-par` workers
/// produced the shards — provided every shard inserts its keys in the
/// same program order, which the simulator's single code path guarantees.
///
/// ```
/// use ise_telemetry::Registry;
/// let mut r = Registry::new();
/// r.add("stores", 3);
/// r.add("stores", 2);
/// r.observe("drain_cycles", 17.0);
/// assert_eq!(r.counter("stores"), 5);
/// assert!(r.render().starts_with("{\"stores\":5,"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<(String, MetricValue)>,
    index: HashMap<String, usize>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Builds a registry from `(name, value)` sections, preserving order —
    /// the constructor the report emitters use.
    pub fn from_sections<K: Into<String>>(sections: impl IntoIterator<Item = (K, Json)>) -> Self {
        let mut r = Registry::new();
        for (k, v) in sections {
            r.put(k, v);
        }
        r
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The value of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.index.get(name).map(|&i| &self.entries[i].1)
    }

    fn slot(&mut self, name: &str, fresh: MetricValue) -> &mut MetricValue {
        if let Some(&i) = self.index.get(name) {
            return &mut self.entries[i].1;
        }
        self.index.insert(name.to_string(), self.entries.len());
        self.entries.push((name.to_string(), fresh));
        &mut self.entries.last_mut().expect("just pushed").1
    }

    /// Adds `delta` to the counter `name`, registering it at zero first
    /// if needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered with a non-counter type.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.slot(name, MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// The current value of counter `name` (zero when unregistered).
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered with a non-counter type.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            None => 0,
            Some(MetricValue::Counter(v)) => *v,
            Some(other) => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Sets the gauge `name` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered with a non-gauge type.
    pub fn gauge(&mut self, name: &str, v: f64) {
        match self.slot(name, MetricValue::Gauge(v)) {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// Records an observation into the summary `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered with a non-summary type.
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.slot(name, MetricValue::Summary(Summary::new())) {
            MetricValue::Summary(s) => s.record(v),
            other => panic!("metric {name} is not a summary: {other:?}"),
        }
    }

    /// Records a latency into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered with a non-histogram type.
    pub fn observe_latency(&mut self, name: &str, v: u64) {
        match self.slot(name, MetricValue::Histogram(Histogram::default())) {
            MetricValue::Histogram(h) => h.record(v),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Sets the structured leaf `name` (replacing any previous value).
    pub fn put(&mut self, name: impl Into<String>, v: Json) {
        let name = name.into();
        *self.slot(&name, MetricValue::Value(Json::Null)) = MetricValue::Value(v);
    }

    /// Merges another registry into this one, preserving insertion order:
    /// keys already present merge in place by type (counters add,
    /// gauges take the maximum, summaries/histograms concatenate, values
    /// replace); unseen keys append in `other`'s order. Merging shards
    /// produced by identical code paths therefore yields the same
    /// rendering as a sequential run — the `ise-par` reduction contract.
    ///
    /// # Panics
    ///
    /// Panics if a key is registered with different types in the two
    /// registries.
    pub fn merge(&mut self, other: &Registry) {
        for (name, theirs) in &other.entries {
            match self.index.get(name) {
                None => {
                    self.index.insert(name.clone(), self.entries.len());
                    self.entries.push((name.clone(), theirs.clone()));
                }
                Some(&i) => match (&mut self.entries[i].1, theirs) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
                    (MetricValue::Summary(a), MetricValue::Summary(b)) => a.merge(b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (MetricValue::Value(a), MetricValue::Value(b)) => *a = b.clone(),
                    (mine, theirs) => {
                        panic!("metric {name} merged across types: {mine:?} vs {theirs:?}")
                    }
                },
            }
        }
    }

    /// Writes `other` over this registry with set semantics: every key of
    /// `other` takes `other`'s value, and those keys move, in `other`'s
    /// order, behind the keys only this registry holds. Writing the same
    /// cumulative snapshot twice is therefore idempotent, and the result
    /// does not depend on whether a key held here was registered before
    /// or after an earlier overwrite — the end-of-run contract for a
    /// run finalized more than once. Shard reduction uses
    /// [`Registry::merge`] instead.
    pub fn overwrite(&mut self, other: &Registry) {
        self.entries
            .retain(|(name, _)| !other.index.contains_key(name));
        self.entries.extend(other.entries.iter().cloned());
        self.index.clear();
        for (i, (name, _)) in self.entries.iter().enumerate() {
            self.index.insert(name.clone(), i);
        }
    }

    /// Renders the registry as a JSON object in insertion order.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

impl ToJson for Registry {
    fn to_json(&self) -> Json {
        Json::obj(self.entries.iter().map(|(k, v)| (k.clone(), v.to_json())))
    }
}

impl Persist for MetricValue {
    fn save(&self, w: &mut Writer) {
        match self {
            MetricValue::Counter(v) => {
                w.u8(0);
                w.u64(*v);
            }
            MetricValue::Gauge(v) => {
                w.u8(1);
                w.f64(*v);
            }
            MetricValue::Summary(s) => {
                w.u8(2);
                s.save(w);
            }
            MetricValue::Histogram(h) => {
                w.u8(3);
                h.save(w);
            }
            MetricValue::Value(j) => {
                w.u8(4);
                j.save(w);
            }
        }
    }
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => MetricValue::Counter(r.u64()?),
            1 => MetricValue::Gauge(r.f64()?),
            2 => MetricValue::Summary(Persist::restore(r)?),
            3 => MetricValue::Histogram(Persist::restore(r)?),
            4 => MetricValue::Value(Persist::restore(r)?),
            _ => return Err(PersistError::Corrupt("MetricValue discriminant")),
        })
    }
}

/// Entries serialize in insertion order — the order *is* the observable
/// contract (rendering and merge both follow it) — and the name index
/// is rebuilt on restore.
impl Persist for Registry {
    fn save(&self, w: &mut Writer) {
        w.usize(self.entries.len());
        for (name, value) in &self.entries {
            w.str(name);
            value.save(w);
        }
    }
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        let n = r.usize()?;
        let mut reg = Registry::new();
        for _ in 0..n {
            let name = r.str()?;
            let value = MetricValue::restore(r)?;
            if reg.index.contains_key(&name) {
                return Err(PersistError::Corrupt("duplicate registry key"));
            }
            reg.index.insert(name.clone(), reg.entries.len());
            reg.entries.push((name, value));
        }
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_follows_insertion_order() {
        let mut r = Registry::new();
        r.add("zeta", 1);
        r.incr("alpha");
        r.gauge("occupancy", 0.5);
        assert_eq!(r.render(), r#"{"zeta":1,"alpha":1,"occupancy":0.5}"#);
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = Registry::new();
        r.add("stores", 3);
        r.add("stores", 4);
        assert_eq!(r.counter("stores"), 7);
        assert_eq!(r.counter("never_registered"), 0);
    }

    #[test]
    fn summaries_and_histograms_register_lazily() {
        let mut r = Registry::new();
        r.observe("latency", 4.0);
        r.observe("latency", 8.0);
        r.observe_latency("drain", 3);
        match r.get("latency") {
            Some(MetricValue::Summary(s)) => assert_eq!(s.mean(), 6.0),
            other => panic!("{other:?}"),
        }
        match r.get("drain") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.total(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_confusion_panics() {
        let mut r = Registry::new();
        r.gauge("x", 1.0);
        r.add("x", 1);
    }

    #[test]
    fn merge_matches_sequential_accumulation() {
        // Sequential reference: every event recorded into one registry.
        let mut seq = Registry::new();
        // Sharded: events strided over three shards, merged in order —
        // the exact reduction `ise-par` performs.
        let mut shards = vec![Registry::new(), Registry::new(), Registry::new()];
        for i in 0..30u64 {
            for r in [&mut seq, &mut shards[(i % 3) as usize]] {
                r.add("events", 1);
                r.observe("value", i as f64);
                r.observe_latency("lat", i);
                // Gauges merge by max, so a shard-equivalent gauge must
                // be a high-water mark (monotone per shard).
                r.gauge("high_water", i as f64);
            }
        }
        let mut merged = Registry::new();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.render(), seq.render());
    }

    #[test]
    fn merge_appends_unseen_keys_in_other_order() {
        let mut a = Registry::new();
        a.add("first", 1);
        let mut b = Registry::new();
        b.add("second", 2);
        b.add("third", 3);
        a.merge(&b);
        assert_eq!(a.render(), r#"{"first":1,"second":2,"third":3}"#);
    }

    #[test]
    fn overwrite_sets_values_and_keeps_own_keys_first() {
        let mut end = Registry::new();
        end.add("cycles", 10);
        end.gauge("hwm", 2.0);
        let mut live = Registry::new();
        live.add("early", 1);
        live.overwrite(&end);
        live.add("late", 4);
        end.add("cycles", 5);
        live.overwrite(&end);
        live.overwrite(&end);
        assert_eq!(live.render(), r#"{"early":1,"late":4,"cycles":15,"hwm":2}"#);
        assert_eq!(live.counter("late"), 4, "index rebuilt after the move");
    }

    #[test]
    fn merge_values_replace_and_gauges_take_max() {
        let mut a = Registry::new();
        a.gauge("hwm", 3.0);
        a.put("rows", Json::arr([Json::from(1u64)]));
        let mut b = Registry::new();
        b.gauge("hwm", 2.0);
        b.put("rows", Json::arr([Json::from(9u64)]));
        a.merge(&b);
        assert_eq!(a.render(), r#"{"hwm":3,"rows":[9]}"#);
    }

    #[test]
    fn persist_round_trip_preserves_order_types_and_rendering() {
        use ise_types::persist::{restore_container, save_container};
        let mut r = Registry::new();
        r.add("stores", 7);
        r.gauge("hwm", 2.5);
        r.observe("lat", 4.0);
        r.observe_latency("drain", 130);
        r.put("rows", Json::arr([Json::from(1u64), Json::Null]));
        let bytes = save_container(&r);
        let back: Registry = restore_container(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.render(), r.render());
        // Canonical: re-saving is byte-identical.
        assert_eq!(save_container(&back), bytes);
    }

    #[test]
    fn from_sections_builds_structured_snapshots() {
        let r = Registry::from_sections([
            ("rows", Json::arr([Json::from(1u64)])),
            ("ok", Json::Bool(true)),
        ]);
        assert_eq!(r.render(), r#"{"rows":[1],"ok":true}"#);
    }
}
