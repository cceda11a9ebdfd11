//! Statistics containers used by the simulator and the experiment harness.

use crate::json::{Json, ToJson};
use std::fmt;

/// A streaming mean/min/max accumulator for cycle counts and similar
/// quantities.
///
/// ```
/// use ise_types::stats::Summary;
/// let mut s = Summary::new();
/// for v in [2.0, 4.0, 6.0] { s.record(v); }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), Some(2.0));
/// assert_eq!(s.max(), Some(6.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl ToJson for Summary {
    /// The JSON encoding. An empty summary's `min`/`max` are
    /// `±INFINITY` internally, which JSON cannot represent — they are
    /// emitted as `null` (never `inf`), matching the [`Summary::min`] /
    /// [`Summary::max`] accessors.
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("mean", Json::from(self.mean())),
            ("min", self.min().to_json()),
            ("max", self.max().to_json()),
        ])
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.2} min={:.2} max={:.2}",
                self.count,
                self.mean(),
                self.min,
                self.max
            )
        }
    }
}

/// A fixed-bucket histogram with power-of-two bucket boundaries, used for
/// latency distributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram covering values up to `2^(buckets-1)`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            buckets: vec![0; buckets],
        }
    }

    /// Records a value; values beyond the last boundary land in the last
    /// bucket.
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        };
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Raw bucket counts; bucket *i* covers `[2^(i-1), 2^i)` (bucket 0 is
    /// the value 0).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Merges another histogram into this one bucket-wise, growing to
    /// the larger bucket count when they differ.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "buckets",
                Json::arr(self.buckets.iter().map(|&b| Json::from(b))),
            ),
            ("total", Json::from(self.total())),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(24)
    }
}

/// Declares a struct of `u64` counters and derives, from its one field
/// list, everything that must agree on that list. In declaration order:
///
/// * the struct itself, with `Debug, Clone, Copy, PartialEq, Eq, Default`;
/// * `fields() -> [(&'static str, u64); N]`, the `(name, value)` pairs a
///   telemetry export iterates;
/// * [`ToJson`](crate::json::ToJson): one object, keyed by field name;
/// * [`Persist`](crate::persist::Persist): one little-endian `u64` per
///   field, no tag or length.
///
/// A counter added to the list is therefore rendered, snapshotted and
/// exported together, or not at all.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident: u64
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $vis struct $name {
            $(
                $(#[$fmeta])*
                $fvis $field: u64,
            )*
        }

        impl $name {
            /// Every counter as `(name, value)`, in declaration order —
            /// the order of its JSON keys and snapshot bytes.
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$((stringify!($field), self.$field)),*]
            }
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj(
                    self.fields()
                        .map(|(k, v)| (k, $crate::json::Json::from(v))),
                )
            }
        }

        impl $crate::persist::Persist for $name {
            fn save(&self, w: &mut $crate::persist::Writer) {
                for (_, v) in self.fields() {
                    w.u64(v);
                }
            }
            fn restore(r: &mut $crate::persist::Reader) -> $crate::persist::Result<Self> {
                Ok($name { $($field: r.u64()?,)* })
            }
        }
    };
}

crate::counters! {
    /// Core-level timing statistics produced by one simulation run.
    pub struct CoreStats {
        /// Instructions retired.
        pub retired: u64,
        /// Cycles simulated.
        pub cycles: u64,
        /// Cycles the retire stage was blocked by a store awaiting completion
        /// (SC) or a full store buffer (PC/WC).
        pub store_stall_cycles: u64,
        /// Cycles stalled on fences/atomics draining the store buffer.
        pub sync_stall_cycles: u64,
        /// L1D misses observed.
        pub l1d_misses: u64,
        /// Imprecise store exceptions taken.
        pub imprecise_exceptions: u64,
        /// Faulting stores drained to the FSB.
        pub faulting_stores: u64,
        /// Precise exceptions taken.
        pub precise_exceptions: u64,
    }
}

impl CoreStats {
    /// Instructions per cycle (0.0 when no cycles elapsed).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

mod persist_impls {
    use super::*;
    use crate::persist::{Persist, PersistError, Reader, Writer};

    impl Persist for Summary {
        fn save(&self, w: &mut Writer) {
            w.u64(self.count);
            w.f64(self.sum);
            w.f64(self.min);
            w.f64(self.max);
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(Summary {
                count: r.u64()?,
                sum: r.f64()?,
                min: r.f64()?,
                max: r.f64()?,
            })
        }
    }

    impl Persist for Histogram {
        fn save(&self, w: &mut Writer) {
            self.buckets.save(w);
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            let buckets = Vec::<u64>::restore(r)?;
            if buckets.is_empty() {
                return Err(PersistError::Corrupt("empty histogram"));
            }
            Ok(Histogram { buckets })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        assert_eq!(s.min(), None);
        s.record(5.0);
        s.record(1.0);
        s.record(9.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.mean(), 5.0);
    }

    #[test]
    fn summary_merge_is_concat() {
        let mut a = Summary::new();
        a.record(1.0);
        let mut b = Summary::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn empty_summary_json_emits_null_extremes() {
        // Regression: min/max default to ±INFINITY, which JSON cannot
        // represent. The export must say null, not "inf" or a broken
        // token.
        let s = Summary::new();
        assert_eq!(
            s.to_json().render(),
            r#"{"count":0,"sum":0,"mean":0,"min":null,"max":null}"#
        );
    }

    #[test]
    fn populated_summary_json_round_trips_extremes() {
        let mut s = Summary::new();
        s.record(2.0);
        s.record(6.0);
        assert_eq!(
            s.to_json().render(),
            r#"{"count":2,"sum":8,"mean":4,"min":2,"max":6}"#
        );
    }

    #[test]
    fn histogram_json_and_merge() {
        let mut a = Histogram::new(4);
        a.record(1);
        let mut b = Histogram::new(8);
        b.record(200);
        a.merge(&b);
        assert_eq!(a.buckets().len(), 8, "merge grows to the larger shape");
        assert_eq!(a.total(), 2);
        assert!(a.to_json().render().starts_with(r#"{"buckets":[0,1,"#));
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(8);
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1 << 20); // clamped to last bucket
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[7], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_zero_buckets() {
        let _ = Histogram::new(0);
    }

    #[test]
    fn ipc_math() {
        let s = CoreStats {
            retired: 100,
            cycles: 50,
            ..Default::default()
        };
        assert_eq!(s.ipc(), 2.0);
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn core_stats_json_lists_every_counter() {
        let s = CoreStats {
            retired: 7,
            cycles: 11,
            store_stall_cycles: 3,
            sync_stall_cycles: 2,
            l1d_misses: 5,
            imprecise_exceptions: 1,
            faulting_stores: 4,
            precise_exceptions: 0,
        };
        let json = s.to_json().render();
        assert_eq!(
            json,
            "{\"retired\":7,\"cycles\":11,\"store_stall_cycles\":3,\
             \"sync_stall_cycles\":2,\"l1d_misses\":5,\
             \"imprecise_exceptions\":1,\"faulting_stores\":4,\
             \"precise_exceptions\":0}"
        );
    }

    crate::counters! {
        /// A three-counter set for pinning the macro's contract.
        struct Trio {
            zeta: u64,
            alpha: u64,
            mid: u64,
        }
    }

    #[test]
    fn counters_share_one_order_across_fields_json_and_bytes() {
        use crate::persist::{Persist, Reader, Writer};
        let t = Trio {
            zeta: 1,
            alpha: 0x0203,
            mid: u64::MAX,
        };
        // Declaration order, not alphabetical, everywhere.
        assert_eq!(
            t.fields(),
            [("zeta", 1), ("alpha", 0x0203), ("mid", u64::MAX)]
        );
        assert_eq!(
            t.to_json().render(),
            r#"{"zeta":1,"alpha":515,"mid":18446744073709551615}"#
        );
        let mut w = Writer::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        #[rustfmt::skip]
        assert_eq!(
            bytes,
            [
                1, 0, 0, 0, 0, 0, 0, 0,
                3, 2, 0, 0, 0, 0, 0, 0,
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            ]
        );
        let mut r = Reader::new(&bytes);
        assert_eq!(Trio::restore(&mut r).unwrap(), t);
        assert_eq!(r.remaining(), 0);
        assert!(Trio::restore(&mut Reader::new(&bytes[..23])).is_err());
    }
}
