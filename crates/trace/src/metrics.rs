//! The flat metrics registry and the `Collect` trait.

use std::collections::BTreeMap;
use std::fmt;

/// A single metric value: unsigned counter or derived ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// An exact counter.
    U64(u64),
    /// A derived floating-point quantity (rate, mean, percentage).
    F64(f64),
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::U64(v) => write!(f, "{v}"),
            MetricValue::F64(v) => write!(f, "{v:.6}"),
        }
    }
}

/// One flat, namespaced `key → value` snapshot of every counter in the
/// simulator. Keys are dotted paths (`l1.misses`, `tlb.l1_4k.hits`,
/// `trace.events.walk_ends`); iteration order is sorted, so renders are
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an exact counter.
    pub fn set_u64(&mut self, key: &str, value: u64) {
        self.values.insert(key.to_string(), MetricValue::U64(value));
    }

    /// Records a derived floating-point quantity. Non-finite values are
    /// stored as `0.0` so exports stay valid JSON.
    pub fn set_f64(&mut self, key: &str, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.values.insert(key.to_string(), MetricValue::F64(v));
    }

    /// Looks up a metric by exact key.
    pub fn get(&self, key: &str) -> Option<MetricValue> {
        self.values.get(key).copied()
    }

    /// Looks up an exact counter; `None` if absent or stored as `F64`.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.values.get(key) {
            Some(MetricValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a float metric; counters are widened.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.values.get(key) {
            Some(MetricValue::U64(v)) => Some(*v as f64),
            Some(MetricValue::F64(v)) => Some(*v),
            None => None,
        }
    }

    /// True if the key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no metrics have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates metrics in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Keys under a dotted prefix (`prefix.` + rest), sorted.
    pub fn keys_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.values
            .keys()
            .map(String::as_str)
            .filter(move |k| k.starts_with(prefix) && k.as_bytes().get(prefix.len()) == Some(&b'.'))
    }

    /// Renders the registry as a two-column `key,value` CSV (sorted by
    /// key, counters exact, floats with six decimals) — the grep-able
    /// companion to [`MetricsRegistry::to_json`], so summary lines like
    /// `tlb.walk_latency.p95` can be diffed across runs without a JSON
    /// parser.
    pub fn to_csv(&self) -> String {
        let mut csv = crate::csv::Csv::new(&["key", "value"]);
        for (k, v) in self.values.iter() {
            let rendered = match v {
                MetricValue::U64(n) => n.to_string(),
                MetricValue::F64(n) => format!("{n:.6}"),
            };
            csv.row(&[k.clone(), rendered]);
        }
        csv.render()
    }

    /// Renders the registry as one sorted flat JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":"));
            match v {
                MetricValue::U64(n) => s.push_str(&n.to_string()),
                MetricValue::F64(n) => s.push_str(&format!("{n:.6}")),
            }
        }
        s.push('}');
        s
    }
}

/// Snapshot a stats struct into the registry under a dotted prefix.
///
/// Counter structs get their impl from [`counters!`](crate::counters),
/// which exports every declared field, so no counter can fall out of the
/// registry. The few hand-written impls (histograms, the buddy
/// allocator's snapshot, the runner, store and ops counters) destructure
/// `self` without `..`, so a new field breaks compilation until it is
/// exported.
pub trait Collect {
    /// Writes every field as `prefix.field` into `out`.
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry);
}

/// A field type a [`counters!`](crate::counters) declaration may use: a
/// `u64` counter, an `f64` accumulator, or another declared counter
/// struct, nested. The declared structs implement it fieldwise.
pub trait Counter: Copy + Default {
    /// `self − earlier`: the count over a window that started at
    /// `earlier`.
    fn delta(&self, earlier: &Self) -> Self;
    /// `self += other`: the sum of two disjoint counts.
    fn merge(&mut self, other: &Self);
    /// Records `self` at `key`: a leaf as one value, a struct as its
    /// [`Collect`] output under `key.`.
    fn collect_at(&self, key: &str, out: &mut MetricsRegistry);
    /// Calls `f(key, value)` for every leaf in declaration order, where
    /// `key` is `path` plus the leaf's dotted field path. `path` is
    /// restored on return.
    fn visit(&self, path: &mut String, f: &mut dyn FnMut(&str, MetricValue));
    /// Like [`Counter::visit`], but a value `f` leaves in the slot
    /// replaces the leaf when it has the leaf's type.
    fn visit_mut(&mut self, path: &mut String, f: &mut dyn FnMut(&str, &mut MetricValue));

    /// The sum of every `u64` leaf (`f64` leaves are skipped).
    fn sum_leaves(&self) -> u64 {
        let mut sum = 0;
        self.visit(&mut String::new(), &mut |_, v| {
            if let MetricValue::U64(n) = v {
                sum += n;
            }
        });
        sum
    }
}

macro_rules! leaf_counter {
    ($ty:ty, $variant:ident, $set:ident) => {
        impl Counter for $ty {
            fn delta(&self, earlier: &Self) -> Self {
                self - earlier
            }
            fn merge(&mut self, other: &Self) {
                *self += other;
            }
            fn collect_at(&self, key: &str, out: &mut MetricsRegistry) {
                out.$set(key, *self);
            }
            fn visit(&self, path: &mut String, f: &mut dyn FnMut(&str, MetricValue)) {
                f(path, MetricValue::$variant(*self));
            }
            fn visit_mut(&mut self, path: &mut String, f: &mut dyn FnMut(&str, &mut MetricValue)) {
                let mut slot = MetricValue::$variant(*self);
                f(path, &mut slot);
                if let MetricValue::$variant(v) = slot {
                    *self = v;
                }
            }
        }
    };
}

leaf_counter!(u64, U64, set_u64);
leaf_counter!(f64, F64, set_f64);

/// Runs `body` with `.field` appended to `path`, then restores `path` —
/// the visitors' key builder. Not part of the API; public for
/// [`counters!`](crate::counters) expansions in other crates.
#[doc(hidden)]
pub fn with_field(path: &mut String, field: &str, body: impl FnOnce(&mut String)) {
    let len = path.len();
    path.push('.');
    path.push_str(field);
    body(path);
    path.truncate(len);
}

/// Declares a counter struct once and derives everything else from
/// that declaration.
///
/// The input is the struct itself — attributes, doc comments and `pub`
/// fields of type `u64`, `f64` or another declared struct — optionally
/// followed by `derived: method, …;`, the `&self -> u64|f64` methods the
/// registry also exports. The macro emits the struct unchanged, plus:
///
/// * `delta(&self, earlier)` and `merge(&mut self, other)`, fieldwise;
/// * a [`Collect`] impl writing each field as `{prefix}.{field}` (a nested
///   struct under `{prefix}.{field}.`), then each derived metric as
///   `{prefix}.{method}`;
/// * a [`Counter`] impl, whose `visit`/`visit_mut` field visitors give
///   codecs one generic encode and decode for every declared struct.
///
/// ```
/// seesaw_trace::counters! {
///     /// Door counters.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct DoorStats {
///         /// Times opened.
///         pub opens: u64,
///         /// Times slammed.
///         pub slams: u64,
///     }
///     derived: slam_share;
/// }
///
/// impl DoorStats {
///     /// Fraction of opens that ended in a slam.
///     pub fn slam_share(&self) -> f64 {
///         self.slams as f64 / self.opens.max(1) as f64
///     }
/// }
///
/// use seesaw_trace::{Collect, MetricsRegistry};
/// let later = DoorStats { opens: 10, slams: 5 };
/// let window = later.delta(&DoorStats { opens: 6, slams: 4 });
/// assert_eq!(window, DoorStats { opens: 4, slams: 1 });
/// let mut m = MetricsRegistry::new();
/// window.collect("door", &mut m);
/// assert_eq!(m.get_u64("door.opens"), Some(4));
/// assert_eq!(m.get_f64("door.slam_share"), Some(0.25));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty ),* $(,)?
        }
        $( derived: $($derived:ident),+ ; )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            /// Fieldwise difference versus an earlier snapshot (for
            /// measuring a window that starts after warmup).
            pub fn delta(&self, earlier: &Self) -> Self {
                Self { $( $field: $crate::Counter::delta(&self.$field, &earlier.$field), )* }
            }

            /// Adds `other` into `self`, fieldwise.
            pub fn merge(&mut self, other: &Self) {
                $( $crate::Counter::merge(&mut self.$field, &other.$field); )*
            }
        }

        impl $crate::Collect for $name {
            fn collect(&self, prefix: &str, out: &mut $crate::MetricsRegistry) {
                $( $crate::Counter::collect_at(
                    &self.$field,
                    &format!("{prefix}.{}", stringify!($field)),
                    out,
                ); )*
                $($( $crate::Counter::collect_at(
                    &self.$derived(),
                    &format!("{prefix}.{}", stringify!($derived)),
                    out,
                ); )+)?
            }
        }

        impl $crate::Counter for $name {
            fn delta(&self, earlier: &Self) -> Self {
                $name::delta(self, earlier)
            }
            fn merge(&mut self, other: &Self) {
                $name::merge(self, other)
            }
            fn collect_at(&self, key: &str, out: &mut $crate::MetricsRegistry) {
                $crate::Collect::collect(self, key, out)
            }
            fn visit(
                &self,
                path: &mut String,
                f: &mut dyn FnMut(&str, $crate::MetricValue),
            ) {
                $( $crate::with_field(path, stringify!($field), |path| {
                    $crate::Counter::visit(&self.$field, path, f)
                }); )*
            }
            fn visit_mut(
                &mut self,
                path: &mut String,
                f: &mut dyn FnMut(&str, &mut $crate::MetricValue),
            ) {
                $( $crate::with_field(path, stringify!($field), |path| {
                    $crate::Counter::visit_mut(&mut self.$field, path, f)
                }); )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip_and_order() {
        let mut m = MetricsRegistry::new();
        m.set_u64("b.count", 3);
        m.set_f64("a.rate", 0.5);
        m.set_f64("c.bad", f64::NAN);
        assert_eq!(m.get_u64("b.count"), Some(3));
        assert_eq!(m.get_f64("a.rate"), Some(0.5));
        assert_eq!(m.get_f64("c.bad"), Some(0.0));
        assert_eq!(m.get_f64("b.count"), Some(3.0));
        assert_eq!(m.get_u64("a.rate"), None);
        assert!(m.contains("a.rate"));
        assert_eq!(m.len(), 3);
        let keys: Vec<_> = m.keys().collect();
        assert_eq!(keys, vec!["a.rate", "b.count", "c.bad"]);
        assert_eq!(
            m.to_json(),
            "{\"a.rate\":0.500000,\"b.count\":3,\"c.bad\":0.000000}"
        );
    }

    #[test]
    fn csv_export_is_sorted_and_typed() {
        let mut m = MetricsRegistry::new();
        m.set_u64("b.count", 3);
        m.set_f64("a.rate", 0.5);
        assert_eq!(m.to_csv(), "key,value\na.rate,0.500000\nb.count,3\n");
    }

    crate::counters! {
        /// Inner test counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Inner {
            /// A count.
            pub n: u64,
            /// An accumulator.
            pub nj: f64,
        }
        derived: twice;
    }

    impl Inner {
        fn twice(&self) -> u64 {
            2 * self.n
        }
    }

    crate::counters! {
        /// Outer test counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Outer {
            /// A count.
            pub hits: u64,
            /// A nested struct.
            pub inner: Inner,
        }
    }

    #[test]
    fn counters_schema_derives_ops_registry_and_visitor() {
        let outer = |hits, n, nj| Outer {
            hits,
            inner: Inner { n, nj },
        };
        let (a, b) = (outer(5, 3, 1.5), outer(2, 1, 0.5));
        assert_eq!(a.delta(&b), outer(3, 2, 1.0));
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum, outer(7, 4, 2.0));
        assert_eq!(a.sum_leaves(), 8);

        let mut m = MetricsRegistry::new();
        a.collect("x", &mut m);
        let keys: Vec<_> = m.keys().collect();
        assert_eq!(keys, ["x.hits", "x.inner.n", "x.inner.nj", "x.inner.twice"]);
        assert_eq!(m.get("x.inner.nj"), Some(MetricValue::F64(1.5)));
        assert_eq!(m.get_u64("x.inner.twice"), Some(6));

        // The visitor walks leaves only, in declaration order, and
        // `visit_mut` rebuilds the struct from those keys.
        let mut seen = Vec::new();
        a.visit(&mut "x".to_string(), &mut |k, v| {
            seen.push((k.to_string(), v))
        });
        assert_eq!(
            seen,
            [
                ("x.hits".to_string(), MetricValue::U64(5)),
                ("x.inner.n".to_string(), MetricValue::U64(3)),
                ("x.inner.nj".to_string(), MetricValue::F64(1.5)),
            ]
        );
        let mut back = Outer::default();
        let mut source = seen.into_iter();
        back.visit_mut(&mut "x".to_string(), &mut |k, slot| {
            let (key, value) = source.next().unwrap();
            assert_eq!(k, key);
            *slot = value;
        });
        assert_eq!(back, a);
    }

    #[test]
    fn keys_under_respects_dot_boundary() {
        let mut m = MetricsRegistry::new();
        m.set_u64("l1.hits", 1);
        m.set_u64("l1x.hits", 2);
        m.set_u64("l1.misses", 3);
        let under: Vec<_> = m.keys_under("l1").collect();
        assert_eq!(under, vec!["l1.hits", "l1.misses"]);
    }
}
