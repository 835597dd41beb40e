//! Prometheus text-exposition rendering of the telemetry surface.
//!
//! [`Prometheus`] renders a [`MetricsRegistry`] snapshot — every flat
//! `namespaced.key` becomes a gauge — plus any number of
//! [`Log2Histogram`]s as *native* Prometheus histograms (cumulative
//! `_bucket{le="..."}` series with the log2 upper edges, `_sum`, and
//! `_count`), in the [text exposition format] any Prometheus-compatible
//! scraper ingests. A node-exporter-style textfile collector can pick
//! the output up directly: `scripts/check.sh` smoke-tests the file every
//! sweep binary drops under `SEESAW_TRACE`.
//!
//! [`validate`] is the matching independent checker: it re-parses a
//! rendered document line by line (metric-name grammar, label syntax,
//! float values, `# TYPE` declarations) and verifies every histogram's
//! invariants (cumulative non-decreasing buckets, terminal `+Inf`
//! bucket equal to `_count`). The exporter and validator are written
//! against the spec separately, so a bug in one is caught by the other
//! — the same two-sided arrangement as the JSONL emitter/validator
//! pair.
//!
//! [text exposition format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use std::collections::BTreeMap;

use crate::hist::Log2Histogram;
use crate::metrics::{MetricValue, MetricsRegistry};

/// Sanitizes one dotted registry key into a Prometheus metric name:
/// `namespace` + `_` + the key with every character outside
/// `[a-zA-Z0-9_:]` replaced by `_` (dots included). A leading digit
/// after the namespace is legal because the namespace supplies the
/// required leading letter.
pub fn metric_name(namespace: &str, key: &str) -> String {
    let mut out = String::with_capacity(namespace.len() + key.len() + 1);
    out.push_str(namespace);
    out.push('_');
    for c in key.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Builds one Prometheus text-exposition document.
///
/// Add histograms *before* gauges: a registry snapshot usually carries a
/// histogram's scalar summary (`*.count`, `*.sum`, …) under the same
/// dotted prefix, and [`Prometheus::gauges`] suppresses any key that
/// would collide with an already-declared histogram's `_count`/`_sum`
/// series — the exposition format forbids one name carrying two types.
#[derive(Debug, Clone)]
pub struct Prometheus {
    namespace: String,
    out: String,
    histogram_bases: Vec<String>,
}

impl Prometheus {
    /// A new document whose metric names all start with `namespace_`.
    pub fn new(namespace: &str) -> Self {
        Prometheus {
            namespace: namespace.to_string(),
            out: String::new(),
            histogram_bases: Vec::new(),
        }
    }

    /// Renders one histogram as a native Prometheus histogram named
    /// `namespace_<key sanitized>`: cumulative `_bucket` series at each
    /// log2 upper edge through the highest occupied bucket, the
    /// mandatory `+Inf` bucket, then `_sum` and `_count`.
    pub fn histogram(&mut self, key: &str, hist: &Log2Histogram) {
        let base = metric_name(&self.namespace, key);
        self.out.push_str(&format!("# TYPE {base} histogram\n"));
        let buckets = hist.buckets();
        let highest = buckets.iter().rposition(|&n| n > 0);
        let mut cumulative = 0u64;
        if let Some(highest) = highest {
            for (i, &n) in buckets.iter().take(highest + 1).enumerate() {
                cumulative += n;
                // Bucket k of the log2 histogram holds values up to and
                // including 2^k - 1 (bucket 0 holds only the value 0).
                let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                self.out
                    .push_str(&format!("{base}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
        }
        self.out
            .push_str(&format!("{base}_bucket{{le=\"+Inf\"}} {}\n", hist.count()));
        self.out.push_str(&format!("{base}_sum {}\n", hist.sum()));
        self.out
            .push_str(&format!("{base}_count {}\n", hist.count()));
        self.histogram_bases.push(base);
    }

    /// Renders every key of the registry as a gauge, skipping keys whose
    /// sanitized name would collide with the `_count`/`_sum`/`_bucket`
    /// series of a histogram already in the document.
    pub fn gauges(&mut self, registry: &MetricsRegistry) {
        for (key, value) in registry.iter() {
            let name = metric_name(&self.namespace, key);
            let collides = self.histogram_bases.iter().any(|base| {
                name == format!("{base}_count")
                    || name == format!("{base}_sum")
                    || name == format!("{base}_bucket")
            });
            if collides {
                continue;
            }
            self.out.push_str(&format!("# TYPE {name} gauge\n"));
            match value {
                MetricValue::U64(v) => self.out.push_str(&format!("{name} {v}\n")),
                MetricValue::F64(v) => self.out.push_str(&format!("{name} {v}\n")),
            }
        }
    }

    /// Adds one standalone gauge.
    pub fn gauge(&mut self, key: &str, value: f64) {
        let name = metric_name(&self.namespace, key);
        self.out.push_str(&format!("# TYPE {name} gauge\n"));
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Finishes the document.
    pub fn render(self) -> String {
        self.out
    }
}

/// What [`validate`] found in a well-formed document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PromReport {
    /// Sample (non-comment) lines.
    pub samples: u64,
    /// Metric families declared `# TYPE ... gauge`.
    pub gauges: u64,
    /// Metric families declared `# TYPE ... histogram`.
    pub histograms: u64,
}

/// A validation failure, with the 1-based line number (0 for
/// document-level failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromError {
    /// 1-based line of the offending text (0 = whole document).
    pub line: u64,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for PromError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "prometheus line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PromError {}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[derive(Default)]
struct HistogramCheck {
    buckets: Vec<(String, u64)>, // (le, cumulative) in document order
    sum: Option<f64>,
    count: Option<u64>,
}

/// Validates a text-exposition document: metric-name grammar, label
/// syntax, float sample values, every sample preceded by a `# TYPE`
/// declaration for its family, no family declared twice, and histogram
/// invariants (buckets cumulative and non-decreasing, `+Inf` bucket
/// present and equal to `_count`).
pub fn validate(text: &str) -> Result<PromReport, PromError> {
    let mut report = PromReport::default();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistogramCheck> = BTreeMap::new();
    let err = |line: u64, message: String| PromError { line, message };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i as u64 + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| err(lineno, "TYPE without a metric name".into()))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| err(lineno, format!("TYPE {name} without a type")))?;
                if !valid_name(name) {
                    return Err(err(lineno, format!("invalid metric name \"{name}\"")));
                }
                if !matches!(
                    kind,
                    "gauge" | "counter" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(err(lineno, format!("unknown metric type \"{kind}\"")));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(err(lineno, format!("metric \"{name}\" declared twice")));
                }
                match kind {
                    "gauge" => report.gauges += 1,
                    "histogram" => {
                        report.histograms += 1;
                        hists.insert(name.to_string(), HistogramCheck::default());
                    }
                    _ => {}
                }
            }
            continue; // other comments (HELP, plain) are fine
        }

        // A sample line: name[{labels}] value [timestamp].
        let (name_and_labels, value_part) = match line.find([' ', '\t']) {
            Some(split) if !line[..split].contains('{') => {
                (&line[..split], line[split..].trim_start())
            }
            _ => {
                let close = line
                    .find('}')
                    .ok_or_else(|| err(lineno, "sample line has no value".into()))?;
                (&line[..close + 1], line[close + 1..].trim_start())
            }
        };
        let (name, labels) = match name_and_labels.find('{') {
            Some(open) => {
                if !name_and_labels.ends_with('}') {
                    return Err(err(lineno, "unterminated label set".into()));
                }
                (
                    &name_and_labels[..open],
                    Some(&name_and_labels[open + 1..name_and_labels.len() - 1]),
                )
            }
            None => (name_and_labels, None),
        };
        if !valid_name(name) {
            return Err(err(lineno, format!("invalid metric name \"{name}\"")));
        }
        let mut le_label: Option<String> = None;
        if let Some(labels) = labels {
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| err(lineno, format!("malformed label \"{pair}\"")))?;
                if !valid_name(k) {
                    return Err(err(lineno, format!("invalid label name \"{k}\"")));
                }
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return Err(err(lineno, format!("unquoted label value \"{v}\"")));
                }
                if k == "le" {
                    le_label = Some(v[1..v.len() - 1].to_string());
                }
            }
        }
        let value_text = value_part.split_whitespace().next().unwrap_or("");
        let value: f64 = match value_text {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .map_err(|_| err(lineno, format!("unparsable sample value \"{v}\"")))?,
        };

        // Resolve the declared family: histogram series use suffixed
        // names.
        let family = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            name.strip_suffix(suffix)
                .filter(|base| hists.contains_key(*base))
                .map(|base| (base.to_string(), *suffix))
        });
        match family {
            Some((base, suffix)) => {
                let h = hists.get_mut(&base).expect("family resolved above");
                match suffix {
                    "_bucket" => {
                        let le = le_label.ok_or_else(|| {
                            err(lineno, format!("{name} sample without an le label"))
                        })?;
                        h.buckets.push((le, value as u64));
                    }
                    "_sum" => h.sum = Some(value),
                    "_count" => h.count = Some(value as u64),
                    _ => unreachable!(),
                }
            }
            None => {
                if !types.contains_key(name) {
                    return Err(err(
                        lineno,
                        format!("sample for undeclared metric \"{name}\""),
                    ));
                }
            }
        }
        report.samples += 1;
    }

    for (base, h) in &hists {
        let count = h
            .count
            .ok_or_else(|| err(0, format!("histogram {base} has no _count series")))?;
        if h.sum.is_none() {
            return Err(err(0, format!("histogram {base} has no _sum series")));
        }
        let mut prev = 0u64;
        let mut saw_inf = false;
        for (le, cumulative) in &h.buckets {
            if *cumulative < prev {
                return Err(err(
                    0,
                    format!("histogram {base} bucket le=\"{le}\" is not cumulative"),
                ));
            }
            prev = *cumulative;
            if le == "+Inf" {
                saw_inf = true;
                if *cumulative != count {
                    return Err(err(
                        0,
                        format!("histogram {base}: +Inf bucket {cumulative} != count {count}"),
                    ));
                }
            }
        }
        if !saw_inf {
            return Err(err(0, format!("histogram {base} has no +Inf bucket")));
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(metric_name("seesaw", "l1.hits"), "seesaw_l1_hits");
        assert_eq!(
            metric_name("seesaw", "tlb.l1_4k.hit-rate"),
            "seesaw_tlb_l1_4k_hit_rate"
        );
    }

    #[test]
    fn gauges_render_and_validate() {
        let mut reg = MetricsRegistry::new();
        reg.set_u64("l1.hits", 42);
        reg.set_f64("l1.hit_rate", 0.75);
        let mut p = Prometheus::new("seesaw");
        p.gauges(&reg);
        let doc = p.render();
        assert!(doc.contains("# TYPE seesaw_l1_hits gauge\nseesaw_l1_hits 42\n"));
        assert!(doc.contains("seesaw_l1_hit_rate 0.75\n"));
        let report = validate(&doc).unwrap();
        assert_eq!(report.gauges, 2);
        assert_eq!(report.samples, 2);
    }

    #[test]
    fn histograms_render_cumulative_and_validate() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(100);
        let mut p = Prometheus::new("seesaw");
        p.histogram("walk_latency", &h);
        let doc = p.render();
        assert!(doc.contains("# TYPE seesaw_walk_latency histogram"));
        assert!(doc.contains("seesaw_walk_latency_bucket{le=\"0\"} 1\n"));
        assert!(doc.contains("seesaw_walk_latency_bucket{le=\"1\"} 2\n"));
        assert!(doc.contains("seesaw_walk_latency_bucket{le=\"3\"} 4\n"));
        assert!(doc.contains("seesaw_walk_latency_bucket{le=\"+Inf\"} 5\n"));
        assert!(doc.contains("seesaw_walk_latency_sum 106\n"));
        assert!(doc.contains("seesaw_walk_latency_count 5\n"));
        let report = validate(&doc).unwrap();
        assert_eq!(report.histograms, 1);
    }

    #[test]
    fn empty_histogram_still_valid() {
        let mut p = Prometheus::new("seesaw");
        p.histogram("idle", &Log2Histogram::new());
        let doc = p.render();
        assert!(doc.contains("seesaw_idle_bucket{le=\"+Inf\"} 0\n"));
        validate(&doc).unwrap();
    }

    #[test]
    fn histogram_suppresses_colliding_gauges() {
        let mut reg = MetricsRegistry::new();
        let mut h = Log2Histogram::new();
        h.record(5);
        use crate::metrics::Collect;
        h.collect("walk", &mut reg); // walk.count, walk.sum, walk.mean, ...
        let mut p = Prometheus::new("s");
        p.histogram("walk", &h);
        p.gauges(&reg);
        let doc = p.render();
        // _count/_sum appear exactly once (from the histogram), the
        // mean/percentile summaries still export as gauges.
        assert_eq!(doc.matches("s_walk_count ").count(), 1);
        assert_eq!(doc.matches("s_walk_sum ").count(), 1);
        assert!(doc.contains("# TYPE s_walk_mean gauge"));
        validate(&doc).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("no_type_decl 1\n").is_err());
        assert!(validate("# TYPE x gauge\nx{bad} 1\n").is_err());
        assert!(validate("# TYPE x gauge\nx notanumber\n").is_err());
        assert!(validate("# TYPE x gauge\n# TYPE x gauge\n").is_err());
        assert!(validate("# TYPE 9bad gauge\n").is_err());
        // Histogram without +Inf.
        let doc = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate(doc).is_err());
        // Non-cumulative buckets.
        let doc = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"3\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate(doc).is_err());
        // +Inf disagreeing with count.
        let doc = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n";
        assert!(validate(doc).is_err());
    }

    #[test]
    fn full_registry_round_trip() {
        let mut reg = MetricsRegistry::new();
        for i in 0..20 {
            reg.set_u64(&format!("sub{i}.counter"), i);
            reg.set_f64(&format!("sub{i}.rate"), i as f64 / 7.0);
        }
        let mut p = Prometheus::new("seesaw");
        p.gauges(&reg);
        let report = validate(&p.render()).unwrap();
        assert_eq!(report.samples, 40);
        assert_eq!(report.gauges, 40);
    }
}
