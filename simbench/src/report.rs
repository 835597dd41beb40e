//! The result line: named metrics with units, cell counts, and the
//! JSON and table renderings of them.

use seesaw_trace::json::{escape, Json};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Everything one invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Cells attempted.
    pub attempted: u64,
    /// One line per failed cell.
    pub failures: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// The value of the named metric.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line. A value that is not finite cannot be written as
    /// JSON, so it is written as `null` and marks the run incorrect.
    pub fn json(&self) -> String {
        let all_finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && all_finite,
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// A fixed-width table of the metrics, for people.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<width$}  {:>14.4}  {}\n",
                m.name, m.value, m.unit
            ));
        }
        out.push_str(&format!(
            "{:<width$}  {:>14}  cells ({} failed)\n",
            "attempted",
            self.attempted,
            self.failures.len()
        ));
        out
    }

    /// Reads a result line back (`--workload all` uses this on
    /// its children's output).
    pub fn parse(line: &str) -> Option<Report> {
        let json = Json::parse(line).ok()?;
        let Json::Obj(metrics) = json.get("metrics")? else {
            return None;
        };
        let failed = json.get("failed")?.as_u64()?;
        Some(Report {
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    Metric::new(
                        name.clone(),
                        m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                        m.get("unit").and_then(Json::as_str).unwrap_or(""),
                    )
                })
                .collect(),
            attempted: json.get("attempted")?.as_u64()?,
            failures: (0..failed).map(|i| format!("failed cell {i}")).collect(),
        })
    }

    /// Adds another report's metrics under `<prefix>.<name>`.
    pub fn absorb(&mut self, prefix: &str, other: Report) {
        self.attempted += other.attempted;
        for failure in other.failures {
            self.failures.push(format!("{prefix}: {failure}"));
        }
        for m in other.metrics {
            self.push(Metric::new(format!("{prefix}.{}", m.name), m.value, m.unit));
        }
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes);
/// NaN for an empty one.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut r = Report {
            attempted: 80,
            ..Report::default()
        };
        r.push(Metric::new("sim_minstr_per_s", 7.25, "Minstr/s"));
        r.push(Metric::new("setup_s", 0.8127, "s"));
        let line = r.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 80, \"failed\": 0,"));
        let back = Report::parse(&line).expect("parses");
        assert_eq!(back.get("setup_s"), Some(0.8127));
        assert_eq!(back.attempted, 80);
    }

    #[test]
    fn failures_and_non_finite_values_mark_the_run_incorrect() {
        let mut r = Report::default();
        r.push(Metric::new("x", f64::NAN, "s"));
        assert!(r.json().contains("\"correct\": false"));
        assert!(r.json().contains("\"value\": null"));
        let mut r = Report::default();
        r.failures.push("cell".into());
        assert!(r.json().contains("\"failed\": 1"));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(Vec::new()).is_nan());
    }
}
