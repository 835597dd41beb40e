//! Terminal bar charts for the figure binaries.
//!
//! The paper's evaluation figures are bar charts; rendering the same
//! series as horizontal ASCII bars makes the *shape* — who wins, by
//! roughly what factor, where the crossovers fall — visible at a glance
//! in the binaries' output, alongside the exact numbers in the tables.

use std::fmt;

/// A horizontal bar chart.
///
/// # Example
/// ```
/// use seesaw_sim::BarChart;
/// let mut chart = BarChart::new("runtime improvement", "%");
/// chart.bar("redis", 7.2);
/// chart.bar("astar", 4.1);
/// let s = chart.to_string();
/// assert!(s.contains("redis"));
/// assert!(s.contains('█'));
/// ```
#[derive(Debug, Clone)]
pub struct BarChart {
    title: String,
    unit: String,
    bars: Vec<(String, f64)>,
    width: usize,
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new<S: Into<String>, U: Into<String>>(title: S, unit: U) -> Self {
        Self {
            title: title.into(),
            unit: unit.into(),
            bars: Vec::new(),
            width: 46,
        }
    }

    /// Appends a bar.
    pub fn bar<S: Into<String>>(&mut self, label: S, value: f64) {
        self.bars.push((label.into(), value));
    }

    /// Number of bars.
    pub fn len(&self) -> usize {
        self.bars.len()
    }

    /// True when no bars have been added.
    pub fn is_empty(&self) -> bool {
        self.bars.is_empty()
    }
}

impl fmt::Display for BarChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({})", self.title, self.unit)?;
        if self.bars.is_empty() {
            return writeln!(f, "  (no data)");
        }
        let label_w = self.bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let max = self
            .bars
            .iter()
            .map(|&(_, v)| v.abs())
            .fold(f64::EPSILON, f64::max);
        for (label, value) in &self.bars {
            let cells = ((value.abs() / max) * self.width as f64).round() as usize;
            let bar: String = std::iter::repeat_n('█', cells).collect();
            let sign = if *value < 0.0 { "-" } else { " " };
            writeln!(
                f,
                "  {label:>label_w$} {sign}{bar:<w$} {value:>8.2}",
                w = self.width
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_the_maximum() {
        let mut chart = BarChart::new("t", "%");
        chart.bar("big", 10.0);
        chart.bar("half", 5.0);
        let s = chart.to_string();
        let big_cells = s.lines().nth(1).unwrap().matches('█').count();
        let half_cells = s.lines().nth(2).unwrap().matches('█').count();
        assert_eq!(big_cells, 46);
        assert_eq!(half_cells, 23);
    }

    #[test]
    fn negative_values_are_marked() {
        let mut chart = BarChart::new("t", "%");
        chart.bar("loss", -3.0);
        chart.bar("gain", 6.0);
        let s = chart.to_string();
        assert!(s.lines().nth(1).unwrap().contains(" -"));
        assert_eq!(chart.len(), 2);
        assert!(!chart.is_empty());
    }

    #[test]
    fn empty_chart_renders_placeholder() {
        let chart = BarChart::new("nothing", "u");
        assert!(chart.to_string().contains("(no data)"));
    }
}
