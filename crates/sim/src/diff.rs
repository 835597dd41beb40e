//! Cross-run bench regression attribution.
//!
//! `scripts/bench.sh` leaves a `BENCH_runtime.json` behind (per-figure
//! wall clock, simulation rate, memo/store traffic). Its gate can tell
//! you *that* a figure got slower; this module is the explanatory half:
//! load two runtime snapshots, compute per-figure deltas, and attribute
//! each regression to the measurable cause the snapshot exposes —
//! simulation throughput dropped, the memo/store stopped absorbing
//! cells (more fresh simulations), or neither (overhead outside the
//! simulator: build, I/O, harness).
//!
//! Lives in `seesaw-sim` (not the bench crate) so the workspace
//! integration tests — which depend on the sim crates only — can drive
//! it; the `bench_diff` binary in `seesaw-bench` is a thin CLI shell.

use std::collections::BTreeMap;

use seesaw_trace::json::Json;

use crate::report::Table;

/// One figure's measurements from a `BENCH_runtime.json` snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FigureStats {
    /// Wall clock of the figure binary, seconds.
    pub wall_seconds: f64,
    /// Fresh-simulation throughput in million instructions per second.
    /// `None` when the figure ran entirely from cache (no fresh cells;
    /// older snapshots encode this as `0.000`, newer ones as `null`).
    pub rate: Option<f64>,
    /// Plan cells served from the memo cache.
    pub memo_hits: u64,
    /// Plan cells freshly simulated.
    pub memo_misses: u64,
    /// Plan cells served from the persistent store.
    pub store_hits: u64,
}

impl FigureStats {
    fn from_json(v: &Json) -> Option<FigureStats> {
        let wall = v.get("wall_seconds")?.as_f64()?;
        let rate = match v.get("sim_minstr_per_sec") {
            Some(Json::Null) | None => None,
            Some(r) => {
                let r = r.as_f64()?;
                // Pre-attribution snapshots wrote 0.000 for "no fresh
                // cells"; treat that the same as the explicit null.
                if r == 0.0 {
                    None
                } else {
                    Some(r)
                }
            }
        };
        Some(FigureStats {
            wall_seconds: wall,
            rate,
            memo_hits: v.get("memo_hits").and_then(Json::as_u64).unwrap_or(0),
            memo_misses: v.get("memo_misses").and_then(Json::as_u64).unwrap_or(0),
            store_hits: v.get("store_hits").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

/// One parsed `BENCH_runtime.json` snapshot.
#[derive(Debug, Clone, Default)]
pub struct BenchRun {
    /// Per-configuration instruction budget the suite ran with.
    pub budget_instructions: u64,
    /// `SEESAW_THREADS` the suite ran with.
    pub threads: u64,
    /// Git SHA recorded in the snapshot.
    pub git_sha: String,
    /// Per-figure measurements, keyed by binary name, in file order
    /// (BTreeMap: sorted — the diff re-ranks anyway).
    pub figures: BTreeMap<String, FigureStats>,
    /// The whole-suite rollup line.
    pub suite: Option<FigureStats>,
}

impl BenchRun {
    /// Parses a `BENCH_runtime.json` document.
    pub fn parse(text: &str) -> Result<BenchRun, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let figures_json = doc
            .get("figures")
            .and_then(Json::as_object)
            .ok_or("missing \"figures\" object")?;
        let mut figures = BTreeMap::new();
        for (name, v) in figures_json {
            let stats = FigureStats::from_json(v)
                .ok_or_else(|| format!("figure {name:?}: malformed stats object"))?;
            figures.insert(name.clone(), stats);
        }
        Ok(BenchRun {
            budget_instructions: doc
                .get("budget_instructions")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            threads: doc.get("threads").and_then(Json::as_u64).unwrap_or(0),
            git_sha: doc
                .get("git_sha")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            figures,
            suite: doc.get("suite").and_then(FigureStats::from_json),
        })
    }
}

/// Why a figure's wall clock moved, as far as the snapshot can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attribution {
    /// Within the threshold either way.
    Unchanged,
    /// Got faster past the threshold.
    Improved,
    /// More cells were freshly simulated (memo/store absorbed fewer).
    MoreWork,
    /// Same work, but fresh simulation throughput dropped.
    SlowerSimulation,
    /// Wall moved but neither cell count nor rate explains it —
    /// overhead outside the simulator (build, I/O, harness).
    Overhead,
    /// Present in only one of the two snapshots.
    OnlyOneSide,
}

impl Attribution {
    /// Human label for the attribution column.
    pub fn label(&self) -> &'static str {
        match self {
            Attribution::Unchanged => "unchanged",
            Attribution::Improved => "improved",
            Attribution::MoreWork => "more fresh cells",
            Attribution::SlowerSimulation => "slower simulation",
            Attribution::Overhead => "harness overhead",
            Attribution::OnlyOneSide => "added/removed",
        }
    }
}

/// One figure's delta between two snapshots.
#[derive(Debug, Clone)]
pub struct FigureDelta {
    /// The figure binary's name.
    pub name: String,
    /// Measurements in the old snapshot (`None`: figure is new).
    pub old: Option<FigureStats>,
    /// Measurements in the new snapshot (`None`: figure was removed).
    pub new: Option<FigureStats>,
    /// Wall-clock change in percent (`new/old − 1`, ×100); 0 when
    /// either side is missing.
    pub wall_delta_pct: f64,
    /// Rate change in percent when both sides ran fresh cells.
    pub rate_delta_pct: Option<f64>,
    /// Fresh-cell (memo miss) count change.
    pub miss_delta: i64,
    /// The verdict.
    pub attribution: Attribution,
    /// True when this row trips the regression gate (wall regression
    /// past the threshold on a figure big enough to matter).
    pub regression: bool,
}

/// A full two-snapshot comparison.
#[derive(Debug, Clone)]
pub struct BenchDiff {
    /// Regression threshold in percent (a figure is flagged when its
    /// wall clock grows more than this).
    pub threshold_pct: f64,
    /// Figures whose old wall clock is below this many seconds are
    /// never flagged (matching the bench gate's noise floor).
    pub min_wall_seconds: f64,
    /// Per-figure deltas, ranked worst regression first.
    pub figures: Vec<FigureDelta>,
    /// The suite-rollup delta, when both snapshots carry one.
    pub suite: Option<FigureDelta>,
}

fn pct_change(old: f64, new: f64) -> f64 {
    if old <= 0.0 {
        0.0
    } else {
        (new / old - 1.0) * 100.0
    }
}

fn delta_of(
    name: &str,
    old: Option<FigureStats>,
    new: Option<FigureStats>,
    threshold_pct: f64,
    min_wall_seconds: f64,
) -> FigureDelta {
    let (Some(o), Some(n)) = (old, new) else {
        return FigureDelta {
            name: name.to_string(),
            old,
            new,
            wall_delta_pct: 0.0,
            rate_delta_pct: None,
            miss_delta: 0,
            attribution: Attribution::OnlyOneSide,
            regression: false,
        };
    };
    let wall_delta_pct = pct_change(o.wall_seconds, n.wall_seconds);
    let rate_delta_pct = match (o.rate, n.rate) {
        (Some(or), Some(nr)) if or > 0.0 => Some(pct_change(or, nr)),
        _ => None,
    };
    let miss_delta = n.memo_misses as i64 - o.memo_misses as i64;
    let regressed = wall_delta_pct > threshold_pct;
    let attribution = if !regressed && wall_delta_pct >= -threshold_pct {
        Attribution::Unchanged
    } else if !regressed {
        Attribution::Improved
    } else if miss_delta > 0 {
        // More fresh simulations is the dominant, mechanical cause:
        // a cold store, a changed fingerprint, a widened sweep.
        Attribution::MoreWork
    } else if rate_delta_pct.is_some_and(|r| r < -threshold_pct / 2.0) {
        Attribution::SlowerSimulation
    } else {
        Attribution::Overhead
    };
    FigureDelta {
        name: name.to_string(),
        old,
        new,
        wall_delta_pct,
        rate_delta_pct,
        miss_delta,
        attribution,
        regression: regressed && o.wall_seconds >= min_wall_seconds,
    }
}

impl BenchDiff {
    /// Compares two parsed snapshots. `threshold_pct` / `min_wall_seconds`
    /// mirror the bench gate (15% over ≥ 0.5 s figures by default there).
    pub fn compare(
        old: &BenchRun,
        new: &BenchRun,
        threshold_pct: f64,
        min_wall_seconds: f64,
    ) -> BenchDiff {
        let mut names: Vec<&String> = old.figures.keys().collect();
        for k in new.figures.keys() {
            if !old.figures.contains_key(k) {
                names.push(k);
            }
        }
        let mut figures: Vec<FigureDelta> = names
            .into_iter()
            .map(|name| {
                delta_of(
                    name,
                    old.figures.get(name).copied(),
                    new.figures.get(name).copied(),
                    threshold_pct,
                    min_wall_seconds,
                )
            })
            .collect();
        // Worst regression first; ties (and improvements) by magnitude.
        figures.sort_by(|a, b| {
            b.regression
                .cmp(&a.regression)
                .then(
                    b.wall_delta_pct
                        .abs()
                        .partial_cmp(&a.wall_delta_pct.abs())
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.name.cmp(&b.name))
        });
        let suite = match (old.suite, new.suite) {
            (Some(o), Some(n)) => Some(delta_of(
                "suite",
                Some(o),
                Some(n),
                threshold_pct,
                min_wall_seconds,
            )),
            _ => None,
        };
        BenchDiff {
            threshold_pct,
            min_wall_seconds,
            figures,
            suite,
        }
    }

    /// The rows tripping the regression gate, worst first.
    pub fn regressions(&self) -> Vec<&FigureDelta> {
        self.figures.iter().filter(|d| d.regression).collect()
    }

    /// Renders the ranked attribution table plus a one-line verdict.
    pub fn render(&self) -> String {
        fn secs(v: Option<FigureStats>) -> String {
            v.map_or("-".to_string(), |s| format!("{:.3}", s.wall_seconds))
        }
        fn rate(v: Option<FigureStats>) -> String {
            match v {
                None => "-".to_string(),
                Some(s) => s.rate.map_or("cached".to_string(), |r| format!("{r:.2}")),
            }
        }
        let mut t = Table::new(vec![
            "figure".to_string(),
            "old wall".to_string(),
            "new wall".to_string(),
            "Δwall".to_string(),
            "old Mi/s".to_string(),
            "new Mi/s".to_string(),
            "Δmisses".to_string(),
            "attribution".to_string(),
        ]);
        for d in &self.figures {
            t.row(vec![
                d.name.clone(),
                secs(d.old),
                secs(d.new),
                if d.old.is_some() && d.new.is_some() {
                    format!("{:+.1}%", d.wall_delta_pct)
                } else {
                    "-".to_string()
                },
                rate(d.old),
                rate(d.new),
                format!("{:+}", d.miss_delta),
                format!(
                    "{}{}",
                    d.attribution.label(),
                    if d.regression { " ← REGRESSION" } else { "" }
                ),
            ]);
        }
        let mut out = t.to_string();
        let n = self.regressions().len();
        if let Some(s) = &self.suite {
            out.push_str(&format!(
                "suite: {} → {} ({:+.1}%)\n",
                secs(s.old),
                secs(s.new),
                s.wall_delta_pct
            ));
        }
        out.push_str(&format!(
            "{} regression(s) past {:.0}% on figures ≥ {:.1}s\n",
            n, self.threshold_pct, self.min_wall_seconds
        ));
        out
    }
}

/// One metric key's movement between two registry CSV exports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// The dotted registry key.
    pub key: String,
    /// Value in the old export (`None`: key is new).
    pub old: Option<f64>,
    /// Value in the new export (`None`: key was removed).
    pub new: Option<f64>,
    /// Relative change in percent (0 when either side is missing or the
    /// old value is 0).
    pub delta_pct: f64,
}

/// Parses a `key,value` CSV (the [`MetricsRegistry::to_csv`] shape,
/// header line tolerated) into a sorted map.
///
/// [`MetricsRegistry::to_csv`]: seesaw_trace::MetricsRegistry::to_csv
fn parse_metrics_csv(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some((key, value)) = line.rsplit_once(',') else {
            continue;
        };
        if key == "key" {
            continue;
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            out.insert(key.trim().to_string(), v);
        }
    }
    out
}

/// Diffs two per-figure metrics CSV exports, returning every key whose
/// relative change exceeds `threshold_pct` (plus added/removed keys),
/// ranked by magnitude — the fine-grained half of the attribution story:
/// once [`BenchDiff`] names the regressed figure, this names the
/// counters that moved inside it.
pub fn diff_metrics_csv(old: &str, new: &str, threshold_pct: f64) -> Vec<MetricDelta> {
    let old_map = parse_metrics_csv(old);
    let new_map = parse_metrics_csv(new);
    let mut out = Vec::new();
    for (key, &ov) in &old_map {
        match new_map.get(key) {
            None => out.push(MetricDelta {
                key: key.clone(),
                old: Some(ov),
                new: None,
                delta_pct: 0.0,
            }),
            Some(&nv) => {
                let delta_pct = if ov == 0.0 {
                    0.0
                } else {
                    (nv - ov) / ov.abs() * 100.0
                };
                if delta_pct.abs() > threshold_pct || (ov == 0.0 && nv != 0.0) {
                    out.push(MetricDelta {
                        key: key.clone(),
                        old: Some(ov),
                        new: Some(nv),
                        delta_pct,
                    });
                }
            }
        }
    }
    for (key, &nv) in &new_map {
        if !old_map.contains_key(key) {
            out.push(MetricDelta {
                key: key.clone(),
                old: None,
                new: Some(nv),
                delta_pct: 0.0,
            });
        }
    }
    out.sort_by(|a, b| {
        b.delta_pct
            .abs()
            .partial_cmp(&a.delta_pct.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.key.cmp(&b.key))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(figs: &[(&str, f64, Option<f64>, u64)]) -> String {
        let mut s = String::from(
            "{\"budget_instructions\":250000,\"threads\":1,\"git_sha\":\"abc\",\"figures\":{",
        );
        for (i, (name, wall, rate, misses)) in figs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{name}\":{{\"wall_seconds\":{wall},\"sim_minstr_per_sec\":{},\"memo_hits\":0,\"memo_misses\":{misses},\"store_hits\":0}}",
                rate.map_or("null".to_string(), |r| format!("{r}"))
            ));
        }
        s.push_str("},\"suite\":{\"wall_seconds\":10.0,\"sim_minstr_per_sec\":8.0,\"memo_hits\":1,\"memo_misses\":2,\"store_hits\":0}}");
        s
    }

    #[test]
    fn parses_both_rate_encodings() {
        let run = BenchRun::parse(&snapshot(&[
            ("hot", 2.0, Some(9.5), 96),
            ("cached", 0.1, None, 0),
        ]))
        .unwrap();
        assert_eq!(run.git_sha, "abc");
        assert_eq!(run.figures["hot"].rate, Some(9.5));
        assert_eq!(run.figures["cached"].rate, None);
        assert!(run.suite.is_some());
        // Legacy 0.000 means the same as null.
        let legacy = BenchRun::parse(&snapshot(&[("c", 0.1, Some(0.0), 0)])).unwrap();
        assert_eq!(legacy.figures["c"].rate, None);
    }

    #[test]
    fn flags_20pct_regression_quiet_at_5pct() {
        let old = BenchRun::parse(&snapshot(&[
            ("big", 5.0, Some(10.0), 96),
            ("small", 5.0, Some(10.0), 96),
        ]))
        .unwrap();
        let new = BenchRun::parse(&snapshot(&[
            ("big", 6.0, Some(8.3), 96),    // +20%
            ("small", 5.25, Some(9.5), 96), // +5%
        ]))
        .unwrap();
        let diff = BenchDiff::compare(&old, &new, 15.0, 0.5);
        let regs = diff.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "big");
        assert!((regs[0].wall_delta_pct - 20.0).abs() < 0.01);
        // Ranked worst first.
        assert_eq!(diff.figures[0].name, "big");
        let rendered = diff.render();
        assert!(rendered.contains("REGRESSION"));
        assert!(rendered.contains("1 regression(s)"));
    }

    #[test]
    fn attribution_separates_work_rate_and_overhead() {
        let old = BenchRun::parse(&snapshot(&[
            ("more_work", 2.0, Some(10.0), 50),
            ("slower", 2.0, Some(10.0), 50),
            ("overhead", 2.0, Some(10.0), 50),
            ("better", 2.0, Some(10.0), 50),
        ]))
        .unwrap();
        let new = BenchRun::parse(&snapshot(&[
            ("more_work", 4.0, Some(10.0), 100), // misses doubled
            ("slower", 4.0, Some(5.0), 50),      // rate halved
            ("overhead", 4.0, Some(10.0), 50),   // nothing explains it
            ("better", 1.0, Some(20.0), 50),
        ]))
        .unwrap();
        let diff = BenchDiff::compare(&old, &new, 15.0, 0.5);
        let by_name = |n: &str| {
            diff.figures
                .iter()
                .find(|d| d.name == n)
                .unwrap()
                .attribution
        };
        assert_eq!(by_name("more_work"), Attribution::MoreWork);
        assert_eq!(by_name("slower"), Attribution::SlowerSimulation);
        assert_eq!(by_name("overhead"), Attribution::Overhead);
        assert_eq!(by_name("better"), Attribution::Improved);
    }

    #[test]
    fn noise_floor_and_one_sided_figures() {
        let old = BenchRun::parse(&snapshot(&[
            ("tiny", 0.003, Some(10.0), 1),
            ("gone", 1.0, Some(10.0), 10),
        ]))
        .unwrap();
        let new = BenchRun::parse(&snapshot(&[
            ("tiny", 0.009, Some(10.0), 1), // +200%, but below the floor
            ("fresh", 1.0, Some(10.0), 10),
        ]))
        .unwrap();
        let diff = BenchDiff::compare(&old, &new, 15.0, 0.5);
        assert!(diff.regressions().is_empty());
        let gone = diff.figures.iter().find(|d| d.name == "gone").unwrap();
        assert_eq!(gone.attribution, Attribution::OnlyOneSide);
        assert!(gone.new.is_none());
        let fresh = diff.figures.iter().find(|d| d.name == "fresh").unwrap();
        assert!(fresh.old.is_none());
    }

    #[test]
    fn metrics_csv_diff_ranks_by_magnitude() {
        let old = "key,value\na.hits,100\nb.misses,10\nc.same,5\nd.gone,1\n";
        let new = "key,value\na.hits,120\nb.misses,30\nc.same,5\ne.new,7\n";
        let deltas = diff_metrics_csv(old, new, 1.0);
        // b.misses tripled (+200%) outranks a.hits (+20%); unchanged
        // key suppressed; one-sided keys reported.
        assert_eq!(deltas[0].key, "b.misses");
        assert!((deltas[0].delta_pct - 200.0).abs() < 1e-9);
        assert_eq!(deltas[1].key, "a.hits");
        assert!(deltas.iter().all(|d| d.key != "c.same"));
        assert!(deltas.iter().any(|d| d.key == "d.gone" && d.new.is_none()));
        assert!(deltas.iter().any(|d| d.key == "e.new" && d.old.is_none()));
    }
}
