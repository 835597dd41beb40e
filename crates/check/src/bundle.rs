//! Violation repro bundles: the self-contained artifact a failing
//! checker run emits.
//!
//! A bundle pins down everything a second process needs to reproduce a
//! violation bit-identically: the full run configuration (as an opaque
//! key/value map owned by the simulator's codec — this crate cannot
//! depend on `seesaw-sim`), the injector configuration with its seed,
//! optional explicit [`FaultSchedule`]s (the shrinker's output), the
//! fault points that actually fired, the violation summary, the tail of
//! the traced event stream, and provenance (git SHA, config
//! fingerprint). The JSON codec is hand-rolled against the workspace's
//! own validating parser; 64-bit values that can exceed 2^53 (seeds, RNG
//! snapshots) are hex-encoded strings so nothing is lost to the parser's
//! f64 number representation.

use seesaw_trace::json::{escape, Json};

use crate::inject::{
    ChaosConfig, FaultConfig, FaultKind, FaultPoint, FaultSchedule, InjectionStats,
};

/// Current bundle format version.
pub const BUNDLE_VERSION: u32 = 1;

/// A malformed or unsupported bundle document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleError {
    /// What was wrong with the document.
    pub message: String,
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "repro bundle error: {}", self.message)
    }
}

impl std::error::Error for BundleError {}

fn bad(message: impl Into<String>) -> BundleError {
    BundleError {
        message: message.into(),
    }
}

/// The violation a bundle reproduces, reduced to comparable fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleViolation {
    /// Kebab-case invariant name (`ViolationKind::name`).
    pub kind: String,
    /// Absolute instruction count at which the violation was detected.
    pub instruction: u64,
    /// Core whose checker fired.
    pub core: usize,
    /// Human-readable specifics.
    pub detail: String,
}

/// Counter snapshot at the moment of failure, for the round-trip
/// contract: a replay must reproduce not just the violation but the same
/// amount of work leading up to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BundleStats {
    /// Faults fired across every core up to the violation.
    pub faults: InjectionStats,
    /// Loads verified by the violating core's checker.
    pub loads_checked: u64,
    /// Stores tracked by the violating core's checker.
    pub stores_tracked: u64,
    /// Structural audits run by the violating core's checker.
    pub audits: u64,
}

/// A self-contained, replayable description of one checker failure (see
/// the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ReproBundle {
    /// Format version ([`BUNDLE_VERSION`]).
    pub version: u32,
    /// Git SHA of the tree that produced the bundle (or `"unknown"`).
    pub git_sha: String,
    /// Content fingerprint of the run configuration (its full `Debug`
    /// rendering — the memo-cache key).
    pub fingerprint: String,
    /// Number of simulated cores.
    pub cores: usize,
    /// The violation this bundle reproduces.
    pub violation: BundleViolation,
    /// The base injector configuration (per-core seeds are derived from
    /// `fault.seed` by the simulator).
    pub fault: FaultConfig,
    /// Explicit per-core schedules, when the bundle's run replayed an
    /// explicit point list (the shrinker's output); `None` for a seeded
    /// run.
    pub schedules: Option<Vec<FaultSchedule>>,
    /// The fault points that actually fired, per core, up to the
    /// violation — the raw material the shrinker minimizes.
    pub recorded: Vec<FaultSchedule>,
    /// The full run configuration as ordered key/value pairs; the
    /// simulator owns the codec in both directions.
    pub config: Vec<(String, String)>,
    /// Counter snapshot at the failure.
    pub stats: BundleStats,
    /// The most recent traced events as JSONL lines (empty when the run
    /// was untraced).
    pub event_tail: Vec<String>,
}

impl ReproBundle {
    /// Total fault points that fired in the recorded run.
    pub fn recorded_points(&self) -> usize {
        self.recorded.iter().map(FaultSchedule::len).sum()
    }

    /// Points in the explicit schedule when one is present, otherwise the
    /// recorded firing count — the "size" of the repro a shrinker reduces.
    pub fn schedule_points(&self) -> usize {
        match &self.schedules {
            Some(s) => s.iter().map(FaultSchedule::len).sum(),
            None => self.recorded_points(),
        }
    }

    /// Looks up a configuration value by key.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a configuration value and parses it as `u64`.
    pub fn config_u64(&self, key: &str) -> Option<u64> {
        self.config_value(key)?.parse().ok()
    }

    /// Serializes the bundle as a pretty-stable JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"version\": {},\n", self.version));
        s.push_str(&format!("  \"git_sha\": \"{}\",\n", escape(&self.git_sha)));
        s.push_str(&format!(
            "  \"fingerprint\": \"{}\",\n",
            escape(&self.fingerprint)
        ));
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str(&format!(
            "  \"violation\": {{\"kind\": \"{}\", \"instruction\": {}, \"core\": {}, \"detail\": \"{}\"}},\n",
            escape(&self.violation.kind),
            self.violation.instruction,
            self.violation.core,
            escape(&self.violation.detail)
        ));
        s.push_str(&format!("  \"fault\": {},\n", fault_json(&self.fault)));
        match &self.schedules {
            Some(schedules) => {
                s.push_str("  \"schedules\": ");
                s.push_str(&schedules_json(schedules, "  "));
                s.push_str(",\n");
            }
            None => s.push_str("  \"schedules\": null,\n"),
        }
        s.push_str("  \"recorded\": ");
        s.push_str(&schedules_json(&self.recorded, "  "));
        s.push_str(",\n");
        s.push_str("  \"config\": [\n");
        for (i, (k, v)) in self.config.iter().enumerate() {
            s.push_str(&format!("    [\"{}\", \"{}\"]", escape(k), escape(v)));
            s.push_str(if i + 1 < self.config.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        let f = &self.stats.faults;
        s.push_str(&format!(
            "  \"stats\": {{\"splinters\": {}, \"promotions\": {}, \"shootdowns\": {}, \"tft_storms\": {}, \"context_switches\": {}, \"mem_pressure\": {}, \"mem_releases\": {}, \"loads_checked\": {}, \"stores_tracked\": {}, \"audits\": {}}},\n",
            f.splinters,
            f.promotions,
            f.shootdowns,
            f.tft_storms,
            f.context_switches,
            f.mem_pressure,
            f.mem_releases,
            self.stats.loads_checked,
            self.stats.stores_tracked,
            self.stats.audits
        ));
        s.push_str("  \"event_tail\": [\n");
        for (i, line) in self.event_tail.iter().enumerate() {
            s.push_str(&format!("    \"{}\"", escape(line)));
            s.push_str(if i + 1 < self.event_tail.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a bundle produced by [`ReproBundle::to_json`].
    pub fn from_json(text: &str) -> Result<ReproBundle, BundleError> {
        let doc = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        let version = u64_field(&doc, "version")? as u32;
        if version != BUNDLE_VERSION {
            return Err(bad(format!(
                "unsupported bundle version {version} (expected {BUNDLE_VERSION})"
            )));
        }
        let v = req(&doc, "violation")?;
        let violation = BundleViolation {
            kind: str_field(v, "kind")?,
            instruction: u64_field(v, "instruction")?,
            core: u64_field(v, "core")? as usize,
            detail: str_field(v, "detail")?,
        };
        let fault = fault_from_json(req(&doc, "fault")?)?;
        let schedules = match req(&doc, "schedules")? {
            Json::Null => None,
            other => Some(schedules_from_json(other)?),
        };
        let recorded = schedules_from_json(req(&doc, "recorded")?)?;
        let config = req(&doc, "config")?
            .as_array()
            .ok_or_else(|| bad("config must be an array of [key, value] pairs"))?
            .iter()
            .map(|pair| {
                let kv = pair
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| bad("config entry must be a [key, value] pair"))?;
                let k = kv[0]
                    .as_str()
                    .ok_or_else(|| bad("config key must be a string"))?;
                let v = kv[1]
                    .as_str()
                    .ok_or_else(|| bad("config value must be a string"))?;
                Ok((k.to_string(), v.to_string()))
            })
            .collect::<Result<Vec<_>, BundleError>>()?;
        let st = req(&doc, "stats")?;
        let stats = BundleStats {
            faults: InjectionStats {
                splinters: u64_field(st, "splinters")?,
                promotions: u64_field(st, "promotions")?,
                shootdowns: u64_field(st, "shootdowns")?,
                tft_storms: u64_field(st, "tft_storms")?,
                context_switches: u64_field(st, "context_switches")?,
                mem_pressure: u64_field(st, "mem_pressure")?,
                mem_releases: u64_field(st, "mem_releases")?,
            },
            loads_checked: u64_field(st, "loads_checked")?,
            stores_tracked: u64_field(st, "stores_tracked")?,
            audits: u64_field(st, "audits")?,
        };
        let event_tail = req(&doc, "event_tail")?
            .as_array()
            .ok_or_else(|| bad("event_tail must be an array of strings"))?
            .iter()
            .map(|l| {
                l.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("event_tail entry must be a string"))
            })
            .collect::<Result<Vec<_>, BundleError>>()?;
        Ok(ReproBundle {
            version,
            git_sha: str_field(&doc, "git_sha")?,
            fingerprint: str_field(&doc, "fingerprint")?,
            cores: u64_field(&doc, "cores")? as usize,
            violation,
            fault,
            schedules,
            recorded,
            config,
            stats,
            event_tail,
        })
    }
}

/// Hex-encodes a u64 that may exceed 2^53 (the parser stores numbers as
/// f64, so these go through strings).
fn hex(v: u64) -> String {
    format!("{v:#x}")
}

fn parse_hex(s: &str) -> Result<u64, BundleError> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| bad(format!("expected 0x-prefixed hex value, got {s:?}")))?;
    u64::from_str_radix(digits, 16).map_err(|_| bad(format!("invalid hex value {s:?}")))
}

fn fault_json(f: &FaultConfig) -> String {
    format!(
        "{{\"seed\": \"{}\", \"mean_interval\": {}, \"splinters\": {}, \"promotions\": {}, \"shootdowns\": {}, \"tft_storms\": {}, \"context_switches\": {}, \"mem_pressure\": {}, \"chaos\": {{\"drop_tft_invalidation_on_splinter\": {}, \"drop_promotion_sweep\": {}, \"skip_way_verification\": {}}}}}",
        hex(f.seed),
        f.mean_interval,
        f.splinters,
        f.promotions,
        f.shootdowns,
        f.tft_storms,
        f.context_switches,
        f.mem_pressure,
        f.chaos.drop_tft_invalidation_on_splinter,
        f.chaos.drop_promotion_sweep,
        f.chaos.skip_way_verification,
    )
}

fn fault_from_json(doc: &Json) -> Result<FaultConfig, BundleError> {
    let chaos = req(doc, "chaos")?;
    Ok(FaultConfig {
        seed: parse_hex(&str_field(doc, "seed")?)?,
        mean_interval: u64_field(doc, "mean_interval")?,
        splinters: bool_field(doc, "splinters")?,
        promotions: bool_field(doc, "promotions")?,
        shootdowns: bool_field(doc, "shootdowns")?,
        tft_storms: bool_field(doc, "tft_storms")?,
        context_switches: bool_field(doc, "context_switches")?,
        mem_pressure: bool_field(doc, "mem_pressure")?,
        chaos: ChaosConfig {
            drop_tft_invalidation_on_splinter: bool_field(
                chaos,
                "drop_tft_invalidation_on_splinter",
            )?,
            drop_promotion_sweep: bool_field(chaos, "drop_promotion_sweep")?,
            // Absent in bundles recorded before the knob existed.
            skip_way_verification: bool_field(chaos, "skip_way_verification").unwrap_or(false),
        },
    })
}

fn schedules_json(schedules: &[FaultSchedule], indent: &str) -> String {
    let mut s = String::from("[\n");
    for (i, sched) in schedules.iter().enumerate() {
        s.push_str(indent);
        s.push_str("  [");
        for (j, p) in sched.points.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"at\": {}, \"kind\": \"{}\", \"rng_state\": \"{}\"}}",
                p.at,
                p.kind.name(),
                hex(p.rng_state)
            ));
        }
        s.push(']');
        s.push_str(if i + 1 < schedules.len() { ",\n" } else { "\n" });
    }
    s.push_str(indent);
    s.push(']');
    s
}

fn schedules_from_json(doc: &Json) -> Result<Vec<FaultSchedule>, BundleError> {
    doc.as_array()
        .ok_or_else(|| bad("schedules must be an array (one entry per core)"))?
        .iter()
        .map(|core| {
            let points = core
                .as_array()
                .ok_or_else(|| bad("per-core schedule must be an array of points"))?
                .iter()
                .map(|p| {
                    let kind = str_field(p, "kind")?;
                    Ok(FaultPoint {
                        at: u64_field(p, "at")?,
                        kind: FaultKind::from_name(&kind)
                            .ok_or_else(|| bad(format!("unknown fault kind {kind:?}")))?,
                        rng_state: parse_hex(&str_field(p, "rng_state")?)?,
                    })
                })
                .collect::<Result<Vec<_>, BundleError>>()?;
            Ok(FaultSchedule::new(points))
        })
        .collect()
}

fn req<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, BundleError> {
    doc.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))
}

fn str_field(doc: &Json, key: &str) -> Result<String, BundleError> {
    req(doc, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("field {key:?} must be a string")))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, BundleError> {
    req(doc, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer")))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, BundleError> {
    req(doc, key)?
        .as_bool()
        .ok_or_else(|| bad(format!("field {key:?} must be a boolean")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReproBundle {
        ReproBundle {
            version: BUNDLE_VERSION,
            git_sha: "abc123def456".to_string(),
            fingerprint: "RunConfig { workload: \"redis\" }".to_string(),
            cores: 2,
            violation: BundleViolation {
                kind: "tft-claims-base-page".to_string(),
                instruction: 123_456,
                core: 1,
                detail: "region 0x200000 still vouched \"for\"".to_string(),
            },
            fault: FaultConfig {
                seed: u64::MAX - 7, // exercises the >2^53 hex path
                ..FaultConfig::all(0).mean_interval(2_000)
            },
            schedules: Some(vec![
                FaultSchedule::new(vec![FaultPoint {
                    at: 1_000,
                    kind: FaultKind::Splinter,
                    rng_state: 0xdead_beef_dead_beef,
                }]),
                FaultSchedule::default(),
            ]),
            recorded: vec![
                FaultSchedule::new(vec![
                    FaultPoint {
                        at: 1_000,
                        kind: FaultKind::Splinter,
                        rng_state: 0xdead_beef_dead_beef,
                    },
                    FaultPoint {
                        at: 2_000,
                        kind: FaultKind::MemPressure,
                        rng_state: u64::MAX,
                    },
                ]),
                FaultSchedule::new(vec![FaultPoint {
                    at: 1_500,
                    kind: FaultKind::ContextSwitch,
                    rng_state: 3,
                }]),
            ],
            config: vec![
                ("workload".to_string(), "redis".to_string()),
                ("instructions".to_string(), "400000".to_string()),
                ("design".to_string(), "seesaw".to_string()),
            ],
            stats: BundleStats {
                faults: InjectionStats {
                    splinters: 2,
                    context_switches: 1,
                    mem_pressure: 1,
                    ..InjectionStats::default()
                },
                loads_checked: 99_000,
                stores_tracked: 41_000,
                audits: 7,
            },
            event_tail: vec![
                "{\"at\":1,\"core\":0,\"type\":\"tft_fill\"}".to_string(),
                "{\"at\":2,\"core\":1,\"type\":\"splinter\",\"region_va\":2097152}".to_string(),
            ],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let bundle = sample();
        let json = bundle.to_json();
        let back = ReproBundle::from_json(&json).unwrap();
        assert_eq!(back, bundle);
        // And the rendering is stable (parse → serialize → same bytes).
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn counts_and_lookups() {
        let bundle = sample();
        assert_eq!(bundle.recorded_points(), 3);
        assert_eq!(bundle.schedule_points(), 1, "explicit schedule wins");
        assert_eq!(bundle.config_value("workload"), Some("redis"));
        assert_eq!(bundle.config_u64("instructions"), Some(400_000));
        assert_eq!(bundle.config_value("missing"), None);
        let mut seeded = bundle.clone();
        seeded.schedules = None;
        assert_eq!(seeded.schedule_points(), 3, "seeded falls back to recorded");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(ReproBundle::from_json("not json").is_err());
        assert!(ReproBundle::from_json("{}").is_err());
        let wrong_version = sample()
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        let err = ReproBundle::from_json(&wrong_version).unwrap_err();
        assert!(err.message.contains("version"), "{err}");
        let bad_kind = sample()
            .to_json()
            .replace("\"kind\": \"splinter\"", "\"kind\": \"frobnicate\"");
        assert!(ReproBundle::from_json(&bad_kind).is_err());
    }
}
