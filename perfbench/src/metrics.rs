//! Every metric the benchmark reports, with its unit, the workload that
//! measures it and (for per-layer metrics) the end-to-end metrics it
//! should move; plus the run outcome and its two renderings: the full
//! report and the one-line result.

use birds_service::Json;
use std::collections::BTreeMap;

/// Workload names, as given to `--workload`.
pub const SERVE: &str = "serve_mixed";
/// In-process batched updates beside pinned full-view scans.
pub const BULK: &str = "bulk_batches";
/// The Table 1 validation pass.
pub const CORPUS: &str = "validate_corpus";
/// All workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = [SERVE, BULK, CORPUS];

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed next to the value.
    pub unit: &'static str,
    /// The workloads that measure it.
    pub workloads: &'static [&'static str],
    /// For a per-layer metric, the end-to-end metrics it should move.
    pub moves: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    workloads: &'static [&'static str],
    moves: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        workloads,
        moves,
    }
}

const ALL: &[&str] = &[SERVE, BULK, CORPUS];
const S: &[&str] = &[SERVE];
const B: &[&str] = &[BULK];
const C: &[&str] = &[CORPUS];
const SB: &[&str] = &[SERVE, BULK];

/// End-to-end metrics, by workload, under the names a user reads.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", ALL, &[]),
    m("peak_rss_mb", "MB", ALL, &[]),
    m("failed_ratio", "failed/attempted", ALL, &[]),
    m("write_p50_us", "us", S, &[]),
    m("write_p99_us", "us", S, &[]),
    m("read_p50_us", "us", S, &[]),
    m("read_p99_us", "us", S, &[]),
    m("max_rate_ops", "req/s", S, &[]),
    m("recovery_s", "s", S, &[]),
    // Server CPU time (host steal is not charged to it): per request at
    // the reference rate and per query in lockstep (one outstanding);
    // plus the recovering thread's CPU.
    m("request_cpu_us", "us", S, &[]),
    m("query_cpu_us", "us", S, &[]),
    m("recovery_cpu_ms", "ms", S, &[]),
    m("batch_p50_ms", "ms", B, &[]),
    m("batch_p95_ms", "ms", B, &[]),
    m("stmts_per_s", "stmts/s", B, &[]),
    m("scan_p50_ms", "ms", B, &[]),
    // Writer/reader thread CPU: geometric mean over the four views of
    // each view's median batch (scan), and statements per CPU-second.
    m("batch_cpu_ms", "ms", B, &[]),
    m("scan_cpu_ms", "ms", B, &[]),
    m("stmts_per_cpu_s", "stmts/s", B, &[]),
    m("validate_s", "s", C, &[]),
    // Per entry, in thread CPU: geometric mean over entries of each
    // entry's median pipeline (compile-half) time, and entries per
    // CPU-second.
    m("entry_cpu_ms", "ms", C, &[]),
    m("compile_cpu_ms", "ms", C, &[]),
    m("entries_per_cpu_s", "1/s", C, &[]),
];

/// Per-layer metrics from the traced run. A workload reports 0 for a
/// layer its requests never reach.
pub const LAYERS: &[Metric] = &[
    m("trace.overhead_pct", "%", ALL, &["op_cpu_ms"]),
    m(
        "loadgen.late_p99_us",
        "us",
        S,
        &["write_p50_us", "read_p50_us", "max_rate_ops"],
    ),
    m(
        "server.backlog_max",
        "count",
        S,
        &["write_p99_us", "max_rate_ops"],
    ),
    m(
        "server.self_us",
        "us",
        S,
        &["write_p50_us", "read_p50_us", "max_rate_ops"],
    ),
    m(
        "protocol.execute_us",
        "us",
        S,
        &["write_p50_us", "max_rate_ops"],
    ),
    m("protocol.query_us", "us", S, &["read_p50_us"]),
    m(
        "service.execute_us",
        "us",
        S,
        &["write_p50_us", "max_rate_ops"],
    ),
    m("service.query_us", "us", S, &["read_p50_us"]),
    m(
        "engine.parse_us",
        "us",
        S,
        &["write_p50_us", "max_rate_ops"],
    ),
    m(
        "engine.derive_us",
        "us",
        S,
        &["write_p50_us", "max_rate_ops"],
    ),
    m(
        "engine.apply_us",
        "us",
        S,
        &["write_p50_us", "max_rate_ops"],
    ),
    m("eval.dput_us", "us", S, &["write_p50_us", "max_rate_ops"]),
    m(
        "eval.constraints_us",
        "us",
        S,
        &["write_p50_us", "max_rate_ops"],
    ),
    m("wal.append_us", "us", S, &["write_p99_us", "max_rate_ops"]),
    m("wal.sync_us", "us", S, &["write_p99_us", "max_rate_ops"]),
    m(
        "wal.bytes_per_commit",
        "B",
        S,
        &["write_p99_us", "recovery_s"],
    ),
    m(
        "wal.commits_per_record",
        "count",
        S,
        &["write_p99_us", "max_rate_ops"],
    ),
    m(
        "checkpoint.count",
        "count",
        S,
        &["write_p99_us", "recovery_s"],
    ),
    m("checkpoint.ms", "ms", S, &["write_p99_us", "max_rate_ops"]),
    m("recovery.wal_s", "s", S, &["recovery_s"]),
    m("recovery.rebuild_s", "s", S, &["recovery_s"]),
    m(
        "store.index_hit_ratio",
        "ratio",
        SB,
        &["write_p50_us", "batch_p50_ms"],
    ),
    m(
        "service.buffer_ms",
        "ms",
        B,
        &["batch_p50_ms", "stmts_per_s"],
    ),
    m(
        "service.commit_ms",
        "ms",
        B,
        &["batch_p50_ms", "stmts_per_s"],
    ),
    m(
        "engine.derive_ms",
        "ms",
        B,
        &["batch_p50_ms", "stmts_per_s"],
    ),
    m("engine.apply_ms", "ms", B, &["batch_p50_ms", "stmts_per_s"]),
    m("eval.dput_ms", "ms", B, &["batch_p50_ms", "stmts_per_s"]),
    m(
        "engine.source_per_view_delta",
        "ratio",
        B,
        &["batch_p50_ms", "stmts_per_s"],
    ),
    m(
        "service.publish_ms",
        "ms",
        B,
        &["batch_p95_ms", "scan_p50_ms"],
    ),
    m("snapshot.pin_us", "us", B, &["batch_p95_ms", "scan_p50_ms"]),
    m("setup.datagen_s", "s", B, &["setup_s", "peak_rss_mb"]),
    m("setup.register_s", "s", B, &["setup_s", "peak_rss_mb"]),
    m("datalog.parse_ms", "ms", C, &["validate_s", "setup_s"]),
    m(
        "validate.well_definedness_ms",
        "ms",
        C,
        &["validate_s", "setup_s"],
    ),
    m("validate.getput_ms", "ms", C, &["validate_s", "setup_s"]),
    m("validate.putget_ms", "ms", C, &["validate_s", "setup_s"]),
    m(
        "core.incrementalize_ms",
        "ms",
        C,
        &["validate_s", "setup_s"],
    ),
    m("sql.compile_ms", "ms", C, &["validate_s", "setup_s"]),
];

/// The gated end-to-end metrics every workload reports in its result
/// line (workload-neutral names; [`gated_source`] maps each to the
/// workload's own metric).
pub const GATED: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_cpu_ms", "ms"),
    ("side_cpu_ms", "ms"),
];

/// The workload metric behind a gated metric, and the factor that
/// converts it to the gated unit.
pub fn gated_source(workload: &str, gated: &str) -> (&'static str, f64) {
    match (workload, gated) {
        (_, "setup_s") => ("setup_s", 1.0),
        (_, "peak_rss_mb") => ("peak_rss_mb", 1.0),
        (SERVE, "op_cpu_ms") => ("request_cpu_us", 1e-3),
        (SERVE, "side_cpu_ms") => ("query_cpu_us", 1e-3),
        (BULK, "op_cpu_ms") => ("batch_cpu_ms", 1.0),
        (BULK, "side_cpu_ms") => ("scan_cpu_ms", 1.0),
        (CORPUS, "op_cpu_ms") => ("entry_cpu_ms", 1.0),
        (CORPUS, "side_cpu_ms") => ("compile_cpu_ms", 1.0),
        _ => panic!("no gated metric {gated} on workload {workload}"),
    }
}

/// Is `name` a valid metric name (`[A-Za-z0-9_.-]+`, at most 64 long,
/// starting with a letter or digit)?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn lookup(table: &[Metric], name: &str) -> Metric {
    *table
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not registered"))
}

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted against the program under test.
    pub attempted: u64,
    /// Operations that failed (error replies, oracle mismatches).
    pub failed: u64,
    /// Oracle failures, one line each.
    pub mismatches: Vec<String>,
    /// Why the open-loop latency figures are withheld: the generator
    /// fell behind its schedule, so latency from due time would charge
    /// its lag to the server. CPU-time figures are still reported.
    pub open_loop_invalid: Option<String>,
    /// End-to-end metric values, by [`END_TO_END`] name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values, by [`LAYERS`] name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Timing knobs, sample counts and other context.
    pub context: Vec<(String, Json)>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            open_loop_invalid: None,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            context: Vec::new(),
        }
    }

    /// Record an end-to-end value (must be a registered name).
    pub fn set(&mut self, name: &'static str, value: f64) {
        lookup(END_TO_END, name);
        self.e2e.insert(name, value);
    }

    /// Record a per-layer value (must be a registered name).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        lookup(LAYERS, name);
        self.layers.insert(name, value);
    }

    /// Record a context entry.
    pub fn note(&mut self, key: &str, value: Json) {
        self.context.push((key.to_owned(), value));
    }

    /// Record an oracle failure.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Did every output oracle pass?
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// The full report: every metric measured, by name, with unit, and
    /// every per-layer metric tagged with what it should move.
    pub fn report(&self) -> Json {
        let mut e2e = Vec::new();
        for metric in END_TO_END {
            if let Some(value) = self.e2e.get(metric.name) {
                e2e.push((metric.name.to_owned(), valued(*value, metric.unit)));
            }
        }
        let mut layers = Vec::new();
        for metric in LAYERS {
            if let Some(value) = self.layers.get(metric.name) {
                let Json::Obj(mut fields) = valued(*value, metric.unit) else {
                    unreachable!("valued builds an object")
                };
                let moves = metric.moves.iter().map(|n| Json::str(*n)).collect();
                fields.push(("moves".into(), Json::Arr(moves)));
                let workloads = metric.workloads.iter().map(|n| Json::str(*n)).collect();
                fields.push(("workloads".into(), Json::Arr(workloads)));
                layers.push((metric.name.to_owned(), Json::Obj(fields)));
            }
        }
        let mismatches = self
            .mismatches
            .iter()
            .map(|s| Json::str(s.clone()))
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str(self.workload)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("mismatches".into(), Json::Arr(mismatches)),
            (
                "open_loop_invalid".into(),
                self.open_loop_invalid.clone().map_or(Json::Null, Json::str),
            ),
            ("context".into(), Json::Obj(self.context.clone())),
            ("end_to_end".into(), Json::Obj(e2e)),
            ("per_layer".into(), Json::Obj(layers)),
        ])
    }

    /// The one-line result: the gated end-to-end metrics, or with
    /// `trace` every per-layer metric (0 for layers this workload's
    /// requests never reach).
    pub fn result_line(&self, trace: bool) -> Json {
        let metrics: Vec<(String, Json)> = if trace {
            LAYERS
                .iter()
                .map(|metric| {
                    let value = self.layers.get(metric.name).copied().unwrap_or(0.0);
                    (metric.name.to_owned(), valued(value, metric.unit))
                })
                .collect()
        } else {
            GATED
                .iter()
                .map(|&(name, unit)| {
                    let (source, scale) = gated_source(self.workload, name);
                    let value = self.e2e.get(source).copied().unwrap_or(f64::NAN) * scale;
                    (name.to_owned(), valued(value, unit))
                })
                .collect()
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted.max(1) as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// `{"value": v, "unit": u}`; a non-finite value (a metric that could
/// not be measured) becomes `null` rather than invalid JSON.
fn valued(value: f64, unit: &str) -> Json {
    let value = if value.is_finite() {
        Json::Float(value)
    } else {
        Json::Null
    };
    Json::Obj(vec![
        ("value".into(), value),
        ("unit".into(), Json::str(unit)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_grammar() {
        for metric in END_TO_END.iter().chain(LAYERS) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
        }
        for (name, _) in GATED {
            assert!(valid_name(name), "{name}");
        }
        assert!(valid_name("a.b-c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(LAYERS).map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn per_layer_metrics_move_registered_end_to_end_metrics() {
        for metric in LAYERS {
            assert!(!metric.moves.is_empty(), "{}", metric.name);
            for moved in metric.moves {
                assert!(
                    END_TO_END.iter().any(|m| m.name == *moved)
                        || GATED.iter().any(|(g, _)| g == moved),
                    "{} moves unknown {moved}",
                    metric.name
                );
            }
        }
    }

    /// The end-to-end metrics every workload must report in full.
    fn required(workload: &str) -> Vec<Metric> {
        END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&workload))
            .copied()
            .collect()
    }

    #[test]
    fn the_fourteen_user_facing_metrics_are_registered_with_units() {
        let named = [
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("failed_ratio", "failed/attempted"),
            ("write_p50_us", "us"),
            ("write_p99_us", "us"),
            ("read_p50_us", "us"),
            ("read_p99_us", "us"),
            ("max_rate_ops", "req/s"),
            ("recovery_s", "s"),
            ("batch_p50_ms", "ms"),
            ("batch_p95_ms", "ms"),
            ("stmts_per_s", "stmts/s"),
            ("scan_p50_ms", "ms"),
            ("validate_s", "s"),
        ];
        for (name, unit) in named {
            assert_eq!(lookup(END_TO_END, name).unit, unit, "{name}");
        }
    }

    #[test]
    fn report_lists_every_metric_with_its_unit() {
        for workload in WORKLOADS {
            let mut outcome = Outcome::new(workload);
            for metric in required(workload) {
                outcome.set(metric.name, 1.5);
            }
            for metric in LAYERS.iter().filter(|m| m.workloads.contains(&workload)) {
                outcome.layer(metric.name, 2.5);
            }
            let report = outcome.report();
            let e2e = report.get("end_to_end").expect("end_to_end section");
            for metric in required(workload) {
                let entry = e2e.get(metric.name).expect(metric.name);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
                assert_eq!(entry.get("value").and_then(Json::as_f64), Some(1.5));
            }
            let layers = report.get("per_layer").expect("per_layer section");
            for metric in LAYERS.iter().filter(|m| m.workloads.contains(&workload)) {
                let entry = layers.get(metric.name).expect(metric.name);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
                assert!(entry.get("moves").and_then(Json::as_arr).is_some());
            }
            // The result line carries exactly the gated metrics, every
            // one measured, and with tracing exactly the layer metrics.
            let line = outcome.result_line(false);
            let metrics = line.get("metrics").expect("metrics");
            let Json::Obj(fields) = metrics else {
                panic!("metrics object")
            };
            assert_eq!(fields.len(), GATED.len());
            for (name, unit) in GATED {
                let entry = metrics.get(name).expect(name);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(
                    entry.get("value").and_then(Json::as_f64).is_some(),
                    "{name}"
                );
            }
            let traced = outcome.result_line(true);
            let Some(Json::Obj(fields)) = traced.get("metrics") else {
                panic!("metrics object")
            };
            assert_eq!(fields.len(), LAYERS.len());
        }
    }

    #[test]
    fn withheld_open_loop_figures_leave_the_gated_metrics_reported() {
        let mut outcome = Outcome::new(SERVE);
        for metric in required(SERVE) {
            outcome.set(metric.name, 1.5);
        }
        outcome.e2e.remove("write_p50_us");
        outcome.open_loop_invalid = Some("load generator fell behind".into());
        assert!(outcome.correct());
        let report = outcome.report();
        assert_eq!(
            report.get("open_loop_invalid").and_then(Json::as_str),
            Some("load generator fell behind")
        );
        let e2e = report.get("end_to_end").expect("end_to_end section");
        assert!(e2e.get("write_p50_us").is_none());
        let line = outcome.result_line(false);
        for (name, _) in GATED {
            let entry = line.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert!(
                entry.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
        }
    }

    #[test]
    fn benchmark_manifest_matches_the_registry() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let gated: Vec<(String, String)> = GATED
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), gated);
        let layers: Vec<(String, String)> = LAYERS
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
