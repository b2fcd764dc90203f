//! `validate_corpus`: the paper's Table 1 path on one thread. For each
//! expressible corpus entry that validates in seconds, in a seeded
//! order: `UpdateStrategy::parse`, `validate` (Algorithm 1),
//! `incrementalize`, `compile_strategy`. The engine and service are
//! idle; only `datalog`, `fol`, `solver`, `core` and `sql` work.

use crate::gen::Rng;
use crate::machine;
use crate::metrics::{Outcome, CORPUS};
use crate::stats;
use birds_benchmarks::corpus::{self, CorpusEntry};
use birds_core::{incrementalize, validate, UpdateStrategy};
use birds_datalog::parse_program;
use birds_service::Json;
use birds_sql::compile_strategy;
use std::time::Instant;

/// Entries left out: each takes close to a minute or more to validate
/// (the `table1` binary still covers them).
pub const SLOW: [usize; 4] = [22, 26, 31, 32];

/// Passes per run: each entry's figure is the median of its passes.
const MIN_PASSES: usize = 2;

fn selected() -> Vec<CorpusEntry> {
    corpus::entries()
        .into_iter()
        .filter(|e| e.expressible && !SLOW.contains(&e.id))
        .collect()
}

fn parse(entry: &CorpusEntry) -> UpdateStrategy {
    UpdateStrategy::parse(
        entry.source_schema(),
        entry.view_schema(),
        entry.putdelta,
        Some(entry.expected_get),
    )
    .unwrap_or_else(|e| panic!("corpus entry #{} parses: {e}", entry.id))
}

/// One set-up: load the corpus and parse every strategy. Returns the
/// entries and the seconds it took.
fn set_up() -> (Vec<CorpusEntry>, f64) {
    let t = Instant::now();
    let entries = selected();
    let parsed: Vec<UpdateStrategy> = entries.iter().map(parse).collect();
    let secs = t.elapsed().as_secs_f64();
    drop(parsed);
    (entries, secs)
}

/// Per-pass totals of each layer, in milliseconds.
#[derive(Default, Clone, Copy)]
struct PassLayers {
    parse: f64,
    well_definedness: f64,
    getput: f64,
    putget: f64,
    incrementalize: f64,
    compile: f64,
}

/// Run the workload for about `seconds` seconds (at least two passes).
pub fn run(seed: u64, seconds: u64, trace: bool, dir: &std::path::Path) -> Outcome {
    let mut outcome = Outcome::new(CORPUS);
    outcome.note("machine", machine::fingerprint(dir));
    outcome.note(
        "knobs",
        Json::Obj(vec![
            (
                "excluded_entries".into(),
                Json::Arr(SLOW.iter().map(|&id| Json::Int(id as i64)).collect()),
            ),
            ("threads".into(), Json::Int(1)),
        ]),
    );
    // Set-up, once here and again after every entry of every pass: a
    // set-up takes about a millisecond and a shared host's speed drifts
    // on a sub-second scale, so samples spread over the whole run give a
    // steadier median than a burst at its start. Their time is left out
    // of the pass time.
    let (mut entries, first_setup) = set_up();
    let mut setup_times = vec![first_setup];
    outcome.note("entries", Json::Int(entries.len() as i64));

    let mut rng = Rng::new(seed, 3);
    // Per entry sample: (entry id, pipeline CPU ms, compile CPU ms).
    let mut cpu_ms: Vec<(usize, f64, f64)> = Vec::new();
    let mut pass_s = Vec::new();
    let mut layers = Vec::new();
    let start = Instant::now();
    let budget = seconds as f64;
    while pass_s.len() < MIN_PASSES
        || start.elapsed().as_secs_f64() + stats::median(&pass_s) <= budget
    {
        rng.shuffle(&mut entries);
        let t_pass = Instant::now();
        let mut setups_in_pass = 0.0;
        let mut pass = PassLayers::default();
        for entry in &entries {
            outcome.attempted += 1;
            let cpu = machine::thread_cpu();
            let t = Instant::now();
            let strategy = parse(entry);
            let t_parse = t.elapsed();
            let report = match validate(&strategy) {
                Ok(report) => report,
                Err(e) => {
                    outcome.mismatch(format!(
                        "#{} {}: validation error {e}",
                        entry.id, entry.name
                    ));
                    continue;
                }
            };
            let t_inc = Instant::now();
            let cpu_compile = machine::thread_cpu();
            let incremental = incrementalize(&strategy);
            let inc = t_inc.elapsed();
            let get = report
                .derived_get
                .clone()
                .unwrap_or_else(|| parse_program(entry.expected_get).expect("corpus get parses"));
            let t_compile = Instant::now();
            let sql = compile_strategy(&strategy, &get);
            let compile = t_compile.elapsed();
            let cpu_end = machine::thread_cpu();
            cpu_ms.push((
                entry.id,
                (cpu_end - cpu).as_secs_f64() * 1e3,
                (cpu_end - cpu_compile).as_secs_f64() * 1e3,
            ));
            std::hint::black_box(sql.byte_size());
            // Oracles: every verdict is valid; LVGN membership as recorded.
            if !report.valid {
                outcome.mismatch(format!(
                    "#{} {}: not valid: {:?}",
                    entry.id, entry.name, report.reason
                ));
            }
            if report.lvgn != entry.lvgn_expected {
                outcome.mismatch(format!(
                    "#{} {}: lvgn {} != expected {}",
                    entry.id, entry.name, report.lvgn, entry.lvgn_expected
                ));
            }
            if incremental.is_err() {
                outcome.mismatch(format!(
                    "#{} {}: incrementalize failed",
                    entry.id, entry.name
                ));
            }
            pass.parse += t_parse.as_secs_f64() * 1e3;
            pass.well_definedness += report.timings.well_definedness.as_secs_f64() * 1e3;
            pass.getput += report.timings.getput.as_secs_f64() * 1e3;
            pass.putget += report.timings.putget.as_secs_f64() * 1e3;
            pass.incrementalize += inc.as_secs_f64() * 1e3;
            pass.compile += compile.as_secs_f64() * 1e3;
            let t_setup = Instant::now();
            setup_times.push(set_up().1);
            setups_in_pass += t_setup.elapsed().as_secs_f64();
        }
        pass_s.push(t_pass.elapsed().as_secs_f64() - setups_in_pass);
        layers.push(pass);
        if trace && pass_s.len() == MIN_PASSES {
            break;
        }
    }
    let n = cpu_ms.len();
    outcome.note("passes", Json::Int(pass_s.len() as i64));
    outcome.note("setups", Json::Int(setup_times.len() as i64));
    outcome.set("setup_s", stats::median(&setup_times));
    let validate_s = stats::median(&pass_s);
    outcome.set("validate_s", validate_s);
    let ids: Vec<usize> = entries.iter().map(|e| e.id).collect();
    let pipeline: Vec<(usize, f64)> = cpu_ms.iter().map(|&(id, x, _)| (id, x)).collect();
    let compile: Vec<(usize, f64)> = cpu_ms.iter().map(|&(id, _, x)| (id, x)).collect();
    let cpu_s: f64 = pipeline.iter().map(|&(_, x)| x).sum::<f64>() / 1e3;
    outcome.set("entry_cpu_ms", stats::geomean_of_medians(&ids, &pipeline));
    outcome.set("compile_cpu_ms", stats::geomean_of_medians(&ids, &compile));
    outcome.set("entries_per_cpu_s", n as f64 / cpu_s);
    outcome.set(
        "peak_rss_mb",
        machine::status_mb("self", "VmHWM").unwrap_or(f64::NAN),
    );
    outcome.set(
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );

    if trace {
        // Every pass reads the same per-call clocks (the end-to-end
        // metrics need them), so the traced pass differs from the
        // untraced one only by run-to-run noise; report that difference.
        let overhead = (pass_s[1] - pass_s[0]) / pass_s[0] * 100.0;
        outcome.layer("trace.overhead_pct", overhead);
        let last = layers[layers.len() - 1];
        outcome.layer("datalog.parse_ms", last.parse);
        outcome.layer("validate.well_definedness_ms", last.well_definedness);
        outcome.layer("validate.getput_ms", last.getput);
        outcome.layer("validate.putget_ms", last.putget);
        outcome.layer("core.incrementalize_ms", last.incrementalize);
        outcome.layer("sql.compile_ms", last.compile);
    }
    outcome
}
