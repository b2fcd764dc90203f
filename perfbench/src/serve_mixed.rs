//! `serve_mixed`: a durable `birds-serve` child process under a mix of
//! ~90% autocommit writes and ~10% `query` reads over one pipelined
//! connection: open loop at a fixed reference rate (latency from each
//! request's due time); lockstep writes, reads and mix (the server's CPU
//! per request, from its threads' run time); open loop up a fixed rate
//! ladder; then a checkpoint, a fixed burst of writes, SIGKILL and an
//! in-process `Service::open` of the data directory.
//!
//! The catalogue holds four disjoint luxuryitems-shaped selections
//! `lux{v} = σ_{price>1000}(items{v})`, so the service runs four shards.
//! Writes are skewed (view 0 takes half) and alternate inserts and
//! deletes along a fixed cycle of rows per view, so view sizes stay
//! constant and no two in-flight writes ever touch the same row.

use crate::gen::Rng;
use crate::machine;
use crate::metrics::{Outcome, SERVE};
use crate::stats::{self, Rung};
use crate::trace::{Depth, EvalView, Spans};
use birds_core::UpdateStrategy;
use birds_engine::{Engine, StrategyMode};
use birds_service::{DurabilityConfig, Json, LocalClient, Service, ServiceConfig};
use birds_store::{Database, DatabaseSchema, Relation, Schema, SortKind, Tuple, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Every timing knob of the workload (all recorded with the result).
#[derive(Debug, Clone)]
pub struct Knobs {
    /// Rows per base table `items{v}`.
    pub base_rows: usize,
    /// Number of disjoint views (= shards).
    pub views: usize,
    /// Reference rate, requests per second.
    pub ref_rate: f64,
    /// Unmeasured warm-up at the reference rate, seconds.
    pub warmup_secs: f64,
    /// Share of the run spent at the reference rate.
    pub ref_share: f64,
    /// Ladder rates, requests per second, ascending.
    pub ladder: Vec<f64>,
    /// Seconds per ladder rung.
    pub rung_secs: f64,
    /// p99 limit (from due time) a rung must meet, µs.
    pub p99_limit_us: f64,
    /// Sender lateness p99 (µs) beyond which the open-loop latency
    /// figures of a run are invalid and withheld.
    pub late_tolerance_us: f64,
    /// Lockstep reads (one query outstanding, so every query takes the
    /// same path through the server), seconds.
    pub lockstep_read_secs: f64,
    /// Writes in the pipelined burst between the final checkpoint and
    /// the kill: the WAL tail recovery replays.
    pub crash_tail_writes: usize,
    /// Share of requests that are reads.
    pub read_share: f64,
    /// Share of writes aimed at view 0.
    pub hot_share: f64,
    /// Server `--workers`.
    pub workers: usize,
    /// Set-ups measured for `setup_s` (the last one serves the run).
    pub setups: usize,
}

impl Knobs {
    /// The benchmark's fixed settings on a machine with `nproc` CPUs.
    pub fn standard(nproc: usize) -> Knobs {
        Knobs {
            base_rows: 3000,
            views: 4,
            ref_rate: 2000.0,
            warmup_secs: 1.0,
            ref_share: 0.4,
            ladder: (3..=12).map(|k| k as f64 * 1000.0).collect(),
            rung_secs: 1.5,
            p99_limit_us: 50_000.0,
            late_tolerance_us: 10_000.0,
            lockstep_read_secs: 3.0,
            crash_tail_writes: 512,
            read_share: 0.10,
            hot_share: 0.5,
            workers: nproc.clamp(1, 2),
            setups: 9,
        }
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            ("base_rows".into(), Json::Int(self.base_rows as i64)),
            ("views".into(), Json::Int(self.views as i64)),
            ("fsync".into(), Json::str("epoch")),
            ("epoch_window_us".into(), Json::Int(0)),
            ("checkpoint_every".into(), Json::Int(1024)),
            ("server_workers".into(), Json::Int(self.workers as i64)),
            ("connections".into(), Json::Int(1)),
            ("client_threads".into(), Json::Int(2)),
            ("reference_rate".into(), Json::Float(self.ref_rate)),
            (
                "ladder".into(),
                Json::Arr(self.ladder.iter().map(|r| Json::Float(*r)).collect()),
            ),
            ("rung_s".into(), Json::Float(self.rung_secs)),
            ("warmup_s".into(), Json::Float(self.warmup_secs)),
            ("reference_share".into(), Json::Float(self.ref_share)),
            ("p99_limit_us".into(), Json::Float(self.p99_limit_us)),
            (
                "late_tolerance_p99_us".into(),
                Json::Float(self.late_tolerance_us),
            ),
            (
                "lockstep_read_s".into(),
                Json::Float(self.lockstep_read_secs),
            ),
            (
                "crash_tail_writes".into(),
                Json::Int(self.crash_tail_writes as i64),
            ),
            ("read_share".into(), Json::Float(self.read_share)),
            ("hot_view_write_share".into(), Json::Float(self.hot_share)),
        ])
    }
}

/// Generated contents of one view's base table.
struct ViewData {
    /// `items{v}` rows with price ≤ 1000 (never touched by the load).
    hidden: Vec<(i64, i64)>,
    /// The write cycle: alternately a row initially in the view and a
    /// fresh row initially absent.
    cycle: Vec<(i64, i64)>,
}

impl ViewData {
    fn generate(seed: u64, view: usize, base_rows: usize) -> ViewData {
        let mut rng = Rng::new(seed, 100 + view as u64);
        let mut hidden = Vec::new();
        let mut present = Vec::new();
        for id in 0..base_rows as i64 {
            if rng.chance(0.5) {
                present.push((id, rng.range(1001, 4999)));
            } else {
                hidden.push((id, rng.range(1, 1000)));
            }
        }
        rng.shuffle(&mut present);
        let mut cycle = Vec::with_capacity(2 * present.len());
        for (k, row) in present.into_iter().enumerate() {
            cycle.push(row);
            cycle.push((base_rows as i64 + k as i64, rng.range(1001, 4999)));
        }
        ViewData { hidden, cycle }
    }

    /// Is cycle slot `slot` initially in the view?
    fn initially_present(slot: usize) -> bool {
        slot.is_multiple_of(2)
    }

    fn base_tuples(&self) -> Vec<Tuple> {
        let present = (0..self.cycle.len()).step_by(2).map(|s| self.cycle[s]);
        self.hidden
            .iter()
            .copied()
            .chain(present)
            .map(row)
            .collect()
    }
}

fn row((id, price): (i64, i64)) -> Tuple {
    Tuple::new(vec![Value::Int(id), Value::Int(price)])
}

fn item_schema(name: String) -> Schema {
    Schema::new(name, vec![("id", SortKind::Int), ("price", SortKind::Int)])
}

fn putdelta(v: usize) -> String {
    format!(
        "false :- lux{v}(I, P), not P > 1000.
         +items{v}(I, P) :- lux{v}(I, P), not items{v}(I, P).
         expensive{v}(I, P) :- items{v}(I, P), P > 1000.
         -items{v}(I, P) :- expensive{v}(I, P), not lux{v}(I, P)."
    )
}

fn strategy(v: usize) -> UpdateStrategy {
    UpdateStrategy::parse(
        DatabaseSchema::new().with(item_schema(format!("items{v}"))),
        item_schema(format!("lux{v}")),
        &putdelta(v),
        None,
    )
    .expect("luxuryitems-shaped strategy parses")
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write {
        view: usize,
        slot: usize,
        insert: bool,
    },
    Read {
        view: usize,
    },
}

/// The seeded request sequence. Which row a write touches and whether
/// it inserts or deletes depend only on the seed, never on timing.
struct OpGen {
    rng: Rng,
    knobs: Knobs,
    views: Arc<Vec<ViewData>>,
    cursor: Vec<usize>,
    present: Vec<Vec<bool>>,
}

impl OpGen {
    fn new(seed: u64, knobs: &Knobs, views: Arc<Vec<ViewData>>) -> OpGen {
        let present = views
            .iter()
            .map(|v| {
                (0..v.cycle.len())
                    .map(ViewData::initially_present)
                    .collect()
            })
            .collect();
        OpGen {
            rng: Rng::new(seed, 1),
            knobs: knobs.clone(),
            cursor: vec![0; views.len()],
            views,
            present,
        }
    }

    fn next(&mut self) -> Op {
        if self.rng.chance(self.knobs.read_share) {
            self.next_read()
        } else {
            self.next_write()
        }
    }

    fn next_in(&mut self, reads_only: bool) -> Op {
        if reads_only {
            self.next_read()
        } else {
            self.next()
        }
    }

    fn next_read(&mut self) -> Op {
        Op::Read {
            view: self.rng.below(self.knobs.views),
        }
    }

    fn next_write(&mut self) -> Op {
        let n = self.knobs.views;
        let view = if self.rng.chance(self.knobs.hot_share) {
            0
        } else {
            1 + self.rng.below(n - 1)
        };
        let slot = self.cursor[view];
        self.cursor[view] = (slot + 1) % self.views[view].cycle.len();
        let insert = !self.present[view][slot];
        self.present[view][slot] = insert;
        Op::Write { view, slot, insert }
    }

    fn sql(&self, op: Op) -> Option<String> {
        let Op::Write { view, slot, insert } = op else {
            return None;
        };
        let (id, price) = self.views[view].cycle[slot];
        Some(if insert {
            format!("INSERT INTO lux{view} VALUES ({id}, {price});")
        } else {
            format!("DELETE FROM lux{view} WHERE id = {id};")
        })
    }

    fn line(&self, id: u64, op: Op) -> String {
        match op {
            Op::Read { view } => {
                format!("{{\"id\":{id},\"op\":\"query\",\"relation\":\"lux{view}\"}}\n")
            }
            Op::Write { .. } => {
                let sql = self.sql(op).expect("write");
                format!("{{\"id\":{id},\"op\":\"execute\",\"sql\":\"{sql}\"}}\n")
            }
        }
    }
}

/// A `birds-serve` child process.
struct Server {
    child: Child,
    addr: String,
    // Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(data_dir: &Path, catalogue: &Path, workers: usize) -> Server {
        let binary = std::env::current_exe()
            .expect("current exe")
            .with_file_name("birds-serve");
        let mut child = Command::new(&binary)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--fsync")
            .arg("epoch")
            .arg("--strategy")
            .arg(catalogue)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", binary.display()));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                panic!("birds-serve exited before listening");
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_owned();
            }
        };
        Server {
            child,
            addr,
            _stdout: stdout,
        }
    }

    /// SIGKILL, then reap.
    fn kill(self) {
        drop(self);
    }
}

/// A server is never left running: a panicking run still kills it.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The base tables as an engine with no views (the catalogue's seed).
fn base_engine(views: &[ViewData], with_rows: bool) -> Engine {
    let mut db = Database::new();
    for (v, data) in views.iter().enumerate() {
        let tuples = if with_rows {
            data.base_tuples()
        } else {
            vec![]
        };
        db.add_relation(Relation::with_tuples(format!("items{v}"), 2, tuples).expect("arity 2"))
            .expect("fresh table");
    }
    Engine::new(db)
}

fn durability(dir: &Path) -> DurabilityConfig {
    // Defaults: fsync per epoch, checkpoint every 1024 commits.
    DurabilityConfig::new(dir)
}

/// Generate the tables, write them into a fresh data directory (one
/// checkpoint), write the catalogue and start the server on it.
fn set_up(seed: u64, knobs: &Knobs, dir: &Path) -> (Arc<Vec<ViewData>>, Server) {
    let views: Vec<ViewData> = (0..knobs.views)
        .map(|v| ViewData::generate(seed, v, knobs.base_rows))
        .collect();
    let data_dir = dir.join("data");
    let service = Service::open(
        base_engine(&views, true),
        ServiceConfig::default(),
        durability(&data_dir),
    )
    .expect("fresh data dir opens");
    service.checkpoint().expect("initial checkpoint");
    drop(service);
    let table = |name: String| {
        Json::Obj(vec![
            ("name".into(), Json::str(name)),
            (
                "columns".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::str("id"), Json::str("int")]),
                    Json::Arr(vec![Json::str("price"), Json::str("int")]),
                ]),
            ),
        ])
    };
    let catalogue = Json::Obj(vec![
        (
            "tables".into(),
            Json::Arr(
                (0..knobs.views)
                    .map(|v| table(format!("items{v}")))
                    .collect(),
            ),
        ),
        (
            "views".into(),
            Json::Arr(
                (0..knobs.views)
                    .map(|v| {
                        Json::Obj(vec![
                            ("view".into(), table(format!("lux{v}"))),
                            (
                                "sources".into(),
                                Json::Arr(vec![table(format!("items{v}"))]),
                            ),
                            ("putdelta".into(), Json::str(putdelta(v))),
                            ("mode".into(), Json::str("incremental")),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let catalogue_path = dir.join("catalogue.json");
    std::fs::write(&catalogue_path, catalogue.to_compact()).expect("write catalogue");
    let server = Server::spawn(&data_dir, &catalogue_path, knobs.workers);
    (Arc::new(views), server)
}

/// What the sender recorded per request.
#[derive(Debug, Clone, Copy)]
struct Sent {
    op: Op,
    phase: usize,
    due_ns: u64,
    sent_ns: u64,
}

/// Window over which the server's CPU per request is sampled.
const CPU_WINDOW_NS: u64 = 250_000_000;

impl Load {
    /// Server CPU per reply in `phase`, µs: the median over the phase's
    /// sampling windows, so a burst of host contention in one window
    /// does not set the figure.
    fn cpu_per_reply_us(&self, phase: usize) -> f64 {
        let marks: Vec<(u64, f64)> = self
            .marks
            .iter()
            .filter(|m| m.0 == phase)
            .map(|m| (m.1, m.2))
            .collect();
        let per: Vec<f64> = marks
            .windows(2)
            .filter(|w| w[1].0 > w[0].0)
            .map(|w| (w[1].1 - w[0].1) * 1e6 / (w[1].0 - w[0].0) as f64)
            .collect();
        if per.is_empty() {
            f64::NAN
        } else {
            stats::median(&per)
        }
    }

    /// Latency of request `id` from its due time, µs.
    fn latency_us(&self, id: usize) -> Option<f64> {
        latency_us(self.responses[id], self.sent[id].due_ns)
    }

    /// Did request `id` get a successful reply?
    fn ok(&self, id: usize) -> bool {
        let r = self.responses[id];
        r != 0 && r & ERR_BIT == 0
    }
}

/// Responses, indexed by request id: receive time + 1 (0 = none yet),
/// with the top bit set for an error reply.
struct Inbox {
    recv: Vec<AtomicU64>,
    received: AtomicU64,
    /// Signalled on every reply, so a closed-loop sender blocks for
    /// its window to open instead of polling beside the server.
    replied: (Mutex<()>, Condvar),
}

impl Inbox {
    /// Count one reply and wake a waiting sender.
    fn count_reply(&self) {
        self.received.fetch_add(1, Ordering::AcqRel);
        let _guard = self.replied.0.lock().unwrap_or_else(|e| e.into_inner());
        self.replied.1.notify_all();
    }

    /// Block until `target` replies have arrived or `until` (an
    /// [`Instant`]) has passed.
    fn wait_for(&self, target: u64, until: Instant) {
        let mut guard = self.replied.0.lock().unwrap_or_else(|e| e.into_inner());
        while self.received.load(Ordering::Acquire) < target {
            let Some(left) = until.checked_duration_since(Instant::now()) else {
                return;
            };
            guard = self
                .replied
                .1
                .wait_timeout(guard, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

const ERR_BIT: u64 = 1 << 63;

/// Latency from `due_ns` of a raw [`Inbox`] entry, µs (`None` before
/// the reply arrived).
fn latency_us(raw: u64, due_ns: u64) -> Option<f64> {
    (raw != 0).then(|| ((raw & !ERR_BIT) - 1).saturating_sub(due_ns) as f64 / 1e3)
}

/// Phase indices: an unmeasured warm-up, the reference rate, lockstep
/// reads, then the ladder rungs. A traced run has only the warm-up, the
/// reference phase (traced) and the same rate again untraced.
const WARMUP: usize = 0;
const REFERENCE: usize = 1;
const UNTRACED: usize = 2;
const LOCKSTEP_READS: usize = 2;

/// One open-loop phase: `rate` requests per second for `secs`.
#[derive(Debug, Clone, Copy)]
struct Phase {
    rate: f64,
    secs: f64,
    /// Closed loop instead: keep this many requests outstanding.
    window: usize,
    /// Send only reads.
    reads_only: bool,
    /// A ladder rung: judged against the p99 limit after it drains.
    rung: bool,
}

impl Phase {
    fn open(rate: f64, secs: f64) -> Phase {
        Phase {
            rate,
            secs,
            window: 0,
            reads_only: false,
            rung: false,
        }
    }

    /// Upper bound on the requests the phase sends.
    fn capacity(&self) -> usize {
        let rate = if self.window > 0 { 20_000.0 } else { self.rate };
        (rate * self.secs) as usize + 1
    }
}

/// What the load generator observed.
struct Load {
    sent: Vec<Sent>,
    /// Raw [`Inbox`] entries, by request id.
    responses: Vec<u64>,
    /// Per phase, when its schedule started and ended (ns since start).
    bounds: Vec<(u64, u64)>,
    /// Every [`CPU_WINDOW_NS`] of every phase: (phase, replies received
    /// so far, server CPU seconds).
    marks: Vec<(usize, u64, f64)>,
    /// Server `VmHWM` at the end of the reference phase, MiB.
    hwm_mb: f64,
    /// The first few error replies, verbatim.
    error_replies: Vec<String>,
    rungs: Vec<Rung>,
    backlog_max: u64,
    query_errors: Vec<String>,
    spans: Spans,
}

/// Drive `phases` over one pipelined connection: a sender thread on the
/// schedule and this thread receiving. After the reference phase each
/// ladder rung is drained and judged; the ladder stops at the first
/// failing rung.
fn drive(
    stream: &TcpStream,
    gen: &mut OpGen,
    phases: &[Phase],
    limit_us: f64,
    trace: bool,
    server_pid: Option<u32>,
) -> Load {
    let epoch = Instant::now();
    let capacity: usize = phases.iter().map(Phase::capacity).sum::<usize>() + 1;
    let inbox = Inbox {
        recv: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        received: AtomicU64::new(0),
        replied: (Mutex::new(()), Condvar::new()),
    };
    let mut writer = stream.try_clone().expect("clone stream");
    let reader = stream.try_clone().expect("clone stream");
    reader
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    std::thread::scope(|scope| {
        let inbox = &inbox;
        let sender = scope.spawn(move || {
            let now_ns = || epoch.elapsed().as_nanos() as u64;
            let mut sent: Vec<Sent> = Vec::with_capacity(capacity);
            let mut rungs = Vec::new();
            let mut backlog_max = 0u64;
            let mut bounds = Vec::new();
            let mut marks = Vec::new();
            let mut hwm_mb = f64::NAN;
            let mut buf = String::new();
            let server_cpu = || {
                server_pid
                    .and_then(machine::process_cpu_s)
                    .unwrap_or(f64::NAN)
            };
            // Every CPU_WINDOW_NS: (phase, replies so far, server CPU).
            let mark = |marks: &mut Vec<(usize, u64, f64)>, phase_no: usize| {
                marks.push((
                    phase_no,
                    inbox.received.load(Ordering::Acquire),
                    server_cpu(),
                ));
            };
            for (phase_no, phase) in phases.iter().enumerate() {
                let start = now_ns();
                let first = sent.len();
                mark(&mut marks, phase_no);
                let mut next_mark = start + CPU_WINDOW_NS;
                if phase.window > 0 {
                    let end = start + (phase.secs * 1e9) as u64;
                    let mut now = start;
                    while now < end {
                        let outstanding =
                            (sent.len() as u64 - inbox.received.load(Ordering::Acquire)) as usize;
                        if now >= next_mark {
                            mark(&mut marks, phase_no);
                            next_mark += CPU_WINDOW_NS;
                        }
                        if outstanding >= phase.window {
                            // Until one reply opens the window, or the
                            // next CPU mark or the phase end is due.
                            let target = (sent.len() - phase.window + 1) as u64;
                            let wake = next_mark.min(end);
                            let until = epoch + Duration::from_nanos(wake);
                            inbox.wait_for(target, until);
                            now = now_ns();
                            continue;
                        }
                        buf.clear();
                        let batch_start = sent.len();
                        for _ in outstanding..phase.window {
                            let op = gen.next_in(phase.reads_only);
                            buf.push_str(&gen.line(sent.len() as u64, op));
                            sent.push(Sent {
                                op,
                                phase: phase_no,
                                due_ns: now,
                                sent_ns: 0,
                            });
                        }
                        writer.write_all(buf.as_bytes()).expect("send requests");
                        now = now_ns();
                        sent[batch_start..].iter_mut().for_each(|s| s.sent_ns = now);
                    }
                }
                let count = if phase.window > 0 {
                    0
                } else {
                    (phase.rate * phase.secs) as usize
                };
                let due = |k: usize| start + (k as f64 * 1e9 / phase.rate) as u64;
                let mut k = 0;
                while k < count {
                    let now = now_ns();
                    if now >= next_mark {
                        mark(&mut marks, phase_no);
                        next_mark += CPU_WINDOW_NS;
                    }
                    buf.clear();
                    let batch_start = sent.len();
                    while k < count && due(k) <= now {
                        let op = gen.next_in(phase.reads_only);
                        buf.push_str(&gen.line(sent.len() as u64, op));
                        sent.push(Sent {
                            op,
                            phase: phase_no,
                            due_ns: due(k),
                            sent_ns: 0,
                        });
                        k += 1;
                    }
                    if buf.is_empty() {
                        // Sleep rather than spin: on a small machine a
                        // spinning generator steals the server's CPU.
                        std::thread::sleep(Duration::from_nanos(due(k).saturating_sub(now)));
                        continue;
                    }
                    writer.write_all(buf.as_bytes()).expect("send requests");
                    let at = now_ns();
                    sent[batch_start..].iter_mut().for_each(|s| s.sent_ns = at);
                    let backlog = sent.len() as u64 - inbox.received.load(Ordering::Acquire);
                    backlog_max = backlog_max.max(backlog);
                }
                let outstanding = sent.len() as u64 - inbox.received.load(Ordering::Acquire);
                bounds.push((start, now_ns()));
                // Drain before the next phase, so each rung is judged alone.
                inbox.wait_for(sent.len() as u64, Instant::now() + Duration::from_secs(60));
                assert!(
                    inbox.received.load(Ordering::Acquire) >= sent.len() as u64,
                    "server stopped answering"
                );
                mark(&mut marks, phase_no);
                if phase_no == REFERENCE {
                    // The server's memory high-water mark at the
                    // reference rate, before any overload inflates it.
                    hwm_mb = server_pid
                        .and_then(|pid| machine::status_mb(&pid.to_string(), "VmHWM"))
                        .unwrap_or(f64::NAN);
                }
                if phase.rung {
                    let mut lat: Vec<f64> = (first..sent.len())
                        .map(|id| {
                            latency_us(inbox.recv[id].load(Ordering::Acquire), sent[id].due_ns)
                                .expect("drained")
                        })
                        .collect();
                    lat.sort_by(f64::total_cmp);
                    let rung = Rung {
                        rate: phase.rate,
                        p99_us: stats::percentile(&lat, 99.0),
                        outstanding_at_end: outstanding as usize,
                    };
                    rungs.push(rung);
                    if !rung.passes(limit_us) {
                        break;
                    }
                }
            }
            writer
                .write_all(b"{\"id\":\"end\",\"op\":\"ping\"}\n")
                .expect("send end marker");
            (sent, rungs, backlog_max, bounds, marks, hwm_mb)
        });

        let mut spans = Spans::default();
        let mut query_errors = Vec::new();
        let mut error_replies = Vec::new();
        let mut lines = BufReader::new(reader);
        let mut line = String::new();
        loop {
            line.clear();
            let n = lines.read_line(&mut line).expect("read response");
            assert!(n > 0, "server closed the connection");
            let at = epoch.elapsed().as_nanos() as u64;
            let doc = Json::parse(&line).expect("response is JSON");
            let Some(id) = doc.get("id").and_then(Json::as_i64) else {
                break; // the end marker
            };
            let ok = doc.get("ok").and_then(Json::as_bool) == Some(true);
            if !ok && error_replies.len() < 5 {
                error_replies.push(line.trim().to_owned());
            }
            if let Some(tuples) = doc.get("tuples").and_then(Json::as_arr) {
                if let Err(e) = check_query(tuples) {
                    query_errors.push(format!("query {id}: {e}"));
                }
            }
            inbox.recv[id as usize]
                .store((at + 1) | if ok { 0 } else { ERR_BIT }, Ordering::Release);
            inbox.count_reply();
        }
        let (sent, rungs, backlog_max, bounds, marks, hwm_mb) =
            sender.join().expect("sender thread");
        if trace {
            for (id, s) in sent
                .iter()
                .enumerate()
                .filter(|(_, s)| s.phase == REFERENCE)
            {
                if let Some(recv) = inbox.recv[id].load(Ordering::Acquire).checked_sub(1) {
                    let name = if matches!(s.op, Op::Read { .. }) {
                        "query"
                    } else {
                        "execute"
                    };
                    let wire = Duration::from_nanos((recv & !ERR_BIT).saturating_sub(s.sent_ns));
                    spans.record(id as u64, Depth::Wire, name, wire);
                }
            }
        }
        let responses = (0..sent.len())
            .map(|id| inbox.recv[id].load(Ordering::Acquire))
            .collect();
        Load {
            sent,
            responses,
            bounds,
            marks,
            hwm_mb,
            error_replies,
            rungs,
            backlog_max,
            query_errors,
            spans,
        }
    })
}

/// Every `query` reply: selection predicate holds, keys are unique.
fn check_query(tuples: &[Json]) -> Result<(), String> {
    let mut ids = std::collections::HashSet::with_capacity(tuples.len());
    for t in tuples {
        let (Some(id), Some(price)) = (
            t.as_arr().and_then(|a| a.first()).and_then(Json::as_i64),
            t.as_arr().and_then(|a| a.get(1)).and_then(Json::as_i64),
        ) else {
            return Err(format!("malformed tuple {}", t.to_compact()));
        };
        if price <= 1000 {
            return Err(format!("tuple ({id}, {price}) violates price > 1000"));
        }
        if !ids.insert(id) {
            return Err(format!("duplicate key {id}"));
        }
    }
    Ok(())
}

/// One view's rows and its base table's rows, each sorted.
type Contents = (Vec<(i64, i64)>, Vec<(i64, i64)>);

/// The relation contents the acknowledged writes imply: `(view, base)`
/// per view, each sorted.
fn model(views: &[ViewData], acked: impl Iterator<Item = (Op, bool)>) -> Vec<Contents> {
    let mut present: Vec<Vec<bool>> = views
        .iter()
        .map(|v| {
            (0..v.cycle.len())
                .map(ViewData::initially_present)
                .collect()
        })
        .collect();
    // Writes to one row are a whole cycle apart, so send order is
    // commit order for every row.
    for (op, ok) in acked {
        if let (Op::Write { view, slot, insert }, true) = (op, ok) {
            present[view][slot] = insert;
        }
    }
    views
        .iter()
        .zip(present)
        .map(|(data, present)| {
            let mut view: Vec<(i64, i64)> = data
                .cycle
                .iter()
                .zip(present)
                .filter_map(|(row, p)| p.then_some(*row))
                .collect();
            view.sort_unstable();
            let mut base = data.hidden.clone();
            base.extend(&view);
            base.sort_unstable();
            (view, base)
        })
        .collect()
}

fn int_pairs(tuples: impl IntoIterator<Item = Vec<i64>>) -> Vec<(i64, i64)> {
    let mut rows: Vec<(i64, i64)> = tuples.into_iter().map(|t| (t[0], t[1])).collect();
    rows.sort_unstable();
    rows
}

/// Compare every view and base table against the model; `read` fetches
/// a relation's rows.
fn check_contents(
    outcome: &mut Outcome,
    when: &str,
    expected: &[Contents],
    mut read: impl FnMut(&str) -> Vec<(i64, i64)>,
) {
    for (v, (view, base)) in expected.iter().enumerate() {
        for (name, want) in [(format!("lux{v}"), view), (format!("items{v}"), base)] {
            let got = read(&name);
            if &got != want {
                outcome.mismatch(format!(
                    "{when}: {name} has {} rows, the acknowledged writes imply {}",
                    got.len(),
                    want.len()
                ));
            }
        }
    }
}

/// Send `count` writes as one pipelined burst and collect each reply.
fn write_burst(
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    gen: &mut OpGen,
    first_id: u64,
    count: usize,
) -> Vec<(Op, bool)> {
    let mut ops = Vec::with_capacity(count);
    let mut buf = String::new();
    while ops.len() < count {
        let op = gen.next_write();
        buf.push_str(&gen.line(first_id + ops.len() as u64, op));
        ops.push(op);
    }
    let mut w = stream;
    w.write_all(buf.as_bytes()).expect("send burst");
    let mut ok = vec![false; count];
    let mut reply = String::new();
    for _ in 0..count {
        reply.clear();
        reader.read_line(&mut reply).expect("read burst reply");
        let doc = Json::parse(&reply).expect("reply is JSON");
        let id = doc
            .get("id")
            .and_then(Json::as_i64)
            .expect("burst reply carries its id");
        ok[(id as u64 - first_id) as usize] = doc.get("ok").and_then(Json::as_bool) == Some(true);
    }
    ops.into_iter().zip(ok).collect()
}

/// Lockstep request on the (now idle) connection.
fn request(stream: &TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    let mut w = stream;
    w.write_all(line.as_bytes()).expect("send request");
    w.write_all(b"\n").expect("send request");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    Json::parse(&reply).expect("reply is JSON")
}

fn tuples_of(doc: &Json) -> Vec<Vec<i64>> {
    doc.get("tuples")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|t| {
            t.as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_i64)
                .collect()
        })
        .collect()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("read data dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy file");
        }
    }
}

/// The engine the server starts from: the catalogue's tables, empty.
fn catalogue_engine(views: &[ViewData]) -> Engine {
    base_engine(views, false)
}

/// Run the workload for about `seconds` seconds in `dir`.
pub fn run(seed: u64, seconds: u64, trace: bool, dir: &Path) -> Outcome {
    let knobs = Knobs::standard(machine::nproc());
    let mut outcome = Outcome::new(SERVE);
    outcome.note("machine", machine::fingerprint(dir));
    outcome.note("knobs", knobs.json());

    // Set-up, several times; the last server carries the run.
    let setups = if trace { 1 } else { knobs.setups };
    let mut setup_times = Vec::new();
    let mut current = None;
    for i in 0..setups {
        if let Some((_, server)) = current.take() {
            Server::kill(server);
        }
        let setup_dir = dir.join(format!("setup{i}"));
        let t = Instant::now();
        let (views, server) = set_up(seed, &knobs, &setup_dir);
        setup_times.push(t.elapsed().as_secs_f64());
        current = Some((views, server));
    }
    let (views, server) = current.expect("at least one set-up");
    let data_dir = dir.join(format!("setup{}", setups - 1)).join("data");
    outcome.set("setup_s", stats::median(&setup_times));

    let stream = TcpStream::connect(&server.addr).expect("connect to birds-serve");
    stream.set_nodelay(true).expect("nodelay");
    let mut gen = OpGen::new(seed, &knobs, Arc::clone(&views));
    let run_secs = seconds as f64;
    // Warm-up (unmeasured), then the reference rate.
    let mut phases = vec![
        Phase::open(knobs.ref_rate, knobs.warmup_secs),
        Phase::open(knobs.ref_rate, run_secs * knobs.ref_share),
    ];
    if trace {
        // Traced, then untraced, at the reference rate: the difference
        // is the tracing overhead.
        phases[REFERENCE].secs = run_secs * 0.25;
        phases.push(phases[REFERENCE]);
    } else {
        phases.push(Phase {
            window: 1,
            reads_only: true,
            ..Phase::open(0.0, knobs.lockstep_read_secs)
        });
        phases.extend(knobs.ladder.iter().map(|&rate| Phase {
            rung: true,
            ..Phase::open(rate, knobs.rung_secs)
        }));
    }
    let limit = if trace {
        f64::INFINITY
    } else {
        knobs.p99_limit_us
    };
    let load = drive(
        &stream,
        &mut gen,
        &phases,
        limit,
        trace,
        Some(server.child.id()),
    );

    // Reference-phase figures, each the median over one-second windows
    // of that window's percentile, so one stall does not set the run's
    // figure; every window keeps ten samples beyond its percentile.
    let (ref_start, _) = load.bounds[REFERENCE];
    let window_of = |s: &Sent| ((s.due_ns - ref_start) / 1_000_000_000) as usize;
    let windows = (phases[REFERENCE].secs.floor() as usize).max(1);
    let mut writes = vec![Vec::new(); windows];
    let mut reads = vec![Vec::new(); windows];
    let mut late = vec![Vec::new(); windows];
    for (id, s) in load.sent.iter().enumerate() {
        if s.phase != REFERENCE || window_of(s) >= windows {
            continue;
        }
        let w = window_of(s);
        let lat = load.latency_us(id).unwrap_or(f64::NAN);
        match s.op {
            Op::Write { .. } => writes[w].push(lat),
            Op::Read { .. } => reads[w].push(lat),
        }
        late[w].push(s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e3);
    }
    outcome.attempted = load.sent.len() as u64;
    outcome.failed = (0..load.sent.len()).filter(|&id| !load.ok(id)).count() as u64;
    for e in &load.query_errors {
        outcome.mismatch(e.clone());
    }
    let min_len = |v: &[Vec<f64>]| v.iter().map(Vec::len).min().unwrap_or(0);
    for (what, n, pct) in [
        ("writes", min_len(&writes), 99.0),
        ("reads", min_len(&reads), 50.0),
    ] {
        if !stats::tail_ok(n, pct) {
            outcome.mismatch(format!(
                "only {n} {what} in a window: p{pct} needs {} beyond it",
                stats::MIN_BEYOND
            ));
        }
    }
    let all_reads: Vec<f64> = reads.iter().flatten().copied().collect();
    // A traced run's reference phase is short; it reports no read tail.
    if !trace && !stats::tail_ok(all_reads.len(), 99.0) {
        outcome.mismatch(format!(
            "only {} reads: p99 needs {} beyond it",
            all_reads.len(),
            stats::MIN_BEYOND
        ));
    }
    let windowed = |v: &mut [Vec<f64>], pct: f64| {
        let per: Vec<f64> = v.iter_mut().map(|w| stats::percentile_of(w, pct)).collect();
        stats::median(&per)
    };
    let late_p99 = windowed(&mut late, 99.0);
    let late_max = late.iter().flatten().copied().fold(0.0, f64::max);
    let highest = |n: usize| stats::highest_percentile(n).map_or(Json::Null, Json::Float);
    outcome.note(
        "reference_samples",
        Json::Obj(vec![
            ("windows".into(), Json::Int(windows as i64)),
            (
                "writes_per_window_min".into(),
                Json::Int(min_len(&writes) as i64),
            ),
            (
                "reads_per_window_min".into(),
                Json::Int(min_len(&reads) as i64),
            ),
            ("reads".into(), Json::Int(all_reads.len() as i64)),
            (
                "writes_window_highest_percentile".into(),
                highest(min_len(&writes)),
            ),
            ("reads_highest_percentile".into(), highest(all_reads.len())),
        ]),
    );
    outcome.note("sender_late_p99_us", Json::Float(late_p99));
    outcome.note("sender_late_max_us", Json::Float(late_max));
    outcome.note("outstanding_max", Json::Int(load.backlog_max as i64));
    outcome.note(
        "error_replies",
        Json::Arr(
            load.error_replies
                .iter()
                .map(|e| Json::str(e.clone()))
                .collect(),
        ),
    );
    // Latency from due time charges the generator's lag to the server,
    // so a generator that fell behind invalidates the open-loop figures
    // (reference latencies and the ladder). Server CPU per request is
    // charged to the server's own threads and stays reported.
    let open_loop_valid = late_p99 <= knobs.late_tolerance_us;
    if !open_loop_valid {
        outcome.open_loop_invalid = Some(format!(
            "load generator fell behind: sender lateness p99 {late_p99:.0} µs > tolerance {} µs",
            knobs.late_tolerance_us
        ));
    }
    outcome.note(
        "write_p50_us_per_window",
        Json::Arr(
            writes
                .iter_mut()
                .map(|w| Json::Float(stats::percentile_of(w, 50.0)))
                .collect(),
        ),
    );
    let write_p50 = windowed(&mut writes, 50.0);
    if open_loop_valid {
        outcome.set("write_p50_us", write_p50);
        outcome.set("write_p99_us", windowed(&mut writes, 99.0));
        outcome.set("read_p50_us", windowed(&mut reads, 50.0));
        if !trace {
            outcome.set(
                "read_p99_us",
                stats::percentile_of(&mut all_reads.clone(), 99.0),
            );
        }
    }
    outcome.set("peak_rss_mb", load.hwm_mb);
    outcome.set("request_cpu_us", load.cpu_per_reply_us(REFERENCE));
    if !trace {
        outcome.set("query_cpu_us", load.cpu_per_reply_us(LOCKSTEP_READS));
    }
    if !trace {
        let rungs: Vec<Json> = load
            .rungs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("rate".into(), Json::Float(r.rate)),
                    ("p99_us".into(), Json::Float(r.p99_us)),
                    (
                        "outstanding_at_end".into(),
                        Json::Int(r.outstanding_at_end as i64),
                    ),
                    ("passes".into(), Json::Bool(r.passes(knobs.p99_limit_us))),
                ])
            })
            .collect();
        outcome.note("ladder_rungs", Json::Arr(rungs));
        let max_rate =
            stats::max_sustainable_rate(&load.rungs, knobs.p99_limit_us).unwrap_or(knobs.ref_rate);
        if open_loop_valid {
            outcome.set("max_rate_ops", max_rate);
        }
    }

    // Leave the log a fixed crash shape: a checkpoint, then one pipelined
    // burst of writes, so recovery replays the same amount every run.
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let checkpoint = request(&stream, &mut reader, "{\"op\":\"checkpoint\"}");
    if checkpoint.get("ok").and_then(Json::as_bool) != Some(true) {
        outcome.mismatch(format!("checkpoint failed: {}", checkpoint.to_compact()));
    }
    let tail = write_burst(
        &stream,
        &mut reader,
        &mut gen,
        load.sent.len() as u64,
        knobs.crash_tail_writes,
    );
    outcome.attempted += tail.len() as u64 + 1;
    outcome.failed += tail.iter().filter(|(_, ok)| !ok).count() as u64;

    // Oracle 1: the live server agrees with the acknowledged writes.
    let acked = (0..load.sent.len()).map(|id| (load.sent[id].op, load.ok(id)));
    let expected = model(&views, acked.chain(tail.iter().copied()));
    check_contents(&mut outcome, "before kill", &expected, |name| {
        let reply = request(
            &stream,
            &mut reader,
            &format!("{{\"op\":\"query\",\"relation\":\"{name}\"}}"),
        );
        int_pairs(tuples_of(&reply))
    });
    if trace {
        let stats = request(&stream, &mut reader, "{\"op\":\"stats\"}");
        outcome.layer("store.index_hit_ratio", index_hit_ratio(&stats));
    }
    drop((reader, stream));
    server.kill();

    // Recovery: `Service::open` on copies of the killed data directory.
    let mut open_times = Vec::new();
    let mut open_cpu = Vec::new();
    let mut wal_times = Vec::new();
    for i in 0..3 {
        let copy = dir.join(format!("recover{i}"));
        copy_dir(&data_dir, &copy);
        let t = Instant::now();
        let cpu = machine::thread_cpu();
        let service = Service::open(
            catalogue_engine(&views),
            ServiceConfig::default(),
            durability(&copy),
        )
        .expect("killed data dir recovers");
        open_cpu.push((machine::thread_cpu() - cpu).as_secs_f64() * 1e3);
        open_times.push(t.elapsed().as_secs_f64());
        if i == 0 {
            // Oracle 2: recovery restores exactly the acknowledged state.
            check_contents(&mut outcome, "after recovery", &expected, |name| {
                int_pairs(
                    service
                        .query(name)
                        .unwrap_or_default()
                        .iter()
                        .map(|t| t.values().iter().map(int_of).collect()),
                )
            });
        }
        drop(service);
        if trace {
            let copy = dir.join(format!("recover-wal{i}"));
            copy_dir(&data_dir, &copy);
            let t = Instant::now();
            birds_wal::recover(&copy).expect("wal recovers");
            wal_times.push(t.elapsed().as_secs_f64());
        }
    }
    let recovery_s = stats::median(&open_times);
    outcome.set("recovery_s", recovery_s);
    outcome.set("recovery_cpu_ms", stats::median(&open_cpu));
    outcome.set(
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );

    if trace {
        let wal_s = stats::median(&wal_times);
        outcome.layer("recovery.wal_s", wal_s);
        outcome.layer("recovery.rebuild_s", recovery_s - wal_s);
        outcome.layer("loadgen.late_p99_us", late_p99);
        outcome.layer("server.backlog_max", load.backlog_max as f64);
        wal_layers(&mut outcome, &data_dir, dir);
        // Replay the traced phase's requests at the lower depths.
        let skip = load.sent.iter().filter(|s| s.phase == WARMUP).count();
        let traced_count = load.sent.iter().filter(|s| s.phase == REFERENCE).count();
        let untraced = stats::median(
            &load
                .sent
                .iter()
                .enumerate()
                .filter(|(id, s)| {
                    s.phase == UNTRACED && matches!(s.op, Op::Write { .. }) && load.ok(*id)
                })
                .filter_map(|(id, _)| load.latency_us(id))
                .collect::<Vec<_>>(),
        );
        let mut spans = load.spans;
        replay(seed, &knobs, &views, skip, traced_count, dir, &mut spans);
        outcome.layer(
            "trace.overhead_pct",
            (write_p50 - untraced) / untraced * 100.0,
        );
        serve_layers(&mut outcome, &spans);
        outcome.note("spans", Json::Int(spans.len() as i64));
    }
    outcome
}

fn int_of(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an int, got {other:?}"),
    }
}

fn index_hit_ratio(stats: &Json) -> f64 {
    let (mut hits, mut misses) = (0i64, 0i64);
    for rel in stats.get("relations").and_then(Json::as_arr).unwrap_or(&[]) {
        hits += rel.get("index_hits").and_then(Json::as_i64).unwrap_or(0);
        misses += rel.get("index_misses").and_then(Json::as_i64).unwrap_or(0);
    }
    hits as f64 / (hits + misses).max(1) as f64
}

/// The run's own WAL, read back and re-appended into a scratch writer.
fn wal_layers(outcome: &mut Outcome, data_dir: &Path, dir: &Path) {
    use birds_wal::segment::{read_segment, scan_segments};
    use birds_wal::{FsyncPolicy, SegmentWriter, WalRecord, DEFAULT_SEGMENT_BYTES};
    let segments = scan_segments(data_dir).expect("scan wal");
    let checkpoints = segments.iter().map(|s| s.seg).max().unwrap_or(0);
    let mut records = Vec::new();
    for info in &segments {
        records.extend(read_segment(&info.path).expect("read segment").records);
    }
    let scratch = dir.join("wal-scratch");
    let mut writer =
        SegmentWriter::open(&scratch, 0, DEFAULT_SEGMENT_BYTES).expect("scratch writer");
    let (mut append, mut sync) = (Vec::new(), Vec::new());
    let (mut bytes, mut commits, mut commit_records) = (0usize, 0usize, 0usize);
    for (k, record) in records.iter().enumerate() {
        if let WalRecord::Commit { seqs, .. } = record {
            commits += seqs.len();
            commit_records += 1;
            bytes += record.encode().len();
        }
        let t = Instant::now();
        writer.append(record, FsyncPolicy::Off).expect("append");
        append.push(t.elapsed().as_secs_f64() * 1e6);
        // fdatasync is milliseconds; a couple of hundred samples suffice.
        if k < 200 {
            let t = Instant::now();
            writer.sync().expect("sync");
            sync.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    outcome.note("wal_records_replayed", Json::Int(records.len() as i64));
    outcome.layer("wal.append_us", stats::percentile_of(&mut append, 50.0));
    outcome.layer("wal.sync_us", stats::percentile_of(&mut sync, 50.0));
    outcome.layer("wal.bytes_per_commit", bytes as f64 / commits.max(1) as f64);
    outcome.layer(
        "wal.commits_per_record",
        commits as f64 / commit_records.max(1) as f64,
    );
    outcome.layer("checkpoint.count", checkpoints as f64);
}

/// A durable in-process twin of the server: same tables, views
/// registered through the same live path.
fn twin_service(views: &[ViewData], knobs: &Knobs, dir: &Path) -> Service {
    let service = Service::open(
        base_engine(views, true),
        ServiceConfig::default(),
        durability(dir),
    )
    .expect("twin data dir opens");
    for v in 0..knobs.views {
        service
            .register_view(strategy(v), StrategyMode::Incremental)
            .expect("twin view registers");
    }
    service
}

/// Replay the seeded request sequence at each depth below the wire,
/// each on a fresh twin: the first `skip` requests (the warm-up) untimed,
/// so every twin reaches the state the server was in, then the `count`
/// traced requests timed.
fn replay(
    seed: u64,
    knobs: &Knobs,
    views: &Arc<Vec<ViewData>>,
    skip: usize,
    count: usize,
    dir: &Path,
    spans: &mut Spans,
) {
    let ops = || {
        let mut gen = OpGen::new(seed, knobs, Arc::clone(views));
        (0..skip + count).map(move |k| {
            let op = gen.next();
            (k, k >= skip, op, gen.sql(op))
        })
    };
    let mut untimed = Spans::default();
    // Protocol depth.
    let service = twin_service(views, knobs, &dir.join("twin-protocol"));
    let mut client = LocalClient::connect(&service);
    for (id, timed, op, sql) in ops() {
        let sp = if timed { &mut *spans } else { &mut untimed };
        let (name, line) = match (op, sql) {
            (Op::Read { view }, _) => (
                "query",
                format!("{{\"id\":{id},\"op\":\"query\",\"relation\":\"lux{view}\"}}"),
            ),
            (_, Some(sql)) => (
                "execute",
                format!("{{\"id\":{id},\"op\":\"execute\",\"sql\":\"{sql}\"}}"),
            ),
            _ => unreachable!("writes carry SQL"),
        };
        let reply = sp.time(id as u64, Depth::Protocol, name, || {
            client.request_line(&line)
        });
        let ok = Json::parse(&reply)
            .ok()
            .and_then(|doc| doc.get("ok").and_then(Json::as_bool));
        assert_eq!(ok, Some(true), "twin request failed: {reply}");
    }
    drop((client, service));
    // Service depth; the checkpoint cost is measured on this twin.
    let service = twin_service(views, knobs, &dir.join("twin-service"));
    let mut session = service.session();
    for (id, timed, op, sql) in ops() {
        let sp = if timed { &mut *spans } else { &mut untimed };
        match (op, sql) {
            (Op::Read { view }, _) => {
                let name = format!("lux{view}");
                sp.time(id as u64, Depth::Service, "query", || service.query(&name))
                    .expect("query");
            }
            (_, Some(sql)) => {
                sp.time(id as u64, Depth::Service, "execute", || {
                    session.execute(&sql)
                })
                .expect("execute");
            }
            _ => unreachable!("writes carry SQL"),
        }
    }
    for id in 0..5 {
        spans
            .time(id, Depth::Service, "checkpoint", || service.checkpoint())
            .expect("checkpoint");
    }
    drop((session, service));
    // Engine depth.
    let registered = || {
        let mut engine = base_engine(views, true);
        for v in 0..knobs.views {
            engine
                .register_view(strategy(v), StrategyMode::Incremental)
                .expect("engine view registers");
        }
        engine
    };
    let mut engine = registered();
    let mut deltas = Vec::with_capacity(skip + count);
    for (id, timed, op, sql) in ops() {
        let (Op::Write { view, .. }, Some(sql)) = (op, sql) else {
            continue;
        };
        let sp = if timed { &mut *spans } else { &mut untimed };
        let (id, name) = (id as u64, format!("lux{view}"));
        let stmts = sp
            .time(id, Depth::Engine, "parse", || birds_sql::parse_script(&sql))
            .expect("parse");
        let delta = sp
            .time(id, Depth::Engine, "derive", || {
                engine.derive_delta(&name, &stmts)
            })
            .expect("derive");
        deltas.push((id, timed, view, delta.clone()));
        sp.time(id, Depth::Engine, "apply", || {
            engine.apply_delta(&name, delta)
        })
        .expect("apply");
    }
    // Eval depth: ∂put and constraints on a database twin, fed the
    // deltas the engine derived.
    let mut db: Database = registered().database().clone();
    let evals: Vec<EvalView> = (0..knobs.views)
        .map(|v| EvalView::new(&strategy(v)))
        .collect();
    for (id, timed, view, delta) in deltas {
        let sp = if timed { &mut *spans } else { &mut untimed };
        evals[view].apply(&mut db, &delta, sp, id, true);
    }
}

fn serve_layers(outcome: &mut Outcome, spans: &Spans) {
    let at = |depth, name| spans.p50_us(depth, name);
    let wire = at(Depth::Wire, "execute");
    let proto_exec = at(Depth::Protocol, "execute");
    let proto_query = at(Depth::Protocol, "query");
    let svc_exec = at(Depth::Service, "execute");
    let svc_query = at(Depth::Service, "query");
    let (parse, derive, apply) = (
        at(Depth::Engine, "parse"),
        at(Depth::Engine, "derive"),
        at(Depth::Engine, "apply"),
    );
    outcome.layer("server.self_us", wire - proto_exec);
    outcome.layer("protocol.execute_us", proto_exec - svc_exec);
    outcome.layer("protocol.query_us", proto_query - svc_query);
    outcome.layer("service.execute_us", svc_exec - (parse + derive + apply));
    outcome.layer("service.query_us", svc_query);
    outcome.layer("engine.parse_us", parse);
    outcome.layer("engine.derive_us", derive);
    outcome.layer("engine.apply_us", apply);
    outcome.layer("eval.dput_us", at(Depth::Eval, "dput"));
    outcome.layer("eval.constraints_us", at(Depth::Eval, "constraints"));
    outcome.layer("checkpoint.ms", at(Depth::Service, "checkpoint") / 1e3);
}
