//! The machine and toolchain a run measured on, recorded with every
//! result so that numbers from different hosts are never compared
//! blindly.

use birds_service::Json;
use std::path::Path;
use std::process::Command;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `nproc`, kernel release, `rustc -V` and the filesystem holding `dir`.
pub fn fingerprint(dir: &Path) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::Int(nproc() as i64)),
        ("kernel".into(), Json::str(kernel)),
        ("rustc".into(), Json::str(rustc)),
        ("data_dir_fs".into(), Json::str(filesystem_of(dir))),
    ])
}

/// Type of the filesystem mounted at the longest mount point that is a
/// prefix of `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point).then(|| (point.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Clock ticks the host stole from this machine's CPUs, and all ticks,
/// from the `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A `VmHWM`-style field of `/proc/<pid>/status`, in MiB.
pub fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run. Time the host steals from the
/// virtual CPU is not charged to it, so CPU-time figures stay comparable
/// between runs on a busy host where wall-clock figures do not.
pub fn thread_cpu() -> std::time::Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU seconds the threads of process `pid` have run, summed from each
/// thread's `/proc/<pid>/task/<tid>/schedstat` (nanosecond run time;
/// steal time is not charged to it).
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread may exit between listing and reading: skip it.
        if let Ok(stat) = std::fs::read_to_string(path) {
            ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(ns as f64 / 1e9)
}
