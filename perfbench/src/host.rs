//! What the host did during a run: CPU steal and idle share from
//! `/proc/stat`, the process's peak RSS, and bytes on disk.

use std::path::Path;

/// Aggregate CPU time counters (in clock ticks) from `/proc/stat`.
#[derive(Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    idle: u64,
    steal: u64,
}

pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user time, so only the first 8 add up.
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.len() == 8).then(|| CpuTimes {
        total: f.iter().sum(),
        idle: f[3] + f[4],
        steal: f[7],
    })
}

/// The host's steal share of CPU time since `start`, if known.
pub fn steal_since(start: Option<CpuTimes>) -> Option<f64> {
    match (start, cpu_times()) {
        (Some(a), Some(b)) if b.total > a.total => {
            Some((b.steal - a.steal) as f64 / (b.total - a.total) as f64)
        }
        _ => None,
    }
}

/// One diagnostic line: the host's steal and idle share since `start`.
/// A noisy-neighbour run shows up here rather than as a regression.
pub fn noise_line(start: Option<CpuTimes>) -> String {
    match (start, cpu_times()) {
        (Some(a), Some(b)) if b.total > a.total => {
            let d = (b.total - a.total) as f64;
            format!(
                "host: steal_share={:.4} idle_share={:.4} over {} cpu ticks, {} cpus",
                (b.steal - a.steal) as f64 / d,
                (b.idle - a.idle) as f64 / d,
                b.total - a.total,
                std::thread::available_parallelism().map_or(0, |n| n.get())
            )
        }
        _ => "host: /proc/stat unavailable".to_string(),
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
