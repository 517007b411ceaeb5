//! Metric names, per-round collection and the result line.
//!
//! The two tables below are the benchmark's whole vocabulary: a metric
//! whose name is not listed cannot be recorded, and `BENCHMARK.json` lists
//! the same names (checked by the tests at the bottom).

use crate::host;
use crate::quantile::{highest_supported, mean, Summary};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("insert_ops_per_s", "1/s"),
    ("insert_p50_us", "us"),
    ("insert_p90_us", "us"),
    ("get_ops_per_s", "1/s"),
    ("get_p50_us", "us"),
    ("get_p90_us", "us"),
    ("range_keys_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("recovery_s", "s"),
    ("disk_bytes_per_entry", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.insert_ns", "ns"),
    ("core.fast_insert_frac", "frac"),
    ("core.leaf_splits_per_kop", "count"),
    ("core.variable_splits", "count"),
    ("core.redistributions", "count"),
    ("core.fp_resets", "count"),
    ("core.get_ns", "ns"),
    ("core.node_accesses_per_get", "count"),
    ("core.range_ns_per_key", "ns"),
    ("core.leaf_accesses_per_range", "count"),
    ("core.leaf_occupancy", "frac"),
    ("core.index_bytes_per_entry", "B"),
    ("pool.hit_rate", "frac"),
    ("pool.faults_per_get", "count"),
    ("pool.evictions_per_kop", "count"),
    ("paged.insert_ns", "ns"),
    ("paged.get_ns", "ns"),
    ("paged.durable_insert_ns", "ns"),
    ("paged.image_bytes_per_entry", "B"),
    ("concurrent.insert_ns", "ns"),
    ("concurrent.self_insert_ns", "ns"),
    ("concurrent.fast_insert_frac", "frac"),
    ("concurrent.olc_restarts", "count"),
    ("concurrent.get_ns", "ns"),
    ("durable.mem.insert_ns", "ns"),
    ("durable.fs.insert_ns", "ns"),
    ("durable.self_insert_ns", "ns"),
    ("wal.fsync_ns_per_op", "ns"),
    ("wal.records_per_fsync", "count"),
    ("wal.bytes_per_entry", "B"),
    ("durable.checkpoint_s", "s"),
    ("recovery.tail_records", "count"),
    ("recovery.snapshot_entries", "count"),
    ("txn.insert_ns", "ns"),
    ("txn.batch_ns_per_key", "ns"),
    ("service.ns_per_insert", "ns"),
    ("service.self_ns_per_insert", "ns"),
    ("service.fastpath_rate", "frac"),
    ("service.records_per_fsync", "count"),
    ("client.send_ns_per_op", "ns"),
    ("client.flush_ns_per_burst", "ns"),
    ("client.wait_ns_per_op", "ns"),
    ("trace.overhead_frac", "frac"),
];

/// Why a run failed. A wrong answer is a defect of the program under
/// test; anything else (an I/O error, a refused configuration) is not.
#[derive(Debug)]
pub struct Fail {
    pub wrong_answer: bool,
    pub msg: String,
}

impl Fail {
    pub fn wrong(msg: impl Into<String>) -> Fail {
        Fail {
            wrong_answer: true,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Fail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.wrong_answer {
            "wrong answer"
        } else {
            "error"
        };
        write!(f, "{kind}: {}", self.msg)
    }
}

impl From<quit_core::Error> for Fail {
    fn from(e: quit_core::Error) -> Fail {
        Fail {
            wrong_answer: false,
            msg: e.to_string(),
        }
    }
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Fail {
        Fail {
            wrong_answer: false,
            msg: e.to_string(),
        }
    }
}

/// Fails the run with a wrong answer unless `cond` holds.
macro_rules! check {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err($crate::report::Fail::wrong(format!($($msg)+)));
        }
    };
}
pub(crate) use check;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"))
        .1
}

/// The outcome of one run: metric values, operation counts and
/// diagnostic lines printed ahead of the result line.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    diags: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        unit_of(name);
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name.to_string(), value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    pub fn diag(&mut self, line: impl Into<String>) {
        self.diags.push(line.into());
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(n)))
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print(&self) {
        for d in &self.diags {
            println!("# {d}");
        }
        println!("{}", self.result_line());
    }
}

pub fn ns_per(d: Duration, ops: usize) -> f64 {
    d.as_nanos() as f64 / ops.max(1) as f64
}

/// One latency-timed phase: `ops` completed in `secs`, with one latency
/// sample (µs) per operation or per group of operations.
pub struct Phase {
    pub ops: usize,
    pub secs: f64,
    pub lat_us: Vec<f64>,
}

/// One embedded operation takes ~0.1-0.5 µs, too short to time alone:
/// its latency samples are the mean per-op time of this many consecutive
/// operations.
const GROUP: usize = 512;

/// Times `op(i)` for `i < n` in groups of `GROUP`, one sample per group.
pub fn grouped(n: usize, mut op: impl FnMut(usize) -> Result<(), Fail>) -> Result<Phase, Fail> {
    let mut lat_us = Vec::with_capacity(n / GROUP + 1);
    let t0 = Instant::now();
    for start in (0..n).step_by(GROUP) {
        let end = (start + GROUP).min(n);
        let g = Instant::now();
        for i in start..end {
            op(i)?;
        }
        lat_us.push(ns_per(g.elapsed(), end - start) / 1e3);
    }
    Ok(Phase {
        ops: n,
        secs: t0.elapsed().as_secs_f64(),
        lat_us,
    })
}

/// A round during which the hypervisor stole more than this share of the
/// host's CPU time is set aside when at least `MIN_QUIET` rounds were
/// quieter: on the 2-core machine the bounds were set on, served and
/// fsync-bound throughput fell ~15% at 1-3% steal and halved at 25%.
const QUIET_STEAL: f64 = 0.01;
const MIN_QUIET: usize = 3;

/// Repeats whole rounds of a workload until the run's time is used, and
/// reports each metric as the mean over its quiet rounds. The host's memory
/// speed drifts between a slow and a fast state that lasts seconds; a
/// median over rounds jumps between the two states as their share shifts
/// from run to run, while the mean moves only in proportion.
pub struct Rounds {
    start: Instant,
    seconds: f64,
    min_rounds: usize,
    rounds: Vec<BTreeMap<&'static str, f64>>,
    /// Latency samples per operation type, pooled over rounds (diagnostics).
    pooled: BTreeMap<&'static str, Vec<f64>>,
    /// Process RSS high-water mark when the first round ended.
    peak_rss_mib: f64,
    /// Host CPU counters when the current round started, and the steal
    /// share of each finished round.
    round_cpu: Option<host::CpuTimes>,
    steal: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Rounds {
    pub fn new(seconds: f64, min_rounds: usize) -> Rounds {
        Rounds {
            start: Instant::now(),
            seconds,
            min_rounds,
            rounds: Vec::new(),
            pooled: BTreeMap::new(),
            peak_rss_mib: 0.0,
            round_cpu: None,
            steal: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Starts another round if the run still has time (or too few rounds).
    pub fn next(&mut self) -> bool {
        if self.rounds.len() == 1 {
            // Later rounds add only allocator churn to the high-water
            // mark, so the first round's peak is the workload's.
            self.peak_rss_mib = host::peak_rss_mib();
        }
        if !self.rounds.is_empty() {
            self.steal
                .push(host::steal_since(self.round_cpu).unwrap_or(0.0));
        }
        let more = self.rounds.len() < self.min_rounds
            || self.start.elapsed().as_secs_f64() < self.seconds;
        if more {
            self.rounds.push(BTreeMap::new());
            self.round_cpu = host::cpu_times();
        }
        more
    }

    pub fn index(&self) -> usize {
        self.rounds.len() - 1
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.rounds
            .last_mut()
            .expect("put outside a round")
            .insert(name, value);
    }

    /// Records `{op}_ops_per_s`, `{op}_p50_us` and `{op}_p90_us` for `op`
    /// in `insert`/`get`, from the phase's own samples.
    pub fn latency(&mut self, op: &'static str, phase: Phase) {
        let (tput, p50, p90) = match op {
            "insert" => ("insert_ops_per_s", "insert_p50_us", "insert_p90_us"),
            "get" => ("get_ops_per_s", "get_p50_us", "get_p90_us"),
            _ => panic!("no latency metrics for {op}"),
        };
        let mut lat = phase.lat_us;
        let s = Summary::of(&mut lat);
        self.put(tput, phase.ops as f64 / phase.secs);
        self.put(p50, s.p50);
        self.put(p90, s.p90);
        self.pooled.entry(op).or_default().extend(lat);
    }

    pub fn finish(self, report: &mut Report) {
        let n = self.rounds.len();
        report.set("peak_rss_mib", self.peak_rss_mib);
        let used = quiet_rounds(&self.steal);
        let shown: Vec<String> = self.steal.iter().map(|v| format!("{v:.4}")).collect();
        report.diag(format!("rounds host_steal_share: {}", shown.join(" ")));
        let names: Vec<&str> = self.rounds[0].keys().copied().collect();
        for name in names {
            let vals: Vec<f64> = self.rounds.iter().map(|r| r[name]).collect();
            let kept: Vec<f64> = used.iter().map(|&i| vals[i]).collect();
            report.set(name, mean(&kept));
            let shown: Vec<String> = vals.iter().map(|v| format!("{v:.6}")).collect();
            report.diag(format!("rounds {name}: {}", shown.join(" ")));
        }
        report.diag(format!(
            "{n} rounds in {:.1} s; every metric is the mean over rounds {used:?} \
             (host steal <= {QUIET_STEAL}, or the quietest third)",
            self.start.elapsed().as_secs_f64()
        ));
        for (op, mut lat) in self.pooled {
            let s = Summary::of(&mut lat);
            report.diag(format!(
                "{op} latency (us, pooled over rounds): n={} p50={:.3} p90={:.3} p99={:.3} \
                 max={:.3}; highest percentile with >=10 samples beyond: p{:.4}",
                s.n,
                s.p50,
                s.p90,
                s.p99,
                s.max,
                100.0 * highest_supported(s.n)
            ));
        }
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.diag(format!(
            "failed_frac={} ({} of {} operations refused or errored)",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.failed,
            report.attempted
        ));
    }
}

/// Indices of the rounds a run reports: those with host steal at most
/// `QUIET_STEAL` if there are `MIN_QUIET` of them, else the quietest third
/// (at least `MIN_QUIET`, at most all).
fn quiet_rounds(steal: &[f64]) -> Vec<usize> {
    let quiet: Vec<usize> = (0..steal.len())
        .filter(|&i| steal[i] <= QUIET_STEAL)
        .collect();
    if quiet.len() >= MIN_QUIET {
        return quiet;
    }
    let mut by_steal: Vec<usize> = (0..steal.len()).collect();
    by_steal.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    by_steal.truncate((steal.len() / 3).max(MIN_QUIET));
    by_steal.sort_unstable();
    by_steal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_rounds_are_set_aside_only_when_enough_quiet_ones_remain() {
        assert_eq!(quiet_rounds(&[0.0, 0.2, 0.005, 0.01, 0.3]), vec![0, 2, 3]);
        // Two quiet rounds are too few: the quietest third, at least three.
        assert_eq!(quiet_rounds(&[0.2, 0.0, 0.1, 0.3, 0.005]), vec![1, 2, 4]);
        let steal = [
            0.05, 0.02, 0.3, 0.04, 0.1, 0.2, 0.03, 0.06, 0.07, 0.08, 0.09, 0.5,
        ];
        assert_eq!(quiet_rounds(&steal), vec![0, 1, 3, 6]);
        assert_eq!(quiet_rounds(&[0.4]), vec![0]);
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// `"name": "…"` values in `section`, in order.
    fn names_in(section: &str) -> Vec<String> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = benchmark_json();
        let e2e_at = json.find("\"end_to_end\"").expect("end_to_end section");
        let layer_at = json.find("\"per_layer\"").expect("per_layer section");
        assert!(e2e_at < layer_at, "end_to_end precedes per_layer");
        let e2e = names_in(&json[e2e_at..layer_at]);
        let layer = names_in(&json[layer_at..]);
        let ours = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(e2e, ours(END_TO_END));
        assert_eq!(layer, ours(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        r.attempted = 3;
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not in the metric tables")]
    fn unknown_metric_is_refused() {
        Report::default().set("latency_ms", 1.0);
    }
}
