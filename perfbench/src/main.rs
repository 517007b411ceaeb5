//! One benchmark for the QuIT stack. See `README.md` next to this crate
//! for the workloads, the metrics and what each layer should move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics;
//! with `--trace 1` it replays the workload's inputs layer by layer and
//! prints per-layer metrics, writing its spans to `<dir>/trace-<name>.json`.
//! The last line of standard output is the JSON result; a wrong answer
//! exits non-zero without one.

mod embedded;
mod host;
mod inputs;
mod ledger;
mod paged;
mod quantile;
mod report;
mod service;
mod trace;

use report::{Fail, Report};
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IndexNearsorted,
    ServiceIngest,
    ServiceMixed,
    PagedLookup,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IndexNearsorted,
        Workload::ServiceIngest,
        Workload::ServiceMixed,
        Workload::PagedLookup,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IndexNearsorted => "index_nearsorted",
            Workload::ServiceIngest => "service_ingest",
            Workload::ServiceMixed => "service_mixed",
            Workload::PagedLookup => "paged_lookup",
        }
    }
}

/// Everything a run needs to know.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for storage directories and the span file.
    pub out: PathBuf,
    /// Input-size multiplier (1.0 for real runs; the tests run smaller).
    pub scale: f64,
    /// Rounds run even when `seconds` is already used up.
    pub min_rounds: usize,
    /// Corrupts the expected answer of the first get (self-test only).
    pub plant_wrong_get: bool,
}

impl Config {
    fn from_args(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            workload: Workload::IndexNearsorted,
            seed: 0,
            seconds: 0.0,
            trace: false,
            out: PathBuf::from("perfbench/out"),
            scale: 1.0,
            min_rounds: 3,
            plant_wrong_get: false,
        };
        let mut seen = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => {
                    cfg.workload = *Workload::ALL
                        .iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("one of the four workload names"))?
                }
                "--seed" => cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    cfg.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                        return Err(bad("a number of seconds in (0, 600]"));
                    }
                }
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--out" => cfg.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
            seen.push(flag.as_str());
        }
        for required in ["--workload", "--seed", "--seconds", "--trace"] {
            if !seen.contains(&required) {
                return Err(format!("missing {required}"));
            }
        }
        Ok(cfg)
    }

    /// `n` scaled to the run's input size, never below `floor`.
    pub fn size(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(floor)
    }

    /// The answer the `i`-th get of a phase must return.
    pub fn expected_get(&self, i: usize, value: u64) -> u64 {
        if self.plant_wrong_get && i == 0 {
            value + 1
        } else {
            value
        }
    }
}

/// A storage directory that is removed again when the run ends.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out: &Path, name: &str) -> std::io::Result<Scratch> {
        let dir = out.join(format!("{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the configured workload, end to end or traced.
pub fn run(cfg: &Config) -> Result<Report, Fail> {
    std::fs::create_dir_all(&cfg.out)?;
    let cpu = host::cpu_times();
    let mut report = if cfg.trace {
        ledger::run(cfg)?
    } else {
        match cfg.workload {
            Workload::IndexNearsorted => embedded::run(cfg)?,
            Workload::ServiceIngest => service::run_ingest(cfg)?,
            Workload::ServiceMixed => service::run_mixed(cfg)?,
            Workload::PagedLookup => paged::run(cfg)?,
        }
    };
    report.diag(host::noise_line(cpu));
    Ok(report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::from_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(report) => report.print(),
        Err(fail) => {
            eprintln!("perfbench: {} failed: {fail}", cfg.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn small(workload: Workload, trace: bool, plant: bool) -> Config {
        Config {
            workload,
            seed: 7,
            seconds: 0.01,
            trace,
            out: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{}-{trace}-{plant}", workload.name())),
            scale: 0.01,
            min_rounds: 1,
            plant_wrong_get: plant,
        }
    }

    fn names(table: &[(&str, &str)]) -> BTreeSet<String> {
        table.iter().map(|(n, _)| n.to_string()).collect()
    }

    #[test]
    fn every_workload_prints_every_metric_of_its_mode() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let report = run(&small(w, trace, false))
                    .unwrap_or_else(|f| panic!("{} trace={trace}: {f}", w.name()));
                let got: BTreeSet<String> = report.names().map(str::to_string).collect();
                let want = names(if trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                });
                assert_eq!(got, want, "{} trace={trace}", w.name());
                assert!(report.attempted > 0);
                assert_eq!(report.failed, 0, "failed_frac is 0 at HEAD");
                if !trace {
                    for (n, _) in report::END_TO_END {
                        assert!(report.get(n) > 0.0, "{} {n} is not positive", w.name());
                    }
                }
            }
        }
    }

    #[test]
    fn a_planted_wrong_get_answer_fails_the_run() {
        for w in Workload::ALL {
            for trace in [false, true] {
                match run(&small(w, trace, true)) {
                    Err(f) => assert!(f.wrong_answer, "{}: {f}", w.name()),
                    Ok(_) => panic!("{} trace={trace} accepted a wrong get", w.name()),
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = Config::from_args(&args(
            "--workload paged_lookup --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::PagedLookup, 3, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload paged_lookup --seed x --seconds 10 --trace 0",
            "--workload paged_lookup --seed 3 --seconds 0 --trace 0",
            "--workload paged_lookup --seed 3 --seconds 10 --trace 2",
            "--workload paged_lookup --seconds 10 --trace 0",
            "--workload paged_lookup --seed 3 --seconds 10 --trace",
        ] {
            assert!(Config::from_args(&args(bad)).is_err(), "accepted: {bad}");
        }
    }
}
