//! Differential correctness soak: replays `quit-testkit` workloads against
//! the `BTreeMap` oracle and all three index families until the case budget
//! runs out, printing throughput per grid point.
//!
//! ```text
//! soak [--cases N] [--ops N] [--seed S]
//! ```
//!
//! `--cases` defaults to `QUIT_FUZZ_CASES` (else 20). Every case sweeps the
//! K×L sortedness grid at two tree geometries plus the SIMD search kind;
//! any divergence aborts with the offending spec so it can be replayed
//! verbatim. CI runs a short soak via the fuzz-smoke job; leave this
//! running with a big `--cases` for an overnight hunt.

use quit_core::SearchKind;
use quit_testkit::{fuzz_cases, replay, OpMix, OracleConfig, WorkloadSpec};
use std::time::Instant;

const KL_GRID: [(f64, f64); 6] = [
    (0.0, 1.0),
    (0.01, 1.0),
    (0.05, 0.5),
    (0.2, 0.25),
    (0.5, 1.0),
    (1.0, 0.1),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let take = |flag: &str, default: u64| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: soak [--cases N] [--ops N] [--seed S]");
        return;
    }
    let cases = take("--cases", fuzz_cases(20) as u64);
    let ops_per_workload = take("--ops", 2_000) as usize;
    let base_seed = take("--seed", 0x50AC);

    let geometries = [
        OracleConfig::default(),
        OracleConfig {
            leaf_capacity: 4,
            buffer_capacity: 8,
            check_every: 64,
            ..OracleConfig::default()
        },
        OracleConfig::default().with_search_kind(SearchKind::Simd),
    ];
    let started = Instant::now();
    let mut total_ops = 0usize;
    let mut total_checks = 0usize;
    for case in 0..cases {
        for (g, (k, l)) in KL_GRID.iter().enumerate() {
            let spec = WorkloadSpec {
                ops: ops_per_workload,
                k_fraction: *k,
                l_fraction: *l,
                seed: base_seed ^ (case << 8) ^ g as u64,
                mix: if (case as usize + g).is_multiple_of(2) {
                    OpMix::mixed()
                } else {
                    OpMix::ingest_heavy()
                },
                dup_fraction: 0.08,
            };
            let ops = spec.generate();
            for cfg in &geometries {
                match replay(&ops, cfg) {
                    Ok(report) => {
                        total_ops += report.ops;
                        total_checks += report.structural_checks;
                    }
                    Err(d) => {
                        eprintln!("DIVERGENCE: {d}");
                        eprintln!("spec: {spec:?}");
                        eprintln!("geometry: {cfg:?}");
                        std::process::exit(1);
                    }
                }
            }
        }
        println!(
            "case {:>4}/{cases}: {total_ops} ops, {total_checks} structural checks, {:.1}s",
            case + 1,
            started.elapsed().as_secs_f64()
        );
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "soak clean: {total_ops} ops per family in {secs:.1}s ({:.0} ops/s/family)",
        total_ops as f64 / secs.max(1e-9)
    );
}
