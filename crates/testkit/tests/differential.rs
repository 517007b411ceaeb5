//! The differential fuzz suite CI runs: fixed-seed soaks replaying ≥ 50k
//! mixed ops per index family against the `BTreeMap` model, plus a
//! proptest-driven run that exercises the shrinking/persistence path on
//! freshly sampled workloads.
//!
//! Scale it up locally with `QUIT_FUZZ_CASES` (each case adds one
//! seed × knob grid sweep, ~5.5k ops).

// The injected split/search bugs (mutation smoke checks) intentionally
// break these properties; cargo's feature unification applies them to the
// whole test run, so the clean differential suite steps aside. See
// tests/mutation_smoke.rs and tests/search_mutation_smoke.rs.
#![cfg(not(any(
    feature = "inject-split-bug",
    feature = "inject-search-bug",
    feature = "inject-pin-bug"
)))]

use proptest::prelude::*;
use quit_testkit::{
    fuzz_cases, replay, OpMix, OracleBackend, OracleConfig, WorkloadSpec, WorkloadStrategy,
};

/// Knob grid: (K fraction, L fraction) pairs covering sorted, near-sorted,
/// locally scrambled, and fully random ingest — the BoDS regimes of §5.
const KL_GRID: [(f64, f64); 5] = [(0.0, 1.0), (0.05, 1.0), (0.2, 0.25), (0.5, 1.0), (1.0, 0.1)];

/// ≥ 50k mixed ops per family at fixed seeds, across the K/L grid, two op
/// mixes, two tree geometries, and both search kinds.
#[test]
fn fixed_seed_soak() {
    let cases = fuzz_cases(10);
    let geometries = [
        OracleConfig::default(),
        OracleConfig {
            leaf_capacity: 4,
            buffer_capacity: 8,
            check_every: 128,
            ..OracleConfig::default()
        },
    ];
    let mut total_ops = 0usize;
    for case in 0..cases {
        for (g, (k, l)) in KL_GRID.iter().enumerate() {
            let spec = WorkloadSpec {
                ops: 560,
                k_fraction: *k,
                l_fraction: *l,
                seed: 0xD1FF_0000 ^ ((case as u64) << 8) ^ g as u64,
                mix: if (case + g).is_multiple_of(2) {
                    OpMix::mixed()
                } else {
                    OpMix::ingest_heavy()
                },
                dup_fraction: 0.08,
            };
            let ops = spec.generate();
            for cfg in geometries.iter().flat_map(OracleConfig::search_sweep) {
                let report = replay(&ops, &cfg).unwrap_or_else(|d| {
                    panic!("case {case} K={k} L={l} search {:?}: {d}", cfg.search_kind)
                });
                total_ops += report.ops;
            }
        }
    }
    // 10 cases × 5 grid points × 2 geometries × 2 search kinds × 560 ops
    // = 112k per family.
    assert!(
        total_ops >= 50_000 || cases < 10,
        "soak must replay ≥ 50k ops per family, got {total_ops}"
    );
    eprintln!("differential soak: {total_ops} ops per family, no divergence");
}

/// The same fixed-seed soak on the **paged** backend, with the buffer
/// pool capped at roughly 1/8 of the working set so nearly every op
/// contends with faults and evictions. The oracle demands *exact* model
/// equality op-by-op, so a page served stale (a pin dropped early, a torn
/// eviction, a miscoded node) surfaces as a divergence, not a perf blip.
#[test]
fn fixed_seed_soak_paged_under_pressure() {
    let cases = fuzz_cases(10);
    // ~560 ops at leaf capacity 8 settle around 60–120 live nodes; an
    // 8–16 page pool keeps residency near 1/8 of that working set.
    let geometries = [
        OracleConfig::default().with_backend(OracleBackend::Paged { pool_pages: 16 }),
        OracleConfig {
            leaf_capacity: 4,
            buffer_capacity: 8,
            check_every: 128,
            ..OracleConfig::default()
        }
        .with_backend(OracleBackend::Paged { pool_pages: 8 }),
    ];
    let mut total_ops = 0usize;
    for case in 0..cases {
        for (g, (k, l)) in KL_GRID.iter().enumerate() {
            let spec = WorkloadSpec {
                ops: 560,
                k_fraction: *k,
                l_fraction: *l,
                seed: 0x9A6E_D000 ^ ((case as u64) << 8) ^ g as u64,
                mix: if (case + g).is_multiple_of(2) {
                    OpMix::mixed()
                } else {
                    OpMix::ingest_heavy()
                },
                dup_fraction: 0.08,
            };
            let ops = spec.generate();
            for cfg in geometries.iter().flat_map(OracleConfig::search_sweep) {
                let report = replay(&ops, &cfg).unwrap_or_else(|d| {
                    panic!("paged case {case} K={k} L={l} {:?}: {d}", cfg.backend)
                });
                total_ops += report.ops;
            }
        }
    }
    assert!(
        total_ops >= 50_000 || cases < 10,
        "paged soak must replay ≥ 50k ops per family, got {total_ops}"
    );
    eprintln!("paged differential soak: {total_ops} ops per family, no divergence");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Freshly sampled workloads (random length, K/L knobs, mix) replay
    /// clean through the full oracle, under both search kinds. On failure
    /// this shrinks to a minimal op list and persists the seed next to
    /// this file.
    #[test]
    fn sampled_workloads_replay_clean(ops in WorkloadStrategy::mixed(400)) {
        for cfg in OracleConfig::default().search_sweep() {
            let report = replay(&ops, &cfg)
                .unwrap_or_else(|d| panic!("search {:?}: {d}", cfg.search_kind));
            assert_eq!(report.ops, ops.len());
        }
    }

    /// Same, at the smallest legal geometry where structural edge cases
    /// (splits, merges, root collapse, buffer flushes) fire constantly.
    #[test]
    fn sampled_workloads_replay_clean_tiny_nodes(ops in WorkloadStrategy::ingest_heavy(250)) {
        let tiny = OracleConfig {
            leaf_capacity: 4,
            buffer_capacity: 8,
            check_every: 32,
            ..OracleConfig::default()
        };
        for cfg in tiny.search_sweep() {
            replay(&ops, &cfg)
                .unwrap_or_else(|d| panic!("search {:?}: {d}", cfg.search_kind));
        }
    }
}
