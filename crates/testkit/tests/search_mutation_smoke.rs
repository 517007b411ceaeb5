//! Mutation smoke check for the data-parallel search: the harness must
//! catch the off-by-one we planted.
//!
//! Built with `--features inject-search-bug`, `quit-core` drops the final
//! single-element step of `branchless_partition_point_by`, so every
//! branchless (and SIMD-fallback) intra-node search lands one slot short
//! of the true partition point. This suite asserts the search-swept
//! differential oracle (1) detects that under the branchless config,
//! (2) shrinks the trigger to a tiny counterexample, and (3) the
//! minimal counterexample reproduces standalone.
//!
//! CI runs this as a separate cargo invocation (feature unification would
//! otherwise poison the clean differential suite, which is `cfg`'d off
//! under this feature).

#![cfg(feature = "inject-search-bug")]

use proptest::test_runner::{Config, Runner};
use quit_core::SearchKind;
use quit_testkit::{replay_guarded, Op, OracleConfig, WorkloadStrategy};

/// The branchless member of the search sweep — exactly the configuration
/// every suite runs alongside the binary paper path, so a search bug that
/// only this config exposes proves the sweep pulls its weight.
fn oracle_config() -> OracleConfig {
    OracleConfig {
        leaf_capacity: 4,
        buffer_capacity: 8,
        check_every: 4,
        ..OracleConfig::default()
    }
    .with_search_kind(SearchKind::Branchless)
}

fn run_harness(label: &str, cases: u32) -> proptest::test_runner::Failure<(Vec<Op>,)> {
    let strategy = (WorkloadStrategy::ingest_heavy(160),);
    Runner::new(label, Config::with_cases(cases))
        .run(&strategy, |(ops,)| {
            replay_guarded(ops, &oracle_config())
                .map(|_| ())
                .map_err(|d| d.to_string())
        })
        .expect_err("the injected branchless-search off-by-one must be caught")
}

#[test]
fn injected_search_bug_is_caught_and_shrunk() {
    let failure = run_harness("search_mutation_smoke", 64);
    let minimal = &failure.minimal.0;
    assert!(
        minimal.len() <= 25,
        "counterexample must shrink to ≤ 25 ops, got {}: {minimal:?}",
        minimal.len()
    );
    assert!(
        replay_guarded(minimal, &oracle_config()).is_err(),
        "minimal counterexample must fail on its own: {minimal:?}"
    );
}

/// The planted bug is localized to the branchless ladder: the binary
/// search keeps implementing the exact boundary contract, and the
/// branchless flavour visibly violates it — i.e. the smoke check above
/// fails for the right reason, not through some harness artifact.
#[test]
fn planted_bug_lives_only_in_the_branchless_ladder() {
    let keys: Vec<u64> = vec![1, 3, 3, 7, 9];
    let mut binary_diverged = false;
    let mut branchless_diverged = false;
    for probe in 0..11u64 {
        let want = keys.partition_point(|k| *k <= probe);
        if quit_core::upper_bound(SearchKind::Binary, &keys, probe) != want {
            binary_diverged = true;
        }
        if quit_core::upper_bound(SearchKind::Branchless, &keys, probe) != want {
            branchless_diverged = true;
        }
    }
    assert!(!binary_diverged, "binary search must stay correct");
    assert!(
        branchless_diverged,
        "the injected off-by-one must actually break the branchless search"
    );
}
