//! Differential coverage for the intra-node search kinds: `Branchless`
//! and `Simd` must be observationally identical to the `Binary` paper
//! path on the full `BpTree` API surface.

use quit_core::{BpTree, FastPathMode, SearchKind, TreeConfig};
use rand::prelude::*;

const MODES: [FastPathMode; 4] = [
    FastPathMode::None,
    FastPathMode::Tail,
    FastPathMode::Lil,
    FastPathMode::Pole,
];

fn pair(mode: FastPathMode, cap: usize, kind: SearchKind) -> (BpTree<u64, u64>, BpTree<u64, u64>) {
    let binary = BpTree::with_config(mode, TreeConfig::small(cap));
    let other = BpTree::with_config(mode, TreeConfig::small(cap).with_search_kind(kind));
    (binary, other)
}

/// Asserts the two trees agree on every read surface.
fn assert_equivalent(binary: &BpTree<u64, u64>, other: &BpTree<u64, u64>, probe_keys: &[u64]) {
    binary.check_invariants().unwrap();
    other.check_invariants().unwrap();
    assert_eq!(binary.len(), other.len());
    assert_eq!(binary.min_key(), other.min_key());
    assert_eq!(binary.max_key(), other.max_key());
    let bi: Vec<(u64, u64)> = binary.iter().map(|(k, v)| (k, *v)).collect();
    let oi: Vec<(u64, u64)> = other.iter().map(|(k, v)| (k, *v)).collect();
    assert_eq!(bi, oi, "full iteration diverged");
    for &k in probe_keys {
        assert_eq!(binary.get(k), other.get(k), "get({k})");
        assert_eq!(binary.get_all(k), other.get_all(k), "get_all({k})");
        assert_eq!(
            binary.floor(k).map(|(k, v)| (k, *v)),
            other.floor(k).map(|(k, v)| (k, *v)),
            "floor({k})"
        );
        assert_eq!(
            binary.ceiling(k).map(|(k, v)| (k, *v)),
            other.ceiling(k).map(|(k, v)| (k, *v)),
            "ceiling({k})"
        );
        let dr: Vec<(u64, u64)> = binary.range(k..k + 64).map(|(k, v)| (k, *v)).collect();
        let gr: Vec<(u64, u64)> = other.range(k..k + 64).map(|(k, v)| (k, *v)).collect();
        assert_eq!(dr, gr, "range({k}..{})", k + 64);
        let mut dc = binary.cursor_at(k);
        let mut gc = other.cursor_at(k);
        for _ in 0..8 {
            assert_eq!(
                dc.next().map(|(k, v)| (k, *v)),
                gc.next().map(|(k, v)| (k, *v)),
                "cursor walk from {k}"
            );
        }
    }
    // Backward cursor over the whole tree.
    let mut dc = binary.cursor_last();
    let mut gc = other.cursor_last();
    loop {
        let d = dc.prev().map(|(k, v)| (k, *v));
        let g = gc.prev().map(|(k, v)| (k, *v));
        assert_eq!(d, g, "backward cursor diverged");
        if d.is_none() {
            break;
        }
    }
}

#[test]
fn near_sorted_ingest_matches_binary_in_every_mode() {
    let mut rng = StdRng::seed_from_u64(0x1a_0001);
    for mode in MODES {
        let (mut binary, mut other) = pair(mode, 16, SearchKind::Branchless);
        // Near-sorted stream with stragglers: most keys ascend, a few
        // arrive late and take the in-leaf search.
        let mut keys: Vec<u64> = Vec::new();
        for i in 0..6000u64 {
            if rng.gen_bool(0.1) && i > 50 {
                keys.push(i * 10 - rng.gen_range(1..400u64));
            } else {
                keys.push(i * 10);
            }
        }
        for &k in &keys {
            binary.insert(k, k ^ 1);
            other.insert(k, k ^ 1);
        }
        let probes: Vec<u64> = keys.iter().step_by(97).copied().collect();
        assert_equivalent(&binary, &other, &probes);
    }
}

#[test]
fn random_churn_with_deletes_matches_binary() {
    let mut rng = StdRng::seed_from_u64(0x1a_0002);
    for mode in [FastPathMode::None, FastPathMode::Pole] {
        let (mut binary, mut other) = pair(mode, 8, SearchKind::Simd);
        let mut live: Vec<u64> = Vec::new();
        for step in 0..12_000u32 {
            if !live.is_empty() && rng.gen_bool(0.35) {
                let k = live.swap_remove(rng.gen_range(0..live.len()));
                assert_eq!(binary.delete(k), other.delete(k), "delete({k}) step {step}");
            } else {
                let k = rng.gen_range(0..4000u64);
                binary.insert(k, u64::from(step));
                other.insert(k, u64::from(step));
                live.push(k);
            }
        }
        let probes: Vec<u64> = (0..4000u64).step_by(53).collect();
        assert_equivalent(&binary, &other, &probes);
    }
}

#[test]
fn duplicate_runs_match_across_search_kinds() {
    for kind in [SearchKind::Branchless, SearchKind::Simd] {
        let (mut binary, mut other) = pair(FastPathMode::Pole, 8, kind);
        // Heavy duplicate runs straddling many leaves, interleaved with
        // deletes that punch holes into the runs.
        for i in 0..40u64 {
            for _ in 0..30 {
                binary.insert(i * 5, i);
                other.insert(i * 5, i);
            }
        }
        for i in (0..40u64).step_by(3) {
            for _ in 0..7 {
                assert_eq!(binary.delete(i * 5), other.delete(i * 5));
            }
        }
        let probes: Vec<u64> = (0..210u64).collect();
        assert_equivalent(&binary, &other, &probes);
    }
}

#[test]
fn range_delete_and_pops_match() {
    let (mut binary, mut other) = pair(FastPathMode::Pole, 12, SearchKind::Branchless);
    for k in 0..3000u64 {
        binary.insert(k * 3 % 2048, k);
        other.insert(k * 3 % 2048, k);
    }
    assert_eq!(binary.delete_range(100, 900), other.delete_range(100, 900));
    for _ in 0..50 {
        assert_eq!(binary.pop_first(), other.pop_first());
        assert_eq!(binary.pop_last(), other.pop_last());
    }
    let probes: Vec<u64> = (0..2048u64).step_by(31).collect();
    assert_equivalent(&binary, &other, &probes);
}

#[test]
fn bulk_paths_match_across_search_kinds() {
    let entries: Vec<(u64, u64)> = (0..5000u64).map(|k| (k * 2, k)).collect();
    let binary_cfg = TreeConfig::small(16);
    let other_cfg = TreeConfig::small(16).with_search_kind(SearchKind::Simd);
    let mut binary: BpTree<u64, u64> =
        BpTree::bulk_load(FastPathMode::Pole, binary_cfg, entries.clone(), 0.9);
    let mut other: BpTree<u64, u64> =
        BpTree::bulk_load(FastPathMode::Pole, other_cfg, entries, 0.9);
    // Continue with batch inserts whose runs hit the fast-append path on
    // the tails and the per-entry merge path inside the loaded leaves.
    let batch: Vec<(u64, u64)> = (4000..7000u64).map(|k| (k * 2 + 1, k)).collect();
    assert_eq!(binary.insert_batch(&batch), other.insert_batch(&batch));
    let probes: Vec<u64> = (0..14_000u64).step_by(101).collect();
    assert_equivalent(&binary, &other, &probes);
}

#[test]
fn search_kinds_agree_on_every_boundary_shape() {
    // Direct slice-level equivalence: all kinds must implement the same
    // upper/lower bound contract on runs, empties, and singletons.
    let mut rng = StdRng::seed_from_u64(0x1a_0004);
    let mut cases: Vec<Vec<u64>> = vec![
        vec![],
        vec![5],
        vec![5, 5, 5, 5],
        (0..510).map(|i| i / 3).collect(),
    ];
    for _ in 0..50 {
        let n = rng.gen_range(0..600);
        let mut v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..200)).collect();
        v.sort_unstable();
        cases.push(v);
    }
    for keys in &cases {
        for probe in 0..205u64 {
            let ub = quit_core::upper_bound(SearchKind::Binary, keys, probe);
            let lb = quit_core::lower_bound(SearchKind::Binary, keys, probe);
            for kind in [SearchKind::Branchless, SearchKind::Simd] {
                assert_eq!(
                    quit_core::upper_bound(kind, keys, probe),
                    ub,
                    "{kind:?} upper_bound len={} probe={probe}",
                    keys.len()
                );
                assert_eq!(
                    quit_core::lower_bound(kind, keys, probe),
                    lb,
                    "{kind:?} lower_bound len={} probe={probe}",
                    keys.len()
                );
            }
        }
    }
}
