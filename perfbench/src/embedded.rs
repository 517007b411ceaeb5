//! `index_nearsorted`: the paper's own system. An embedded `BpTree::quit()`
//! (arena, dense, 510-entry nodes, no WAL) takes a BoDS K=5% L=100%
//! stream key by key, then uniform point gets, then short ranges. It
//! bypasses latching, the WAL and the service.
//!
//! The tree has no log, so what the run leaves behind is a sorted snapshot
//! written through `quit_durability` after the timed phases; `recovery_s`
//! reopens it (snapshot read plus bulk load).

use crate::inputs::Ingest;
use crate::quantile::median;
use crate::report::{check, grouped, Fail, Report, Rounds};
use crate::{host, Config, Scratch};
use quit_core::{BpTree, FastPathMode, SortedIndex, TreeConfig};
use quit_durability::{bptree_builder, DurabilityConfig, Durable, FsStorage, Storage};
use std::sync::Arc;
use std::time::Instant;

const N: usize = 2_000_000;
const GETS: usize = 1_000_000;
const RANGES: usize = 40_000;
/// An empty tree is built in well under a microsecond, so set-up is timed
/// this many times per round and the median kept.
const SETUP_REPS: usize = 201;

fn new_tree() -> BpTree<u64, u64> {
    BpTree::quit()
}

pub fn run(cfg: &Config) -> Result<Report, Fail> {
    let inp = Ingest::bods(
        cfg.size(N, 4096),
        cfg.size(GETS, 1024),
        cfg.size(RANGES, 64),
        1,
        cfg.seed,
    );
    let n = inp.len();
    let scratch = Scratch::new(&cfg.out, "index_nearsorted")?;
    let mut rounds = Rounds::new(cfg.seconds, cfg.min_rounds);
    let mut report = Report::default();
    while rounds.next() {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut fresh = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let tree = new_tree();
            setups.push(t.elapsed().as_secs_f64());
            fresh = Some(tree);
        }
        let mut tree = fresh.expect("at least one set-up");
        rounds.put("setup_s", median(&setups));

        let ingest = grouped(n, |i| {
            tree.insert(inp.keys[i], i as u64);
            Ok(())
        })?;
        check!(tree.len() == n, "len {} after {n} inserts", tree.len());
        let gets = grouped(inp.gets.len(), |i| {
            let d = inp.gets[i];
            let got = tree.get(inp.key(d)).copied();
            let want = cfg.expected_get(i, inp.value(d));
            check!(
                got == Some(want),
                "get({}) = {got:?}, want {want}",
                inp.key(d)
            );
            Ok(())
        })?;
        let t = Instant::now();
        for &d in &inp.ranges {
            let (lo, hi) = inp.range_bounds(d);
            let got: Vec<(u64, u64)> = tree.range(lo..=hi).map(|(k, &v)| (k, v)).collect();
            check!(
                inp.range_matches(d, &got),
                "range [{lo}, {hi}] returned {} wrong entries",
                got.len()
            );
        }
        let range_secs = t.elapsed().as_secs_f64();
        let ops = n + inp.gets.len() + inp.ranges.len();
        rounds.put(
            "range_keys_per_s",
            (inp.ranges.len() * crate::inputs::RANGE_KEYS) as f64 / range_secs,
        );
        rounds.put(
            "ops_per_s",
            ops as f64 / (ingest.secs + gets.secs + range_secs),
        );
        rounds.latency("insert", ingest);
        rounds.latency("get", gets);
        rounds.attempted += ops as u64;
        if rounds.index() == 0 {
            let mem = tree.memory_report();
            let m = tree.metrics();
            report.diag(format!(
                "tree: {n} entries, {} leaves, leaf occupancy {:.3}, index bytes/entry {:.2}, \
                 fast-path inserts {:.4}",
                mem.leaf_nodes,
                mem.avg_leaf_occupancy,
                mem.paged_bytes as f64 / n as f64,
                m.fast_insert_fraction()
            ));
        }

        // Persist, then reopen and check every entry.
        let dir = scratch.path().join(format!("round-{}", rounds.index()));
        let storage = || -> Result<Arc<dyn Storage>, Fail> { Ok(Arc::new(FsStorage::open(&dir)?)) };
        let (mut durable, _) = Durable::open(storage()?, DurabilityConfig::off(), |_| tree)?;
        durable.checkpoint::<u64, u64>()?;
        drop(durable);
        let t = Instant::now();
        let (mut reopened, _) = Durable::open(
            storage()?,
            DurabilityConfig::off(),
            bptree_builder(FastPathMode::Pole, TreeConfig::paper_default()),
        )?;
        let probe = inp.keys[n / 2];
        let first = reopened.get(probe);
        rounds.put("recovery_s", t.elapsed().as_secs_f64());
        check!(
            first == Some((n / 2) as u64),
            "get({probe}) after reopen = {first:?}"
        );
        check!(
            reopened.len() == n,
            "len {} after reopen, want {n}",
            reopened.len()
        );
        let all: Vec<(u64, u64)> = reopened.range(..).collect();
        check!(
            all == inp.sorted(),
            "a full scan after reopen differs from what was inserted"
        );
        drop(reopened);
        rounds.put(
            "disk_bytes_per_entry",
            host::dir_bytes(&dir)? as f64 / n as f64,
        );
        std::fs::remove_dir_all(&dir)?;
    }
    rounds.finish(&mut report);
    Ok(report)
}
