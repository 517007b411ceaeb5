//! `paged_lookup`: the paged front door as `QuitPaged` configures it —
//! `Durable::open_paged` on FsStorage, `TreeConfig::small(120)`,
//! `FastPathMode::Pole`, group commit — with a buffer pool of 1/8 of the
//! pages a fully packed tree would need, so the working set is larger
//! than the program's own cache. Near-sorted keys arrive in `insert_batch`
//! runs of 256; a checkpoint publishes the page image; uniform gets and
//! short ranges follow (faulting and CLOCK eviction dominate them); then
//! the directory is reopened. Every other workload bypasses the pool.

use crate::inputs::{Ingest, RANGE_KEYS, RUN};
use crate::report::{check, grouped, ns_per, Fail, Phase, Report, Rounds};
use crate::{host, Config, Scratch};
use quit_core::{BpTree, FastPathMode, SortedIndex, StorageKind, TreeConfig};
use quit_durability::{DurabilityConfig, Durable, FsStorage};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 100_000;
const GETS: usize = 100_000;
const RANGES: usize = 60_000;
/// The leaf capacity `QuitPaged` uses: 120 `(u64, u64)` entries fill a
/// 4 KiB page.
pub const LEAF: usize = 120;

pub fn pool_pages(n: usize) -> usize {
    (n / (LEAF * 8)).max(8)
}

pub fn tree_config(n: usize) -> TreeConfig {
    TreeConfig::small(LEAF).with_storage(StorageKind::paged(pool_pages(n)))
}

pub fn open(dir: &Path, n: usize) -> Result<Durable<BpTree<u64, u64>>, Fail> {
    let (d, _) = Durable::open_paged(
        Arc::new(FsStorage::open(dir)?),
        DurabilityConfig::group_commit(),
        FastPathMode::Pole,
        tree_config(n),
    )?;
    Ok(d)
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
    let entries = inp.entries();
    let scratch = Scratch::new(&cfg.out, "paged_lookup")?;
    let mut rounds = Rounds::new(cfg.seconds, cfg.min_rounds);
    let mut report = Report::default();
    while rounds.next() {
        let dir = scratch.path().join(format!("round-{}", rounds.index()));
        let t = Instant::now();
        let mut tree = open(&dir, n)?;
        rounds.put("setup_s", t.elapsed().as_secs_f64());

        // One latency sample per run: its mean per-key time.
        let mut lat_us = Vec::with_capacity(n / RUN + 1);
        let t = Instant::now();
        for run in entries.chunks(RUN) {
            let g = Instant::now();
            tree.insert_batch(run);
            lat_us.push(ns_per(g.elapsed(), run.len()) / 1e3);
        }
        let ingest = Phase {
            ops: n,
            secs: t.elapsed().as_secs_f64(),
            lat_us,
        };
        check!(tree.len() == n, "len {} after {n} inserts", tree.len());
        let t = Instant::now();
        tree.checkpoint_paged()?;
        let checkpoint_s = t.elapsed().as_secs_f64();
        tree.reset_metrics();

        let gets = grouped(inp.gets.len(), |i| {
            let d = inp.gets[i];
            let got = tree.get(inp.key(d));
            let want = cfg.expected_get(i, inp.value(d));
            check!(
                got == Some(want),
                "get({}) = {got:?}, want {want}",
                inp.key(d)
            );
            Ok(())
        })?;
        if rounds.index() == 0 {
            let m = tree.metrics();
            report.diag(format!(
                "pool: {} pages for {} nodes; gets hit rate {:.4}, {} faults, {} evictions; \
                 checkpoint {checkpoint_s:.3} s",
                pool_pages(n),
                tree.inner().node_count(),
                m.pool_hit_rate(),
                m.page_faults,
                m.page_evictions
            ));
        }
        let t = Instant::now();
        for &d in &inp.ranges {
            let (lo, hi) = inp.range_bounds(d);
            let got: Vec<(u64, u64)> = tree.range(lo..=hi).collect();
            check!(
                inp.range_matches(d, &got),
                "range [{lo}, {hi}] returned {} wrong entries",
                got.len()
            );
        }
        let range_secs = t.elapsed().as_secs_f64();
        let ops = n + inp.gets.len() + inp.ranges.len();
        rounds.attempted += ops as u64;
        rounds.put(
            "range_keys_per_s",
            (inp.ranges.len() * RANGE_KEYS) as f64 / range_secs,
        );
        rounds.put(
            "ops_per_s",
            ops as f64 / (ingest.secs + gets.secs + range_secs),
        );
        rounds.latency("insert", ingest);
        rounds.latency("get", gets);
        drop(tree);

        let t = Instant::now();
        let mut reopened = open(&dir, n)?;
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
