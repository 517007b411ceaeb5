//! The traced run: replays the workload's inputs through each layer of the
//! stack in turn and records what each layer costs per operation.
//!
//! `BpTree` -> 1-thread `ConcurrentTree` (the shard config) ->
//! `Durable<ConcurrentTree>` on MemStorage and on FsStorage -> `TxnStore`
//! -> the service, then a paged `BpTree` without a WAL and with one. Every
//! layer is fed the same way: inserts in `insert_batch` runs of 256 (the
//! runs the service router hands a shard), then uniform gets, then short
//! ranges. A layer's self time is its ns/insert minus that of the layer it
//! wraps. The workload's own front door is run a second time without
//! spans; the ratio of the two is `trace.overhead_frac`.

use crate::inputs::{Ingest, LedgerInput, Mixed, RANGE_KEYS, RUN};
use crate::quantile::median;
use crate::report::{check, ns_per, Fail, Report};
use crate::service::{pipeline, service_config, start, SHARDS};
use crate::trace::{SpanId, Tracer};
use crate::{host, paged, Config, Scratch, Workload};
use quit_concurrent::{ConcConfig, ConcurrentTree};
use quit_core::{BpTree, FastPathMode, SortedIndex, StatsSnapshot};
use quit_durability::{
    concurrent_builder, DurabilityConfig, Durable, FsStorage, MemStorage, RecoveryReport, Storage,
    TxnConfig, TxnStore,
};
use quit_service::{Reply, Request};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LEDGER_N: usize = 200_000;
const LEDGER_GETS: usize = 50_000;
const LEDGER_RANGES: usize = 2_000;
/// Every n-th get, range or client request gets a span of its own.
const GET_SAMPLE: usize = 64;
const RANGE_SAMPLE: usize = 8;
const REQUEST_SAMPLE: u64 = 64;
/// Share of the stream inserted before the FsStorage layer checkpoints;
/// the rest is the WAL tail that recovery replays.
const CHECKPOINT_AT: f64 = 0.9;
/// Untraced and traced passes of the front door behind `trace.overhead_frac`.
const OVERHEAD_REPS: usize = 3;

/// What one pass of a layer measured.
struct Cells {
    insert_ns: f64,
    get_ns: f64,
    range_ns_per_key: f64,
    range_leaf_accesses: u64,
    ingest: StatsSnapshot,
    gets: StatsSnapshot,
    /// Operations attempted.
    ops: u64,
}

fn input(cfg: &Config) -> LedgerInput {
    let n = cfg.size(LEDGER_N, 4096);
    let (gets, ranges) = (cfg.size(LEDGER_GETS, 1024), cfg.size(LEDGER_RANGES, 64));
    let entries = match cfg.workload {
        Workload::IndexNearsorted | Workload::PagedLookup => {
            Ingest::bods(n, 0, 0, 1, cfg.seed).entries()
        }
        Workload::ServiceIngest => Ingest::bods(n, 0, 0, u64::MAX / n as u64, cfg.seed).entries(),
        // The mixed stream's own inserts: uniformly random new keys.
        Workload::ServiceMixed => Mixed::generate(n, n * 2, cfg.seed).inserts(),
    };
    LedgerInput::new(entries, gets, ranges, cfg.seed)
}

/// Feeds `inp` through `index`: inserts in runs of `RUN` (calling `mid`
/// once, untimed, after `CHECKPOINT_AT` of them), then gets, then ranges,
/// checking every answer.
#[allow(clippy::too_many_arguments)]
fn drive<T: SortedIndex<u64, u64>>(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    layer: &'static str,
    index: &mut T,
    inp: &LedgerInput,
    cfg: &Config,
    mut mid: impl FnMut(&mut T) -> Result<(), Fail>,
) -> Result<Cells, Fail> {
    let n = inp.entries.len();
    let mid_at = ((n / RUN) as f64 * CHECKPOINT_AT) as usize;
    index.reset_metrics();
    let phase = tr.open(layer, "insert_phase", parent);
    let mut busy = Duration::ZERO;
    for (call, run) in inp.entries.chunks(RUN).enumerate() {
        if call == mid_at {
            mid(index)?;
        }
        let t = Instant::now();
        index.insert_batch(run);
        let end = Instant::now();
        busy += end - t;
        tr.span(layer, "insert_batch", Some(phase), call as u64, t, end);
    }
    tr.close(phase);
    check!(
        index.len() == n,
        "{layer}: len {} after {n} inserts",
        index.len()
    );
    let ingest = index.metrics();

    index.reset_metrics();
    let phase = tr.open(layer, "get_phase", parent);
    let t = Instant::now();
    for (i, &g) in inp.gets.iter().enumerate() {
        let (key, value) = inp.sorted[g];
        let s = Instant::now();
        let got = index.get(key);
        if i % GET_SAMPLE == 0 {
            tr.span(layer, "get", Some(phase), i as u64, s, Instant::now());
        }
        let want = cfg.expected_get(i, value);
        check!(
            got == Some(want),
            "{layer}: get({key}) = {got:?}, want {want}"
        );
    }
    let get_ns = ns_per(t.elapsed(), inp.gets.len());
    tr.close(phase);
    let gets = index.metrics();

    let phase = tr.open(layer, "range_phase", parent);
    let mut range_leaf_accesses = 0;
    let t = Instant::now();
    for (i, &r) in inp.ranges.iter().enumerate() {
        let (lo, hi) = inp.range_bounds(r);
        let s = Instant::now();
        let scan = index.range_with_stats(lo..=hi);
        if i % RANGE_SAMPLE == 0 {
            tr.span(layer, "range", Some(phase), i as u64, s, Instant::now());
        }
        range_leaf_accesses += scan.leaf_accesses;
        check!(
            inp.range_matches(r, &scan.entries),
            "{layer}: range [{lo}, {hi}] answered wrongly"
        );
    }
    let range_ns_per_key = ns_per(t.elapsed(), inp.ranges.len() * RANGE_KEYS);
    tr.close(phase);
    Ok(Cells {
        insert_ns: ns_per(busy, n),
        get_ns,
        range_ns_per_key,
        range_leaf_accesses,
        ingest,
        gets,
        ops: (n + inp.gets.len() + inp.ranges.len()) as u64,
    })
}

/// Insert ns/op of the workload's own front door without and with spans:
/// medians of `OVERHEAD_REPS` interleaved passes each, into throwaway
/// tracers.
fn front_door(cfg: &Config, inp: &LedgerInput, scratch: &Scratch) -> Result<(f64, f64, u64), Fail> {
    let n = inp.entries.len();
    let (mut plain, mut traced, mut ops) = (Vec::new(), Vec::new(), 0);
    for rep in 0..OVERHEAD_REPS {
        for enabled in [false, true] {
            let tr = &mut Tracer::new(enabled);
            let dir = scratch.path().join(format!("front-door-{rep}-{enabled}"));
            let (ns, done) = match cfg.workload {
                Workload::IndexNearsorted => {
                    let c = drive(
                        tr,
                        None,
                        "core",
                        &mut BpTree::<u64, u64>::quit(),
                        inp,
                        cfg,
                        no_mid,
                    )?;
                    (c.insert_ns, c.ops)
                }
                Workload::ServiceIngest | Workload::ServiceMixed => {
                    let c = serve(tr, None, inp, cfg, &dir)?;
                    (c.ns_per_insert, c.ops)
                }
                Workload::PagedLookup => {
                    let c = drive(
                        tr,
                        None,
                        "paged.durable",
                        &mut paged::open(&dir, n)?,
                        inp,
                        cfg,
                        no_mid,
                    )?;
                    std::fs::remove_dir_all(&dir)?;
                    (c.insert_ns, c.ops)
                }
            };
            ops += done;
            if enabled {
                traced.push(ns)
            } else {
                plain.push(ns)
            }
        }
    }
    Ok((median(&plain), median(&traced), ops))
}

fn no_mid<T>(_: &mut T) -> Result<(), Fail> {
    Ok(())
}

/// The tree config of one service shard.
fn conc_config() -> ConcConfig {
    service_config().tree
}

/// A shard's `Durable<ConcurrentTree>` on `storage`, recovered from it.
fn durable_on(
    storage: Arc<dyn Storage>,
) -> Result<(Durable<ConcurrentTree<u64, u64>>, RecoveryReport), Fail> {
    Ok(Durable::open(
        storage,
        DurabilityConfig::group_commit(),
        concurrent_builder(conc_config()),
    )?)
}

/// What the client saw while driving the service.
struct ClientCells {
    ns_per_insert: f64,
    fastpath_rate: f64,
    records_per_fsync: f64,
    /// Operations attempted.
    ops: u64,
    send_ns: f64,
    flush_ns_per_burst: f64,
    wait_ns: f64,
}

/// Ingests `inp` through a fresh server over one pipelined connection,
/// then checks the gets. With an enabled tracer each client call is timed
/// and sampled requests get a span from send to reply.
fn serve(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    inp: &LedgerInput,
    cfg: &Config,
    dir: &std::path::Path,
) -> Result<ClientCells, Fail> {
    let (server, mut c) = start(dir)?;
    let n = inp.entries.len();
    let phase = tr.open("service", "insert_phase", parent);
    let (mut send, mut flush, mut wait) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut bursts = 0;
    let t0 = Instant::now();
    let traced = tr.enabled();
    let now = || traced.then(Instant::now);
    let since = |t: Option<Instant>| t.map_or(Duration::ZERO, |t| t.elapsed());
    let mut sent_at = Vec::with_capacity(RUN);
    for burst in inp.entries.chunks(RUN) {
        sent_at.clear();
        for &(key, value) in burst {
            let t = now();
            let id = c.send(&Request::Insert { key, value })?;
            send += since(t);
            sent_at.push((id, t));
        }
        let t = now();
        c.flush()?;
        flush += since(t);
        bursts += 1;
        for _ in burst {
            let t = now();
            let (id, reply) = c.recv()?;
            wait += since(t);
            check!(
                matches!(reply, Ok(Reply::Inserted)),
                "service: insert answered {reply:?}"
            );
            if traced && id % REQUEST_SAMPLE == 0 {
                let (base, end) = (sent_at[0].0, Instant::now());
                let sent = sent_at[(id - base) as usize]
                    .1
                    .expect("traced sends are timed");
                tr.span("service", "insert", Some(phase), id, sent, end);
            }
        }
    }
    let ns_per_insert = ns_per(t0.elapsed(), n);
    tr.close(phase);
    let stats = c.stats()?;
    check!(
        stats.len == n as u64,
        "service: len {} after {n} inserts",
        stats.len
    );
    let phase = tr.open("service", "get_phase", parent);
    pipeline(
        &mut c,
        inp.gets.len(),
        |i| Request::Get {
            key: inp.sorted[inp.gets[i]].0,
        },
        |i, reply| {
            let want = cfg.expected_get(i, inp.sorted[inp.gets[i]].1);
            check!(
                matches!(reply, Ok(Reply::Got(Some(v))) if v == want),
                "service: get answered {reply:?}, want {want}"
            );
            Ok(())
        },
    )?;
    tr.close(phase);
    drop(c);
    server.shutdown()?;
    std::fs::remove_dir_all(dir)?;
    Ok(ClientCells {
        ns_per_insert,
        fastpath_rate: stats.fastpath_rate(),
        records_per_fsync: stats.wal_appends as f64 / stats.wal_fsyncs.max(1) as f64,
        ops: (n + inp.gets.len()) as u64,
        send_ns: ns_per(send, n),
        flush_ns_per_burst: ns_per(flush, bursts),
        wait_ns: ns_per(wait, n),
    })
}

pub fn run(cfg: &Config) -> Result<Report, Fail> {
    let inp = input(cfg);
    let n = inp.entries.len();
    let scratch = Scratch::new(&cfg.out, &format!("ledger-{}", cfg.workload.name()))?;
    let dir = |name: &str| scratch.path().join(name);
    let mut tr = Tracer::new(true);
    let root = tr.open("ledger", cfg.workload.name(), None);
    let mut r = Report::default();
    let frac = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let per_kop = |num: u64| 1e3 * num as f64 / n as f64;

    // quit_core: the arena tree.
    let mut core_tree = BpTree::<u64, u64>::quit();
    let core = drive(
        &mut tr,
        Some(root),
        "core",
        &mut core_tree,
        &inp,
        cfg,
        no_mid,
    )?;
    let mem = core_tree.memory_report();
    r.set("core.insert_ns", core.insert_ns);
    r.set("core.fast_insert_frac", core.ingest.fast_insert_fraction());
    r.set("core.leaf_splits_per_kop", per_kop(core.ingest.leaf_splits));
    r.set("core.variable_splits", core.ingest.variable_splits as f64);
    r.set("core.redistributions", core.ingest.redistributions as f64);
    r.set("core.fp_resets", core.ingest.fp_resets as f64);
    r.set("core.get_ns", core.get_ns);
    r.set(
        "core.node_accesses_per_get",
        frac(core.gets.lookup_node_accesses, core.gets.lookups),
    );
    r.set("core.range_ns_per_key", core.range_ns_per_key);
    r.set(
        "core.leaf_accesses_per_range",
        frac(core.range_leaf_accesses, inp.ranges.len() as u64),
    );
    r.set("core.leaf_occupancy", mem.avg_leaf_occupancy);
    r.set(
        "core.index_bytes_per_entry",
        mem.paged_bytes as f64 / n as f64,
    );
    drop(core_tree);

    // quit_concurrent: one thread, the service's shard config.
    let mut conc = ConcurrentTree::new(conc_config());
    let cc = drive(
        &mut tr,
        Some(root),
        "concurrent",
        &mut conc,
        &inp,
        cfg,
        no_mid,
    )?;
    drop(conc);
    r.set("concurrent.insert_ns", cc.insert_ns);
    r.set("concurrent.self_insert_ns", cc.insert_ns - core.insert_ns);
    r.set(
        "concurrent.fast_insert_frac",
        cc.ingest.fast_insert_fraction(),
    );
    r.set(
        "concurrent.olc_restarts",
        (cc.ingest.olc_restarts + cc.gets.olc_restarts) as f64,
    );
    r.set("concurrent.get_ns", cc.get_ns);

    // quit_durability: the WAL on memory, then on the file system.
    let (mut d, _) = durable_on(Arc::new(MemStorage::new()))?;
    let dm = drive(
        &mut tr,
        Some(root),
        "durable.mem",
        &mut d,
        &inp,
        cfg,
        no_mid,
    )?;
    drop(d);
    let fs_dir = dir("durable-fs");
    let fs = || -> Result<Arc<dyn Storage>, Fail> { Ok(Arc::new(FsStorage::open(&fs_dir)?)) };
    let (mut d, _) = durable_on(fs()?)?;
    let (mut wal_bytes, mut logged, mut checkpoint_s) = (0, 0, 0.0);
    let df = drive(&mut tr, Some(root), "durable.fs", &mut d, &inp, cfg, |d| {
        wal_bytes = host::dir_bytes(&fs_dir)?;
        logged = d.len();
        let t = Instant::now();
        d.checkpoint::<u64, u64>()?;
        checkpoint_s = t.elapsed().as_secs_f64();
        Ok(())
    })?;
    drop(d);
    let t = Instant::now();
    let (reopened, rep) = durable_on(fs()?)?;
    let reopen_s = t.elapsed().as_secs_f64();
    check!(
        reopened.len() == n,
        "durable.fs: len {} after reopen, want {n}",
        reopened.len()
    );
    drop(reopened);
    r.set("durable.mem.insert_ns", dm.insert_ns);
    r.set("durable.fs.insert_ns", df.insert_ns);
    r.set("durable.self_insert_ns", dm.insert_ns - cc.insert_ns);
    r.set("wal.fsync_ns_per_op", df.insert_ns - dm.insert_ns);
    r.set(
        "wal.records_per_fsync",
        frac(n as u64, df.ingest.wal_fsyncs),
    );
    r.set("wal.bytes_per_entry", frac(wal_bytes, logged as u64));
    r.set("durable.checkpoint_s", checkpoint_s);
    r.set("recovery.tail_records", rep.tail_records as f64);
    r.set("recovery.snapshot_entries", rep.snapshot_entries as f64);
    r.diag(format!(
        "durable.fs reopen: {reopen_s:.4} s ({} snapshot entries + {} tail records)",
        rep.snapshot_entries, rep.tail_records
    ));

    // TxnStore: single-op auto-commits for the first half, 256-key
    // transactions for the second.
    let (store, _) = TxnStore::<u64, u64>::open(Arc::new(MemStorage::new()), TxnConfig::default())?;
    let (singles, batched) = inp.entries.split_at(n / 2);
    let phase = tr.open("txn", "insert_phase", Some(root));
    let t = Instant::now();
    for (i, &(k, v)) in singles.iter().enumerate() {
        let s = Instant::now();
        store.insert(k, v)?;
        if i % GET_SAMPLE == 0 {
            tr.span("txn", "insert", Some(phase), i as u64, s, Instant::now());
        }
    }
    let txn_insert_ns = ns_per(t.elapsed(), singles.len());
    let t = Instant::now();
    for (call, run) in batched.chunks(RUN).enumerate() {
        let s = Instant::now();
        let mut txn = store.begin();
        for &(k, v) in run {
            txn.insert(k, v);
        }
        txn.commit()?;
        tr.span("txn", "commit", Some(phase), call as u64, s, Instant::now());
    }
    let txn_batch_ns = ns_per(t.elapsed(), batched.len());
    tr.close(phase);
    check!(
        store.len() == n,
        "txn: len {} after {n} inserts",
        store.len()
    );
    for &g in inp.gets.iter().step_by(GET_SAMPLE) {
        let (k, v) = inp.sorted[g];
        check!(
            store.get(k) == Some(v),
            "txn: get({k}) = {:?}, want {v}",
            store.get(k)
        );
    }
    drop(store);
    r.set("txn.insert_ns", txn_insert_ns);
    r.set("txn.batch_ns_per_key", txn_batch_ns);
    r.diag("txn.* time the Quit front door (TxnStore); no workload goes through it, so they move no gated metric yet");

    // quit_service: the untraced pass gives the layer's cost, the traced
    // one what the client spent where.
    let plain_svc = serve(
        &mut Tracer::new(false),
        None,
        &inp,
        cfg,
        &dir("service-plain"),
    )?;
    let traced_svc = serve(&mut tr, Some(root), &inp, cfg, &dir("service-traced"))?;
    r.set("service.ns_per_insert", plain_svc.ns_per_insert);
    r.set(
        "service.self_ns_per_insert",
        plain_svc.ns_per_insert - df.insert_ns,
    );
    r.set("service.fastpath_rate", plain_svc.fastpath_rate);
    r.set("service.records_per_fsync", plain_svc.records_per_fsync);
    r.set("client.send_ns_per_op", traced_svc.send_ns);
    r.set("client.flush_ns_per_burst", traced_svc.flush_ns_per_burst);
    r.set("client.wait_ns_per_op", traced_svc.wait_ns);
    r.diag(format!(
        "service: {SHARDS} shards; its durable.fs baseline is one unsharded WAL"
    ));

    // Paged quit_core without a WAL, then the durable paged front door.
    let mut pt = BpTree::<u64, u64>::with_config(FastPathMode::Pole, paged::tree_config(n));
    let pc = drive(&mut tr, Some(root), "paged", &mut pt, &inp, cfg, no_mid)?;
    let image = pt.to_page_image().expect("paged tree has a page image");
    drop(pt);
    r.set("paged.insert_ns", pc.insert_ns);
    r.set("paged.get_ns", pc.get_ns);
    r.set("pool.hit_rate", pc.gets.pool_hit_rate());
    r.set(
        "pool.faults_per_get",
        frac(pc.gets.page_faults, inp.gets.len() as u64),
    );
    r.set("pool.evictions_per_kop", per_kop(pc.ingest.page_evictions));
    r.set("paged.image_bytes_per_entry", image.len() as f64 / n as f64);
    let mut pd = paged::open(&dir("paged-durable"), n)?;
    let pdc = drive(
        &mut tr,
        Some(root),
        "paged.durable",
        &mut pd,
        &inp,
        cfg,
        no_mid,
    )?;
    drop(pd);
    r.set("paged.durable_insert_ns", pdc.insert_ns);

    let (plain_ns, traced_ns, front_ops) = front_door(cfg, &inp, &scratch)?;
    r.set("trace.overhead_frac", traced_ns / plain_ns - 1.0);
    r.diag(format!(
        "front door ns/insert: {plain_ns:.1} untraced, {traced_ns:.1} traced \
         (medians of {OVERHEAD_REPS} interleaved passes each)"
    ));

    tr.close(root);
    let path = cfg.out.join(format!("trace-{}.json", cfg.workload.name()));
    tr.write(&path)?;
    r.diag(format!("{} spans written to {}", tr.len(), path.display()));
    r.diag(format!(
        "ledger: {n} inserts in runs of {RUN}, {} gets, {} ranges of {RANGE_KEYS} keys per layer",
        inp.gets.len(),
        inp.ranges.len()
    ));
    r.attempted = [
        core.ops,
        cc.ops,
        dm.ops,
        df.ops,
        pc.ops,
        pdc.ops,
        plain_svc.ops,
        traced_svc.ops,
    ]
    .iter()
    .sum::<u64>()
        + (n + inp.gets.len() / GET_SAMPLE) as u64
        + front_ops;
    Ok(r)
}
