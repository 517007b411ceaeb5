//! The served deployment: `quit-service` on loopback with 2 shards
//! (`Server::start_dir`: FsStorage, group commit, the default 1024-entry
//! router flush), one client connection pipelining requests in bursts of
//! 256 and timing each request from send to reply.
//!
//! - `service_ingest`: single `Insert`s of a BoDS K=5% L=100% stream spread
//!   over `u64` by a monotone scale (so both shards see a near-sorted
//!   subsequence), then gets, then short ranges.
//! - `service_mixed`: a near-sorted preload through `InsertBatch` (counted
//!   in set-up), then one stream of ~50% gets, ~35% inserts of new random
//!   keys, ~10% deletes and ~5% short ranges.
//!
//! Each round then shuts the server down, restarts it on the same
//! directories (`recovery_s` ends when the restarted server answers a
//! get) and checks that every acknowledged write is there.

use crate::inputs::{Ingest, Mixed, Op, RANGE_KEYS, RUN};
use crate::report::{check, Fail, Phase, Report, Rounds};
use crate::{host, Config, Scratch};
use quit_service::wire::MAX_RANGE_RESULTS;
use quit_service::{Client, Reply, Request, Result as SvcResult, Server, ServiceConfig};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

const INGEST_N: usize = 200_000;
const INGEST_GETS: usize = 100_000;
const INGEST_RANGES: usize = 20_000;
const MIXED_PRELOAD: usize = 100_000;
const MIXED_OPS: usize = 16_000;
/// Entries per `InsertBatch` request of the preload.
const PRELOAD_BATCH: usize = 4096;
/// Shards: one per core of the 2-core machine the bounds were set on.
pub const SHARDS: usize = 2;

pub fn service_config() -> ServiceConfig {
    ServiceConfig::paper_default().with_shards(SHARDS)
}

pub fn start(dir: &Path) -> Result<(Server, Client), Fail> {
    let (server, _) = Server::start_dir(dir, service_config(), "127.0.0.1:0")?;
    let client = Client::connect(server.local_addr())?;
    Ok((server, client))
}

/// Sends `n` requests pipelined in bursts of `RUN`, and hands each reply
/// to `on_reply(i, reply)`. Returns the phase time and each request's
/// latency from send to reply, in µs, indexed like the requests.
pub fn pipeline(
    c: &mut Client,
    n: usize,
    mut make: impl FnMut(usize) -> Request,
    mut on_reply: impl FnMut(usize, SvcResult<Reply>) -> Result<(), Fail>,
) -> Result<(f64, Vec<f64>), Fail> {
    let mut lat = vec![0.0; n];
    let mut sent_at = Vec::with_capacity(RUN);
    let t0 = Instant::now();
    for start in (0..n).step_by(RUN) {
        let end = (start + RUN).min(n);
        sent_at.clear();
        let mut base = 0;
        for i in start..end {
            sent_at.push(Instant::now());
            let id = c.send(&make(i))?;
            if i == start {
                base = id;
            }
        }
        c.flush()?;
        for _ in start..end {
            let (id, reply) = c.recv()?;
            let j = (id - base) as usize;
            lat[start + j] = sent_at[j].elapsed().as_secs_f64() * 1e6;
            on_reply(start + j, reply)?;
        }
    }
    Ok((t0.elapsed().as_secs_f64(), lat))
}

/// Reads every live entry back with full-keyspace range requests.
pub fn scan_all(c: &mut Client) -> Result<Vec<(u64, u64)>, Fail> {
    let mut all = Vec::new();
    let mut start = 0;
    loop {
        let chunk = c.range(start, u64::MAX, 0)?;
        let full = chunk.len() == MAX_RANGE_RESULTS as usize;
        let last = chunk.last().map(|e| e.0);
        all.extend(chunk);
        match last {
            Some(k) if full && k < u64::MAX => start = k + 1,
            _ => return Ok(all),
        }
    }
}

/// Restarts the server on `dir`, timing until it answers `get(probe)`,
/// then checks that a full scan equals `want` (every acknowledged write),
/// when the run knows what that is.
fn recover(
    rounds: &mut Rounds,
    dir: &Path,
    probe: (u64, u64),
    want: Option<&[(u64, u64)]>,
) -> Result<(), Fail> {
    let t = Instant::now();
    let (server, mut c) = start(dir)?;
    let got = c.get(probe.0)?;
    rounds.put("recovery_s", t.elapsed().as_secs_f64());
    let len = c.stats()?.len;
    if let Some(want) = want {
        check!(
            got == Some(probe.1),
            "get({}) after restart = {got:?}",
            probe.0
        );
        check!(
            len == want.len() as u64,
            "len {len} after restart, want {}",
            want.len()
        );
        check!(
            scan_all(&mut c)? == want,
            "a full scan after restart differs from the acknowledged writes"
        );
    }
    drop(c);
    server.shutdown()?;
    rounds.put(
        "disk_bytes_per_entry",
        host::dir_bytes(dir)? as f64 / len.max(1) as f64,
    );
    std::fs::remove_dir_all(dir)?;
    Ok(())
}

/// Counts a refused request; returns whether the reply was an error.
fn refused<T>(rounds: &mut Rounds, reply: &SvcResult<T>) -> bool {
    let bad = reply.is_err();
    rounds.failed += u64::from(bad);
    bad
}

pub fn run_ingest(cfg: &Config) -> Result<Report, Fail> {
    let inp = Ingest::bods(
        cfg.size(INGEST_N, 4096),
        cfg.size(INGEST_GETS, 1024),
        cfg.size(INGEST_RANGES, 64),
        u64::MAX / cfg.size(INGEST_N, 4096) as u64,
        cfg.seed,
    );
    let n = inp.len();
    let scratch = Scratch::new(&cfg.out, "service_ingest")?;
    let mut rounds = Rounds::new(cfg.seconds, cfg.min_rounds);
    let mut report = Report::default();
    while rounds.next() {
        let dir = scratch.path().join(format!("round-{}", rounds.index()));
        let t = Instant::now();
        let (server, mut c) = start(&dir)?;
        rounds.put("setup_s", t.elapsed().as_secs_f64());

        // Keys whose insert was refused are not checked afterwards.
        let mut lost = HashSet::new();
        let (ingest_secs, ingest_lat) = pipeline(
            &mut c,
            n,
            |i| Request::Insert {
                key: inp.keys[i],
                value: i as u64,
            },
            |i, reply| {
                if refused(&mut rounds, &reply) {
                    lost.insert(inp.keys[i]);
                } else {
                    check!(
                        matches!(reply, Ok(Reply::Inserted)),
                        "insert answered {reply:?}"
                    );
                }
                Ok(())
            },
        )?;
        let (get_secs, get_lat) = pipeline(
            &mut c,
            inp.gets.len(),
            |i| Request::Get {
                key: inp.key(inp.gets[i]),
            },
            |i, reply| {
                let d = inp.gets[i];
                if !refused(&mut rounds, &reply) && !lost.contains(&inp.key(d)) {
                    let want = Reply::Got(Some(cfg.expected_get(i, inp.value(d))));
                    check!(
                        reply.as_ref().ok() == Some(&want),
                        "get({}) = {reply:?}, want {want:?}",
                        inp.key(d)
                    );
                }
                Ok(())
            },
        )?;
        let (range_secs, _) = pipeline(
            &mut c,
            inp.ranges.len(),
            |i| {
                let (start, end) = inp.range_bounds(inp.ranges[i]);
                Request::Range {
                    start,
                    end,
                    limit: 0,
                }
            },
            |i, reply| {
                if !refused(&mut rounds, &reply) && lost.is_empty() {
                    let d = inp.ranges[i];
                    let ok = matches!(&reply, Ok(Reply::Entries(e)) if inp.range_matches(d, e));
                    check!(ok, "range from {} answered wrongly", inp.key(d));
                }
                Ok(())
            },
        )?;
        let stats = c.stats()?;
        check!(
            stats.len == (n - lost.len()) as u64,
            "server len {} after {n} inserts",
            stats.len
        );
        if rounds.index() == 0 {
            report.diag(format!(
                "server: {} shards, fast-path rate {:.4}, {} WAL appends, {} fsyncs",
                stats.shards,
                stats.fastpath_rate(),
                stats.wal_appends,
                stats.wal_fsyncs
            ));
        }
        drop(c);
        server.shutdown()?;

        let ops = n + inp.gets.len() + inp.ranges.len();
        rounds.attempted += ops as u64;
        rounds.put(
            "range_keys_per_s",
            (inp.ranges.len() * RANGE_KEYS) as f64 / range_secs,
        );
        rounds.put(
            "ops_per_s",
            ops as f64 / (ingest_secs + get_secs + range_secs),
        );
        rounds.latency(
            "insert",
            Phase {
                ops: n,
                secs: ingest_secs,
                lat_us: ingest_lat,
            },
        );
        rounds.latency(
            "get",
            Phase {
                ops: inp.gets.len(),
                secs: get_secs,
                lat_us: get_lat,
            },
        );

        let want: Vec<(u64, u64)> = inp
            .sorted()
            .into_iter()
            .filter(|e| !lost.contains(&e.0))
            .collect();
        let probe = want[want.len() / 2];
        recover(&mut rounds, &dir, probe, Some(&want))?;
    }
    rounds.finish(&mut report);
    Ok(report)
}

pub fn run_mixed(cfg: &Config) -> Result<Report, Fail> {
    let mix = Mixed::generate(
        cfg.size(MIXED_PRELOAD, 4096),
        cfg.size(MIXED_OPS, 4096),
        cfg.seed,
    );
    let scratch = Scratch::new(&cfg.out, "service_mixed")?;
    let mut rounds = Rounds::new(cfg.seconds, cfg.min_rounds);
    let mut report = Report::default();
    while rounds.next() {
        let dir = scratch.path().join(format!("round-{}", rounds.index()));
        let t = Instant::now();
        let (server, mut c) = start(&dir)?;
        for batch in mix.preload.chunks(PRELOAD_BATCH) {
            c.insert_batch(batch)?;
        }
        rounds.put("setup_s", t.elapsed().as_secs_f64());
        rounds.attempted += mix.preload.len() as u64;

        let mut gets_seen = 0;
        let mut range_keys = 0;
        let mut failed = 0;
        let (secs, lat) = pipeline(
            &mut c,
            mix.ops.len(),
            |i| match mix.ops[i] {
                Op::Get { key, .. } => Request::Get { key },
                Op::Insert { key, value } => Request::Insert { key, value },
                Op::Delete { key, .. } => Request::Delete { key },
                Op::Range { start, end, .. } => Request::Range {
                    start,
                    end,
                    limit: 0,
                },
            },
            |i, reply| {
                let Ok(reply) = reply else {
                    failed += 1;
                    return Ok(());
                };
                let ok = match (mix.ops[i], &reply) {
                    (Op::Get { value, .. }, Reply::Got(got)) => {
                        gets_seen += 1;
                        *got == Some(cfg.expected_get(gets_seen - 1, value))
                    }
                    (Op::Insert { .. }, Reply::Inserted) => true,
                    (Op::Delete { value, .. }, Reply::Deleted(got)) => *got == Some(value),
                    (Op::Range { first, len, .. }, Reply::Entries(got)) => {
                        range_keys += got.len();
                        got[..] == mix.expected[first as usize..(first + len) as usize]
                    }
                    _ => false,
                };
                // With a refused write in the stream later answers may
                // legitimately differ; only a clean stream is checked.
                check!(
                    ok || failed > 0,
                    "op {i} {:?} answered {reply:?}",
                    mix.ops[i]
                );
                Ok(())
            },
        )?;
        rounds.failed += failed;
        let stats = c.stats()?;
        if rounds.index() == 0 {
            report.diag(format!(
                "server: {} shards, fast-path rate {:.4}, {} WAL appends, {} fsyncs",
                stats.shards,
                stats.fastpath_rate(),
                stats.wal_appends,
                stats.wal_fsyncs
            ));
        }
        drop(c);
        server.shutdown()?;

        rounds.attempted += mix.ops.len() as u64;
        let mut ins = Phase {
            ops: 0,
            secs,
            lat_us: Vec::new(),
        };
        let mut get = Phase {
            ops: 0,
            secs,
            lat_us: Vec::new(),
        };
        for (op, &l) in mix.ops.iter().zip(&lat) {
            match op {
                Op::Insert { .. } => ins.lat_us.push(l),
                Op::Get { .. } => get.lat_us.push(l),
                _ => {}
            }
        }
        (ins.ops, get.ops) = (ins.lat_us.len(), get.lat_us.len());
        rounds.put("ops_per_s", mix.ops.len() as f64 / secs);
        rounds.put("range_keys_per_s", range_keys as f64 / secs);
        rounds.latency("insert", ins);
        rounds.latency("get", get);

        let probe = mix.final_state[mix.final_state.len() / 2];
        let want = (failed == 0).then_some(&mix.final_state[..]);
        recover(&mut rounds, &dir, probe, want)?;
    }
    rounds.finish(&mut report);
    Ok(report)
}
