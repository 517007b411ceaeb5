//! End-to-end tests over real sockets: pipelining, read-your-writes,
//! cross-shard requests, the wire error taxonomy, concurrent clients,
//! durable restart on file-backed shard WALs, replies held until their
//! writes are fsynced, and a shard whose fsync fails.
//!
//! Built with `--features inject-early-reply`, the shard worker releases
//! held replies before its durability wait; the gated-sync test then runs
//! as a mutation check that must see a reply arrive while the fsync is
//! held, and the durability-dependent tests are left out.

#![cfg_attr(feature = "inject-early-reply", allow(dead_code))]

use quit_concurrent::ConcConfig;
use quit_core::StorageKind;
use quit_durability::{MemStorage, Storage};
use quit_service::{shard_of, Client, Reply, Request, Server, ServiceConfig};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start(config: ServiceConfig) -> Server {
    let (server, _) = Server::start_in_memory(config, "127.0.0.1:0").unwrap();
    server
}

#[test]
fn sync_roundtrip_all_ops() {
    let server = start(ServiceConfig::small(3));
    let mut c = Client::connect(server.local_addr()).unwrap();

    c.insert(10, 100).unwrap();
    assert_eq!(c.get(10).unwrap(), Some(100));
    assert_eq!(c.get(11).unwrap(), None);

    let entries: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 3, k)).collect();
    c.insert_batch(&entries).unwrap();

    assert_eq!(c.delete(10).unwrap(), Some(100));
    assert_eq!(c.delete(10).unwrap(), None);

    // Range spanning the whole keyspace (crosses every shard boundary).
    let got = c.range(0, u64::MAX, 0).unwrap();
    assert_eq!(got.len(), 1000);
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted");
    // Limited range truncates in key order.
    let got = c.range(0, u64::MAX, 10).unwrap();
    assert_eq!(got.len(), 10);
    assert_eq!(got[9].0, 27);

    let stats = c.stats().unwrap();
    assert_eq!(stats.len, 1000);
    assert_eq!(stats.shards, 3);

    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn pipelined_burst_coalesces_and_replies_to_every_id() {
    let server = start(ServiceConfig::small(4));
    let mut c = Client::connect(server.local_addr()).unwrap();

    // 5000 near-sorted single inserts, all in flight before one reply is
    // read: the server-side batcher must coalesce them into per-shard
    // runs yet still answer each id individually.
    let mut ids = Vec::new();
    for i in 0..5000u64 {
        let key = i.wrapping_mul(u64::MAX / 5000);
        ids.push(c.send(&Request::Insert { key, value: i }).unwrap());
    }
    c.flush().unwrap();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..ids.len() {
        let (id, reply) = c.recv().unwrap();
        assert_eq!(reply.unwrap(), Reply::Inserted);
        assert!(seen.insert(id), "duplicate reply for id {id}");
    }
    assert_eq!(seen.len(), ids.len());
    assert_eq!(c.pending(), 0);

    let stats = c.stats().unwrap();
    assert_eq!(stats.len, 5000);
    // The whole point: a pipelined near-sorted stream must ride each
    // shard's fast path, not pay 5000 top-down descents.
    assert!(
        stats.fastpath_rate() > 0.9,
        "pipelined sorted inserts must stay on the fast path, rate {}",
        stats.fastpath_rate()
    );
    // And coalescing must reach the WAL too: appends count records (all
    // 5000 are logged), but each buffered run commits as one group, so
    // fsyncs stay far below one-per-key.
    assert_eq!(stats.wal_appends, 5000);
    assert!(
        stats.wal_fsyncs < 1000,
        "batcher must coalesce WAL commits, got {} fsyncs",
        stats.wal_fsyncs
    );

    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn reads_observe_writes_from_the_same_connection() {
    let server = start(ServiceConfig::small(2));
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Pipeline inserts and a dependent get in one burst, no intermediate
    // reply reads: the router must flush buffered inserts before the get.
    let mut ids = Vec::new();
    for k in 0..100u64 {
        ids.push(
            c.send(&Request::Insert {
                key: k,
                value: k + 1,
            })
            .unwrap(),
        );
    }
    let get_id = c.send(&Request::Get { key: 57 }).unwrap();
    c.flush().unwrap();
    let mut got = None;
    for _ in 0..ids.len() + 1 {
        let (id, reply) = c.recv().unwrap();
        if id == get_id {
            got = Some(reply.unwrap());
        }
    }
    assert_eq!(got, Some(Reply::Got(Some(58))), "read-your-writes");

    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn concurrent_clients_partition_cleanly() {
    let server = start(ServiceConfig::small(4));
    let addr = server.local_addr();
    let per_client = 2000u64;
    let clients = 8u64;
    std::thread::scope(|s| {
        for t in 0..clients {
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                // Interleaved key stripes: each client's stream is sorted.
                let mut ids = Vec::new();
                for i in 0..per_client {
                    let key = (i * clients + t).wrapping_mul(u64::MAX / (per_client * clients));
                    ids.push(c.send(&Request::Insert { key, value: t }).unwrap());
                }
                c.flush().unwrap();
                for _ in ids {
                    c.recv().unwrap().1.unwrap();
                }
            });
        }
    });
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.len, per_client * clients);
    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn wire_errors_carry_the_unified_taxonomy() {
    // Config errors surface before any socket is bound.
    let err = match Server::start_in_memory(ServiceConfig::small(0), "127.0.0.1:0") {
        Ok(_) => panic!("zero shards must be rejected"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), "config");

    // A malformed frame (bad opcode) earns a corruption status on the
    // wire, reported on request id 0.
    let server = start(ServiceConfig::small(1));
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&9u32.to_le_bytes());
    frame.extend_from_slice(&77u64.to_le_bytes());
    frame.push(200); // no such opcode
    raw.write_all(&frame).unwrap();
    // [len u32][req_id u64][status u8][message…]
    let mut hdr = [0u8; 4];
    raw.read_exact(&mut hdr).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(hdr) as usize];
    raw.read_exact(&mut body).unwrap();
    assert!(body.len() > 9, "error reply carries a message");
    assert_eq!(&body[0..8], &0u64.to_le_bytes(), "decode errors use id 0");
    assert_eq!(body[8], 2, "corruption status code");
    drop(raw);
    server.shutdown().unwrap();
}

#[test]
fn paged_tree_config_is_a_config_error_not_a_panic() {
    // Shards run the concurrent tree, which is arena-only: a paged tree
    // config must be refused up front instead of panicking a shard.
    let config = ServiceConfig::small(2)
        .with_tree(ConcConfig::small(16).with_storage(StorageKind::paged(64)));
    let started = std::panic::catch_unwind(|| Server::start_in_memory(config, "127.0.0.1:0"));
    let err = match started.expect("Server::start must not panic") {
        Ok(_) => panic!("paged tree storage must be rejected"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), "config");
    assert!(err.to_string().contains("tree.storage"), "got: {err}");
}

#[test]
fn file_backed_shards_recover_after_restart() {
    let root = std::env::temp_dir().join(format!(
        "quit-service-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let config = ServiceConfig::small(3);

    let (server, reports) = Server::start_dir(&root, config.clone(), "127.0.0.1:0").unwrap();
    assert!(reports.iter().all(|r| r.recovered_lsn == 0), "fresh start");
    let mut c = Client::connect(server.local_addr()).unwrap();
    let entries: Vec<(u64, u64)> = (0..3000u64)
        .map(|k| (k.wrapping_mul(u64::MAX / 3000), k))
        .collect();
    c.insert_batch(&entries).unwrap();
    c.delete(entries[7].0).unwrap();
    drop(c);
    server.shutdown().unwrap();

    // Same directories, new process-lifetime: every acked write must be
    // back, each shard recovered from its own WAL directory.
    let (server, reports) = Server::start_dir(&root, config, "127.0.0.1:0").unwrap();
    assert!(reports.iter().any(|r| r.recovered_lsn > 0), "wal replayed");
    let mut c = Client::connect(server.local_addr()).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.len, 2999);
    assert_eq!(c.get(entries[7].0).unwrap(), None);
    assert_eq!(c.get(entries[8].0).unwrap(), Some(8));
    drop(c);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shard_dirs_follow_the_sharded_layout() {
    let root = std::env::temp_dir().join(format!("quit-service-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (server, _) = Server::start_dir(&root, ServiceConfig::small(2), "127.0.0.1:0").unwrap();
    drop(Client::connect(server.local_addr()).unwrap());
    server.shutdown().unwrap();
    assert!(root.join("shard-0000").is_dir());
    assert!(root.join("shard-0001").is_dir());
    let _ = std::fs::remove_dir_all(&root);
}

/// Holds every `sync` that reaches it while closed.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    closed: bool,
    waiting: usize,
}

impl Gate {
    fn set_closed(&self, closed: bool) {
        self.state.lock().unwrap().closed = closed;
        self.cv.notify_all();
    }

    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.waiting += 1;
        self.cv.notify_all();
        while st.closed {
            st = self.cv.wait(st).unwrap();
        }
        st.waiting -= 1;
    }

    /// Waits until some `sync` is held at the gate.
    fn wait_for_held_sync(&self, timeout: Duration) -> bool {
        let st = self.state.lock().unwrap();
        let (st, _) = self
            .cv
            .wait_timeout_while(st, timeout, |st| st.waiting == 0)
            .unwrap();
        st.waiting > 0
    }
}

/// `MemStorage` whose `sync` passes a [`Gate`] first.
struct GatedStorage {
    inner: Arc<MemStorage>,
    gate: Arc<Gate>,
}

/// `MemStorage` whose `sync` fails on its `fail_on`-th call.
struct FailingSync {
    inner: MemStorage,
    fail_on: usize,
    syncs: AtomicUsize,
}

impl FailingSync {
    fn check(&self) -> io::Result<()> {
        if self.syncs.fetch_add(1, Ordering::SeqCst) + 1 == self.fail_on {
            return Err(io::Error::other("injected fsync failure"));
        }
        Ok(())
    }
}

/// Delegates to `$inner`, running `$before` ahead of every `sync`.
macro_rules! storage_with_sync_hook {
    ($ty:ty, |$s:ident| $before:expr) => {
        impl Storage for $ty {
            fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
                self.inner.append(file, bytes)
            }
            fn sync(&self, file: &str) -> io::Result<()> {
                let $s = self;
                $before?;
                self.inner.sync(file)
            }
            fn read(&self, file: &str) -> io::Result<Vec<u8>> {
                self.inner.read(file)
            }
            fn list(&self) -> io::Result<Vec<String>> {
                self.inner.list()
            }
            fn remove(&self, file: &str) -> io::Result<()> {
                self.inner.remove(file)
            }
            fn rename(&self, from: &str, to: &str) -> io::Result<()> {
                self.inner.rename(from, to)
            }
        }
    };
}

storage_with_sync_hook!(GatedStorage, |s| {
    s.gate.pass();
    io::Result::Ok(())
});
storage_with_sync_hook!(FailingSync, |s| s.check());

type Replies = HashMap<u64, quit_service::Result<Reply>>;

/// Reads `n` replies on another thread, so the test can wait for them
/// with a deadline; the thread hands the client back when done.
fn read_replies(
    mut c: Client,
    n: usize,
) -> (
    Receiver<(u64, quit_service::Result<Reply>)>,
    JoinHandle<Client>,
) {
    let (tx, rx) = channel();
    let reader = std::thread::spawn(move || {
        for _ in 0..n {
            let reply = c.recv().expect("transport failure");
            if tx.send(reply).is_err() {
                break;
            }
        }
        c
    });
    (rx, reader)
}

/// Collects replies into `into` until it holds `n`, failing on a
/// duplicate id or when `deadline` passes first.
fn collect_replies(
    rx: &Receiver<(u64, quit_service::Result<Reply>)>,
    into: &mut Replies,
    n: usize,
    deadline: Instant,
) {
    while into.len() < n {
        let left = deadline.saturating_duration_since(Instant::now());
        let (id, reply) = rx
            .recv_timeout(left)
            .unwrap_or_else(|e| panic!("{} of {n} replies by the deadline: {e}", into.len()));
        assert!(into.insert(id, reply).is_none(), "two replies for id {id}");
    }
}

/// A key of shard `shard` of 2.
fn key_on(shard: u64, offset: u64) -> u64 {
    let key = shard * (u64::MAX / 2 + 1) + offset;
    assert_eq!(shard_of(key, 2), shard as usize);
    key
}

/// The gated-sync scenario: a 2-shard server whose every fsync passes one
/// gate. With the gate closed it pipelines an insert per shard, a get of
/// the first insert, a delete, a cross-shard `InsertBatch` and a
/// cross-shard range, then waits a bounded time for any reply.
struct GatedBurst {
    server: Server,
    mems: Vec<Arc<MemStorage>>,
    client: Client,
    /// The first reply that arrived while an fsync was held, if any.
    early: Option<u64>,
    replies: Replies,
    expected: Vec<(u64, Reply)>,
    model: BTreeMap<u64, u64>,
}

fn gated_burst() -> GatedBurst {
    let gate = Arc::new(Gate::default());
    let mems: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
    let storages = mems
        .iter()
        .map(|inner| {
            Arc::new(GatedStorage {
                inner: inner.clone(),
                gate: gate.clone(),
            }) as Arc<dyn Storage>
        })
        .collect();
    let (server, _) = Server::start(storages, ServiceConfig::small(2), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    let mut model = BTreeMap::new();
    let preload: Vec<(u64, u64)> = (0..50)
        .flat_map(|i| [(key_on(0, i), i), (key_on(1, i), 100 + i)])
        .collect();
    c.insert_batch(&preload).unwrap();
    model.extend(preload.iter().copied());

    gate.set_closed(true);
    let (a, b, gone) = (key_on(0, 100), key_on(1, 100), key_on(0, 5));
    let batch = vec![(key_on(0, 200), 3), (key_on(1, 200), 4)];
    let (start, end) = (key_on(0, 0), key_on(1, 1000));
    let deleted = model.remove(&gone);
    model.extend([(a, 1), (b, 2)]);
    model.extend(batch.iter().copied());
    let in_range = model.range(start..=end).map(|(&k, &v)| (k, v)).collect();
    let plan = [
        (Request::Insert { key: a, value: 1 }, Reply::Inserted),
        (Request::Insert { key: b, value: 2 }, Reply::Inserted),
        (Request::Get { key: a }, Reply::Got(Some(1))),
        (Request::Delete { key: gone }, Reply::Deleted(deleted)),
        (
            Request::InsertBatch { entries: batch },
            Reply::BatchInserted { fast: 0 },
        ),
        (
            Request::Range {
                start,
                end,
                limit: 0,
            },
            Reply::Entries(in_range),
        ),
    ];
    let expected: Vec<(u64, Reply)> = plan
        .into_iter()
        .map(|(req, reply)| (c.send(&req).unwrap(), reply))
        .collect();
    c.flush().unwrap();

    let n = expected.len();
    let (rx, reader) = read_replies(c, n);
    assert!(
        gate.wait_for_held_sync(Duration::from_secs(10)),
        "no shard reached its fsync"
    );
    let mut replies = Replies::new();
    let early = match rx.recv_timeout(Duration::from_millis(300)) {
        Ok((id, reply)) => {
            replies.insert(id, reply);
            Some(id)
        }
        Err(RecvTimeoutError::Timeout) => None,
        Err(e) => panic!("reply reader stopped: {e}"),
    };
    gate.set_closed(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    collect_replies(&rx, &mut replies, n, deadline);
    GatedBurst {
        server,
        mems,
        client: reader.join().unwrap(),
        early,
        replies,
        expected,
        model,
    }
}

#[cfg(not(feature = "inject-early-reply"))]
#[test]
fn replies_wait_for_the_fsync() {
    let GatedBurst {
        server,
        mems,
        mut client,
        early,
        replies,
        expected,
        model,
    } = gated_burst();
    assert_eq!(early, None, "a reply left before its write was durable");
    for (id, want) in &expected {
        match (replies[id].as_ref().unwrap(), want) {
            // How many entries took the fast path is the tree's business.
            (Reply::BatchInserted { .. }, Reply::BatchInserted { .. }) => {}
            (got, want) => assert_eq!(got, want, "reply to id {id}"),
        }
    }

    // A write-free burst waits for nothing: no fsync at all.
    let fsyncs = client.stats().unwrap().wal_fsyncs;
    for &key in model.keys() {
        client.send(&Request::Get { key }).unwrap();
    }
    client.flush().unwrap();
    for _ in 0..model.len() {
        assert!(matches!(client.recv().unwrap().1, Ok(Reply::Got(Some(_)))));
    }
    assert_eq!(client.stats().unwrap().wal_fsyncs, fsyncs, "gets fsynced");

    // Every acknowledged write is already durable: a crash that keeps
    // only fsynced bytes recovers all of them.
    let crashed = mems
        .iter()
        .map(|m| Arc::new(m.crash_durable_only()) as Arc<dyn Storage>)
        .collect();
    drop(client);
    server.shutdown().unwrap();
    let (server, _) = Server::start(crashed, ServiceConfig::small(2), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let scan = c.range(0, u64::MAX, 0).unwrap();
    assert_eq!(scan, model.into_iter().collect::<Vec<_>>());
    drop(c);
    server.shutdown().unwrap();
}

#[cfg(feature = "inject-early-reply")]
#[test]
fn early_reply_mutation_is_caught() {
    let burst = gated_burst();
    assert!(
        burst.early.is_some(),
        "the injected early reply must arrive while the fsync is held"
    );
    assert_eq!(burst.replies.len(), burst.expected.len());
    drop(burst.client);
    burst.server.shutdown().unwrap();
}

// Not under the mutation: an early reply acknowledges writes whose fsync
// then fails, which this test rightly rejects too.
#[cfg(not(feature = "inject-early-reply"))]
#[test]
fn a_failing_shard_still_answers() {
    let failing = Arc::new(FailingSync {
        inner: MemStorage::new(),
        fail_on: 3,
        syncs: AtomicUsize::new(0),
    });
    let storages: Vec<Arc<dyn Storage>> = vec![failing.clone(), Arc::new(MemStorage::new())];
    let (server, _) = Server::start(storages, ServiceConfig::small(2), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Two durable writes on shard 0 use up its healthy fsyncs.
    c.insert(key_on(0, 0), 0).unwrap();
    c.insert(key_on(0, 1), 1).unwrap();
    assert_eq!(failing.syncs.load(Ordering::SeqCst), 2);

    // A mixed burst across both shards; shard 0's next fsync fails.
    let mut shard0_writes = Vec::new();
    let mut shard1_ops = Vec::new();
    let mut cross = Vec::new();
    for i in 10..40 {
        let (lo, hi) = (key_on(0, i), key_on(1, i));
        shard0_writes.push(c.send(&Request::Insert { key: lo, value: i }).unwrap());
        shard1_ops.push(c.send(&Request::Insert { key: hi, value: i }).unwrap());
        c.send(&Request::Get { key: lo }).unwrap();
        shard1_ops.push(c.send(&Request::Get { key: hi }).unwrap());
        if i % 10 == 0 {
            shard0_writes.push(c.send(&Request::Delete { key: lo - 1 }).unwrap());
            let entries = vec![(lo + 1000, i), (hi + 1000, i)];
            cross.push(c.send(&Request::InsertBatch { entries }).unwrap());
            let (start, end) = (key_on(0, 0), key_on(1, 0));
            c.send(&Request::Range {
                start,
                end,
                limit: 0,
            })
            .unwrap();
            c.send(&Request::Stats).unwrap();
        }
    }
    c.flush().unwrap();
    let n = c.pending();
    let (rx, reader) = read_replies(c, n);
    let mut replies = Replies::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    collect_replies(&rx, &mut replies, n, deadline);
    let mut c = reader.join().unwrap();

    let kind = |id: &u64| replies[id].as_ref().err().map(|e| e.kind());
    assert!(
        shard0_writes
            .iter()
            .chain(&cross)
            .all(|id| matches!(kind(id), Some("wal" | "shutdown"))),
        "shard 0's writes behind the failure must answer Wal or Shutdown"
    );
    assert!(
        shard0_writes.iter().any(|id| kind(id) == Some("wal")),
        "the writes held for the failed fsync answer Wal"
    );
    assert!(
        shard1_ops.iter().all(|id| replies[id].is_ok()),
        "shard 1 is unaffected"
    );

    // The healthy shard keeps serving; the failed one refuses.
    let hi = key_on(1, 5000);
    c.insert(hi, 7).unwrap();
    assert_eq!(c.get(hi).unwrap(), Some(7));
    assert_eq!(c.range(hi, hi, 0).unwrap(), vec![(hi, 7)]);
    assert_eq!(c.get(key_on(0, 0)).unwrap_err().kind(), "shutdown");
    assert_eq!(c.insert(key_on(0, 5000), 1).unwrap_err().kind(), "shutdown");
    drop(c);
    assert_eq!(server.shutdown().unwrap_err().kind(), "wal");
}
