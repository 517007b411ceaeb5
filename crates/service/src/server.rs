//! The sharded TCP server: one `Durable<ConcurrentTree>` (and one WAL
//! directory) per shard, one worker thread per shard, and per-connection
//! reader/writer threads gluing the wire protocol to the shard channels.
//!
//! ## Threading model
//!
//! * **Shard worker** — owns its `Durable<ConcurrentTree<u64, u64>>`
//!   outright, so mutations go through the `&mut self` path and buffered
//!   single-insert runs reach `insert_batch`'s sorted-run detection
//!   exactly like an embedded caller's would. Within a shard, operations
//!   apply in channel order (which is submission order per connection),
//!   so a connection always reads its own writes.
//! * **Group commit per drain** — the worker blocks for one message, then
//!   takes whatever is already queued behind it, up to [`DRAIN_CAP`]
//!   messages. Each write is logged and applied without waiting for
//!   durability; the drain then waits once, for its highest LSN — one
//!   fsync per drain at `GroupCommit`, none at `Buffered`/`Off`. Runs are
//!   never merged across messages, so each shard sees the same
//!   `insert_batch` sequence it would with one wait per message.
//! * **Replies only once durable** — a reply leaves the worker only after
//!   every write the worker applied before it is durable. Answers that
//!   come before the drain's first write go out at once; from the first
//!   write on they are held until the drain's durability wait returns.
//!   Gets and ranges may read not-yet-durable state inside a drain, but no
//!   client sees it before it is durable.
//! * **Connection reader** — decodes frames, accumulates single inserts
//!   in a [`InsertBatcher`], and flushes a shard's run when it reaches
//!   `batch_max`, when a non-insert request arrives (read-your-writes),
//!   or when the connection's read buffer drains — the natural pipelining
//!   window: everything a client sent in one burst coalesces into one
//!   run per shard and one WAL append.
//! * **Connection writer** — drains pre-encoded reply frames from an
//!   mpsc channel into a `BufWriter`, flushing whenever the channel goes
//!   momentarily empty. Replies to different shards' requests may
//!   interleave out of submission order; the client matches them by id.
//!
//! Cross-shard requests (`InsertBatch` spanning a boundary, `Range`,
//! `Stats`) fan out to every involved worker and gather through a small
//! countdown aggregate; the last worker to finish encodes the one reply,
//! which carries the first error any shard reported.
//!
//! A WAL append or fsync failure poisons the shard's log. Its worker
//! answers every held request with `Wal` and every later one with
//! `Shutdown`, and exits once its channel closes; healthy shards keep
//! serving, and [`Server::shutdown`] reports the failure as `Wal`.

use crate::config::ServiceConfig;
use crate::router::{is_batchable, shards_overlapping, split_batch, InsertBatcher};
use crate::wire::{encode_reply, read_request, Reply, Request, ServiceStats, MAX_RANGE_RESULTS};
use quit_concurrent::ConcurrentTree;
use quit_core::{Error, Result, SortedIndex};
use quit_durability::{
    concurrent_builder, Durable, FsStorage, Lsn, MemStorage, RecoveryReport, Storage,
};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, SendError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Shard = Durable<ConcurrentTree<u64, u64>>;
type Entries = Vec<(u64, u64)>;

/// Most messages one drain applies before it waits for durability. Every
/// answer after the drain's first write is held until that wait returns,
/// so the cap bounds held-reply memory when producers outpace the worker.
const DRAIN_CAP: usize = 4096;

/// What a request fanned out to several shards gathers from each.
trait Gather {
    type Part;
    fn add(&mut self, part: Self::Part);
    fn reply(self) -> Reply;
}

/// A client `InsertBatch` spanning shards: fast-path entries summed.
struct FastSum(u64);

impl Gather for FastSum {
    type Part = u64;
    fn add(&mut self, fast: u64) {
        self.0 += fast;
    }
    fn reply(self) -> Reply {
        Reply::BatchInserted { fast: self.0 }
    }
}

/// A range spanning shards: per-shard results land in slot order (shard
/// ranges are disjoint and ascending, so concatenation is globally
/// sorted), truncated to the limit.
struct RangeParts {
    limit: usize,
    slots: Vec<Entries>,
}

impl Gather for RangeParts {
    type Part = (usize, Entries);
    fn add(&mut self, (slot, entries): (usize, Entries)) {
        self.slots[slot] = entries;
    }
    fn reply(self) -> Reply {
        let mut out = Vec::new();
        for part in self.slots {
            out.extend(part);
            if out.len() >= self.limit {
                break;
            }
        }
        out.truncate(self.limit);
        Reply::Entries(out)
    }
}

/// Stats across every shard, summed by the workers themselves.
impl Gather for ServiceStats {
    type Part = ServiceStats;
    fn add(&mut self, part: ServiceStats) {
        self.len += part.len;
        self.fast_inserts += part.fast_inserts;
        self.top_inserts += part.top_inserts;
        self.wal_appends += part.wal_appends;
        self.wal_fsyncs += part.wal_fsyncs;
    }
    fn reply(self) -> Reply {
        Reply::Stats(self)
    }
}

/// A request fanned out to `remaining` shards: parts gather under a lock,
/// the first error wins, and the last shard to finish sends the reply.
struct Agg<G> {
    req_id: u64,
    remaining: AtomicUsize,
    acc: Mutex<Result<G>>,
    reply: Sender<Vec<u8>>,
}

impl<G: Gather> Agg<G> {
    fn new(req_id: u64, parts: usize, acc: G, reply: &Sender<Vec<u8>>) -> Arc<Self> {
        Arc::new(Agg {
            req_id,
            remaining: AtomicUsize::new(parts),
            acc: Mutex::new(Ok(acc)),
            reply: reply.clone(),
        })
    }

    fn done(&self, part: Result<G::Part>) {
        let mut acc = self.acc.lock().expect("a shard worker panicked mid-gather");
        match part {
            Ok(part) => {
                if let Ok(acc) = &mut *acc {
                    acc.add(part);
                }
            }
            Err(e) => {
                if acc.is_ok() {
                    *acc = Err(e);
                }
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let out = std::mem::replace(&mut *acc, Err(Error::Shutdown));
            let _ = self
                .reply
                .send(encode_reply(self.req_id, &out.map(G::reply)));
        }
    }
}

enum ShardMsg {
    /// A contiguous run of buffered single inserts; each id gets its own
    /// `Inserted` reply once the whole run is applied (and durable, per
    /// the configured level).
    Run {
        entries: Entries,
        req_ids: Vec<u64>,
        reply: Sender<Vec<u8>>,
    },
    /// One shard's slice of a client `InsertBatch`.
    Batch {
        entries: Entries,
        agg: Arc<Agg<FastSum>>,
    },
    Get {
        key: u64,
        req_id: u64,
        reply: Sender<Vec<u8>>,
    },
    Delete {
        key: u64,
        req_id: u64,
        reply: Sender<Vec<u8>>,
    },
    Range {
        start: u64,
        end: u64,
        fetch: usize,
        slot: usize,
        agg: Arc<Agg<RangeParts>>,
    },
    Stats {
        agg: Arc<Agg<ServiceStats>>,
    },
}

impl ShardMsg {
    /// Answers the message with `err` without applying it.
    fn refuse(self, err: &dyn Fn() -> Error) {
        let answer = match self {
            ShardMsg::Run { req_ids, reply, .. } => Answer::Run { req_ids, reply },
            ShardMsg::Batch { agg, .. } => Answer::Batch(agg, 0),
            ShardMsg::Get { req_id, reply, .. } | ShardMsg::Delete { req_id, reply, .. } => {
                Answer::One {
                    req_id,
                    answer: Reply::Got(None),
                    reply,
                }
            }
            ShardMsg::Range { slot, agg, .. } => Answer::Range(agg, slot, Vec::new()),
            ShardMsg::Stats { agg } => Answer::Stats(agg, ServiceStats::default()),
        };
        answer.finish(Some(err));
    }
}

/// An applied message's answer: sent at once, or held until every write
/// the worker applied before it is durable.
enum Answer {
    /// `Inserted` for every id of a buffered run.
    Run {
        req_ids: Vec<u64>,
        reply: Sender<Vec<u8>>,
    },
    One {
        req_id: u64,
        answer: Reply,
        reply: Sender<Vec<u8>>,
    },
    Batch(Arc<Agg<FastSum>>, u64),
    Range(Arc<Agg<RangeParts>>, usize, Entries),
    Stats(Arc<Agg<ServiceStats>>, ServiceStats),
}

impl Answer {
    /// Sends the answer, or `err()` in its place.
    fn finish(self, err: Option<&dyn Fn() -> Error>) {
        fn status<T>(ok: T, err: Option<&dyn Fn() -> Error>) -> Result<T> {
            match err {
                Some(err) => Err(err()),
                None => Ok(ok),
            }
        }
        match self {
            Answer::Run { req_ids, reply } => {
                for id in req_ids {
                    let _ = reply.send(encode_reply(id, &status(Reply::Inserted, err)));
                }
            }
            Answer::One {
                req_id,
                answer,
                reply,
            } => {
                let _ = reply.send(encode_reply(req_id, &status(answer, err)));
            }
            Answer::Batch(agg, fast) => agg.done(status(fast, err)),
            Answer::Range(agg, slot, entries) => agg.done(status((slot, entries), err)),
            Answer::Stats(agg, stats) => agg.done(status(stats, err)),
        }
    }
}

/// Applies one message, logging its writes without waiting for
/// durability. Returns the answer and either the LSN the answer must wait
/// for (`None` for reads, and for writes below `GroupCommit`) or the WAL
/// error that stopped the write before it was applied.
fn apply(shard: &mut Shard, msg: ShardMsg) -> (Answer, Result<Option<Lsn>>) {
    match msg {
        ShardMsg::Run {
            entries,
            req_ids,
            reply,
        } => {
            let lsn = shard.insert_batch_nowait(&entries).map(|(_, lsn)| lsn);
            (Answer::Run { req_ids, reply }, lsn)
        }
        ShardMsg::Batch { entries, agg } => match shard.insert_batch_nowait(&entries) {
            Ok((fast, lsn)) => (Answer::Batch(agg, fast as u64), Ok(lsn)),
            Err(e) => (Answer::Batch(agg, 0), Err(e)),
        },
        ShardMsg::Get { key, req_id, reply } => {
            let answer = Reply::Got(shard.tree().get(key));
            (
                Answer::One {
                    req_id,
                    answer,
                    reply,
                },
                Ok(None),
            )
        }
        ShardMsg::Delete { key, req_id, reply } => {
            let (prev, lsn) = match shard.delete_nowait(key) {
                Ok((prev, lsn)) => (prev, Ok(lsn)),
                Err(e) => (None, Err(e)),
            };
            (
                Answer::One {
                    req_id,
                    answer: Reply::Deleted(prev),
                    reply,
                },
                lsn,
            )
        }
        ShardMsg::Range {
            start,
            end,
            fetch,
            slot,
            agg,
        } => {
            let entries = shard.tree().range(start..=end).take(fetch).collect();
            (Answer::Range(agg, slot, entries), Ok(None))
        }
        ShardMsg::Stats { agg } => {
            let snap = shard.metrics();
            let stats = ServiceStats {
                len: shard.len() as u64,
                fast_inserts: snap.fast_inserts,
                top_inserts: snap.top_inserts,
                wal_appends: snap.wal_appends,
                wal_fsyncs: snap.wal_fsyncs,
                // Set once by the aggregate.
                shards: 0,
            };
            (Answer::Stats(agg, stats), Ok(None))
        }
    }
}

/// The shard's single-writer group-commit loop (see the module docs).
/// Returns the WAL error that stopped it, if any.
fn shard_worker(mut shard: Shard, rx: Receiver<ShardMsg>) -> Result<()> {
    let mut held: Vec<Answer> = Vec::new();
    while let Ok(first) = rx.recv() {
        // Highest LSN applied in this drain that still needs a durability
        // wait; answers are held from the moment it is set.
        let mut pending: Option<Lsn> = None;
        let mut failure = None;
        let drain = std::iter::once(first)
            .chain(std::iter::from_fn(|| rx.try_recv().ok()))
            .take(DRAIN_CAP);
        for msg in drain {
            let (answer, logged) = apply(&mut shard, msg);
            match logged {
                Ok(lsn) => {
                    pending = pending.max(lsn);
                    if pending.is_some() {
                        held.push(answer);
                    } else {
                        answer.finish(None);
                    }
                }
                Err(e) => {
                    held.push(answer);
                    failure = Some(e);
                    break;
                }
            }
        }
        #[cfg(feature = "inject-early-reply")]
        for answer in held.drain(..) {
            answer.finish(None);
        }
        if failure.is_none() {
            failure = shard.wait_durable(pending).err();
        }
        let Some(e) = failure else {
            for answer in held.drain(..) {
                answer.finish(None);
            }
            continue;
        };
        // The log is poisoned: held answers cannot be promised durable,
        // and nothing after them will be applied. Keep answering until
        // every sender is gone so no request is dropped unanswered.
        let msg = e.to_string();
        for answer in held.drain(..) {
            answer.finish(Some(&|| Error::wal(msg.clone())));
        }
        for later in rx.iter() {
            later.refuse(&|| Error::Shutdown);
        }
        return Err(Error::wal(msg));
    }
    // Every connection and the acceptor dropped their senders: final
    // durability point before the thread exits (the log may hold
    // buffered bytes at the `Buffered` level).
    shard.commit_all()
}

/// The sharded TCP server. Construction recovers every shard (each from
/// its own storage directory) and starts serving; [`Server::shutdown`]
/// (Self::shutdown) stops accepting, closes live connections, and drains
/// the shard workers to a durable stop.
pub struct Server {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<Result<()>>>,
}

impl Server {
    /// Starts a server on `addr` (use port 0 for an ephemeral port; read
    /// it back via [`local_addr`](Self::local_addr)) with one storage
    /// backend per shard — `storages.len()` must equal `config.shards`.
    /// Returns the per-shard recovery reports alongside the handle.
    pub fn start(
        storages: Vec<Arc<dyn Storage>>,
        config: ServiceConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<(Server, Vec<RecoveryReport>)> {
        config.validate()?;
        if storages.len() != config.shards {
            return Err(Error::config(format!(
                "{} storage backends for {} shards",
                storages.len(),
                config.shards
            )));
        }
        let mut workers = Vec::with_capacity(config.shards);
        let mut txs = Vec::with_capacity(config.shards);
        let mut reports = Vec::with_capacity(config.shards);
        for storage in storages {
            let (shard, report) = Durable::open(
                storage,
                config.durability,
                concurrent_builder::<u64, u64>(config.tree.clone()),
            )?;
            reports.push(report);
            let (tx, rx) = channel();
            txs.push(tx);
            workers.push(std::thread::spawn(move || shard_worker(shard, rx)));
        }

        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stopping = stopping.clone();
            let conns = conns.clone();
            let batch_max = config.batch_max;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    if let Ok(clone) = stream.try_clone() {
                        conns.lock().unwrap().push(clone);
                    }
                    let txs = txs.clone();
                    std::thread::spawn(move || connection(stream, txs, batch_max));
                }
                // `txs` drops here; workers exit once every live
                // connection's clones drop too.
            })
        };

        Ok((
            Server {
                addr,
                stopping,
                conns,
                accept: Some(accept),
                workers,
            },
            reports,
        ))
    }

    /// [`start`](Self::start) on one in-memory backend per shard (tests
    /// and benches; nothing survives the process).
    pub fn start_in_memory(
        config: ServiceConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<(Server, Vec<RecoveryReport>)> {
        let storages = (0..config.shards)
            .map(|_| Arc::new(MemStorage::new()) as Arc<dyn Storage>)
            .collect();
        Self::start(storages, config, addr)
    }

    /// [`start`](Self::start) on `root/shard-NNNN/` file-backed WAL
    /// directories (created as needed) — the durable deployment shape.
    pub fn start_dir(
        root: impl AsRef<Path>,
        config: ServiceConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<(Server, Vec<RecoveryReport>)> {
        let storages = FsStorage::open_sharded(root.as_ref(), config.shards)?
            .into_iter()
            .map(|s| s as Arc<dyn Storage>)
            .collect();
        Self::start(storages, config, addr)
    }

    /// The bound address (the ephemeral port, if 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: no new connections, live connections closed,
    /// shard workers drained to a durable stop. Blocks until every
    /// worker has exited.
    pub fn shutdown(mut self) -> Result<()> {
        self.stopping.store(true, Ordering::Release);
        // Wake the acceptor so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Close live connections; their readers see EOF/reset, flush
        // nothing further, and drop their shard senders.
        for conn in self.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let mut failed = 0usize;
        for h in self.workers.drain(..) {
            if !matches!(h.join(), Ok(Ok(()))) {
                failed += 1;
            }
        }
        if failed > 0 {
            return Err(Error::wal(format!(
                "{failed} shard worker(s) stopped on a WAL failure"
            )));
        }
        Ok(())
    }
}

/// Sends `msg` to a shard worker, answering it with `Shutdown` if the
/// worker is gone.
fn submit(tx: &Sender<ShardMsg>, msg: ShardMsg) {
    if let Err(SendError(msg)) = tx.send(msg) {
        msg.refuse(&|| Error::Shutdown);
    }
}

/// Submits one buffered run of single inserts.
fn submit_run(tx: &Sender<ShardMsg>, run: (Entries, Vec<u64>), reply: &Sender<Vec<u8>>) {
    let (entries, req_ids) = run;
    let reply = reply.clone();
    submit(
        tx,
        ShardMsg::Run {
            entries,
            req_ids,
            reply,
        },
    );
}

fn connection(stream: TcpStream, shard_txs: Vec<Sender<ShardMsg>>, batch_max: usize) {
    let shards = shard_txs.len();
    let (reply_tx, reply_rx) = channel::<Vec<u8>>();
    let writer = match stream.try_clone() {
        Ok(w) => std::thread::spawn(move || writer_loop(w, reply_rx)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut batcher = InsertBatcher::new(shards, batch_max);

    loop {
        let (req_id, req) = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            // Clean disconnect at a frame boundary.
            Ok(None) => break,
            Err(e) => {
                // The stream is desynchronized; report on id 0 (never
                // issued by well-formed clients) and hang up.
                let _ = reply_tx.send(encode_reply(0, &Err(e)));
                break;
            }
        };

        if !is_batchable(&req) {
            // Read-your-writes: everything this connection buffered must
            // reach the workers (in channel order) before the new
            // request does.
            for (shard, entries, req_ids) in batcher.drain() {
                submit_run(&shard_txs[shard], (entries, req_ids), &reply_tx);
            }
        }

        match req {
            Request::Insert { key, value } => {
                if let Some((shard, entries, req_ids)) = batcher.push(req_id, key, value) {
                    submit_run(&shard_txs[shard], (entries, req_ids), &reply_tx);
                }
            }
            Request::InsertBatch { entries } => {
                let runs = split_batch(&entries, shards);
                if runs.is_empty() {
                    let _ =
                        reply_tx.send(encode_reply(req_id, &Ok(Reply::BatchInserted { fast: 0 })));
                } else {
                    let agg = Agg::new(req_id, runs.len(), FastSum(0), &reply_tx);
                    for (shard, entries) in runs {
                        let agg = agg.clone();
                        submit(&shard_txs[shard], ShardMsg::Batch { entries, agg });
                    }
                }
            }
            Request::Get { key } => {
                let shard = crate::router::shard_of(key, shards);
                let reply = reply_tx.clone();
                submit(&shard_txs[shard], ShardMsg::Get { key, req_id, reply });
            }
            Request::Delete { key } => {
                let shard = crate::router::shard_of(key, shards);
                let reply = reply_tx.clone();
                submit(&shard_txs[shard], ShardMsg::Delete { key, req_id, reply });
            }
            Request::Range { start, end, limit } => {
                let limit = if limit == 0 || limit > MAX_RANGE_RESULTS {
                    MAX_RANGE_RESULTS as usize
                } else {
                    limit as usize
                };
                let span = shards_overlapping(start, end, shards);
                let count = span.clone().count();
                if count == 0 {
                    let _ = reply_tx.send(encode_reply(req_id, &Ok(Reply::Entries(Vec::new()))));
                } else {
                    let parts = RangeParts {
                        limit,
                        slots: vec![Vec::new(); count],
                    };
                    let agg = Agg::new(req_id, count, parts, &reply_tx);
                    for (slot, shard) in span.enumerate() {
                        let msg = ShardMsg::Range {
                            start,
                            end,
                            fetch: limit,
                            slot,
                            agg: agg.clone(),
                        };
                        submit(&shard_txs[shard], msg);
                    }
                }
            }
            Request::Stats => {
                let acc = ServiceStats {
                    shards: shards as u32,
                    ..ServiceStats::default()
                };
                let agg = Agg::new(req_id, shards, acc, &reply_tx);
                for tx in &shard_txs {
                    submit(tx, ShardMsg::Stats { agg: agg.clone() });
                }
            }
        }

        // The pipelining window closed: nothing more is already buffered,
        // so the next read may block — flush what this burst accumulated.
        if !batcher.is_empty() && reader.buffer().is_empty() {
            for (shard, entries, req_ids) in batcher.drain() {
                submit_run(&shard_txs[shard], (entries, req_ids), &reply_tx);
            }
        }
    }

    for (shard, entries, req_ids) in batcher.drain() {
        submit_run(&shard_txs[shard], (entries, req_ids), &reply_tx);
    }
    // Dropping reply_tx lets the writer drain outstanding worker replies
    // and exit once the last agg/worker clone drops.
    drop(reply_tx);
    let _ = writer.join();
}

fn writer_loop(stream: TcpStream, rx: Receiver<Vec<u8>>) {
    let mut w = BufWriter::new(stream);
    loop {
        match rx.try_recv() {
            Ok(frame) => {
                if w.write_all(&frame).is_err() {
                    return;
                }
            }
            Err(TryRecvError::Empty) => {
                // Momentarily idle: push replies to the wire, then block.
                if w.flush().is_err() {
                    return;
                }
                match rx.recv() {
                    Ok(frame) => {
                        if w.write_all(&frame).is_err() {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
            Err(TryRecvError::Disconnected) => {
                let _ = w.flush();
                return;
            }
        }
    }
}
