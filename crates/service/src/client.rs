//! A blocking client for the wire protocol, with explicit pipelining.
//!
//! The convenience methods ([`insert`](Client::insert),
//! [`get`](Client::get), …) are synchronous round trips. The pipelined
//! surface — [`send`](Client::send) / [`flush`](Client::flush) /
//! [`recv`](Client::recv) — lets a caller keep many requests in flight
//! and match replies by id, which is what makes a single connection's
//! sorted stream coalesce into per-shard runs server-side (and what the
//! closed-loop bench drives).

use crate::wire::{read_reply, write_request, Reply, ReplyShape, Request, ServiceStats};
use quit_core::{Error, Result};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connection to a [`crate::Server`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    inflight: HashMap<u64, ReplyShape>,
}

impl Client {
    /// Connects (with `TCP_NODELAY`; the protocol batches explicitly).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
            inflight: HashMap::new(),
        })
    }

    /// Requests in flight (sent, reply not yet received).
    pub fn pending(&self) -> usize {
        self.inflight.len()
    }

    /// Queues `req` without flushing; returns its id. Pair with
    /// [`flush`](Self::flush) and [`recv`](Self::recv).
    pub fn send(&mut self, req: &Request) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.inflight.insert(id, req.reply_shape());
        write_request(&mut self.writer, id, req)?;
        Ok(id)
    }

    /// Pushes queued requests to the wire.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Receives the next reply (any in-flight id; replies across shards
    /// may arrive out of submission order). The outer `Result` is
    /// transport failure; the inner is the server's per-request status.
    pub fn recv(&mut self) -> Result<(u64, Result<Reply>)> {
        let inflight = &mut self.inflight;
        let (id, reply) = read_reply(&mut self.reader, |id| {
            inflight
                .remove(&id)
                .ok_or_else(|| Error::corruption(format!("reply for unknown request id {id}")))
        })?;
        // An error status carries no payload, so the decoder never looked
        // its id up; the request is answered all the same.
        inflight.remove(&id);
        Ok((id, reply))
    }

    /// One synchronous round trip. Must not be interleaved with
    /// outstanding pipelined requests (the reply stream would be
    /// ambiguous to the caller); use `send`/`recv` for that.
    fn call(&mut self, req: &Request) -> Result<Reply> {
        if !self.inflight.is_empty() {
            return Err(Error::config(
                "synchronous call with pipelined requests outstanding",
            ));
        }
        let id = self.send(req)?;
        self.flush()?;
        let (rid, reply) = self.recv()?;
        if rid != id {
            return Err(Error::corruption(format!(
                "reply id {rid} for request {id}"
            )));
        }
        reply
    }

    /// Inserts one pair (durable per the server's configured level when
    /// the reply arrives).
    pub fn insert(&mut self, key: u64, value: u64) -> Result<()> {
        match self.call(&Request::Insert { key, value })? {
            Reply::Inserted => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Inserts a batch in submission order; returns how many entries
    /// rode the sorted-run fast path across the shards it touched.
    pub fn insert_batch(&mut self, entries: &[(u64, u64)]) -> Result<u64> {
        let req = Request::InsertBatch {
            entries: entries.to_vec(),
        };
        match self.call(&req)? {
            Reply::BatchInserted { fast } => Ok(fast),
            other => Err(unexpected(&other)),
        }
    }

    /// Point lookup.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>> {
        match self.call(&Request::Get { key })? {
            Reply::Got(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Deletes `key`, returning the previous value if it existed.
    pub fn delete(&mut self, key: u64) -> Result<Option<u64>> {
        match self.call(&Request::Delete { key })? {
            Reply::Deleted(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Inclusive range scan in global key order, capped at `limit`
    /// entries (`0` = server maximum).
    pub fn range(&mut self, start: u64, end: u64, limit: u32) -> Result<Vec<(u64, u64)>> {
        match self.call(&Request::Range { start, end, limit })? {
            Reply::Entries(entries) => Ok(entries),
            other => Err(unexpected(&other)),
        }
    }

    /// Service-wide counters, aggregated across every shard.
    pub fn stats(&mut self) -> Result<ServiceStats> {
        match self.call(&Request::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(reply: &Reply) -> Error {
    Error::corruption(format!("reply shape mismatch: {reply:?}"))
}
