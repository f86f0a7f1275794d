//! The chunked binary trace format and its streaming reader
//! (DESIGN.md §11).
//!
//! JSON trace logs ([`TraceLog::save`]) are the repeatability format of
//! record, but they force O(trace) peak memory: the whole file becomes a
//! `String`, then a parsed JSON tree, then the event `Vec`, before the
//! first access is simulated. This module adds the scale path the
//! ROADMAP calls for — a compact binary layout that decodes 3–10× faster
//! and a [`TraceReader`] that overlaps disk I/O + decode with simulation
//! at O(chunk) peak memory.
//!
//! # Layout
//!
//! ```text
//! magic  b"CCET"                      4 bytes
//! version u16 LE                      (currently 1)
//! header frame                        len u32 LE · crc32 u32 LE · payload
//!   payload: varint name_len · name bytes
//!            varint event_count
//!            varint superblock_count
//!            per superblock: varint id · head_pc · size · guest_blocks · exits
//! event chunks (≤ chunk_events each)  len u32 LE · crc32 u32 LE · payload
//!   payload: varint chunk_event_count
//!            per event: varint id · tag u8 (0 = dispatcher, 1 = direct)
//!                       [varint from, when tag = 1]
//! terminator                          len u32 LE = 0
//! ```
//!
//! Every frame carries its own CRC-32 (ISO-HDLC, zlib-compatible), so a
//! flipped bit or a truncated tail is a hard [`TraceLogError::Corrupt`]
//! instead of a silently wrong figure. The explicit terminator makes
//! truncation at a frame boundary detectable too. All integers are
//! varints ([`cce_util::varint`]): superblock ids and sizes are small,
//! so real logs shrink ~4× against the JSON form. Storing `event_count`
//! in the header lets streaming replay place its periodic link-graph
//! censuses exactly where in-memory replay does — byte-identical
//! results at any chunk size.

use crate::trace_log::{SuperblockInfo, TraceEvent, TraceLog, TraceLogError};
use cce_core::SuperblockId;
use cce_tinyvm::program::Pc;
use cce_util::crc::crc32;
use cce_util::varint;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

/// First bytes of every binary trace file.
pub const MAGIC: [u8; 4] = *b"CCET";

/// The format version this build writes and reads.
pub const VERSION: u16 = 1;

/// Events per chunk written by [`save_binary`]: big enough to amortize
/// framing and syscalls, small enough that a reader buffering a few
/// chunks stays in the L2-cache ballpark (~64K events ≈ 0.5 MB decoded).
pub const DEFAULT_CHUNK_EVENTS: usize = 64 * 1024;

/// Decoded chunks the reader thread may buffer ahead of the consumer.
pub const DEFAULT_READER_DEPTH: usize = 2;

pub(crate) fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), TraceLogError> {
    let len = u32::try_from(payload.len()).map_err(|_| TraceLogError::Corrupt("frame too big"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

pub(crate) fn encode_event(buf: &mut Vec<u8>, ev: TraceEvent) {
    let TraceEvent::Access { id, direct_from } = ev;
    varint::write_u64(buf, id.0);
    match direct_from {
        None => buf.push(0),
        Some(from) => {
            buf.push(1);
            varint::write_u64(buf, from.0);
        }
    }
}

/// Serializes `log` in the binary format with the default chunking.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn save_binary<W: Write>(log: &TraceLog, writer: W) -> Result<(), TraceLogError> {
    save_binary_chunked(log, writer, DEFAULT_CHUNK_EVENTS)
}

/// [`save_binary`] with an explicit chunk size (clamped to ≥ 1). Any
/// chunk size produces a valid file that replays identically; the knob
/// exists for tests and for tuning reader memory.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn save_binary_chunked<W: Write>(
    log: &TraceLog,
    mut writer: W,
    chunk_events: usize,
) -> Result<(), TraceLogError> {
    let chunk_events = chunk_events.max(1);
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;

    let mut payload = encode_header(&log.name, log.events.len() as u64, &log.superblocks);
    write_frame(&mut writer, &payload)?;

    for chunk in log.events.chunks(chunk_events) {
        payload.clear();
        varint::write_u64(&mut payload, chunk.len() as u64);
        for &ev in chunk {
            encode_event(&mut payload, ev);
        }
        write_frame(&mut writer, &payload)?;
    }
    writer.write_all(&0u32.to_le_bytes())?; // terminator
    Ok(())
}

/// Encodes the header-frame payload: name, total event count, registry.
pub(crate) fn encode_header(
    name: &str,
    event_count: u64,
    superblocks: &[SuperblockInfo],
) -> Vec<u8> {
    let mut payload = Vec::new();
    varint::write_u64(&mut payload, name.len() as u64);
    payload.extend_from_slice(name.as_bytes());
    varint::write_u64(&mut payload, event_count);
    varint::write_u64(&mut payload, superblocks.len() as u64);
    for s in superblocks {
        varint::write_u64(&mut payload, s.id.0);
        varint::write_u64(&mut payload, s.head_pc.0);
        varint::write_u64(&mut payload, u64::from(s.size));
        varint::write_u64(&mut payload, u64::from(s.guest_blocks));
        varint::write_u64(&mut payload, u64::from(s.exits));
    }
    payload
}

/// Reads one CRC-checked frame; `Ok(None)` is the terminator.
pub(crate) fn read_frame<R: Read>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    what: &'static str,
) -> Result<Option<()>, TraceLogError> {
    let mut word = [0u8; 4];
    reader
        .read_exact(&mut word)
        .map_err(|_| TraceLogError::Corrupt(what))?;
    let len = u32::from_le_bytes(word) as usize;
    if len == 0 {
        return Ok(None);
    }
    reader
        .read_exact(&mut word)
        .map_err(|_| TraceLogError::Corrupt(what))?;
    let expect = u32::from_le_bytes(word);
    buf.clear();
    // `take` + `read_to_end` so a corrupt length cannot force a huge
    // up-front allocation: memory grows only with bytes actually read.
    let got = reader.take(len as u64).read_to_end(buf)?;
    if got != len {
        return Err(TraceLogError::Corrupt(what));
    }
    if crc32(buf) != expect {
        return Err(TraceLogError::Corrupt("frame crc mismatch"));
    }
    Ok(Some(()))
}

fn corrupt(what: &'static str) -> impl FnOnce() -> TraceLogError {
    move || TraceLogError::Corrupt(what)
}

/// The decoded header frame: the registry and the event count, known
/// before any event chunk is touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) name: String,
    pub(crate) event_count: u64,
    pub(crate) superblocks: Vec<SuperblockInfo>,
}

pub(crate) fn read_header<R: Read>(reader: &mut R) -> Result<Header, TraceLogError> {
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|_| TraceLogError::BadMagic)?;
    if magic != MAGIC {
        return Err(TraceLogError::BadMagic);
    }
    let mut ver = [0u8; 2];
    reader
        .read_exact(&mut ver)
        .map_err(|_| TraceLogError::Corrupt("truncated version"))?;
    let version = u16::from_le_bytes(ver);
    if version != VERSION {
        return Err(TraceLogError::UnsupportedVersion(version));
    }

    let mut payload = Vec::new();
    read_frame(reader, &mut payload, "truncated header")?
        .ok_or(TraceLogError::Corrupt("missing header frame"))?;

    let pos = &mut 0usize;
    let name_len = varint::read_u64(&payload, pos).ok_or_else(corrupt("header varint"))?;
    let name_end = pos
        .checked_add(usize::try_from(name_len).map_err(|_| TraceLogError::Corrupt("name length"))?)
        .ok_or(TraceLogError::Corrupt("name length"))?;
    let name_bytes = payload
        .get(*pos..name_end)
        .ok_or(TraceLogError::Corrupt("name length"))?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| TraceLogError::Corrupt("name utf-8"))?
        .to_owned();
    *pos = name_end;

    let event_count = varint::read_u64(&payload, pos).ok_or_else(corrupt("header varint"))?;
    let sb_count = varint::read_u64(&payload, pos).ok_or_else(corrupt("header varint"))?;
    let sb_count =
        usize::try_from(sb_count).map_err(|_| TraceLogError::Corrupt("registry size"))?;
    // Each registry entry is ≥ 5 bytes; reject counts the payload
    // cannot possibly hold before reserving anything.
    if sb_count > payload.len().saturating_sub(*pos) {
        return Err(TraceLogError::Corrupt("registry size"));
    }
    let mut superblocks = Vec::with_capacity(sb_count);
    for _ in 0..sb_count {
        let bad = "registry varint";
        superblocks.push(SuperblockInfo {
            id: SuperblockId(varint::read_u64(&payload, pos).ok_or_else(corrupt(bad))?),
            head_pc: Pc(varint::read_u64(&payload, pos).ok_or_else(corrupt(bad))?),
            size: varint::read_u32(&payload, pos).ok_or_else(corrupt(bad))?,
            guest_blocks: varint::read_u32(&payload, pos).ok_or_else(corrupt(bad))?,
            exits: varint::read_u32(&payload, pos).ok_or_else(corrupt(bad))?,
        });
    }
    if *pos != payload.len() {
        return Err(TraceLogError::Corrupt("header trailing bytes"));
    }
    Ok(Header {
        name,
        event_count,
        superblocks,
    })
}

pub(crate) fn decode_chunk(payload: &[u8]) -> Result<Vec<TraceEvent>, TraceLogError> {
    let pos = &mut 0usize;
    let count = varint::read_u64(payload, pos).ok_or_else(corrupt("event varint"))?;
    // Each event is ≥ 2 bytes; a count beyond that is structurally lying.
    let count = usize::try_from(count).map_err(|_| TraceLogError::Corrupt("chunk event count"))?;
    if count > payload.len() / 2 + 1 {
        return Err(TraceLogError::Corrupt("chunk event count"));
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let bad = "event varint";
        let id = SuperblockId(varint::read_u64(payload, pos).ok_or_else(corrupt(bad))?);
        let tag = *payload.get(*pos).ok_or_else(corrupt(bad))?;
        *pos += 1;
        let direct_from = match tag {
            0 => None,
            1 => Some(SuperblockId(
                varint::read_u64(payload, pos).ok_or_else(corrupt(bad))?,
            )),
            _ => return Err(TraceLogError::Corrupt("event tag")),
        };
        events.push(TraceEvent::Access { id, direct_from });
    }
    if *pos != payload.len() {
        return Err(TraceLogError::Corrupt("chunk trailing bytes"));
    }
    Ok(events)
}

/// Deserializes a complete binary trace written by [`save_binary`]
/// (sequential, single-threaded; use [`TraceReader`] to stream).
///
/// # Errors
///
/// Returns [`TraceLogError::BadMagic`],
/// [`TraceLogError::UnsupportedVersion`], [`TraceLogError::Corrupt`] or
/// an I/O error.
pub fn load_binary<R: Read>(mut reader: R) -> Result<TraceLog, TraceLogError> {
    let header = read_header(&mut reader)?;
    let mut events = Vec::with_capacity(
        usize::try_from(header.event_count)
            .unwrap_or(0)
            .min(1 << 24),
    );
    let mut payload = Vec::new();
    while read_frame(&mut reader, &mut payload, "truncated chunk")?.is_some() {
        events.extend(decode_chunk(&payload)?);
    }
    if events.len() as u64 != header.event_count {
        return Err(TraceLogError::Corrupt("event count mismatch"));
    }
    Ok(TraceLog {
        name: header.name,
        superblocks: header.superblocks,
        events,
    })
}

/// Sniffs whether `first` (≥ 4 bytes of a file) is the binary format.
#[must_use]
pub fn is_binary(first: &[u8]) -> bool {
    first.len() >= MAGIC.len() && first[..MAGIC.len()] == MAGIC
}

/// Loads a trace from `path`, auto-detecting JSON vs binary by magic.
///
/// # Errors
///
/// Propagates the format-specific load error.
pub fn load_path_auto(path: &Path) -> Result<TraceLog, TraceLogError> {
    let bytes = std::fs::read(path)?;
    if is_binary(&bytes) {
        load_binary(bytes.as_slice())
    } else {
        TraceLog::load(bytes.as_slice())
    }
}

/// A streaming binary-trace reader: a dedicated thread reads and
/// decodes frames, handing `Arc<[TraceEvent]>` chunks to the consumer
/// through a bounded channel. Disk I/O + decode therefore overlap with
/// whatever the consumer does (simulation), and peak decoded-event
/// memory is O(depth × chunk), never O(trace).
///
/// The header (registry, name, event count) is read synchronously by
/// [`TraceReader::new`], so sizing decisions (`maxCache`, unit clamps)
/// need no second pass over the file.
#[derive(Debug)]
pub struct TraceReader {
    name: String,
    event_count: u64,
    superblocks: Arc<[SuperblockInfo]>,
    /// `Some` until the channel reports the decoder is done/dead.
    rx: Option<Receiver<Result<Arc<[TraceEvent]>, TraceLogError>>>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Decoded events currently buffered ahead of the consumer.
    buffered: Arc<AtomicUsize>,
    /// High-water mark of `buffered` — the bounded-memory receipt.
    high_water: Arc<AtomicUsize>,
}

fn decode_loop<R: Read>(
    mut reader: R,
    tx: &SyncSender<Result<Arc<[TraceEvent]>, TraceLogError>>,
    buffered: &AtomicUsize,
    high_water: &AtomicUsize,
) {
    let mut payload = Vec::new();
    loop {
        let frame = match read_frame(&mut reader, &mut payload, "truncated chunk") {
            Ok(Some(())) => decode_chunk(&payload),
            Ok(None) => return, // clean terminator
            Err(e) => Err(e),
        };
        match frame {
            Ok(events) => {
                let n = events.len();
                let chunk: Arc<[TraceEvent]> = events.into();
                let now = buffered.fetch_add(n, Ordering::Relaxed) + n;
                high_water.fetch_max(now, Ordering::Relaxed);
                if tx.send(Ok(chunk)).is_err() {
                    return; // consumer dropped the reader
                }
            }
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

impl TraceReader {
    /// Opens `path` for streaming with the default read-ahead depth.
    ///
    /// # Errors
    ///
    /// Returns any open/header error.
    pub fn open(path: &Path) -> Result<TraceReader, TraceLogError> {
        let file = std::fs::File::open(path)?;
        TraceReader::new(std::io::BufReader::new(file))
    }

    /// Starts streaming from `reader` with the default depth.
    ///
    /// # Errors
    ///
    /// Returns any header error ([`TraceLogError::BadMagic`],
    /// [`TraceLogError::UnsupportedVersion`], [`TraceLogError::Corrupt`],
    /// I/O).
    pub fn new<R: Read + Send + 'static>(reader: R) -> Result<TraceReader, TraceLogError> {
        TraceReader::with_depth(reader, DEFAULT_READER_DEPTH)
    }

    /// Starts streaming with an explicit channel depth: the decoder may
    /// run at most `depth` complete chunks (plus the one it is handing
    /// over) ahead of the consumer.
    ///
    /// # Errors
    ///
    /// Returns any header error; see [`TraceReader::new`].
    pub fn with_depth<R: Read + Send + 'static>(
        mut reader: R,
        depth: usize,
    ) -> Result<TraceReader, TraceLogError> {
        let header = read_header(&mut reader)?;
        let (tx, rx) = std::sync::mpsc::sync_channel(depth.max(1));
        let buffered = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        let (b, h) = (Arc::clone(&buffered), Arc::clone(&high_water));
        let handle = std::thread::Builder::new()
            .name("cce-trace-decode".to_owned())
            .spawn(move || decode_loop(reader, &tx, &b, &h))
            .map_err(TraceLogError::Io)?;
        Ok(TraceReader {
            name: header.name,
            event_count: header.event_count,
            superblocks: header.superblocks.into(),
            rx: Some(rx),
            handle: Some(handle),
            buffered,
            high_water,
        })
    }

    /// Workload name from the header.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total events the header promises (drives census placement).
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// The superblock registry, available before any chunk.
    #[must_use]
    pub fn superblocks(&self) -> &[SuperblockInfo] {
        &self.superblocks
    }

    /// A shared handle to the registry (for [`SharedTrace`]-style reuse).
    #[must_use]
    pub fn superblocks_shared(&self) -> Arc<[SuperblockInfo]> {
        Arc::clone(&self.superblocks)
    }

    /// The next decoded chunk, blocking on the decoder if it is behind;
    /// `None` after the final chunk. The first error is final: the
    /// decoder stops at it.
    pub fn next_chunk(&mut self) -> Option<Result<Arc<[TraceEvent]>, TraceLogError>> {
        let got = self.rx.as_ref()?.recv().ok()?;
        if let Ok(chunk) = &got {
            self.buffered.fetch_sub(chunk.len(), Ordering::Relaxed);
        } else {
            self.rx = None; // decoder stopped; don't wait on it again
        }
        Some(got)
    }

    /// The most decoded-but-unconsumed events that ever existed at once
    /// — the receipt that streaming never materialized the whole trace.
    #[must_use]
    pub fn high_water_events(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }
}

impl Drop for TraceReader {
    fn drop(&mut self) {
        // Disconnect first so a decoder blocked on `send` wakes up and
        // exits; then reap the thread.
        self.rx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A decoded trace shared across many simulator cells: the registry and
/// the event chunks live behind `Arc`s, so a sweep decodes a multi-GB
/// log exactly once and every `(granularity × pressure × shards)` cell
/// replays the same chunks without copying or re-parsing anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedTrace {
    /// Workload name.
    pub name: String,
    /// Superblock registry.
    pub superblocks: Arc<[SuperblockInfo]>,
    /// Total events across `chunks`.
    pub event_count: u64,
    /// The event stream, in order, in decode-sized pieces.
    pub chunks: Vec<Arc<[TraceEvent]>>,
}

impl SharedTrace {
    /// Wraps an in-memory log (one chunk; events are copied once).
    #[must_use]
    pub fn from_log(log: &TraceLog) -> SharedTrace {
        SharedTrace {
            name: log.name.clone(),
            superblocks: log.superblocks.clone().into(),
            event_count: log.events.len() as u64,
            chunks: if log.events.is_empty() {
                Vec::new()
            } else {
                vec![log.events.clone().into()]
            },
        }
    }

    /// Drains a [`TraceReader`], keeping its chunk boundaries.
    ///
    /// # Errors
    ///
    /// Propagates the reader's first decode error; a stream that ends
    /// with a different event count than its header declared is
    /// [`TraceLogError::Corrupt`].
    pub fn collect(mut reader: TraceReader) -> Result<SharedTrace, TraceLogError> {
        SharedTrace::collect_from(&mut reader)
    }

    /// [`SharedTrace::collect`] for a borrowed reader.
    ///
    /// # Errors
    ///
    /// As [`SharedTrace::collect`].
    pub fn collect_from(reader: &mut TraceReader) -> Result<SharedTrace, TraceLogError> {
        let mut chunks = Vec::new();
        let mut total = 0u64;
        while let Some(chunk) = reader.next_chunk() {
            let chunk = chunk?;
            total += chunk.len() as u64;
            chunks.push(chunk);
        }
        if total != reader.event_count() {
            return Err(TraceLogError::Corrupt("event count mismatch"));
        }
        Ok(SharedTrace {
            name: reader.name().to_owned(),
            superblocks: reader.superblocks_shared(),
            event_count: total,
            chunks,
        })
    }

    /// Opens and fully decodes `path` (binary by magic, else JSON).
    ///
    /// # Errors
    ///
    /// Propagates the format-specific load error.
    pub fn open(path: &Path) -> Result<SharedTrace, TraceLogError> {
        let mut first = [0u8; 4];
        let mut file = std::fs::File::open(path)?;
        let got = file.read(&mut first)?;
        drop(file);
        if is_binary(&first[..got]) {
            SharedTrace::collect(TraceReader::open(path)?)
        } else {
            Ok(SharedTrace::from_log(&load_path_auto(path)?))
        }
    }

    /// Copies the shared chunks back into a plain [`TraceLog`].
    #[must_use]
    pub fn to_log(&self) -> TraceLog {
        TraceLog {
            name: self.name.clone(),
            superblocks: self.superblocks.to_vec(),
            events: self.chunks.iter().flat_map(|c| c.iter().copied()).collect(),
        }
    }
}

impl TraceLog {
    /// Serializes the log in the binary format ([`save_binary`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save_binary<W: Write>(&self, writer: W) -> Result<(), TraceLogError> {
        save_binary(self, writer)
    }

    /// Deserializes a binary log ([`load_binary`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O, magic, version or corruption error.
    pub fn load_binary<R: Read>(reader: R) -> Result<TraceLog, TraceLogError> {
        load_binary(reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    fn sample(events: usize) -> TraceLog {
        let mut log = TraceLog::new("bin-sample");
        for i in 0..16u64 {
            log.record_superblock(SuperblockInfo {
                id: sb(i),
                head_pc: Pc(0x4000 + i * 96),
                size: 100 + i as u32 * 7,
                guest_blocks: 3,
                exits: 2,
            });
        }
        let mut prev = None;
        for i in 0..events as u64 {
            let id = sb(i % 16);
            let direct = i % 3 != 0;
            log.record_access(id, prev.filter(|_| direct));
            prev = Some(id);
        }
        log
    }

    fn encode(log: &TraceLog, chunk: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        save_binary_chunked(log, &mut buf, chunk).unwrap();
        buf
    }

    #[test]
    fn roundtrip_at_many_chunk_sizes() {
        let log = sample(1000);
        for chunk in [1usize, 7, 64, 1000, 100_000] {
            let bytes = encode(&log, chunk);
            assert_eq!(load_binary(bytes.as_slice()).unwrap(), log, "chunk={chunk}");
        }
    }

    #[test]
    fn empty_log_roundtrips() {
        let log = TraceLog::new("empty");
        let bytes = encode(&log, 8);
        assert_eq!(load_binary(bytes.as_slice()).unwrap(), log);
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let log = sample(5000);
        let mut json = Vec::new();
        log.save(&mut json).unwrap();
        let bin = encode(&log, DEFAULT_CHUNK_EVENTS);
        assert!(
            bin.len() * 3 < json.len(),
            "binary {} vs json {}",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn bad_magic_is_detected() {
        assert!(matches!(
            load_binary(b"nope".as_slice()),
            Err(TraceLogError::BadMagic)
        ));
        assert!(matches!(
            load_binary(b"{\"name\":\"x\"}".as_slice()),
            Err(TraceLogError::BadMagic)
        ));
        assert!(!is_binary(b"{\"na"));
        assert!(is_binary(&MAGIC));
    }

    #[test]
    fn wrong_version_is_detected() {
        let mut bytes = encode(&sample(10), 4);
        bytes[4] = 0xee;
        bytes[5] = 0x07;
        assert!(matches!(
            load_binary(bytes.as_slice()),
            Err(TraceLogError::UnsupportedVersion(0x07ee))
        ));
    }

    #[test]
    fn flipped_bits_fail_the_crc() {
        let clean = encode(&sample(200), 64);
        // Corrupt one byte at a time across the whole file; every
        // position must produce an error, never a silently wrong log.
        for at in 6..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x20;
            assert!(
                load_binary(bytes.as_slice()).is_err(),
                "corruption at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let clean = encode(&sample(200), 64);
        for len in 0..clean.len() {
            assert!(
                load_binary(&clean[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn streaming_reader_reproduces_the_event_stream() {
        let log = sample(997);
        let bytes = encode(&log, 100);
        let mut reader = TraceReader::new(std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(reader.name(), "bin-sample");
        assert_eq!(reader.event_count(), 997);
        assert_eq!(reader.superblocks(), log.superblocks.as_slice());
        let mut events = Vec::new();
        while let Some(chunk) = reader.next_chunk() {
            events.extend_from_slice(&chunk.unwrap());
        }
        assert_eq!(events, log.events);
    }

    #[test]
    fn streaming_reader_surfaces_corruption() {
        let mut bytes = encode(&sample(500), 50);
        let at = bytes.len() - 20;
        bytes[at] ^= 0x01;
        let mut reader = TraceReader::new(std::io::Cursor::new(bytes)).unwrap();
        let mut saw_error = false;
        while let Some(chunk) = reader.next_chunk() {
            if chunk.is_err() {
                saw_error = true;
            }
        }
        assert!(saw_error, "corrupt tail must surface through the channel");
    }

    #[test]
    fn dropping_a_reader_midstream_does_not_hang() {
        let bytes = encode(&sample(10_000), 100);
        let mut reader = TraceReader::with_depth(std::io::Cursor::new(bytes), 1).unwrap();
        let _ = reader.next_chunk();
        drop(reader); // decoder is blocked on send; Drop must unstick it
    }

    #[test]
    fn high_water_mark_stays_bounded() {
        let chunk = 256;
        let depth = 2;
        let log = sample(chunk * 40); // 40 chunks ≫ depth
        let bytes = encode(&log, chunk);
        let mut reader = TraceReader::with_depth(std::io::Cursor::new(bytes), depth).unwrap();
        let mut total = 0usize;
        while let Some(c) = reader.next_chunk() {
            total += c.unwrap().len();
        }
        assert_eq!(total, log.events.len());
        let hw = reader.high_water_events();
        assert!(hw > 0);
        assert!(
            hw <= (depth + 2) * chunk,
            "high water {hw} exceeds the channel bound"
        );
        assert!(
            hw * 10 <= total,
            "high water {hw} is not bounded relative to {total} events"
        );
    }

    #[test]
    fn shared_trace_from_log_and_from_reader_agree() {
        let log = sample(640);
        let via_log = SharedTrace::from_log(&log);
        let bytes = encode(&log, 64);
        let via_reader =
            SharedTrace::collect(TraceReader::new(std::io::Cursor::new(bytes)).unwrap()).unwrap();
        assert_eq!(via_log.to_log(), log);
        assert_eq!(via_reader.to_log(), log);
        assert_eq!(via_reader.chunks.len(), 10, "chunk boundaries preserved");
    }

    #[test]
    fn auto_detection_loads_both_formats() {
        let log = sample(64);
        let dir = std::env::temp_dir().join("cce_trace_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("t.json");
        let bpath = dir.join("t.cbt");
        log.save(std::fs::File::create(&jpath).unwrap()).unwrap();
        log.save_binary(std::fs::File::create(&bpath).unwrap())
            .unwrap();
        assert_eq!(load_path_auto(&jpath).unwrap(), log);
        assert_eq!(load_path_auto(&bpath).unwrap(), log);
        assert_eq!(SharedTrace::open(&bpath).unwrap().to_log(), log);
        assert_eq!(SharedTrace::open(&jpath).unwrap().to_log(), log);
        std::fs::remove_file(jpath).ok();
        std::fs::remove_file(bpath).ok();
    }
}
