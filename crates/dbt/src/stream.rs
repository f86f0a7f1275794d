//! Trace framing over a live byte stream (DESIGN.md §13).
//!
//! The chunked binary format of [`crate::trace_bin`] was designed for
//! files, but nothing in its layout is file-specific: magic + version,
//! a header frame, CRC-framed event chunks, an explicit terminator.
//! This module reuses exactly that framing over any [`Write`]/[`Read`]
//! byte stream — an in-process pipe, a Unix socket — so a live traffic
//! generator and the offline tooling speak one wire format and a
//! captured stream is a valid trace file byte for byte.
//!
//! Two properties matter for serving that a file loader never needed:
//!
//! * **Per-frame CRC recovery.** Every frame is length-prefixed, so by
//!   the time a CRC mismatch is detected the whole frame has been
//!   consumed and the stream is still frame-aligned. [`FrameStream`]
//!   therefore reports a bad frame as [`StreamFrame::Rejected`] — one
//!   lost chunk — and keeps decoding, instead of killing the connection
//!   the way [`crate::trace_bin::load_binary`] kills a file load.
//! * **Disconnect detection.** A generator that dies mid-chunk truncates
//!   the stream somewhere inside a frame. That is *not* recoverable
//!   (alignment is gone), so it surfaces as a hard `Err` — the server's
//!   signal to shut the connection down cleanly.

use crate::trace_bin::{
    decode_chunk, encode_chunk, encode_chunk_frame, encode_header, read_header, write_frame, MAGIC,
    VERSION,
};
use crate::trace_log::{SuperblockInfo, TraceEvent, TraceLogError};
use cce_util::crc::crc32;
use std::io::{Read, Write};

/// Upper bound on a single frame accepted from a live stream. A length
/// prefix beyond this cannot come from a sane generator (the default
/// chunk is ~64K events ≈ a few hundred KB encoded), so rather than
/// buffering gigabytes on a corrupt length the stream is declared dead.
pub const MAX_STREAM_FRAME_BYTES: u32 = 1 << 26;

/// Encodes one event-chunk payload (varint count, then each event) —
/// the bytes [`StreamWriter::write_chunk`] frames. Public so fault
/// injectors and tests can build frames by hand (e.g. with a wrong CRC).
#[must_use]
pub fn encode_chunk_payload(events: &[TraceEvent]) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_chunk(&mut payload, events);
    payload
}

/// Writes one raw frame with an explicit CRC. With `crc32(payload)` this
/// is exactly what [`StreamWriter::write_chunk`] emits; any other value
/// produces a frame the receiver must reject — the corrupt-frame fault
/// injection the serve tests rely on.
///
/// # Errors
///
/// Returns any I/O error from the writer, or
/// [`TraceLogError::Corrupt`] if the payload exceeds `u32::MAX` bytes.
pub fn write_frame_raw<W: Write>(w: &mut W, crc: u32, payload: &[u8]) -> Result<(), TraceLogError> {
    let len = u32::try_from(payload.len()).map_err(|_| TraceLogError::Corrupt("frame too big"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&crc.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Incrementally writes a binary trace to a byte stream: magic, version
/// and header up front, then event chunks as they are produced, then the
/// terminator. The bytes are identical to
/// [`crate::trace_bin::save_binary_chunked`] over the same events — a
/// capture of the stream replays as an ordinary trace file.
#[derive(Debug)]
pub struct StreamWriter<W: Write> {
    writer: W,
    /// The last event frame written, kept for its capacity.
    frame: Vec<u8>,
}

impl<W: Write> StreamWriter<W> {
    /// Opens the stream: writes magic, version and the header frame
    /// (name, total event count, superblock registry).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn new(
        mut writer: W,
        name: &str,
        event_count: u64,
        registry: &[SuperblockInfo],
    ) -> Result<StreamWriter<W>, TraceLogError> {
        writer.write_all(&MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        let payload = encode_header(name, event_count, registry);
        let mut sw = StreamWriter {
            writer,
            frame: Vec::new(),
        };
        write_frame(&mut sw.writer, &payload)?;
        Ok(sw)
    }

    /// Frames and writes one event chunk, handing the writer the whole
    /// frame (length, CRC, payload) as one buffer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer, or
    /// [`TraceLogError::Corrupt`] if the payload exceeds `u32::MAX` bytes.
    pub fn write_chunk(&mut self, events: &[TraceEvent]) -> Result<(), TraceLogError> {
        encode_chunk_frame(&mut self.frame, events)?;
        self.writer.write_all(&self.frame)?;
        Ok(())
    }

    /// Writes a pre-encoded chunk payload with an explicit CRC — the
    /// fault-injection escape hatch ([`write_frame_raw`] on the owned
    /// writer).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_raw(&mut self, crc: u32, payload: &[u8]) -> Result<(), TraceLogError> {
        write_frame_raw(&mut self.writer, crc, payload)
    }

    /// Writes the terminator, flushes, and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn finish(mut self) -> Result<W, TraceLogError> {
        self.writer.write_all(&0u32.to_le_bytes())?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// One frame delivered by [`FrameStream::next_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamFrame {
    /// A CRC-clean event chunk, decoded.
    Events(Vec<TraceEvent>),
    /// A frame that failed its CRC or did not decode. The frame was
    /// fully consumed, so the stream is still aligned: keep reading.
    Rejected(&'static str),
    /// The clean terminator — the generator finished and said so.
    End,
}

/// The receive side: reads the header synchronously, then yields frames
/// one at a time, distinguishing recoverable corruption (frame-aligned,
/// keep going) from stream death (truncation / I/O, give up).
#[derive(Debug)]
pub struct FrameStream<R: Read> {
    reader: R,
    header: crate::trace_bin::Header,
    buf: Vec<u8>,
}

impl<R: Read> FrameStream<R> {
    /// Reads magic, version and the header frame from the stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceLogError::BadMagic`],
    /// [`TraceLogError::UnsupportedVersion`] or
    /// [`TraceLogError::Corrupt`] — a header that does not parse means
    /// there is no session to serve.
    pub fn new(mut reader: R) -> Result<FrameStream<R>, TraceLogError> {
        let header = read_header(&mut reader)?;
        Ok(FrameStream {
            reader,
            header,
            buf: Vec::new(),
        })
    }

    /// Workload name from the header.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.header.name
    }

    /// Total events the header promises.
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.header.event_count
    }

    /// The superblock registry, available before any chunk.
    #[must_use]
    pub fn registry(&self) -> &[SuperblockInfo] {
        &self.header.superblocks
    }

    /// Reads the next frame.
    ///
    /// # Errors
    ///
    /// `Err` means the stream is dead: truncated inside a frame (the
    /// generator disconnected mid-chunk), an I/O failure, or a length
    /// prefix beyond [`MAX_STREAM_FRAME_BYTES`]. CRC/decode failures on
    /// a complete frame are **not** errors — they come back as
    /// [`StreamFrame::Rejected`] and the stream stays usable.
    pub fn next_frame(&mut self) -> Result<StreamFrame, TraceLogError> {
        let mut word = [0u8; 4];
        self.reader
            .read_exact(&mut word)
            .map_err(|_| TraceLogError::Corrupt("disconnected between frames"))?;
        let len = u32::from_le_bytes(word);
        if len == 0 {
            return Ok(StreamFrame::End);
        }
        if len > MAX_STREAM_FRAME_BYTES {
            return Err(TraceLogError::Corrupt("frame length out of range"));
        }
        self.reader
            .read_exact(&mut word)
            .map_err(|_| TraceLogError::Corrupt("disconnected mid-frame"))?;
        let expect = u32::from_le_bytes(word);
        self.buf.clear();
        let got = (&mut self.reader)
            .take(u64::from(len))
            .read_to_end(&mut self.buf)?;
        if got != len as usize {
            return Err(TraceLogError::Corrupt("disconnected mid-frame"));
        }
        if crc32(&self.buf) != expect {
            return Ok(StreamFrame::Rejected("frame crc mismatch"));
        }
        let mut events = Vec::new();
        match decode_chunk(&self.buf, &mut events) {
            Ok(()) => Ok(StreamFrame::Events(events)),
            Err(_) => Ok(StreamFrame::Rejected("frame did not decode")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_bin::load_binary;
    use crate::trace_log::TraceLog;
    use cce_core::SuperblockId;
    use cce_tinyvm::program::Pc;

    fn sample(events: usize) -> TraceLog {
        let mut log = TraceLog::new("stream-sample");
        for i in 0..8u64 {
            log.record_superblock(SuperblockInfo {
                id: SuperblockId(i),
                head_pc: Pc(0x1000 + i * 64),
                size: 80 + i as u32 * 5,
                guest_blocks: 3,
                exits: 2,
            });
        }
        let mut prev = None;
        for i in 0..events as u64 {
            let id = SuperblockId(i % 8);
            log.record_access(id, prev.filter(|_| i % 2 == 1));
            prev = Some(id);
        }
        log
    }

    fn stream_bytes(log: &TraceLog, chunk: usize) -> Vec<u8> {
        let mut w = StreamWriter::new(
            Vec::new(),
            &log.name,
            log.events.len() as u64,
            &log.superblocks,
        )
        .unwrap();
        for c in log.events.chunks(chunk) {
            w.write_chunk(c).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn stream_writer_matches_the_file_format_exactly() {
        let log = sample(500);
        let streamed = stream_bytes(&log, 64);
        let mut filed = Vec::new();
        crate::trace_bin::save_binary_chunked(&log, &mut filed, 64).unwrap();
        assert_eq!(streamed, filed, "stream and file bytes must be identical");
        assert_eq!(load_binary(streamed.as_slice()).unwrap(), log);
    }

    #[test]
    fn frame_stream_roundtrips() {
        let log = sample(300);
        let bytes = stream_bytes(&log, 50);
        let mut fs = FrameStream::new(bytes.as_slice()).unwrap();
        assert_eq!(fs.name(), "stream-sample");
        assert_eq!(fs.event_count(), 300);
        assert_eq!(fs.registry(), log.superblocks.as_slice());
        let mut events = Vec::new();
        loop {
            match fs.next_frame().unwrap() {
                StreamFrame::Events(evs) => events.extend(evs),
                StreamFrame::Rejected(r) => panic!("unexpected rejection: {r}"),
                StreamFrame::End => break,
            }
        }
        assert_eq!(events, log.events);
    }

    #[test]
    fn corrupt_frame_is_rejected_and_the_stream_recovers() {
        let log = sample(300);
        // Write 6 chunks of 50; hand-corrupt the third (wrong CRC).
        let mut w = StreamWriter::new(
            Vec::new(),
            &log.name,
            log.events.len() as u64,
            &log.superblocks,
        )
        .unwrap();
        for (i, c) in log.events.chunks(50).enumerate() {
            if i == 2 {
                let payload = encode_chunk_payload(c);
                w.write_raw(crc32(&payload) ^ 0xdead_beef, &payload)
                    .unwrap();
            } else {
                w.write_chunk(c).unwrap();
            }
        }
        let bytes = w.finish().unwrap();

        let mut fs = FrameStream::new(bytes.as_slice()).unwrap();
        let mut events = Vec::new();
        let mut rejected = 0;
        loop {
            match fs.next_frame().unwrap() {
                StreamFrame::Events(evs) => events.extend(evs),
                StreamFrame::Rejected(_) => rejected += 1,
                StreamFrame::End => break,
            }
        }
        assert_eq!(rejected, 1, "exactly the corrupted frame is rejected");
        assert_eq!(events.len(), 250, "the other five chunks all decode");
        assert_eq!(events[..100], log.events[..100]);
        assert_eq!(events[100..], log.events[150..]);
    }

    #[test]
    fn flipped_payload_bit_is_rejected_not_fatal() {
        let log = sample(200);
        let mut bytes = stream_bytes(&log, 50);
        // Flip a byte well inside the stream body (past header) but not
        // in a length word: find the second chunk frame and poke its
        // payload. Easiest robust approach: flip a byte near the end of
        // the buffer minus the terminator and the last frame header.
        let at = bytes.len() - 12;
        bytes[at] ^= 0x40;
        let mut fs = FrameStream::new(bytes.as_slice()).unwrap();
        let mut saw_rejected = false;
        loop {
            match fs.next_frame() {
                Ok(StreamFrame::Events(_)) => {}
                Ok(StreamFrame::Rejected(_)) => saw_rejected = true,
                Ok(StreamFrame::End) => break,
                Err(e) => panic!("payload corruption must not kill the stream: {e}"),
            }
        }
        assert!(saw_rejected);
    }

    #[test]
    fn truncation_mid_frame_is_a_disconnect() {
        let log = sample(200);
        let bytes = stream_bytes(&log, 50);
        // Cut the stream inside the last event chunk.
        let cut = bytes.len() - 30;
        let mut fs = FrameStream::new(&bytes[..cut]).unwrap();
        let err;
        loop {
            match fs.next_frame() {
                Ok(StreamFrame::End) => panic!("truncated stream must not end cleanly"),
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(TraceLogError::Corrupt(_))));
    }

    #[test]
    fn missing_terminator_is_a_disconnect() {
        let log = sample(64);
        let mut w = StreamWriter::new(
            Vec::new(),
            &log.name,
            log.events.len() as u64,
            &log.superblocks,
        )
        .unwrap();
        w.write_chunk(&log.events).unwrap();
        // Drop the writer without finish(): no terminator on the wire.
        let bytes = {
            let StreamWriter { writer, .. } = w;
            writer
        };
        let mut fs = FrameStream::new(bytes.as_slice()).unwrap();
        assert!(matches!(fs.next_frame(), Ok(StreamFrame::Events(_))));
        assert!(
            fs.next_frame().is_err(),
            "EOF without terminator is a disconnect"
        );
    }

    #[test]
    fn absurd_length_prefix_is_a_disconnect() {
        let log = sample(10);
        let mut bytes = stream_bytes(&log, 100);
        // Overwrite the first chunk frame's length with a huge value.
        // Header frame starts at byte 6; find its end.
        let header_len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
        let chunk_at = 6 + 8 + header_len;
        bytes[chunk_at..chunk_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut fs = FrameStream::new(bytes.as_slice()).unwrap();
        assert!(fs.next_frame().is_err());
    }
}
