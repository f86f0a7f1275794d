//! Integration tests for the chunked binary trace format (DESIGN.md
//! §11) on workload logs — the unit tests in `trace_bin` cover small
//! hand-built traces; these take whole logs out of the calibrated
//! `cce-workloads` models (the only trace producer in the workspace) and
//! round-trip whatever they emit.

use cce::dbt::trace_bin::{self, TraceReader, VERSION};
use cce::dbt::trace_log::TraceLogError;
use cce::dbt::TraceLog;
use cce::workloads::catalog;

/// A workload log, as `cce-experiments trace` would save it.
fn real_trace(bench: &str) -> TraceLog {
    catalog::by_name(bench)
        .expect("benchmark is in the catalog")
        .trace(0.05, 3)
}

fn to_binary(log: &TraceLog, chunk: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    trace_bin::save_binary_chunked(log, &mut buf, chunk).expect("vec write cannot fail");
    buf
}

#[test]
fn dbt_logs_roundtrip_through_binary() {
    for bench in ["gzip", "mcf", "gcc"] {
        let log = real_trace(bench);
        assert!(!log.events.is_empty(), "{bench} produced no events");
        let bytes = to_binary(&log, 4096);
        let back = trace_bin::load_binary(bytes.as_slice()).unwrap();
        assert_eq!(back, log, "{bench}");
    }
}

#[test]
fn json_and_binary_encode_the_same_log() {
    let log = real_trace("gzip");
    let mut json = Vec::new();
    log.save(&mut json).unwrap();
    let via_json = TraceLog::load(json.as_slice()).unwrap();
    let via_bin = trace_bin::load_binary(to_binary(&log, 1000).as_slice()).unwrap();
    assert_eq!(via_json, via_bin);
    // And the binary encoding is materially smaller.
    assert!(
        to_binary(&log, trace_bin::DEFAULT_CHUNK_EVENTS).len() * 2 < json.len(),
        "binary should be at least 2x smaller than JSON"
    );
}

#[test]
fn streaming_reader_matches_sequential_load_on_real_logs() {
    let log = real_trace("gzip");
    let mut rd = TraceReader::new(std::io::Cursor::new(to_binary(&log, 777))).unwrap();
    assert_eq!(rd.name(), log.name);
    assert_eq!(rd.event_count(), log.events.len() as u64);
    assert_eq!(rd.superblocks(), log.superblocks.as_slice());
    let mut events = Vec::new();
    while let Some(chunk) = rd.next_chunk() {
        events.extend_from_slice(&chunk.unwrap());
    }
    assert_eq!(events, log.events);
}

#[test]
fn real_log_corruption_classes_are_distinguished() {
    let clean = to_binary(&real_trace("gzip"), 512);

    // Bad magic.
    let mut bad = clean.clone();
    bad[0] = b'X';
    assert!(matches!(
        trace_bin::load_binary(bad.as_slice()),
        Err(TraceLogError::BadMagic)
    ));

    // Unsupported (future) version.
    let mut bad = clean.clone();
    bad[4] = (VERSION + 1) as u8;
    assert!(matches!(
        trace_bin::load_binary(bad.as_slice()),
        Err(TraceLogError::UnsupportedVersion(v)) if v == VERSION + 1
    ));

    // CRC failure in the middle of the event stream.
    let mut bad = clean.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    assert!(trace_bin::load_binary(bad.as_slice()).is_err());

    // Truncation: drop the terminator, then half the file.
    assert!(trace_bin::load_binary(&clean[..clean.len() - 2]).is_err());
    assert!(trace_bin::load_binary(&clean[..clean.len() / 2]).is_err());
}

#[test]
fn streaming_reader_stops_at_first_error_on_real_logs() {
    let mut bytes = to_binary(&real_trace("gzip"), 256);
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0x08;
    let mut rd = TraceReader::new(std::io::Cursor::new(bytes)).unwrap();
    let mut good = 0usize;
    let mut failed = false;
    while let Some(chunk) = rd.next_chunk() {
        match chunk {
            Ok(c) => good += c.len(),
            Err(_) => {
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "corruption must surface");
    assert!(
        (good as u64) < rd.event_count(),
        "the stream must end early"
    );
    // After the error the stream is finished.
    assert!(rd.next_chunk().is_none());
}
