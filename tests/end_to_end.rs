//! Cross-crate integration: a workload log saved to disk and loaded back
//! must replay through the simulator exactly as the in-memory log does.

use cce::core::Granularity;
use cce::dbt::TraceLog;
use cce::sim::pressure::capacity_for_pressure;
use cce::sim::simulator::{SimConfig, SimError, SimResult};
use cce::sim::{EventSource, Replay};
use cce::workloads::catalog;

/// All replays in this suite are solo; route them through the one
/// front-door builder and unwrap the single-tenant report.
fn simulate<T: EventSource>(trace: &T, config: &SimConfig) -> Result<SimResult, SimError> {
    Replay::new(trace)
        .config(config)
        .run()
        .map(cce::sim::ReplayReport::into_solo)
}

/// Save → load → replay gives identical results (the paper's log-reuse
/// methodology).
#[test]
fn saved_logs_replay_identically() {
    let trace = catalog::by_name("gzip").unwrap().trace(0.08, 23);

    let mut buf = Vec::new();
    trace.save(&mut buf).unwrap();
    let reloaded = TraceLog::load(buf.as_slice()).unwrap();
    assert_eq!(trace, reloaded);

    let cfg = SimConfig {
        granularity: Granularity::units(2),
        capacity: capacity_for_pressure(trace.max_cache_bytes(), 2),
        ..SimConfig::default()
    };
    assert_eq!(
        simulate(&trace, &cfg).unwrap(),
        simulate(&reloaded, &cfg).unwrap()
    );
}
