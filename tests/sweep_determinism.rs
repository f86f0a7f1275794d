//! The threaded sweep contract: rendered output is byte-identical at
//! any worker count (`--jobs N` ≡ `--jobs 1`).

use cce::core::Granularity;
use cce::sim::report::TextTable;
use cce::sim::simulator::SimConfig;
use cce::sim::{Replay, SweepPoint};

fn render(points: &[SweepPoint], names: &[&str]) -> String {
    // The same shape the experiment binaries emit: one row per cell,
    // floats printed at full precision so any divergence shows up.
    let mut t = TextTable::new(
        "sweep",
        [
            "Benchmark",
            "Shards",
            "Granularity",
            "Pressure",
            "Misses",
            "Overhead",
        ],
    );
    for p in points {
        t.row([
            names[p.cell.trace].to_owned(),
            p.cell.shards.to_string(),
            p.cell.granularity.label(),
            p.cell.pressure.to_string(),
            p.result.stats.misses.to_string(),
            format!(
                "{:.17e}",
                p.result.miss_overhead + p.result.eviction_overhead + p.result.unlink_overhead
            ),
        ]);
    }
    t.to_string()
}

#[test]
fn jobs_1_and_jobs_4_render_byte_identical_reports() {
    let names = ["gzip", "mcf", "word"];
    let traces: Vec<_> = names
        .iter()
        .map(|n| cce::workloads::by_name(n).unwrap().trace(0.08, 11))
        .collect();
    let gs = [
        Granularity::Flush,
        Granularity::units(8),
        Granularity::units(64),
        Granularity::Superblock,
    ];
    let ps = [2, 5, 10];
    let base = SimConfig::default();

    let matrix = |jobs| {
        Replay::matrix(&traces)
            .granularities(&gs)
            .pressures(&ps)
            .config(&base)
            .jobs(jobs)
            .run()
            .unwrap()
    };
    let serial = matrix(1);
    let threaded = matrix(4);

    let a = render(&serial, &names);
    let b = render(&threaded, &names);
    assert_eq!(a.as_bytes(), b.as_bytes());
}

#[test]
fn shard_axis_renders_byte_identical_at_any_worker_count() {
    // ISSUE 4 acceptance: `--shards 4 --jobs k` byte-identical across
    // worker counts.
    let names = ["gzip", "mcf"];
    let traces: Vec<_> = names
        .iter()
        .map(|n| cce::workloads::by_name(n).unwrap().trace(0.08, 11))
        .collect();
    let gs = [Granularity::Flush, Granularity::units(8)];
    let ps = [2, 6];
    let shard_counts = [1, 2, 4, 8];
    let base = SimConfig::default();

    let matrix = |jobs| {
        Replay::matrix(&traces)
            .granularities(&gs)
            .pressures(&ps)
            .shard_counts(&shard_counts)
            .config(&base)
            .jobs(jobs)
            .run()
            .unwrap()
    };
    let serial = matrix(1);
    let a = render(&serial, &names);
    for jobs in [3, 8] {
        let threaded = matrix(jobs);
        assert_eq!(a.as_bytes(), render(&threaded, &names).as_bytes());
    }
}
