//! The `all` command: run every experiment and emit an EXPERIMENTS.md.

use crate::miss_figs::grid_at;
use crate::{chaining, fig9, miss_figs, overhead_figs, stats_figs, Options};
use std::fmt::Write as _;

/// Runs every experiment, reusing one simulation grid, and renders a
/// complete EXPERIMENTS.md body.
pub fn all(opts: &Options) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Reproduction of *Exploring Code Cache Eviction Granularities in Dynamic\n\
         Optimization Systems* (Hazelwood & Smith, CGO 2004).\n\n\
         Generated by `cargo run --release -p cce-experiments -- all --scale {} --seed {}`.\n\n\
         Workloads are statistical models calibrated to the paper's Table 1 /\n\
         Figures 3–4 / Figure 12 (see DESIGN.md §2); absolute numbers therefore\n\
         differ from the paper, but every *shape* claim is checked below and the\n\
         paper's anchor values are quoted next to the measured ones.\n",
        opts.scale, opts.seed
    );

    if opts.verbose {
        eprintln!("[all] trace statistics (Table 1, Figures 3/4/12)…");
    }
    out.push_str(&stats_figs::table1(opts));
    out.push('\n');
    out.push_str(&stats_figs::fig3(opts));
    out.push('\n');
    out.push_str(&stats_figs::fig4(opts));
    out.push('\n');
    out.push_str(&stats_figs::fig12(opts));
    out.push('\n');

    if opts.verbose {
        eprintln!("[all] measurement campaign (Figure 9)…");
    }
    out.push_str(&fig9::fig9(opts));
    out.push('\n');

    if opts.verbose {
        eprintln!("[all] simulation grid (Figures 6-8, 10-11, 13-15, §5.3)…");
    }
    let grid = grid_at(opts, &[2, 4, 6, 8, 10]);
    out.push_str(&miss_figs::render_fig6(&grid));
    out.push('\n');
    out.push_str(&miss_figs::render_fig7(&grid));
    out.push('\n');
    out.push_str(&miss_figs::render_fig8(&grid));
    out.push('\n');
    out.push_str(&overhead_figs::render_fig10(&grid));
    out.push('\n');
    out.push_str(&overhead_figs::render_fig11(&grid));
    out.push('\n');
    out.push_str(&overhead_figs::render_fig13(&grid));
    out.push('\n');
    out.push_str(&overhead_figs::render_fig14(&grid));
    out.push('\n');
    out.push_str(&overhead_figs::render_fig15(&grid));
    out.push('\n');

    if opts.verbose {
        eprintln!("[all] chaining (Table 2, §5.3)…");
    }
    out.push_str(&chaining::table2(opts));
    out.push('\n');
    out.push_str(&chaining::render_sec5_3(&grid));
    out.push('\n');

    if opts.verbose {
        eprintln!("[all] extensions (ablation, future work, stability)…");
    }
    out.push_str(&crate::extensions::ablation(opts));
    out.push('\n');
    out.push_str(&crate::extensions::future_work(opts));
    out.push('\n');
    out.push_str(&crate::extensions::stability(opts));
    out.push('\n');
    out.push_str(&crate::extensions::multiprog(opts));
    out.push('\n');
    out.push_str(&crate::extensions::analysis(opts));
    out.push('\n');

    if opts.verbose {
        eprintln!("[all] sharded serving (1/2/4/8 shards)…");
    }
    out.push_str(&crate::shards::shards(opts));
    out.push('\n');

    if opts.verbose {
        eprintln!("[all] multi-tenant serving (static split vs arbiter)…");
    }
    out.push_str(&crate::tenants::tenants(opts));
    out.push('\n');

    let _ = writeln!(
        out,
        "## Conclusion check\n\n\
         The paper's conclusion — *medium-grained FIFO evictions are the most\n\
         scalable under pressure* — holds in this reproduction: the overhead\n\
         minima in Figures 10 and 14 land at medium unit counts, and the\n\
         fine-FIFO-vs-FLUSH ranking reverses between low and high pressure in\n\
         Figures 11 and 15."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// One `<fnv1a of body> <title>` line per `## ` section; the text
    /// before the first heading is the `(preamble)` section.
    fn digest_table(out: &str) -> String {
        let mut sections = vec![("(preamble)", String::new())];
        for line in out.lines() {
            match line.strip_prefix("## ") {
                Some(title) => sections.push((title, String::new())),
                None => writeln!(sections.last_mut().expect("non-empty").1, "{line}").unwrap(),
            }
        }
        sections
            .iter()
            .map(|(title, body)| format!("{:016x} {title}\n", fnv1a(body.as_bytes())))
            .collect()
    }

    /// `all` at a small scale must reproduce every section of the
    /// committed digest table; a change that means to move a number
    /// pastes the printed table into `all_digests.txt`.
    #[test]
    fn all_sections_match_committed_digests() {
        let opts = Options {
            scale: 0.02,
            seed: 1,
            verbose: false,
            ..Options::default()
        };
        let got = digest_table(&all(&opts));
        let want = include_str!("all_digests.txt");
        if got != want {
            let moved: BTreeSet<&str> = got
                .lines()
                .filter(|l| !want.lines().any(|w| w == *l))
                .chain(want.lines().filter(|l| !got.lines().any(|g| g == *l)))
                .map(|l| l.get(17..).unwrap_or(l))
                .collect();
            panic!(
                "sections moved: {moved:?}\n\
                 new crates/experiments/src/all_digests.txt:\n{got}"
            );
        }
    }
}
