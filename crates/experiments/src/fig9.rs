//! Figure 9 as a regression sanity check: least-squares fits to
//! synthetic samples drawn around the paper's own Eqs. 2–4.

use crate::Options;
use cce_sim::measurement::Campaign;
use cce_sim::overhead::{EVICTION_EQ2, MISS_EQ3, UNLINK_EQ4};
use cce_sim::regression::fit_line;
use cce_sim::report::TextTable;
use std::fmt::Write as _;

/// Figure 9: draw 10 000 noisy samples around each of the paper's
/// Equations 2–4, fit a least-squares line to each, and print the fit
/// next to the equation it was drawn from. The fit recovers the paper's
/// constants by construction; it checks the regression, not a cost.
pub fn fig9(opts: &Options) -> String {
    let campaign = Campaign::dynamorio_like();
    let n = 10_000;
    let mut t = TextTable::new(
        "Figure 9 — Regression sanity check: fits to synthetic samples drawn around Eqs. 2–4",
        ["Routine", "Samples", "Fitted model", "Paper model", "R²"],
    );
    let ev = fit_line(&campaign.eviction_samples(n, opts.seed)).expect("enough samples");
    t.row([
        "eviction (Eq. 2)".to_owned(),
        n.to_string(),
        ev.model.to_string(),
        EVICTION_EQ2.to_string(),
        format!("{:.3}", ev.r_squared),
    ]);
    let miss = fit_line(&campaign.miss_samples(n, opts.seed)).expect("enough samples");
    t.row([
        "miss service (Eq. 3)".to_owned(),
        n.to_string(),
        miss.model.to_string(),
        MISS_EQ3.to_string(),
        format!("{:.3}", miss.r_squared),
    ]);
    let unlink = fit_line(&campaign.unlink_samples(n, opts.seed)).expect("enough samples");
    t.row([
        "unlinking (Eq. 4)".to_owned(),
        n.to_string(),
        unlink.model.to_string(),
        UNLINK_EQ4.to_string(),
        format!("{:.3}", unlink.r_squared),
    ]);
    let mut out = t.to_string();
    let example = ev.model.eval(230.0);
    let _ = writeln!(
        out,
        "\nWorked example (paper §4.3): evicting 230 bytes ⇒ {example:.0} instructions \
         (paper: 3 690). The fixed term dominates ⇒ evicting larger regions amortizes better."
    );
    out
}
