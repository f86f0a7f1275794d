//! The panic-path ratchet.
//!
//! A baseline records, per `(lint, file)`, how many findings are
//! tolerated — the debt the repo carried when the lint was introduced.
//! Findings inside the budget are suppressed; one above it fails the
//! run, and paying debt down then updating the baseline is the only way
//! the numbers move. `--update-baseline` rewrites the file from the
//! current findings, so counts can ratchet toward zero but a regression
//! can never be committed silently. The ratchet is enforced in both
//! directions: a bucket whose current count falls *below* its budget is
//! reported stale ([`Baseline::stale_buckets`]) and fails the run until
//! the baseline is refreshed, so paid-down debt is locked in rather
//! than left as headroom to regress into.

use std::collections::BTreeMap;

use cce_util::Json;

use crate::lints::{Finding, LINT_RENAMES};

/// Tolerated finding counts, keyed `lint → file → count`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<String, BTreeMap<String, usize>>,
}

impl Baseline {
    /// A baseline tolerating nothing.
    #[must_use]
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Builds a baseline that exactly covers `findings`.
    #[must_use]
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut counts: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        for f in findings {
            *counts
                .entry(f.lint.to_owned())
                .or_default()
                .entry(f.file.clone())
                .or_default() += 1;
        }
        Baseline { counts }
    }

    /// Parses the JSON baseline format emitted by [`Baseline::to_json`].
    ///
    /// Buckets recorded under a lint's *old* name (see
    /// [`LINT_RENAMES`]) migrate into the successor lint's buckets —
    /// merged by addition when both names are present — so a committed
    /// baseline keeps working across a lint rename instead of silently
    /// dropping its budgets.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let Some(Json::Obj(lints)) = doc.get("counts").cloned() else {
            return Err("baseline is missing the \"counts\" object".to_owned());
        };
        let mut counts: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        for (lint, files) in lints {
            let Json::Obj(pairs) = files else {
                return Err(format!("baseline counts for {lint} are not an object"));
            };
            let canonical = LINT_RENAMES
                .iter()
                .find(|(old, _)| *old == lint)
                .map_or(lint.as_str(), |&(_, new)| new);
            let per_file = counts.entry(canonical.to_owned()).or_default();
            for (file, n) in pairs {
                let Some(n) = n.as_u64() else {
                    return Err(format!("baseline count for {lint}/{file} is not a count"));
                };
                *per_file.entry(file).or_default() += usize::try_from(n).unwrap_or(usize::MAX);
            }
        }
        Ok(Baseline { counts })
    }

    /// Serializes; keys are sorted so the file is diff-stable.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let lints: Vec<(String, Json)> = self
            .counts
            .iter()
            .filter(|(_, files)| !files.is_empty())
            .map(|(lint, files)| {
                let pairs: Vec<(String, Json)> = files
                    .iter()
                    .filter(|&(_, &n)| n > 0)
                    .map(|(file, &n)| (file.clone(), Json::from(n)))
                    .collect();
                (lint.clone(), Json::Obj(pairs))
            })
            .collect();
        Json::obj(vec![
            ("version", Json::Int(1)),
            ("counts", Json::Obj(lints)),
        ])
    }

    /// The tolerated count for one `(lint, file)` bucket.
    #[must_use]
    pub fn budget(&self, lint: &str, file: &str) -> usize {
        self.counts
            .get(lint)
            .and_then(|files| files.get(file))
            .copied()
            .unwrap_or(0)
    }

    /// Buckets whose current finding count is strictly below budget:
    /// debt was paid down but the baseline still tolerates the old
    /// count, so the file could silently regress back up to it. Each
    /// entry is `(lint, file, budget, current)`; refresh with
    /// `--update-baseline` to lock the reduction in.
    #[must_use]
    pub fn stale_buckets(&self, findings: &[Finding]) -> Vec<(String, String, usize, usize)> {
        let mut current: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for f in findings {
            *current.entry((f.lint, f.file.as_str())).or_default() += 1;
        }
        let mut stale = Vec::new();
        for (lint, files) in &self.counts {
            for (file, &budget) in files {
                let now = current
                    .get(&(lint.as_str(), file.as_str()))
                    .copied()
                    .unwrap_or(0);
                if now < budget {
                    stale.push((lint.clone(), file.clone(), budget, now));
                }
            }
        }
        stale
    }

    /// Splits findings into those above baseline (kept, to report) and
    /// the number suppressed. A bucket at or under its budget is
    /// suppressed entirely; a bucket above it is reported entirely, so
    /// the offending file's full debt is visible while being paid down.
    #[must_use]
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
        let mut current: BTreeMap<(&'static str, String), usize> = BTreeMap::new();
        for f in &findings {
            *current.entry((f.lint, f.file.clone())).or_default() += 1;
        }
        let mut suppressed = 0usize;
        let kept: Vec<Finding> = findings
            .into_iter()
            .filter(|f| {
                let n = current[&(f.lint, f.file.clone())];
                if n <= self.budget(f.lint, &f.file) {
                    suppressed += 1;
                    false
                } else {
                    true
                }
            })
            .collect();
        (kept, suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &'static str, file: &str, line: u32) -> Finding {
        Finding::new(file, line, lint, String::new())
    }

    #[test]
    fn round_trips_through_json() {
        let fs = vec![
            finding("panic-path", "crates/core/src/cache.rs", 10),
            finding("panic-path", "crates/core/src/cache.rs", 20),
            finding("panic-path", "crates/sim/src/simulator.rs", 5),
        ];
        let b = Baseline::from_findings(&fs);
        let text = b.to_json().to_string_compact();
        assert_eq!(Baseline::parse(&text).unwrap(), b);
        assert_eq!(b.budget("panic-path", "crates/core/src/cache.rs"), 2);
        assert_eq!(b.budget("panic-path", "crates/dbt/src/lib.rs"), 0);
    }

    #[test]
    fn within_budget_is_suppressed_above_is_reported() {
        let baseline = Baseline::from_findings(&[finding("panic-path", "a.rs", 1)]);
        let (kept, suppressed) = baseline.apply(vec![finding("panic-path", "a.rs", 7)]);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 1);
        let (kept, suppressed) = baseline.apply(vec![
            finding("panic-path", "a.rs", 7),
            finding("panic-path", "a.rs", 9),
        ]);
        assert_eq!(kept.len(), 2, "whole bucket is reported when over budget");
        assert_eq!(suppressed, 0);
    }

    #[test]
    fn paid_down_buckets_are_reported_stale() {
        let baseline = Baseline::from_findings(&[
            finding("panic-path", "a.rs", 1),
            finding("panic-path", "a.rs", 2),
            finding("panic-path", "a.rs", 3),
            finding("panic-path", "b.rs", 1),
        ]);
        // a.rs paid down from 3 to 1, b.rs unchanged, so only a.rs is
        // stale — with the exact budget/current counts.
        let now = [
            finding("panic-path", "a.rs", 7),
            finding("panic-path", "b.rs", 1),
        ];
        assert_eq!(
            baseline.stale_buckets(&now),
            vec![("panic-path".to_owned(), "a.rs".to_owned(), 3, 1)]
        );
        assert!(Baseline::from_findings(&now).stale_buckets(&now).is_empty());
    }

    #[test]
    fn budgets_do_not_transfer_between_files_or_lints() {
        let baseline = Baseline::from_findings(&[finding("panic-path", "a.rs", 1)]);
        let (kept, _) = baseline.apply(vec![finding("panic-path", "b.rs", 3)]);
        assert_eq!(kept.len(), 1);
        let (kept, _) = baseline.apply(vec![finding("cost-constant", "a.rs", 3)]);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn renamed_lint_buckets_migrate_on_parse() {
        // A baseline committed before the rename keeps suppressing the
        // successor lint's findings.
        let old = "{\"version\":1,\"counts\":{\"nondet-iter\":{\"a.rs\":2},\
                    \"event-protocol\":{\"b.rs\":1}}}";
        let b = Baseline::parse(old).unwrap();
        assert_eq!(b.budget("nondet-taint", "a.rs"), 2);
        assert_eq!(b.budget("event-typestate", "b.rs"), 1);
        assert_eq!(b.budget("nondet-iter", "a.rs"), 0, "old name is gone");
        let (kept, suppressed) = b.apply(vec![
            finding("nondet-taint", "a.rs", 3),
            finding("nondet-taint", "a.rs", 9),
        ]);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 2);
    }

    #[test]
    fn old_and_new_name_buckets_merge_by_addition() {
        let mixed = "{\"version\":1,\"counts\":{\"nondet-iter\":{\"a.rs\":2},\
                      \"nondet-taint\":{\"a.rs\":1}}}";
        let b = Baseline::parse(mixed).unwrap();
        assert_eq!(b.budget("nondet-taint", "a.rs"), 3);
        // Re-serializing writes only the canonical name.
        let round = Baseline::parse(&b.to_json().to_string_compact()).unwrap();
        assert_eq!(round, b);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"counts\":{\"panic-path\":3}}").is_err());
        assert!(Baseline::parse("{\"counts\":{\"panic-path\":{\"a.rs\":\"x\"}}}").is_err());
        assert!(Baseline::parse("not json").is_err());
    }
}
