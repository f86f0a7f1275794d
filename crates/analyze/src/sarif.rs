//! SARIF 2.1.0 emission (`cce-analyze --format sarif`).
//!
//! Produces a minimal, spec-conformant Static Analysis Results
//! Interchange Format log: one run, the lint catalog as
//! `tool.driver.rules`, one `result` per finding with a physical
//! location, and — when a finding carries an interprocedural trace —
//! a `codeFlows`/`threadFlows` chain so viewers can step the call
//! path from sink declaration to nondeterminism source (or from lock
//! hold site to conflicting acquisition).

use std::collections::BTreeSet;

use cce_util::Json;

use crate::lints::Finding;

/// Short help text per lint, surfaced as the SARIF rule description.
fn rule_help(lint: &str) -> &'static str {
    match lint {
        crate::lints::NONDET_TAINT => {
            "A nondeterminism source (hash-order iteration, wall-clock time, \
             parallelism probe, unordered channel) reaches an event-emitting or \
             SimResult-producing function through the call graph."
        }
        crate::lints::COST_CONSTANT => {
            "Paper-derived cost-model constants must live in cce_core::cost."
        }
        crate::lints::PANIC_PATH => {
            "unwrap/expect/panic on a library path; return an error instead."
        }
        crate::lints::EVENT_TYPESTATE => {
            "Every path from EvictionBegin must emit exactly one EvictionEnd \
             before function exit; no nested scopes; Evicted/Unlinked only \
             inside an open scope. CacheEvent construction stays confined to \
             the event machinery."
        }
        crate::lints::COST_UNITS => {
            "Bytes, cycles and event counts are distinct currencies: no \
             cross-unit +/- arithmetic, and integer cycle accumulators must \
             use saturating/checked ops."
        }
        _ => "cce-analyze finding.",
    }
}

fn location(file: &str, line: u32, message: Option<&str>) -> Json {
    let physical = (
        "physicalLocation",
        Json::obj(vec![
            (
                "artifactLocation",
                Json::obj(vec![("uri", Json::from(file))]),
            ),
            ("region", Json::obj(vec![("startLine", Json::from(line))])),
        ]),
    );
    match message {
        Some(m) => Json::obj(vec![
            physical,
            ("message", Json::obj(vec![("text", Json::from(m))])),
        ]),
        None => Json::obj(vec![physical]),
    }
}

fn result(f: &Finding) -> Json {
    let mut pairs = vec![
        ("ruleId", Json::from(f.lint)),
        ("level", Json::from("error")),
        (
            "message",
            Json::obj(vec![("text", Json::from(f.message.as_str()))]),
        ),
        (
            "locations",
            Json::Arr(vec![location(&f.file, f.line, None)]),
        ),
    ];
    if !f.trace.is_empty() {
        let steps: Vec<Json> = f
            .trace
            .iter()
            .map(|hop| {
                Json::obj(vec![(
                    "location",
                    location(&hop.file, hop.line, Some(&hop.label)),
                )])
            })
            .collect();
        pairs.push((
            "codeFlows",
            Json::Arr(vec![Json::obj(vec![(
                "threadFlows",
                Json::Arr(vec![Json::obj(vec![("locations", Json::Arr(steps))])]),
            )])]),
        ));
    }
    Json::obj(pairs)
}

/// Renders findings as a SARIF 2.1.0 log (compact JSON).
#[must_use]
pub fn to_sarif(findings: &[Finding]) -> Json {
    let lints: BTreeSet<&str> = findings.iter().map(|f| f.lint).collect();
    let rules: Vec<Json> = lints
        .into_iter()
        .map(|lint| {
            Json::obj(vec![
                ("id", Json::from(lint)),
                (
                    "shortDescription",
                    Json::obj(vec![("text", Json::from(rule_help(lint)))]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "$schema",
            Json::from(
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
            ),
        ),
        ("version", Json::from("2.1.0")),
        (
            "runs",
            Json::Arr(vec![Json::obj(vec![
                (
                    "tool",
                    Json::obj(vec![(
                        "driver",
                        Json::obj(vec![
                            ("name", Json::from("cce-analyze")),
                            (
                                "informationUri",
                                Json::from("https://example.invalid/cce-analyze"),
                            ),
                            ("rules", Json::Arr(rules)),
                        ]),
                    )]),
                ),
                (
                    "results",
                    Json::Arr(findings.iter().map(result).collect()),
                ),
            ])]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::{Finding, TraceHop, NONDET_TAINT, PANIC_PATH};

    fn sample() -> Vec<Finding> {
        let mut with_trace = Finding::new(
            "crates/core/src/a.rs",
            7,
            NONDET_TAINT,
            "HashMap iteration reaches sink".to_owned(),
        );
        with_trace.trace = vec![
            TraceHop {
                file: "crates/core/src/a.rs".to_owned(),
                line: 3,
                label: "sink `emit`".to_owned(),
            },
            TraceHop {
                file: "crates/core/src/a.rs".to_owned(),
                line: 7,
                label: "source in `walk`".to_owned(),
            },
        ];
        vec![
            with_trace,
            Finding::new(
                "crates/core/src/b.rs",
                11,
                PANIC_PATH,
                "unwrap on a library path".to_owned(),
            ),
        ]
    }

    #[test]
    fn log_has_schema_version_rules_and_results() {
        let log = to_sarif(&sample());
        assert_eq!(log.get("version").and_then(Json::as_str), Some("2.1.0"));
        let run = &log.get("runs").and_then(Json::as_arr).unwrap()[0];
        let driver = run.get("tool").and_then(|t| t.get("driver")).unwrap();
        assert_eq!(
            driver.get("name").and_then(Json::as_str),
            Some("cce-analyze")
        );
        let rules = driver.get("rules").and_then(Json::as_arr).unwrap();
        let ids: Vec<&str> = rules
            .iter()
            .filter_map(|r| r.get("id").and_then(Json::as_str))
            .collect();
        assert_eq!(ids, vec![NONDET_TAINT, PANIC_PATH]);
        assert_eq!(run.get("results").and_then(Json::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn traces_become_code_flows() {
        let log = to_sarif(&sample());
        let runs = log.get("runs").and_then(Json::as_arr).unwrap();
        let results = runs[0].get("results").and_then(Json::as_arr).unwrap();
        let flows = results[0].get("codeFlows").and_then(Json::as_arr).unwrap();
        let steps = flows[0]
            .get("threadFlows")
            .and_then(Json::as_arr)
            .and_then(|tf| tf[0].get("locations"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(steps.len(), 2);
        let msg = steps[0]
            .get("location")
            .and_then(|l| l.get("message"))
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("sink"));
        // The untraced finding has no codeFlows key.
        assert!(results[1].get("codeFlows").is_none());
    }

    #[test]
    fn physical_locations_carry_uri_and_line() {
        let log = to_sarif(&sample());
        let runs = log.get("runs").and_then(Json::as_arr).unwrap();
        let loc = runs[0]
            .get("results")
            .and_then(Json::as_arr)
            .and_then(|r| r[1].get("locations"))
            .and_then(Json::as_arr)
            .map(|l| &l[0])
            .unwrap();
        let phys = loc.get("physicalLocation").unwrap();
        assert_eq!(
            phys.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Json::as_str),
            Some("crates/core/src/b.rs")
        );
        assert_eq!(
            phys.get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Json::as_u64),
            Some(11)
        );
    }
}
