//! `BENCHMARK.json`: the one list of workload and metric names, units,
//! directions and worsening bounds. The harness embeds the file at build
//! time and refuses to report a metric it does not name, so the JSON and
//! the code cannot drift apart.

use cce_util::Json;

/// The repository's `BENCHMARK.json`, embedded at build time.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parsed benchmark declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// A name starts with a letter or digit and holds at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit holds 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn arr_field<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field `{key}`"))
}

fn strings(obj: &Json, key: &str) -> Result<Vec<String>, String> {
    arr_field(obj, key)?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{key}` holds a non-string"))
        })
        .collect()
}

fn metrics(obj: &Json, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    arr_field(obj, key)?
        .iter()
        .map(|m| {
            let name = str_field(m, "name")?;
            let unit = str_field(m, "unit")?;
            if !valid_name(&name) {
                return Err(format!("invalid metric name `{name}`"));
            }
            if !valid_unit(&unit) {
                return Err(format!("invalid unit `{unit}` on `{name}`"));
            }
            let higher_is_better = match str_field(m, "better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("`better` is `{other}` on `{name}`")),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            match (bounded, bound) {
                (true, Some(b)) if (0.0..=0.25).contains(&b) => {}
                (true, _) => return Err(format!("`{name}` needs a bound in 0..=0.25")),
                (false, Some(_)) => return Err(format!("layer metric `{name}` has a bound")),
                (false, None) => {}
            }
            Ok(Metric {
                name,
                unit,
                higher_is_better,
                bound,
            })
        })
        .collect()
}

impl Spec {
    /// Parses and validates a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// A message naming the first field that is missing, mistyped or
    /// outside the contract's limits.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let workloads = arr_field(&doc, "workloads")?
            .iter()
            .map(|w| {
                let name = str_field(w, "name")?;
                if !valid_name(&name) {
                    return Err(format!("invalid workload name `{name}`"));
                }
                Ok((name, str_field(w, "why")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let spec = Spec {
            command: strings(&doc, "command")?,
            paths: strings(&doc, "paths")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .filter(|s| (1..=60).contains(s))
                .ok_or("`run_seconds` must be a whole number from 1 to 60")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end", true)?,
            per_layer: metrics(&doc, "per_layer", false)?,
        };
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name `{}` is used twice", dup[0]));
        }
        if !spec.end_to_end.iter().any(|m| m.name == "setup_s") {
            return Err("end_to_end must declare `setup_s`".to_owned());
        }
        Ok(spec)
    }

    /// The embedded declaration.
    ///
    /// # Errors
    ///
    /// As [`Spec::parse`].
    pub fn embedded() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }

    /// Re-serializes the declaration with the file's key order.
    #[cfg(test)]
    pub fn to_json(&self) -> Json {
        let metric = |m: &Metric| {
            let mut pairs = vec![
                ("name", Json::Str(m.name.clone())),
                ("unit", Json::Str(m.unit.clone())),
                (
                    "better",
                    Json::Str(
                        if m.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }
                        .to_owned(),
                    ),
                ),
            ];
            if let Some(b) = m.bound {
                pairs.push(("bound", Json::Float(b)));
            }
            Json::obj(pairs)
        };
        let strs = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        Json::obj(vec![
            ("command", strs(&self.command)),
            ("paths", strs(&self.paths)),
            ("run_seconds", Json::Int(self.run_seconds as i64)),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|(n, w)| {
                            Json::obj(vec![
                                ("name", Json::Str(n.clone())),
                                ("why", Json::Str(w.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(self.end_to_end.iter().map(metric).collect()),
            ),
            (
                "per_layer",
                Json::Arr(self.per_layer.iter().map(metric).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_allow_letters_digits_and_three_marks() {
        for ok in [
            "setup_s",
            "org.access_ns_per_event.evict",
            "p95-us",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "slash/", "µs", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("ns/event") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("events per second"));
    }

    #[test]
    fn embedded_declaration_round_trips_through_json() {
        let spec = Spec::embedded().expect("BENCHMARK.json parses");
        let again = Spec::parse(&spec.to_json().to_string_compact()).expect("re-parses");
        assert_eq!(spec, again);
        // And the emitted document is value-identical to the file.
        assert_eq!(
            Json::parse(BENCHMARK_JSON).expect("file is JSON"),
            spec.to_json()
        );
    }

    #[test]
    fn embedded_declaration_names_every_workload_the_harness_runs() {
        let spec = Spec::embedded().expect("BENCHMARK.json parses");
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let built: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(declared, built);
        assert!(spec.workloads.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn duplicate_and_unbounded_metrics_are_refused() {
        let base = |e2e: &str, layer: &str| {
            format!(
                r#"{{"command":["x"],"paths":["p"],"run_seconds":5,
                "workloads":[{{"name":"a","why":"w"}},{{"name":"b","why":"w"}}],
                "end_to_end":[{e2e}],"per_layer":[{layer}]}}"#
            )
        };
        let setup = r#"{"name":"setup_s","unit":"s","better":"lower","bound":0.25}"#;
        let layer = r#"{"name":"l","unit":"ns","better":"lower"}"#;
        assert!(Spec::parse(&base(setup, layer)).is_ok());
        let dup = r#"{"name":"a","unit":"ns","better":"lower"}"#;
        assert!(Spec::parse(&base(setup, dup))
            .unwrap_err()
            .contains("twice"));
        let wide = r#"{"name":"setup_s","unit":"s","better":"lower","bound":0.5}"#;
        assert!(Spec::parse(&base(wide, layer)).is_err());
        let unbounded = r#"{"name":"setup_s","unit":"s","better":"lower"}"#;
        assert!(Spec::parse(&base(unbounded, layer)).is_err());
    }
}
