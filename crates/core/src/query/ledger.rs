//! Persistent report-cache ledgers (`mrw-ledger-v1`).
//!
//! `mrw serve` keys its report cache by [`QuerySpec::report_key`] and
//! stores, per group, a **cumulative prefix ledger**: a sorted list of
//! `(hi, Group)` windows where each `Group` holds the exact integer
//! moments of trials `[0, hi)`. That shape is already the
//! `mrw-checkpoint-v1` wave-window idea specialized to prefixes, so
//! persisting a cache entry across daemon restarts is (deliberately)
//! mostly serialization. This module is that serialization: a canonical-
//! JSON document that embeds the resolved spec template, the resolved
//! graph identity, and every prefix window, fingerprinted the same way
//! checkpoints are.
//!
//! ## Integrity
//!
//! Checkpoints hash only their embedded spec; a ledger is consumed by a
//! long-lived daemon that will serve the stored *moments* back to
//! clients byte-for-byte, so here the FNV-1a fingerprint ([`spec_hash`])
//! covers the **whole payload** — schema tag, report key, spec, graph,
//! and every prefix window — rendered canonically with the `hash` field
//! removed. A flipped digit anywhere in the file (spec *or* moments)
//! fails verification. Loaders treat every failure as "skip this file",
//! never a panic: a corrupt warm-start file costs a recomputation, not
//! the daemon (rule P1).
//!
//! ## What the spec template is
//!
//! The embedded spec carries the budget fields that determine trial
//! outcomes (seed, mode, batch) plus the *largest* trial count the cache
//! entry has materialized; the precision rule is stripped (a cache entry
//! serves any budget of the same key, so persisting one client's
//! stopping rule would be noise). Loaders verify the stored `report_key`
//! against the embedded spec's recomputed key, so a ledger can never be
//! replayed against a different experiment.

use super::checkpoint::spec_hash;
use super::json::{self, Value};
use super::{GraphInfo, Group, QuerySpec};

/// The canonical-JSON schema tag of serialized ledgers.
pub const LEDGER_SCHEMA: &str = "mrw-ledger-v1";

/// One group's cumulative prefix windows: `prefixes[i] = (hi, Group)`
/// where the `Group` aggregates exactly trials `[0, hi)` of this group,
/// with `hi` strictly increasing. This is the in-memory shape the serve
/// cache extends (a bigger budget appends a window; an adaptive replay
/// binary-searches the boundaries).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerGroup {
    /// The group label (`start=0`, `gamma=0.5`, …) — identical to the
    /// `Group` labels inside each window.
    pub label: String,
    /// Sorted cumulative windows; every `Group` covers `[0, hi)`.
    pub prefixes: Vec<(u64, Group)>,
}

/// A serializable report-cache entry: the spec template it answers, the
/// resolved graph it was measured on, and the per-group prefix ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// The budget template (precision stripped, trial count = largest
    /// materialized prefix) plus graph/query — everything needed to
    /// recompute [`QuerySpec::report_key`] and to extend the entry.
    pub spec: QuerySpec,
    /// The resolved graph identity reports are labeled with.
    pub graph: GraphInfo,
    /// One ledger per report group, in report group order.
    pub groups: Vec<LedgerGroup>,
}

impl Ledger {
    /// The cache key this ledger belongs to.
    pub fn report_key(&self) -> String {
        self.spec.report_key()
    }

    /// The canonical on-disk file name for this ledger's cache key:
    /// `ledger-<fnv1a(report_key)>.json`. Key-derived (not content-
    /// derived), so updating an entry overwrites its previous file
    /// instead of accumulating stale generations.
    pub fn file_name(&self) -> String {
        format!("ledger-{}.json", spec_hash(&self.report_key()))
    }

    /// Everything except the `hash` field, in final field order.
    fn payload(&self) -> Value {
        Value::obj(vec![
            ("schema", Value::str(LEDGER_SCHEMA)),
            ("report_key", Value::str(&self.report_key())),
            ("spec", self.spec.to_value()),
            ("graph", self.graph.to_value()),
            (
                "groups",
                Value::Arr(
                    self.groups
                        .iter()
                        .map(|lg| {
                            Value::obj(vec![
                                ("label", Value::str(&lg.label)),
                                (
                                    "prefixes",
                                    Value::Arr(
                                        lg.prefixes
                                            .iter()
                                            .map(|(hi, g)| prefix_to_value(*hi, g))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes to canonical ledger JSON. The `hash` field is the
    /// FNV-1a fingerprint of the rest of the document (see the module
    /// docs), spliced in right after the schema tag.
    pub fn to_json(&self) -> String {
        let payload = self.payload();
        let hash = spec_hash(&payload.render());
        let Value::Obj(mut fields) = payload else {
            // payload() always builds an object; keep the never-taken
            // arm total instead of panicking (this feeds a daemon).
            return Value::Null.render();
        };
        fields.insert(1, ("hash".to_string(), Value::str(&hash)));
        Value::Obj(fields).render()
    }

    /// Parses and fully validates a ledger document. Any mismatch —
    /// schema tag, payload fingerprint, report key, budget shape, window
    /// ordering, or moment consistency — is an `Err` describing the
    /// first problem found; callers are expected to skip such files with
    /// a warning, never abort.
    pub fn from_json(text: &str) -> Result<Ledger, String> {
        let v = json::parse(text)?;
        match v.req("schema")?.as_str() {
            Some(LEDGER_SCHEMA) => {}
            _ => return Err(format!("unknown schema (expected {LEDGER_SCHEMA})")),
        }
        let stored_hash = v.req("hash")?.as_str().ok_or("hash must be a string")?;
        let Value::Obj(fields) = &v else {
            return Err("ledger must be an object".into());
        };
        let without_hash = Value::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "hash")
                .cloned()
                .collect(),
        );
        let expected = spec_hash(&without_hash.render());
        if stored_hash != expected {
            return Err(format!(
                "hash mismatch: ledger says {stored_hash}, payload hashes to {expected} — \
                 the file was edited or truncated"
            ));
        }
        let spec = QuerySpec::from_value(v.req("spec")?)?;
        if spec.budget.precision.is_some() {
            return Err("ledger spec must not carry a precision rule".into());
        }
        let stored_key = v
            .req("report_key")?
            .as_str()
            .ok_or("report_key must be a string")?;
        if stored_key != spec.report_key() {
            return Err("report_key does not match the embedded spec".into());
        }
        let graph = GraphInfo::from_value(v.req("graph")?)?;
        let groups = v
            .req("groups")?
            .as_arr()
            .ok_or("groups must be an array")?
            .iter()
            .enumerate()
            .map(|(i, lg)| ledger_group_from_value(lg).map_err(|e| format!("groups[{i}]: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        if groups.is_empty() {
            return Err("ledger has no groups".into());
        }
        Ok(Ledger {
            spec,
            graph,
            groups,
        })
    }
}

/// One `(hi, Group)` window: the report-group moment fields with the
/// window bound `hi` first, so the two schemas read alike.
fn prefix_to_value(hi: u64, g: &Group) -> Value {
    Value::obj(
        [("hi", Value::num(hi))]
            .into_iter()
            .chain(g.moment_fields())
            .collect(),
    )
}

fn ledger_group_from_value(v: &Value) -> Result<LedgerGroup, String> {
    let label = v
        .req("label")?
        .as_str()
        .ok_or("label must be a string")?
        .to_string();
    let mut prefixes = Vec::new();
    let mut prev_hi = 0u64;
    for (i, p) in v
        .req("prefixes")?
        .as_arr()
        .ok_or("prefixes must be an array")?
        .iter()
        .enumerate()
    {
        let hi = p.req("hi")?.as_u64().ok_or("hi must be an integer")?;
        if hi == 0 || hi <= prev_hi {
            return Err(format!(
                "prefixes[{i}]: window bound {hi} is not strictly increasing"
            ));
        }
        prev_hi = hi;
        let group = Group::from_moment_fields(label.clone(), p)
            .map_err(|e| format!("prefixes[{i}]: {e}"))?;
        if group.trials != hi {
            return Err(format!(
                "prefixes[{i}]: a [0, {hi}) prefix must have dispatched exactly {hi} trials, \
                 not {}",
                group.trials
            ));
        }
        prefixes.push((hi, group));
    }
    if prefixes.is_empty() {
        return Err("a ledger group needs at least one prefix window".into());
    }
    Ok(LedgerGroup { label, prefixes })
}

#[cfg(test)]
mod tests {
    use super::super::{Budget, GraphSpec, Query, Session};
    use super::*;

    fn spec(trials: usize) -> QuerySpec {
        QuerySpec {
            graph: GraphSpec::new("cycle", 16),
            query: Query::Cover {
                k: 2,
                starts: vec![0, 3],
            },
            budget: Budget {
                trials,
                seed: 11,
                ..Budget::default()
            },
        }
    }

    /// A two-window ledger built from real prefix runs.
    fn ledger() -> Ledger {
        let spec = spec(32);
        let g = spec.graph.resolve().unwrap();
        let r16 = Session::new(Budget {
            trials: 16,
            ..spec.budget.clone()
        })
        .run(&g, &spec.query);
        let r32 = Session::new(spec.budget.clone()).run(&g, &spec.query);
        let groups = r16
            .groups
            .iter()
            .zip(&r32.groups)
            .map(|(a, b)| LedgerGroup {
                label: a.label.clone(),
                prefixes: vec![(16, a.clone()), (32, b.clone())],
            })
            .collect();
        Ledger {
            graph: r32.graph.clone(),
            spec,
            groups,
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let l = ledger();
        let text = l.to_json();
        let back = Ledger::from_json(&text).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.report_key(), l.spec.report_key());
    }

    #[test]
    fn file_name_is_key_derived() {
        let l = ledger();
        assert_eq!(
            l.file_name(),
            format!("ledger-{}.json", spec_hash(&l.report_key()))
        );
        // Same key at a different trial count → same file.
        let mut bigger = l.clone();
        bigger.spec.budget.trials = 64;
        assert_eq!(bigger.file_name(), l.file_name());
    }

    #[test]
    fn tampered_moments_are_rejected() {
        let l = ledger();
        let text = l.to_json();
        let needle = format!("\"sum\": {}", l.groups[0].prefixes[0].1.moments.sum());
        let bumped = format!("\"sum\": {}", l.groups[0].prefixes[0].1.moments.sum() + 1);
        let tampered = text.replacen(&needle, &bumped, 1);
        assert_ne!(tampered, text, "tamper target must exist");
        let err = Ledger::from_json(&tampered).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");
    }

    #[test]
    fn truncation_and_schema_skew_are_rejected() {
        let text = ledger().to_json();
        assert!(Ledger::from_json(&text[..text.len() / 2]).is_err());
        let skewed = text.replace(LEDGER_SCHEMA, "mrw-ledger-v0");
        assert!(Ledger::from_json(&skewed)
            .unwrap_err()
            .contains("unknown schema"));
    }

    #[test]
    fn non_increasing_windows_are_rejected() {
        let mut l = ledger();
        l.groups[0].prefixes.swap(0, 1);
        let err = Ledger::from_json(&l.to_json()).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn window_trials_must_match_the_bound() {
        let mut l = ledger();
        l.groups[0].prefixes[0].0 = 15; // Group still holds 16 trials.
        let err = Ledger::from_json(&l.to_json()).unwrap_err();
        assert!(err.contains("dispatched exactly"), "{err}");
    }

    #[test]
    fn precision_bearing_specs_are_rejected() {
        use mrw_stats::Precision;
        let mut l = ledger();
        l.spec.budget.precision = Some(Precision::absolute(1.0));
        let err = Ledger::from_json(&l.to_json()).unwrap_err();
        assert!(err.contains("precision"), "{err}");
    }
}
