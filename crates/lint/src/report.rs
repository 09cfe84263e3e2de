//! `LINT_REPORT.json` — the machine-readable result of a lint run,
//! written through `pphcr-obs`'s [`JsonWriter`] in the workspace's
//! shared pretty layout:
//!
//! ```json
//! {
//!   "files_scanned": 63,
//!   "functions_indexed": 1200,
//!   "call_edges": 3400,
//!   "wall_ms": 120,
//!   "counts": {
//!     "B1": 0,
//!     …
//!   },
//!   "violations": [
//!     {
//!       "file": "…",
//!       "line": 7,
//!       "rule": "P4",
//!       "name": "reach-panic",
//!       "message": "…",
//!       "chain": [
//!         {
//!           "symbol": "core::engine::Engine::run_tick",
//!           "file": "crates/core/src/engine.rs",
//!           "line": 1242
//!         },
//!         …
//!       ]
//!     }
//!   ],
//!   "stale_pragmas": [],
//!   "rules": [
//!     {
//!       "id": "D1",
//!       "name": "wall-clock",
//!       "rationale": "…"
//!     },
//!     …
//!   ]
//! }
//! ```
//!
//! Witness chains are reproducible: re-running the linter on the same
//! tree yields byte-identical `violations` entries, so a chain in the
//! CI artifact can be replayed hop by hop against the sources.

use std::collections::BTreeMap;

use pphcr_obs::JsonWriter;

use crate::rules::{Violation, BAD_PRAGMA, RULES, STALE_PRAGMA};

/// Full result of linting a workspace.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of function definitions in the symbol index (0 when only
    /// the line pass ran).
    pub functions_indexed: usize,
    /// Number of resolved first-party call edges.
    pub call_edges: usize,
    /// Analysis wall time in milliseconds, when measured by the
    /// caller (the binary measures; library callers may not).
    pub wall_ms: Option<u64>,
    /// Rule violations (excluding stale pragmas).
    pub violations: Vec<Violation>,
    /// Pragmas that suppressed nothing, plus malformed pragmas.
    pub stale_pragmas: Vec<Violation>,
}

impl LintReport {
    /// Builds a report from raw per-file results, splitting pragma
    /// bookkeeping problems from rule violations.
    #[must_use]
    pub fn from_violations(files_scanned: usize, all: Vec<Violation>) -> Self {
        let (stale, violations): (Vec<_>, Vec<_>) =
            all.into_iter().partition(|v| v.rule_id == STALE_PRAGMA || v.rule_id == BAD_PRAGMA);
        LintReport {
            files_scanned,
            functions_indexed: 0,
            call_edges: 0,
            wall_ms: None,
            violations,
            stale_pragmas: stale,
        }
    }

    /// Whether the run should fail the build.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_pragmas.is_empty()
    }

    /// Per-rule violation counts over every known rule id, plus the
    /// two pragma pseudo-rules — zero entries included so the artifact
    /// shape is stable across runs.
    #[must_use]
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = RULES.iter().map(|r| (r.id, 0)).collect();
        counts.insert(STALE_PRAGMA, 0);
        counts.insert(BAD_PRAGMA, 0);
        for v in self.violations.iter().chain(self.stale_pragmas.iter()) {
            if let Some(slot) = RULES
                .iter()
                .map(|r| r.id)
                .chain([STALE_PRAGMA, BAD_PRAGMA])
                .find(|id| *id == v.rule_id)
            {
                *counts.entry(slot).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Serializes the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("files_scanned", self.files_scanned as u64)
            .field_u64("functions_indexed", self.functions_indexed as u64)
            .field_u64("call_edges", self.call_edges as u64);
        if let Some(ms) = self.wall_ms {
            w.field_u64("wall_ms", ms);
        }
        w.begin_named_object("counts");
        for (id, n) in self.counts() {
            w.field_u64(id, n as u64);
        }
        w.end_object();
        write_violations(&mut w, "violations", &self.violations);
        write_violations(&mut w, "stale_pragmas", &self.stale_pragmas);
        w.begin_named_array("rules");
        for r in RULES {
            w.begin_object()
                .field_str("id", r.id)
                .field_str("name", r.name)
                .field_str("rationale", r.rationale)
                .end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

fn write_violations(w: &mut JsonWriter, key: &str, violations: &[Violation]) {
    w.begin_named_array(key);
    for v in violations {
        w.begin_object()
            .field_str("file", &v.file)
            .field_u64("line", v.line as u64)
            .field_str("rule", &v.rule_id)
            .field_str("name", &v.rule_name)
            .field_str("message", &v.message);
        if !v.chain.is_empty() {
            w.begin_named_array("chain");
            for hop in &v.chain {
                w.begin_object()
                    .field_str("symbol", &hop.symbol)
                    .field_str("file", &hop.file)
                    .field_u64("line", hop.line as u64)
                    .end_object();
            }
            w.end_array();
        }
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ChainHop;

    #[test]
    fn clean_report_round_trips() {
        let r = LintReport::from_violations(3, Vec::new());
        assert!(r.is_clean());
        let json = r.to_json();
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"rules\""));
        assert!(json.contains("\"counts\""));
        assert!(json.contains("\"T1\": 0"));
        assert!(json.contains("\"P4\": 0"));
    }

    #[test]
    fn chains_serialize_per_hop() {
        let v = Violation {
            file: "crates/nlp/src/bayes.rs".into(),
            line: 126,
            rule_id: "P4".into(),
            rule_name: "reach-panic".into(),
            message: "reachable".into(),
            chain: vec![
                ChainHop {
                    symbol: "core::engine::Engine::run_tick".into(),
                    file: "crates/core/src/engine.rs".into(),
                    line: 1242,
                },
                ChainHop {
                    symbol: ".expect(".into(),
                    file: "crates/nlp/src/bayes.rs".into(),
                    line: 126,
                },
            ],
        };
        let r = LintReport::from_violations(1, vec![v]);
        let json = r.to_json();
        assert!(json.contains("\"chain\": ["), "{json}");
        assert!(json.contains("\"symbol\": \"core::engine::Engine::run_tick\""), "{json}");
        assert!(json.contains("\"P4\": 1"), "{json}");
    }
}
