//! The single apply path shared by live execution and crash recovery.
//!
//! [`apply_record`] is the *only* place a logged
//! [`EngineCommand`](crate::command::EngineCommand) turns into engine
//! mutations, and it is nothing but [`Engine::apply`] with the outcome
//! recorded. The live [`DurableEngine`](super::DurableEngine) logs a
//! record and then calls it; [`restore_engine`](super::restore_engine)
//! replays the WAL suffix through the very same function; the shard
//! agent serves forwarded commands through it too. Replay-equals-original therefore holds by
//! construction, not by parallel-maintained code paths.

use super::wal::WalRecord;
use crate::engine::{Engine, EngineEvent};

/// What applying one WAL record produced.
///
/// Engine-level rejections (unknown user on an injection, a bus-rejected
/// service change) are *recorded outcomes*, not apply failures: the
/// original execution took the same path, mutated the same counters and
/// dead-letter queues, and recovery must reproduce that exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyResult {
    /// Sequence number of the applied record.
    pub seq: u64,
    /// Events emitted by the engine (ticks and skips produce these).
    pub events: Vec<EngineEvent>,
    /// Display form of the engine error when the operation was
    /// rejected; `None` on success.
    pub error: Option<String>,
}

impl ApplyResult {
    /// Renders the result as stable one-line strings (one per event,
    /// plus one for an error), used by the crash-recovery sweep to diff
    /// a replayed run against the uninterrupted one.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.events.iter().map(|e| format!("seq={} event={e:?}", self.seq)).collect();
        if let Some(err) = &self.error {
            out.push(format!("seq={} rejected={err}", self.seq));
        }
        out
    }
}

/// Applies one WAL record to the engine through [`Engine::apply`].
pub fn apply_record(engine: &mut Engine, record: &WalRecord) -> ApplyResult {
    match engine.apply(&record.op) {
        Ok(events) => ApplyResult { seq: record.seq, events, error: None },
        Err(e) => ApplyResult { seq: record.seq, events: Vec::new(), error: Some(e.to_string()) },
    }
}
