//! The router ⇄ agent wire protocol.
//!
//! Frames reuse the WAL's format exactly: `[len: u32 LE][crc: u32 LE]`
//! followed by `payload = [seq: u64][kind: u8][body]`, CRC32 over the
//! whole payload. WAL record kinds stop below 200; protocol control
//! kinds start at 200, so a protocol frame can never be mistaken for a
//! logged operation. Commands travel *as WAL payload bytes* — encoded
//! and decoded by [`pphcr_core::persist`]'s single codec — which is
//! what guarantees a forwarded command means exactly what the same
//! bytes mean in a durability log.
//!
//! Every decode path returns a typed [`ProtoError`]; hostile bytes
//! never panic an agent.

use pphcr_core::persist::{
    crc32, decode_payload, encode_payload, ByteReader, ByteWriter, PersistError,
};
use pphcr_core::{EngineCommand, WalRecord};
use pphcr_obs::{DecisionTraceEntry, HistogramSnapshot, ObsSnapshot, Verdict};
use std::fmt;
use std::io::{Read, Write};

/// Router → agent: forward a command for application.
pub const KIND_APPLY: u8 = 200;
/// Router → agent: capture and ship the observability snapshot.
pub const KIND_OBS_REQUEST: u8 = 201;
/// Router → agent: export a full engine snapshot (rebalance donor).
pub const KIND_SNAPSHOT_REQUEST: u8 = 202;
/// Router → agent: restore engine state from a snapshot (recipient).
pub const KIND_RESTORE: u8 = 203;
/// Agent → router: outcome of one applied command.
pub const KIND_APPLIED: u8 = 210;
/// Agent → router: the observability snapshot.
pub const KIND_OBS: u8 = 211;
/// Agent → router: exported snapshot bytes.
pub const KIND_SNAPSHOT: u8 = 212;
/// Agent → router: restore completed.
pub const KIND_RESTORED: u8 = 213;
/// Agent → router: the agent could not honour the request.
pub const KIND_FAULT: u8 = 214;

/// Frames larger than this are rejected before allocation — a corrupt
/// length prefix must not trigger a gigabyte `Vec`.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Typed failures of the wire protocol.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying pipe failed (or closed mid-frame).
    Io(std::io::Error),
    /// A frame failed its CRC or length validation.
    BadFrame,
    /// The payload passed its CRC but does not decode.
    Decode(PersistError),
    /// A frame carried a kind the receiver does not understand.
    UnknownKind(u8),
    /// The peer answered with the wrong response kind.
    UnexpectedResponse(u8),
    /// The peer reported a fault.
    Fault(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "pipe I/O failure: {e}"),
            ProtoError::BadFrame => write!(f, "frame failed length/CRC validation"),
            ProtoError::Decode(e) => write!(f, "payload does not decode: {e}"),
            ProtoError::UnknownKind(k) => write!(f, "unknown protocol kind {k}"),
            ProtoError::UnexpectedResponse(k) => write!(f, "unexpected response kind {k}"),
            ProtoError::Fault(msg) => write!(f, "peer fault: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<PersistError> for ProtoError {
    fn from(e: PersistError) -> Self {
        ProtoError::Decode(e)
    }
}

/// Writes one `[len][crc][seq|kind|body]` frame and flushes.
///
/// # Errors
/// [`ProtoError::Io`] when the pipe fails.
pub fn write_frame(
    out: &mut impl Write,
    seq: u64,
    kind: u8,
    body: &[u8],
) -> Result<(), ProtoError> {
    let mut payload = ByteWriter::new();
    payload.put_u64(seq);
    payload.put_u8(kind);
    payload.put_bytes(body);
    let payload = payload.into_inner();
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&crc32(&payload).to_le_bytes())?;
    out.write_all(&payload)?;
    out.flush()?;
    Ok(())
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
/// [`ProtoError::Io`] on a torn read, [`ProtoError::BadFrame`] on a
/// CRC mismatch or an over-long length prefix.
pub fn read_frame(input: &mut impl Read) -> Result<Option<(u64, u8, Vec<u8>)>, ProtoError> {
    let mut header = [0u8; 8];
    match input.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let mut hr = ByteReader::new(&header);
    let len = hr.u32().map_err(|_| ProtoError::BadFrame)? as usize;
    let crc = hr.u32().map_err(|_| ProtoError::BadFrame)?;
    if !(9..=MAX_FRAME).contains(&len) {
        return Err(ProtoError::BadFrame);
    }
    let mut payload = vec![0u8; len];
    input.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(ProtoError::BadFrame);
    }
    let mut r = ByteReader::new(&payload);
    let seq = r.u64().map_err(|_| ProtoError::BadFrame)?;
    let kind = r.u8().map_err(|_| ProtoError::BadFrame)?;
    let body = r.take(r.remaining()).map_err(|_| ProtoError::BadFrame)?.to_vec();
    Ok(Some((seq, kind, body)))
}

/// One event as it crosses the wire: the owning user (the router's
/// interleave key) and the event's stable debug rendering (the
/// identity artefact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEvent {
    /// Raw id of the listener the event concerns.
    pub user: u64,
    /// `format!("{event:?}")` of the engine event.
    pub line: String,
}

/// Router → agent requests.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply one engine command.
    Apply(EngineCommand),
    /// Capture and return the observability snapshot.
    Obs,
    /// Export the full engine snapshot (rebalance donor side).
    Snapshot,
    /// Replace engine state from snapshot bytes (recipient side).
    Restore(Vec<u8>),
}

/// Agent → router responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcome of an [`Request::Apply`].
    Applied {
        /// Display form of the engine rejection, when the command was
        /// rejected (a recorded outcome, same as in the WAL).
        error: Option<String>,
        /// Events the command produced, in engine emission order.
        events: Vec<WireEvent>,
    },
    /// The shard's observability snapshot.
    Obs(ObsSnapshot),
    /// Exported engine snapshot bytes.
    Snapshot(Vec<u8>),
    /// Restore completed.
    Restored,
    /// The agent could not honour the request.
    Fault(String),
}

impl Request {
    /// Encodes the request into `(kind, body)` for framing.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Apply(cmd) => {
                (KIND_APPLY, encode_payload(&WalRecord { seq: 0, op: cmd.clone() }))
            }
            Request::Obs => (KIND_OBS_REQUEST, Vec::new()),
            Request::Snapshot => (KIND_SNAPSHOT_REQUEST, Vec::new()),
            Request::Restore(bytes) => (KIND_RESTORE, bytes.clone()),
        }
    }

    /// Decodes a request from a received `(kind, body)` pair.
    ///
    /// # Errors
    /// [`ProtoError::UnknownKind`] / [`ProtoError::Decode`] on
    /// unrecognised or undecodable frames.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Self, ProtoError> {
        match kind {
            KIND_APPLY => Ok(Request::Apply(decode_payload(body)?.op)),
            KIND_OBS_REQUEST => Ok(Request::Obs),
            KIND_SNAPSHOT_REQUEST => Ok(Request::Snapshot),
            KIND_RESTORE => Ok(Request::Restore(body.to_vec())),
            other => Err(ProtoError::UnknownKind(other)),
        }
    }
}

impl Response {
    /// Encodes the response into `(kind, body)` for framing.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::Applied { error, events } => {
                let mut w = ByteWriter::new();
                w.put_opt(error.as_ref(), |w, e| w.put_str(e));
                w.put_u32(events.len() as u32);
                for e in events {
                    w.put_u64(e.user);
                    w.put_str(&e.line);
                }
                (KIND_APPLIED, w.into_inner())
            }
            Response::Obs(snap) => {
                let mut w = ByteWriter::new();
                put_obs_snapshot(&mut w, snap);
                (KIND_OBS, w.into_inner())
            }
            Response::Snapshot(bytes) => (KIND_SNAPSHOT, bytes.clone()),
            Response::Restored => (KIND_RESTORED, Vec::new()),
            Response::Fault(msg) => {
                let mut w = ByteWriter::new();
                w.put_str(msg);
                (KIND_FAULT, w.into_inner())
            }
        }
    }

    /// Decodes a response from a received `(kind, body)` pair.
    ///
    /// # Errors
    /// [`ProtoError::UnknownKind`] / [`ProtoError::Decode`] on
    /// unrecognised or undecodable frames.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Self, ProtoError> {
        match kind {
            KIND_APPLIED => {
                let mut r = ByteReader::new(body);
                let error = r.opt(ByteReader::string)?;
                let n = r.seq_len()?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(WireEvent { user: r.u64()?, line: r.string()? });
                }
                Ok(Response::Applied { error, events })
            }
            KIND_OBS => {
                let mut r = ByteReader::new(body);
                Ok(Response::Obs(get_obs_snapshot(&mut r)?))
            }
            KIND_SNAPSHOT => Ok(Response::Snapshot(body.to_vec())),
            KIND_RESTORED => Ok(Response::Restored),
            KIND_FAULT => {
                let mut r = ByteReader::new(body);
                Ok(Response::Fault(r.string()?))
            }
            other => Err(ProtoError::UnknownKind(other)),
        }
    }
}

/// Binary encoding of a full [`ObsSnapshot`] — exact integers only, so
/// the router's merge works on the same numbers the shard held.
fn put_obs_snapshot(w: &mut ByteWriter, snap: &ObsSnapshot) {
    w.put_u32(snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.put_u32(snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        w.put_str(name);
        w.put_i64(*v);
    }
    w.put_u32(snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        w.put_str(name);
        w.put_u64(h.count);
        w.put_u64(h.sum);
        w.put_u32(h.buckets.len() as u32);
        for (idx, c) in &h.buckets {
            w.put_u32(*idx as u32);
            w.put_u64(*c);
        }
    }
    w.put_u64(snap.trace_capacity);
    w.put_u64(snap.trace_dropped);
    w.put_u32(snap.trace.len() as u32);
    for e in &snap.trace {
        put_trace_entry(w, e);
    }
}

fn get_obs_snapshot(r: &mut ByteReader<'_>) -> Result<ObsSnapshot, PersistError> {
    let n = r.seq_len()?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push((r.string()?, r.u64()?));
    }
    let n = r.seq_len()?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        gauges.push((r.string()?, r.i64()?));
    }
    let n = r.seq_len()?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let b = r.seq_len()?;
        let mut buckets = Vec::with_capacity(b);
        for _ in 0..b {
            buckets.push((r.u32()? as usize, r.u64()?));
        }
        histograms.push((name, HistogramSnapshot { count, sum, buckets }));
    }
    let trace_capacity = r.u64()?;
    let trace_dropped = r.u64()?;
    let n = r.seq_len()?;
    let mut trace = Vec::with_capacity(n);
    for _ in 0..n {
        trace.push(get_trace_entry(r)?);
    }
    Ok(ObsSnapshot { counters, gauges, histograms, trace_capacity, trace_dropped, trace })
}

fn put_trace_entry(w: &mut ByteWriter, e: &DecisionTraceEntry) {
    w.put_u64(e.user);
    w.put_u64(e.at_s);
    w.put_str(e.trigger);
    w.put_u64(e.considered);
    w.put_u64(e.cut_freshness);
    w.put_u64(e.cut_preference);
    w.put_u64(e.cut_geo);
    w.put_u64(e.cut_heard);
    w.put_u64(e.scored);
    w.put_u64(e.scheduled);
    w.put_opt(e.top_clip.as_ref(), |w, c| w.put_u64(*c));
    w.put_i64(e.top_content_micro);
    w.put_i64(e.top_context_micro);
    w.put_i64(e.top_total_micro);
    w.put_str(e.verdict.as_str());
}

fn get_trace_entry(r: &mut ByteReader<'_>) -> Result<DecisionTraceEntry, PersistError> {
    Ok(DecisionTraceEntry {
        user: r.u64()?,
        at_s: r.u64()?,
        trigger: intern_trigger(&r.string()?)?,
        considered: r.u64()?,
        cut_freshness: r.u64()?,
        cut_preference: r.u64()?,
        cut_geo: r.u64()?,
        cut_heard: r.u64()?,
        scored: r.u64()?,
        scheduled: r.u64()?,
        top_clip: r.opt(ByteReader::u64)?,
        top_content_micro: r.i64()?,
        top_context_micro: r.i64()?,
        top_total_micro: r.i64()?,
        verdict: match r.string()?.as_str() {
            "scheduled" => Verdict::Scheduled,
            "no-candidates" => Verdict::NoCandidates,
            "empty-schedule" => Verdict::EmptySchedule,
            _ => return Err(PersistError::Corrupt { what: "trace verdict" }),
        },
    })
}

/// Trace triggers are `&'static str` in [`DecisionTraceEntry`]; the
/// wire carries them by value, so decoding maps back onto the closed
/// set of trigger names the engine emits.
fn intern_trigger(s: &str) -> Result<&'static str, PersistError> {
    match s {
        "trip-started" => Ok("trip-started"),
        "schedule-underrun" => Ok("schedule-underrun"),
        _ => Err(PersistError::Corrupt { what: "trace trigger" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_geo::TimePoint;
    use pphcr_userdata::UserId;

    #[test]
    fn frames_round_trip_through_a_pipe_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, KIND_OBS_REQUEST, &[]).unwrap();
        write_frame(&mut buf, 8, KIND_RESTORE, b"snapshot bytes").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (seq, kind, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((seq, kind, body.as_slice()), (7, KIND_OBS_REQUEST, &[][..]));
        let (seq, kind, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((seq, kind, body.as_slice()), (8, KIND_RESTORE, &b"snapshot bytes"[..]));
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, KIND_OBS_REQUEST, &[]).unwrap();
        // Flip a payload byte: CRC must catch it.
        if let Some(b) = buf.last_mut() {
            *b ^= 0xFF;
        }
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::BadFrame)));
        // A torn header is clean EOF; a torn payload is an I/O error.
        let mut cursor = std::io::Cursor::new(vec![1, 2, 3]);
        assert!(matches!(read_frame(&mut cursor), Ok(None)));
        let mut torn = Vec::new();
        write_frame(&mut torn, 2, KIND_RESTORE, b"snapshot bytes").unwrap();
        torn.truncate(12); // header + 4 of the 23 payload bytes
        let mut cursor = std::io::Cursor::new(torn);
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::Io(_))));
    }

    #[test]
    fn commands_round_trip_as_wal_payloads() {
        let req = Request::Apply(EngineCommand::Skip {
            user: UserId(3),
            now: TimePoint::at(0, 9, 30, 0),
        });
        let (kind, body) = req.encode();
        assert_eq!(kind, KIND_APPLY);
        assert_eq!(Request::decode(kind, &body).unwrap(), req);
        let (kind, body) = Request::Snapshot.encode();
        assert_eq!(Request::decode(kind, &body).unwrap(), Request::Snapshot);
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::Applied {
            error: Some("unknown user 404".into()),
            events: vec![
                WireEvent { user: 1, line: "Recommended { .. }".into() },
                WireEvent { user: 2, line: "TripPredicted { .. }".into() },
            ],
        };
        let (kind, body) = resp.encode();
        assert_eq!(Response::decode(kind, &body).unwrap(), resp);
        let (kind, body) = Response::Fault("broken".into()).encode();
        assert_eq!(Response::decode(kind, &body).unwrap(), Response::Fault("broken".into()));
    }

    #[test]
    fn obs_snapshots_round_trip_exactly() {
        use pphcr_obs::{DecisionTrace, Registry};
        let mut reg = Registry::new();
        reg.add("engine.ticks", 12);
        reg.gauge("health.healthy", 3);
        reg.observe("schedule.items", 4);
        let mut trace = DecisionTrace::with_capacity(16);
        trace.push(DecisionTraceEntry {
            user: 9,
            at_s: 32_400,
            trigger: "trip-started",
            considered: 10,
            cut_freshness: 1,
            cut_preference: 2,
            cut_geo: 3,
            cut_heard: 0,
            scored: 4,
            scheduled: 2,
            top_clip: Some(5),
            top_content_micro: 700_000,
            top_context_micro: -1,
            top_total_micro: 699_999,
            verdict: Verdict::Scheduled,
        });
        let snap = ObsSnapshot::capture(&reg, &trace);
        let resp = Response::Obs(snap.clone());
        let (kind, body) = resp.encode();
        match Response::decode(kind, &body).unwrap() {
            Response::Obs(decoded) => {
                assert_eq!(decoded, snap);
                assert_eq!(decoded.to_json(), snap.to_json());
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn unknown_trigger_is_a_decode_error() {
        assert!(intern_trigger("made-up").is_err());
    }
}
