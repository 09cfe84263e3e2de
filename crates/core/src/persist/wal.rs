//! The event-sourced write-ahead log: framing, the operation set, and
//! the torn-tail-tolerant scanner.
//!
//! Each record is framed as `[len: u32][crc: u32][payload]` where
//! `payload = [seq: u64][kind: u8][body]` and the CRC covers the whole
//! payload. A crash can leave a *torn tail* — a partially written final
//! frame — which [`scan`] detects (short frame or CRC mismatch) and
//! truncates, reporting how many bytes were dropped. Anything that
//! passes its CRC but fails to decode is *corruption*, not tearing, and
//! surfaces as a typed [`PersistError`].

use super::codec::{crc32, ByteReader, ByteWriter};
use super::snapshot::{
    get_coverage, get_gazetteer, get_road_network, put_coverage, put_gazetteer, put_road_network,
};
use super::PersistError;
use crate::command::EngineCommand;
use pphcr_audio::ClipId;
use pphcr_catalog::{CategoryId, ClipKind, GeoTag, ServiceIndex};
use pphcr_geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

/// A sequenced WAL entry. The WAL, the live `DurableEngine` write-ahead
/// path and the `pphcr-shard` wire protocol all carry an
/// [`EngineCommand`] through this module's single codec, so a replayed
/// (or forwarded) log reproduces the engine bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonically increasing sequence number, starting at 1.
    pub seq: u64,
    /// The logged command.
    pub op: EngineCommand,
}

const KIND_REGISTER_USER: u8 = 0;
const KIND_CHANGE_SERVICE: u8 = 1;
const KIND_TRAIN_CLASSIFIER: u8 = 2;
const KIND_INGEST_CLIP: u8 = 3;
const KIND_RECORD_FIX: u8 = 4;
const KIND_RECORD_FEEDBACK: u8 = 5;
const KIND_INJECT: u8 = 6;
const KIND_SKIP: u8 = 7;
const KIND_TICK: u8 = 8;
const KIND_ADVANCE_PLAYER: u8 = 9;
const KIND_SET_COVERAGE: u8 = 10;
const KIND_SET_ROAD_NETWORK: u8 = 11;
const KIND_SET_GAZETTEER: u8 = 12;

fn put_geo_point(w: &mut ByteWriter, p: GeoPoint) {
    w.put_f64(p.lat);
    w.put_f64(p.lon);
}

fn get_geo_point(r: &mut ByteReader<'_>) -> Result<GeoPoint, PersistError> {
    Ok(GeoPoint { lat: r.f64()?, lon: r.f64()? })
}

pub(crate) fn put_geo_tag(w: &mut ByteWriter, tag: &GeoTag) {
    put_geo_point(w, tag.point);
    w.put_f64(tag.radius_m);
}

pub(crate) fn get_geo_tag(r: &mut ByteReader<'_>) -> Result<GeoTag, PersistError> {
    Ok(GeoTag { point: get_geo_point(r)?, radius_m: r.f64()? })
}

pub(crate) fn put_fix(w: &mut ByteWriter, fix: &GpsFix) {
    put_geo_point(w, fix.point);
    w.put_u64(fix.time.0);
    w.put_f64(fix.speed_mps);
}

pub(crate) fn get_fix(r: &mut ByteReader<'_>) -> Result<GpsFix, PersistError> {
    Ok(GpsFix { point: get_geo_point(r)?, time: TimePoint(r.u64()?), speed_mps: r.f64()? })
}

pub(crate) fn put_clip_kind(w: &mut ByteWriter, kind: ClipKind) {
    w.put_u8(match kind {
        ClipKind::Podcast => 0,
        ClipKind::NewsBulletin => 1,
        ClipKind::MusicTrack => 2,
        ClipKind::Advertisement => 3,
    });
}

pub(crate) fn get_clip_kind(r: &mut ByteReader<'_>) -> Result<ClipKind, PersistError> {
    match r.u8()? {
        0 => Ok(ClipKind::Podcast),
        1 => Ok(ClipKind::NewsBulletin),
        2 => Ok(ClipKind::MusicTrack),
        3 => Ok(ClipKind::Advertisement),
        _ => Err(PersistError::Corrupt { what: "clip kind tag" }),
    }
}

pub(crate) fn put_feedback_event(w: &mut ByteWriter, e: &FeedbackEvent) {
    w.put_u64(e.user.0);
    w.put_opt(e.clip.as_ref(), |w, c| w.put_u64(c.0));
    w.put_u16(e.category.0);
    match e.kind {
        FeedbackKind::Like => w.put_u8(0),
        FeedbackKind::Dislike => w.put_u8(1),
        FeedbackKind::Skip => w.put_u8(2),
        FeedbackKind::ListenedThrough => w.put_u8(3),
        FeedbackKind::PartialListen(frac) => {
            w.put_u8(4);
            w.put_f64(frac);
        }
    }
    w.put_u64(e.time.0);
}

pub(crate) fn get_feedback_event(r: &mut ByteReader<'_>) -> Result<FeedbackEvent, PersistError> {
    let user = UserId(r.u64()?);
    let clip = r.opt(|r| Ok(ClipId(r.u64()?)))?;
    let category = CategoryId(r.u16()?);
    let kind = match r.u8()? {
        0 => FeedbackKind::Like,
        1 => FeedbackKind::Dislike,
        2 => FeedbackKind::Skip,
        3 => FeedbackKind::ListenedThrough,
        4 => FeedbackKind::PartialListen(r.f64()?),
        _ => return Err(PersistError::Corrupt { what: "feedback kind tag" }),
    };
    Ok(FeedbackEvent { user, clip, category, kind, time: TimePoint(r.u64()?) })
}

fn put_age_band(w: &mut ByteWriter, band: AgeBand) {
    w.put_u8(match band {
        AgeBand::Young => 0,
        AgeBand::Adult => 1,
        AgeBand::Middle => 2,
        AgeBand::Senior => 3,
    });
}

fn get_age_band(r: &mut ByteReader<'_>) -> Result<AgeBand, PersistError> {
    match r.u8()? {
        0 => Ok(AgeBand::Young),
        1 => Ok(AgeBand::Adult),
        2 => Ok(AgeBand::Middle),
        3 => Ok(AgeBand::Senior),
        _ => Err(PersistError::Corrupt { what: "age band tag" }),
    }
}

pub(crate) fn put_profile(w: &mut ByteWriter, p: &UserProfile) {
    w.put_u64(p.id.0);
    w.put_str(&p.name);
    put_age_band(w, p.age_band);
    w.put_u32(p.favourite_service.0);
}

pub(crate) fn get_profile(r: &mut ByteReader<'_>) -> Result<UserProfile, PersistError> {
    Ok(UserProfile {
        id: UserId(r.u64()?),
        name: r.string()?,
        age_band: get_age_band(r)?,
        favourite_service: ServiceIndex(r.u32()?),
    })
}

fn put_tokens(w: &mut ByteWriter, tokens: &[String]) {
    w.put_u32(tokens.len() as u32);
    for t in tokens {
        w.put_str(t);
    }
}

fn get_tokens(r: &mut ByteReader<'_>) -> Result<Vec<String>, PersistError> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.string()?);
    }
    Ok(out)
}

/// Encodes the *payload* of a record: `[seq][kind][body]`.
///
/// Public because the shard protocol frames the same payloads onto its
/// pipes; WAL files should go through [`encode_record`].
#[must_use]
pub fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(record.seq);
    match &record.op {
        EngineCommand::RegisterUser { profile, now } => {
            w.put_u8(KIND_REGISTER_USER);
            put_profile(&mut w, profile);
            w.put_u64(now.0);
        }
        EngineCommand::ChangeService { user, service, now } => {
            w.put_u8(KIND_CHANGE_SERVICE);
            w.put_u64(user.0);
            w.put_u32(service.0);
            w.put_u64(now.0);
        }
        EngineCommand::TrainClassifier { category, tokens } => {
            w.put_u8(KIND_TRAIN_CLASSIFIER);
            w.put_u16(category.0);
            put_tokens(&mut w, tokens);
        }
        EngineCommand::IngestClip { title, kind, duration, published, geo, tokens, editorial } => {
            w.put_u8(KIND_INGEST_CLIP);
            w.put_str(title);
            put_clip_kind(&mut w, *kind);
            w.put_u64(duration.0);
            w.put_u64(published.0);
            w.put_opt(geo.as_ref(), put_geo_tag);
            put_tokens(&mut w, tokens);
            w.put_opt(editorial.as_ref(), |w, c| w.put_u16(c.0));
        }
        EngineCommand::RecordFix { user, fix } => {
            w.put_u8(KIND_RECORD_FIX);
            w.put_u64(user.0);
            put_fix(&mut w, fix);
        }
        EngineCommand::RecordFeedback { event } => {
            w.put_u8(KIND_RECORD_FEEDBACK);
            put_feedback_event(&mut w, event);
        }
        EngineCommand::Inject { user, clip, at, note } => {
            w.put_u8(KIND_INJECT);
            w.put_u64(user.0);
            w.put_u64(clip.0);
            w.put_u64(at.0);
            w.put_str(note);
        }
        EngineCommand::Skip { user, now } => {
            w.put_u8(KIND_SKIP);
            w.put_u64(user.0);
            w.put_u64(now.0);
        }
        EngineCommand::Tick { users, now, batch, workers } => {
            w.put_u8(KIND_TICK);
            w.put_u32(users.len() as u32);
            for u in users {
                w.put_u64(u.0);
            }
            w.put_u64(now.0);
            w.put_bool(*batch);
            w.put_opt(workers.as_ref(), |w, v| w.put_u64(*v));
        }
        EngineCommand::AdvancePlayer { user, now } => {
            w.put_u8(KIND_ADVANCE_PLAYER);
            w.put_u64(user.0);
            w.put_u64(now.0);
        }
        EngineCommand::SetCoverage { coverage } => {
            w.put_u8(KIND_SET_COVERAGE);
            put_coverage(&mut w, coverage);
        }
        EngineCommand::SetRoadNetwork { network } => {
            w.put_u8(KIND_SET_ROAD_NETWORK);
            put_road_network(&mut w, network);
        }
        EngineCommand::SetGazetteer { gazetteer } => {
            w.put_u8(KIND_SET_GAZETTEER);
            put_gazetteer(&mut w, gazetteer);
        }
    }
    w.into_inner()
}

/// Decodes one payload (`[seq][kind][body]`) back into a record.
///
/// The caller has already verified the CRC, so any failure here is
/// corruption, not a torn write. Public for the shard protocol, which
/// shares the WAL payload codec.
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, PersistError> {
    let mut r = ByteReader::new(payload);
    let seq = r.u64()?;
    let op = match r.u8()? {
        KIND_REGISTER_USER => {
            let profile = get_profile(&mut r)?;
            EngineCommand::RegisterUser { profile, now: TimePoint(r.u64()?) }
        }
        KIND_CHANGE_SERVICE => EngineCommand::ChangeService {
            user: UserId(r.u64()?),
            service: ServiceIndex(r.u32()?),
            now: TimePoint(r.u64()?),
        },
        KIND_TRAIN_CLASSIFIER => {
            let category = CategoryId(r.u16()?);
            EngineCommand::TrainClassifier { category, tokens: get_tokens(&mut r)? }
        }
        KIND_INGEST_CLIP => EngineCommand::IngestClip {
            title: r.string()?,
            kind: get_clip_kind(&mut r)?,
            duration: TimeSpan(r.u64()?),
            published: TimePoint(r.u64()?),
            geo: r.opt(get_geo_tag)?,
            tokens: get_tokens(&mut r)?,
            editorial: r.opt(|r| Ok(CategoryId(r.u16()?)))?,
        },
        KIND_RECORD_FIX => {
            EngineCommand::RecordFix { user: UserId(r.u64()?), fix: get_fix(&mut r)? }
        }
        KIND_RECORD_FEEDBACK => {
            EngineCommand::RecordFeedback { event: get_feedback_event(&mut r)? }
        }
        KIND_INJECT => EngineCommand::Inject {
            user: UserId(r.u64()?),
            clip: ClipId(r.u64()?),
            at: TimePoint(r.u64()?),
            note: r.string()?,
        },
        KIND_SKIP => EngineCommand::Skip { user: UserId(r.u64()?), now: TimePoint(r.u64()?) },
        KIND_TICK => {
            let n = r.seq_len()?;
            let mut users = Vec::with_capacity(n);
            for _ in 0..n {
                users.push(UserId(r.u64()?));
            }
            EngineCommand::Tick {
                users,
                now: TimePoint(r.u64()?),
                batch: r.bool()?,
                workers: r.opt(ByteReader::u64)?,
            }
        }
        KIND_ADVANCE_PLAYER => {
            EngineCommand::AdvancePlayer { user: UserId(r.u64()?), now: TimePoint(r.u64()?) }
        }
        KIND_SET_COVERAGE => EngineCommand::SetCoverage { coverage: get_coverage(&mut r)? },
        KIND_SET_ROAD_NETWORK => {
            EngineCommand::SetRoadNetwork { network: get_road_network(&mut r)? }
        }
        KIND_SET_GAZETTEER => EngineCommand::SetGazetteer { gazetteer: get_gazetteer(&mut r)? },
        _ => return Err(PersistError::Corrupt { what: "WAL op kind tag" }),
    };
    if !r.is_empty() {
        return Err(PersistError::Corrupt { what: "trailing bytes after WAL op" });
    }
    Ok(WalRecord { seq, op })
}

/// Frames a record for appending: `[len][crc][payload]`.
#[must_use]
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(record);
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Result of scanning a WAL byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Records recovered, in sequence order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (a safe truncation point).
    pub valid_len: usize,
    /// Bytes dropped from the torn tail, if any.
    pub torn_bytes: usize,
}

/// Scans a WAL byte stream, truncating at the first torn frame.
///
/// A *torn* frame — one whose header or payload is shorter than its
/// length prefix claims, or whose CRC does not match — ends the scan;
/// everything before it is returned and the tail is counted in
/// `torn_bytes`. A frame whose CRC matches but whose payload does not
/// decode, and any non-contiguous sequence number, are hard errors.
pub fn scan(bytes: &[u8]) -> Result<WalScan, PersistError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut expected_seq: Option<u64> = None;
    // A missing header ends the scan: not even a full frame header left.
    while let Some(header) = bytes.get(offset..offset + 8) {
        let mut hr = ByteReader::new(header);
        let len = hr.u32().unwrap_or(0) as usize;
        let crc = hr.u32().unwrap_or(0);
        let Some(payload) = bytes.get(offset + 8..offset + 8 + len) else {
            break; // torn: payload shorter than the length prefix
        };
        if crc32(payload) != crc {
            break; // torn: bit-flips or a partially written payload
        }
        let record = decode_payload(payload)?;
        if let Some(expected) = expected_seq {
            if record.seq != expected {
                return Err(PersistError::SequenceGap { expected, found: record.seq });
            }
        }
        expected_seq = Some(record.seq + 1);
        records.push(record);
        offset += 8 + len;
    }
    Ok(WalScan { records, valid_len: offset, torn_bytes: bytes.len() - offset })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                seq: 1,
                op: EngineCommand::RegisterUser {
                    profile: UserProfile {
                        id: UserId(7),
                        name: "Anna".into(),
                        age_band: AgeBand::Adult,
                        favourite_service: ServiceIndex(2),
                    },
                    now: TimePoint(100),
                },
            },
            WalRecord {
                seq: 2,
                op: EngineCommand::IngestClip {
                    title: "morning news".into(),
                    kind: ClipKind::NewsBulletin,
                    duration: TimeSpan(90),
                    published: TimePoint(50),
                    geo: Some(GeoTag {
                        point: GeoPoint { lat: 45.07, lon: 7.68 },
                        radius_m: 500.0,
                    }),
                    tokens: vec!["traffic".into(), "turin".into()],
                    editorial: Some(CategoryId(3)),
                },
            },
            WalRecord {
                seq: 3,
                op: EngineCommand::Tick {
                    users: vec![UserId(7), UserId(8)],
                    now: TimePoint(200),
                    batch: true,
                    workers: Some(2),
                },
            },
        ]
    }

    #[test]
    fn new_command_kinds_round_trip() {
        use crate::bearer::{CoverageMap, Transmitter};
        use pphcr_catalog::{Gazetteer, Place};
        use pphcr_geo::{NodeId, NodeKind, ProjectedPoint, RoadNetwork};

        let mut network = RoadNetwork::new();
        let a = network.add_node(ProjectedPoint { x: 0.0, y: 0.0 }, NodeKind::Intersection);
        let b = network.add_node(ProjectedPoint { x: 100.0, y: 0.0 }, NodeKind::Roundabout);
        network.add_edge(a, b, 13.9);
        network.add_edge(NodeId(1), NodeId(0), 8.3);
        let mut gazetteer = Gazetteer::new();
        gazetteer.min_mentions = 2;
        gazetteer.add(Place {
            name: "Torino".into(),
            point: GeoPoint { lat: 45.07, lon: 7.68 },
            radius_m: 5_000.0,
        });
        let coverage = CoverageMap {
            transmitters: vec![Transmitter {
                position: ProjectedPoint { x: 10.0, y: -20.0 },
                radius_m: 30_000.0,
            }],
        };
        let records = vec![
            WalRecord {
                seq: 1,
                op: EngineCommand::AdvancePlayer { user: UserId(7), now: TimePoint(300) },
            },
            WalRecord { seq: 2, op: EngineCommand::SetCoverage { coverage } },
            WalRecord { seq: 3, op: EngineCommand::SetRoadNetwork { network } },
            WalRecord { seq: 4, op: EngineCommand::SetGazetteer { gazetteer } },
        ];
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let scanned = scan(&log).unwrap();
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.torn_bytes, 0);
    }

    #[test]
    fn frame_round_trip() {
        let mut log = Vec::new();
        let records = sample_records();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let scanned = scan(&log).unwrap();
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.valid_len, log.len());
        assert_eq!(scanned.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_truncates_to_last_valid() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let full = log.len();
        let last = encode_record(&records[2]).len();
        // Cut into the middle of the last frame.
        log.truncate(full - last / 2);
        let scanned = scan(&log).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.valid_len, full - last);
        assert_eq!(scanned.torn_bytes, log.len() - (full - last));
    }

    #[test]
    fn bit_flip_in_tail_truncates() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let last_start = log.len() - encode_record(&records[2]).len();
        // Flip a payload bit in the last frame: CRC mismatch, torn tail.
        log[last_start + 12] ^= 0x40;
        let scanned = scan(&log).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.valid_len, last_start);
    }

    #[test]
    fn sequence_gap_is_a_hard_error() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(&WalRecord {
            seq: 1,
            op: EngineCommand::Skip { user: UserId(1), now: TimePoint(0) },
        }));
        log.extend_from_slice(&encode_record(&WalRecord {
            seq: 5,
            op: EngineCommand::Skip { user: UserId(1), now: TimePoint(1) },
        }));
        assert_eq!(scan(&log), Err(PersistError::SequenceGap { expected: 2, found: 5 }));
    }

    #[test]
    fn crc_valid_garbage_is_corrupt_not_torn() {
        // Hand-frame a payload with an unknown kind tag but a valid CRC.
        let payload: Vec<u8> = {
            let mut w = ByteWriter::new();
            w.put_u64(1);
            w.put_u8(0xEE);
            w.into_inner()
        };
        let mut log = Vec::new();
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&crc32(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        assert_eq!(scan(&log), Err(PersistError::Corrupt { what: "WAL op kind tag" }));
    }

    #[test]
    fn empty_log_scans_clean() {
        let scanned = scan(&[]).unwrap();
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.valid_len, 0);
        assert_eq!(scanned.torn_bytes, 0);
    }
}
