//! Persistence acceptance suite: wire-format pinning, typed corruption
//! errors, torn-tail truncation, and obs identity across a restore.
//!
//! * the snapshot byte stream for a pinned miniature scenario is a
//!   golden fixture — schema drift is a reviewed change, regenerate
//!   with `PERSIST_BLESS=1 cargo test -p pphcr-core --test
//!   persist_roundtrip`,
//! * hostile bytes (wrong magic, future version, flipped payload bits,
//!   every possible truncation) produce typed [`PersistError`]s, never
//!   panics,
//! * a WAL whose tail is torn at *any* byte offset or bit-flipped
//!   anywhere in the last record truncates cleanly to the longest
//!   valid prefix,
//! * counters, gauges, histograms and the decision-trace ring survive
//!   a snapshot/restore byte-identically, and the ring keeps tracing
//!   after the restore.

use pphcr_audio::ClipId;
use pphcr_catalog::{CategoryId, ClipKind, GeoTag, ServiceIndex};
use pphcr_core::persist::wal::encode_record;
use pphcr_core::persist::{decode_engine, snapshot_engine, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use pphcr_core::{
    restore_engine, DurableEngine, Engine, EngineCommand, EngineConfig, MemWal, PersistError,
    TickRequest, WalRecord,
};
use pphcr_geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};
use proptest::prelude::*;

const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

fn profile(id: u64) -> UserProfile {
    UserProfile {
        id: UserId(id),
        name: format!("listener {id}"),
        age_band: AgeBand::Adult,
        favourite_service: ServiceIndex(0),
    }
}

/// A small but section-complete engine: users, classifier counts,
/// geo-tagged corpus, GPS history, feedback, an in-flight injection
/// and a few ticks of bus traffic.
fn mini_engine() -> Engine {
    mini_engine_with(EngineConfig::default())
}

fn mini_engine_with(config: EngineConfig) -> Engine {
    let mut e = Engine::new(config);
    let t0 = TimePoint::at(0, 9, 0, 0);
    for u in 1..=2u64 {
        e.apply(&EngineCommand::RegisterUser { profile: profile(u), now: t0 }).unwrap();
    }
    e.apply(&EngineCommand::TrainClassifier {
        category: CategoryId::new(1),
        tokens: vec!["traffic".into(), "road".into(), "queue".into()],
    })
    .unwrap();
    e.apply(&EngineCommand::TrainClassifier {
        category: CategoryId::new(2),
        tokens: vec!["derby".into(), "goal".into(), "league".into()],
    })
    .unwrap();
    e.apply(&EngineCommand::IngestClip {
        title: "ring road jam".into(),
        kind: ClipKind::NewsBulletin,
        duration: TimeSpan::minutes(2),
        published: t0,
        geo: Some(GeoTag { point: TORINO, radius_m: 900.0 }),
        tokens: vec!["traffic".into(), "queue".into()],
        editorial: None,
    })
    .unwrap();
    let clip = ClipId(0);
    e.apply(&EngineCommand::IngestClip {
        title: "derby recap".into(),
        kind: ClipKind::Podcast,
        duration: TimeSpan::minutes(4),
        published: t0,
        geo: None,
        tokens: vec!["derby".into(), "goal".into()],
        editorial: Some(CategoryId::new(2)),
    })
    .unwrap();
    for i in 0..8u64 {
        e.apply(&EngineCommand::RecordFix {
            user: UserId(1),
            fix: GpsFix::new(
                TORINO.destination(75.0, 120.0 * i as f64),
                t0.advance(TimeSpan::seconds(i * 30)),
                14.0,
            ),
        })
        .unwrap();
    }
    e.apply(&EngineCommand::RecordFeedback {
        event: FeedbackEvent {
            user: UserId(2),
            clip: Some(clip),
            category: CategoryId::new(2),
            kind: FeedbackKind::Like,
            time: t0.advance(TimeSpan::seconds(90)),
        },
    })
    .unwrap();
    let _ = e.apply(&EngineCommand::Inject {
        user: UserId(1),
        clip,
        at: t0.advance(TimeSpan::seconds(100)),
        note: "pinned scenario".into(),
    });
    for step in 0..6u64 {
        let now = t0.advance(TimeSpan::seconds(120 + step * 30));
        for u in 1..=2u64 {
            let _ = e.run_tick(&TickRequest::single(&UserId(u), now));
        }
    }
    e
}

fn mini_snapshot() -> Vec<u8> {
    snapshot_engine(&mini_engine(), 42).expect("default engine uses a snapshot-capable transport")
}

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && i % 32 == 0 {
            out.push('\n');
        }
        out.push_str(&format!("{b:02x}"));
    }
    out.push('\n');
    out
}

fn from_hex(text: &str) -> Vec<u8> {
    let compact: String = text.chars().filter(char::is_ascii_hexdigit).collect();
    compact
        .as_bytes()
        .chunks(2)
        .map(|pair| {
            let s = std::str::from_utf8(pair).expect("hexdigits are ascii");
            u8::from_str_radix(s, 16).expect("filtered to hex digits")
        })
        .collect()
}

// ---------------------------------------------------------------- golden

/// The snapshot wire format for the pinned scenario, byte for byte.
/// Regenerate with `PERSIST_BLESS=1` when the format version changes.
#[test]
fn snapshot_bytes_match_golden_fixture() {
    let got = mini_snapshot();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/persist_snapshot.hex");
    if std::env::var_os("PERSIST_BLESS").is_some() {
        std::fs::write(path, to_hex(&got)).expect("write golden fixture");
        return;
    }
    let want = from_hex(&std::fs::read_to_string(path).expect("golden fixture present"));
    assert_eq!(
        got, want,
        "snapshot wire format drifted — bump SNAPSHOT_VERSION or rerun with PERSIST_BLESS=1"
    );
}

/// Worker count is a deployment knob, not state: engines configured
/// with 1 and 8 workers, fed the same commands (including a batch tick
/// that runs on the configured pool), snapshot to the same bytes.
#[test]
fn snapshot_bytes_do_not_depend_on_worker_count() {
    let snapshot_with = |worker_threads| {
        let mut e = mini_engine_with(EngineConfig { worker_threads, ..EngineConfig::default() });
        e.apply(&EngineCommand::Tick {
            users: vec![UserId(1), UserId(2)],
            now: TimePoint::at(0, 9, 5, 0),
            batch: true,
            workers: None,
        })
        .expect("registered users tick");
        snapshot_engine(&e, 42).expect("default engine uses a snapshot-capable transport")
    };
    assert_eq!(snapshot_with(1), snapshot_with(8), "snapshot bytes depend on worker count");
}

/// The golden bytes decode back to an engine that re-serializes to the
/// same bytes: encode∘decode is the identity on the wire.
#[test]
fn snapshot_round_trip_is_identity() {
    let bytes = mini_snapshot();
    let (engine, last_seq) = decode_engine(&bytes).expect("own snapshot decodes");
    assert_eq!(last_seq, 42);
    let again = snapshot_engine(&engine, last_seq).expect("restored engine re-serializes");
    assert_eq!(bytes, again, "decode → encode changed the byte stream");
}

/// Clip ids are dense in ingest order: the n-th `IngestClip` files
/// `ClipId(n)`, and a restored engine continues the sequence. Callers
/// read new clip ids from this contract (`Engine::apply` returns none),
/// and so does the shard router's ingest broadcast.
#[test]
fn ingested_clip_ids_are_dense_and_continue_after_restore() {
    let ingest = |e: &mut Engine, n: u64| {
        e.apply(&EngineCommand::IngestClip {
            title: format!("clip {n}"),
            kind: ClipKind::Podcast,
            duration: TimeSpan::minutes(3),
            published: TimePoint::at(0, 9, 0, 0),
            geo: None,
            tokens: vec![],
            editorial: Some(CategoryId::new((n % 30) as u16)),
        })
        .expect("ingest cannot fail");
    };
    let filed_in_order = |e: &Engine, count: u64| {
        assert_eq!(e.repo.len() as u64, count);
        for n in 0..count {
            let meta = e.repo.get(ClipId(n)).expect("ids are dense");
            assert_eq!(meta.title, format!("clip {n}"));
        }
    };
    let mut e = Engine::new(EngineConfig::default());
    for n in 0..5 {
        ingest(&mut e, n);
    }
    filed_in_order(&e, 5);
    let bytes = snapshot_engine(&e, 0).expect("default engine uses a snapshot-capable transport");
    let (mut restored, _) = decode_engine(&bytes).expect("own snapshot decodes");
    for n in 5..8 {
        ingest(&mut restored, n);
    }
    filed_in_order(&restored, 8);
}

// ------------------------------------------------------- typed failures

/// `unwrap_err` needs `Debug` on the success type, which `Engine`
/// deliberately does not implement — unwrap the error by hand.
fn decode_err(bytes: &[u8]) -> PersistError {
    match decode_engine(bytes) {
        Ok(_) => panic!("hostile bytes decoded successfully"),
        Err(e) => e,
    }
}

#[test]
fn header_fields_are_pinned() {
    let bytes = mini_snapshot();
    assert_eq!(&bytes[..4], SNAPSHOT_MAGIC, "magic drifted");
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    assert_eq!(version, SNAPSHOT_VERSION, "version field drifted");
}

#[test]
fn wrong_magic_is_typed() {
    let mut bytes = mini_snapshot();
    bytes[0] ^= 0xFF;
    assert_eq!(decode_err(&bytes), PersistError::BadMagic);
}

#[test]
fn future_version_is_typed() {
    let mut bytes = mini_snapshot();
    let future = SNAPSHOT_VERSION + 1;
    bytes[4..8].copy_from_slice(&future.to_le_bytes());
    assert_eq!(decode_err(&bytes), PersistError::UnsupportedVersion { found: future });
}

#[test]
fn flipped_section_payload_is_typed() {
    // Header is 20 bytes, first section header is 14: byte 40 sits in
    // the first (CONFIG = 1) section's payload.
    let mut bytes = mini_snapshot();
    bytes[40] ^= 0x01;
    assert_eq!(decode_err(&bytes), PersistError::SectionCorrupt { id: 1 });
}

/// Every possible truncation of the snapshot fails with a typed error —
/// no prefix decodes, and nothing panics.
#[test]
fn every_snapshot_truncation_is_a_typed_error() {
    let bytes = mini_snapshot();
    for cut in 0..bytes.len() {
        let err = decode_engine(&bytes[..cut]);
        assert!(err.is_err(), "prefix of {cut}/{} bytes decoded", bytes.len());
    }
}

// ------------------------------------------------ torn-tail truncation

fn sample_records() -> Vec<WalRecord> {
    let t0 = TimePoint::at(0, 9, 0, 0);
    vec![
        WalRecord { seq: 1, op: EngineCommand::RegisterUser { profile: profile(1), now: t0 } },
        WalRecord {
            seq: 2,
            op: EngineCommand::TrainClassifier {
                category: CategoryId::new(1),
                tokens: vec!["traffic".into(), "road".into()],
            },
        },
        WalRecord {
            seq: 3,
            op: EngineCommand::Tick {
                users: vec![UserId(1)],
                now: t0.advance(TimeSpan::seconds(30)),
                batch: true,
                workers: Some(2),
            },
        },
    ]
}

fn wal_bytes(records: &[WalRecord]) -> (Vec<u8>, usize) {
    let mut buf = Vec::new();
    let mut last_len = 0;
    for r in records {
        let frame = encode_record(r);
        last_len = frame.len();
        buf.extend_from_slice(&frame);
    }
    (buf, last_len)
}

/// Cutting the log at every byte offset inside the last record yields
/// the full prefix plus a counted torn tail — at every single offset.
#[test]
fn torn_tail_truncates_at_every_byte_offset() {
    let records = sample_records();
    let (bytes, last_len) = wal_bytes(&records);
    let boundary = bytes.len() - last_len;
    for cut in 0..last_len {
        let scanned = pphcr_core::persist::wal::scan(&bytes[..boundary + cut])
            .expect("torn tail is truncation, not an error");
        assert_eq!(scanned.records, records[..2], "cut at +{cut} lost a durable record");
        assert_eq!(scanned.valid_len, boundary);
        assert_eq!(scanned.torn_bytes, cut, "cut at +{cut} miscounted the torn tail");
    }
}

/// Flipping any single bit anywhere in the last record makes exactly
/// that record invalid: the prefix survives, nothing panics.
#[test]
fn bit_flip_in_last_record_never_panics_and_keeps_prefix() {
    let records = sample_records();
    let (bytes, last_len) = wal_bytes(&records);
    let boundary = bytes.len() - last_len;
    for offset in 0..last_len {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[boundary + offset] ^= 1 << bit;
            match pphcr_core::persist::wal::scan(&mutated) {
                Ok(scanned) => {
                    assert!(
                        scanned.records.len() >= 2,
                        "flip at +{offset} bit {bit} destroyed a durable record"
                    );
                    assert_eq!(scanned.records[..2], records[..2]);
                }
                Err(e) => {
                    // CRC-valid-but-undecodable garbage surfaces typed.
                    assert!(
                        matches!(
                            e,
                            PersistError::Corrupt { .. } | PersistError::SequenceGap { .. }
                        ),
                        "flip at +{offset} bit {bit} produced unexpected error {e}"
                    );
                }
            }
        }
    }
}

// --------------------------------------------- obs identity on restore

/// Counters, gauges, histograms and the decision trace all survive a
/// mid-run snapshot byte-identically, and the restored engine keeps
/// observing: driving both engines onward keeps them identical.
#[test]
fn obs_state_survives_restore_and_ring_rearms() {
    let mut original = mini_engine();
    let bytes = snapshot_engine(&original, 7).expect("snapshot mid-run");
    let (mut restored, report) = restore_engine(&bytes, &[]).expect("restore with empty WAL");
    assert_eq!(report.snapshot_seq, 7);
    assert_eq!(report.records_replayed, 0);
    assert_eq!(restored.recovery_banner(), Some("recovered at seq 7, dropped 0 torn bytes"));

    assert_eq!(
        original.obs_snapshot().to_json(),
        restored.obs_snapshot().to_json(),
        "obs snapshot diverged across restore"
    );
    assert_eq!(original.obs_trace().len(), restored.obs_trace().len());
    assert_eq!(original.obs_trace().capacity(), restored.obs_trace().capacity());

    // The ring and counters must keep moving identically post-restore.
    let t1 = TimePoint::at(0, 9, 30, 0);
    for step in 0..10u64 {
        let now = t1.advance(TimeSpan::seconds(step * 30));
        for u in 1..=2u64 {
            let a = original.run_tick(&TickRequest::single(&UserId(u), now)).unwrap().events;
            let b = restored.run_tick(&TickRequest::single(&UserId(u), now)).unwrap().events;
            assert_eq!(a, b, "post-restore events diverged at step {step}");
        }
    }
    assert_eq!(
        original.obs_snapshot().to_json(),
        restored.obs_snapshot().to_json(),
        "obs diverged after post-restore ticks"
    );
    assert!(
        original.obs().counter("engine.ticks") > 0,
        "scenario must actually count ticks for the identity to mean anything"
    );
}

/// The restored engine's dashboard surfaces the recovery banner.
#[test]
fn dashboard_surfaces_recovery_banner() {
    let bytes = mini_snapshot();
    let (mut engine, _) = restore_engine(&bytes, &[]).expect("restore");
    let rendered =
        pphcr_core::Dashboard::render_text(&mut engine, UserId(1), TimePoint::at(0, 10, 0, 0));
    assert!(
        rendered.contains("recovered at seq 42, dropped 0 torn bytes"),
        "dashboard must surface the recovery banner; got:\n{rendered}"
    );
}

// ----------------------------------------------------------- proptest

/// Ops with proptest-driven contents round-trip through the frame
/// codec exactly, whatever the strings, floats and counts. The vendored
/// mini-proptest has no `prop_oneof!`, so a selector field picks the
/// variant inside one `prop_map`.
fn arb_op() -> impl Strategy<Value = EngineCommand> {
    (
        (0u8..4, 0u64..u64::MAX, ".{0,24}"),
        (-90.0f64..90.0, -180.0f64..180.0, 0.0f64..1.0),
        (0u8..2, 0u64..10_000_000, proptest::collection::vec(0u64..50, 0..6)),
    )
        .prop_map(|((kind, id, name), (lat, lon, frac), (flag, t, users))| match kind {
            0 => EngineCommand::RegisterUser {
                profile: UserProfile {
                    id: UserId(id),
                    name,
                    age_band: match id % 4 {
                        0 => AgeBand::Young,
                        1 => AgeBand::Adult,
                        2 => AgeBand::Middle,
                        _ => AgeBand::Senior,
                    },
                    favourite_service: ServiceIndex((id % 7) as u32),
                },
                now: TimePoint(t),
            },
            1 => EngineCommand::RecordFix {
                user: UserId(id),
                fix: GpsFix::new(GeoPoint::new(lat, lon), TimePoint(t), frac * 60.0),
            },
            2 => EngineCommand::RecordFeedback {
                event: FeedbackEvent {
                    user: UserId(id),
                    clip: if flag == 1 { Some(ClipId(id)) } else { None },
                    category: CategoryId::new((id % 30) as u16),
                    kind: if frac > 0.25 {
                        FeedbackKind::PartialListen(frac)
                    } else {
                        FeedbackKind::Skip
                    },
                    time: TimePoint(t),
                },
            },
            _ => EngineCommand::Tick {
                users: users.into_iter().map(UserId).collect(),
                now: TimePoint(t),
                batch: flag == 1,
                workers: if flag == 1 { Some(2) } else { None },
            },
        })
}

/// Arbitrary bytes for hostile-input properties (the shim has no
/// `any::<u8>()`).
fn arb_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..max_len)
}

proptest! {
    /// encode → scan is the identity on any well-formed record stream.
    #[test]
    fn frame_round_trip_any_contents(ops in proptest::collection::vec(arb_op(), 1..8)) {
        let records: Vec<WalRecord> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| WalRecord { seq: i as u64 + 1, op })
            .collect();
        let (bytes, _) = wal_bytes(&records);
        let scanned = pphcr_core::persist::wal::scan(&bytes).expect("well-formed stream scans");
        prop_assert_eq!(scanned.records, records);
        prop_assert_eq!(scanned.torn_bytes, 0);
        prop_assert_eq!(scanned.valid_len, bytes.len());
    }

    /// Scanning arbitrary garbage never panics; it either truncates to
    /// a torn tail or fails typed.
    #[test]
    fn scan_arbitrary_bytes_never_panics(bytes in arb_bytes(256)) {
        match pphcr_core::persist::wal::scan(&bytes) {
            Ok(scanned) => {
                prop_assert!(scanned.valid_len <= bytes.len());
                prop_assert_eq!(
                    scanned.valid_len + scanned.torn_bytes, bytes.len(),
                    "every byte is either valid or torn"
                );
            }
            Err(e) => prop_assert!(
                matches!(e, PersistError::Corrupt { .. } | PersistError::SequenceGap { .. })
            ),
        }
    }

    /// A valid log followed by arbitrary garbage keeps every durable
    /// record (garbage cannot corrupt the committed prefix).
    #[test]
    fn garbage_tail_never_corrupts_prefix(tail in arb_bytes(64)) {
        let records = sample_records();
        let (mut bytes, _) = wal_bytes(&records);
        let valid_len = bytes.len();
        bytes.extend_from_slice(&tail);
        if let Ok(scanned) = pphcr_core::persist::wal::scan(&bytes) {
            prop_assert!(scanned.records.len() >= records.len());
            prop_assert_eq!(&scanned.records[..records.len()], &records[..]);
            prop_assert!(scanned.valid_len >= valid_len);
        }
        // An Err is acceptable only for CRC-colliding garbage that
        // decodes to a sequence gap — the prefix itself stays intact
        // because scan() validated it before reaching the tail.
    }

    /// Snapshot decoding of arbitrary bytes never panics.
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in arb_bytes(128)) {
        let _ = decode_engine(&bytes);
    }
}

// ------------------------------------------------- durable WAL seq gap

/// Records surviving with a hole in the sequence (a log from a foreign
/// snapshot lineage) fail typed instead of replaying out of order.
#[test]
fn sequence_gap_is_typed_on_restore() {
    let bytes = mini_snapshot();
    let t0 = TimePoint::at(0, 9, 0, 0);
    let mut wal = Vec::new();
    wal.extend_from_slice(&encode_record(&WalRecord {
        seq: 50,
        op: EngineCommand::Skip { user: UserId(1), now: t0 },
    }));
    match restore_engine(&bytes, &wal) {
        Ok(_) => panic!("gapped WAL restored successfully"),
        Err(e) => assert_eq!(e, PersistError::SequenceGap { expected: 43, found: 50 }),
    }
}

/// Group commit: with `every = 4` the file is fsynced on the 4th
/// record, not before — and `force_sync` resets the countdown.
#[test]
fn durable_engine_applies_ops_in_sequence() {
    let mut durable = DurableEngine::new(Engine::new(EngineConfig::default()), MemWal::new());
    let t0 = TimePoint::at(0, 9, 0, 0);
    let first = durable
        .apply(EngineCommand::RegisterUser { profile: profile(1), now: t0 })
        .expect("MemWal append cannot fail");
    assert_eq!(first.seq, 1);
    assert_eq!(durable.next_seq(), 2);
    let (_, wal) = durable.into_parts();
    let scanned = pphcr_core::persist::wal::scan(wal.bytes()).expect("scan own log");
    assert_eq!(scanned.records.len(), 1);
    assert_eq!(scanned.records[0].seq, 1);
}
