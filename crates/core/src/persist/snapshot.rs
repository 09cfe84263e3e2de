//! Versioned full-state snapshot of the engine.
//!
//! Layout: `magic "PPHS" | version u32 | last_wal_seq u64 | count u32`
//! followed by `count` sections, each `id u16 | len u64 | crc u32 |
//! payload`. Every section carries its own CRC32, so corruption is
//! pinned to a section ([`PersistError::SectionCorrupt`]) instead of
//! silently poisoning the whole restore.
//!
//! Derived state is *rebuilt*, not stored: feedback preference folds,
//! mobility models and the repository index are deterministic functions
//! of their inputs, so the decoder re-records events and re-ingests
//! clips through the same code paths the live engine used. What cannot
//! be re-derived — RNG states, bus wire state, retry ledgers, health
//! ladders, observability counters — is stored bit-exactly.

use super::codec::{crc32, ByteReader, ByteWriter};
use super::wal::{
    get_clip_kind, get_feedback_event, get_fix, get_geo_tag, get_profile, put_clip_kind,
    put_feedback_event, put_fix, put_geo_tag, put_profile,
};
use super::PersistError;
use crate::bearer::{BearerClass, BearerSelector, CoverageMap, Transmitter};
use crate::bus::{
    BusMessage, DeadLetter, DeadLetterReason, Envelope, OverflowPolicy, QueuePolicy, Topic,
};
use crate::engine::{
    CacheQuanta, CachedCandidates, CandidateCacheKey, DecisionRecord, Engine, EngineConfig,
    TripTracker,
};
use crate::fault::{transport_from_state, ChaosRng, FaultProfile, TransportState, WireStats};
use crate::health::{HealthState, UserHealth};
use crate::injection::{InjectionQueue, PendingInjection};
use crate::netcost::UnicastLink;
use crate::player::{PlaybackMode, Player, QueuedClip};
use crate::retry::{BackoffPolicy, OutstandingDelivery};
use pphcr_audio::{AudioClip, Bitrate, ClipId};
use pphcr_catalog::{CategoryId, ClipMetadata, Gazetteer, Place, ServiceIndex};
use pphcr_geo::{GeoPoint, NodeId, NodeKind, ProjectedPoint, RoadNetwork, TimePoint, TimeSpan};
use pphcr_nlp::NaiveBayes;
use pphcr_obs::Histogram;
use pphcr_recommender::scheduler::Selection;
use pphcr_recommender::{
    CandidateFilter, ProactivityModel, Recommender, RetrievalStats, ScheduledItem, SchedulerConfig,
    ScoredClip, ScoringWeights, SlotSchedule, Trigger,
};
use pphcr_trajectory::TripPredictor;
use pphcr_userdata::{ListeningSession, SessionEnd, SessionStore, UserId};
use std::collections::HashMap;

/// The four magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PPHS";
/// The current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 3;

const SECTION_CONFIG: u16 = 1;
const SECTION_CATALOG: u16 = 2;
const SECTION_NLP: u16 = 3;
const SECTION_USERS: u16 = 4;
const SECTION_BUS: u16 = 5;
const SECTION_OBS: u16 = 6;
const SECTION_DECISIONS: u16 = 7;

/// All section ids, in file order.
const SECTION_IDS: [u16; 7] = [
    SECTION_CONFIG,
    SECTION_CATALOG,
    SECTION_NLP,
    SECTION_USERS,
    SECTION_BUS,
    SECTION_OBS,
    SECTION_DECISIONS,
];

/// Serializes the full engine state.
///
/// `last_wal_seq` is the sequence number of the last WAL record already
/// reflected in this state; [`super::restore_engine`] replays only
/// records after it.
///
/// Fails with [`PersistError::UnsupportedTransport`] when the installed
/// bus transport cannot export its wire state.
pub fn snapshot_engine(engine: &Engine, last_wal_seq: u64) -> Result<Vec<u8>, PersistError> {
    let transport =
        engine.bus.transport.export_state().ok_or(PersistError::UnsupportedTransport)?;
    let sections: [(u16, Vec<u8>); 7] = [
        (SECTION_CONFIG, encode_config(engine)),
        (SECTION_CATALOG, encode_catalog(engine)),
        (SECTION_NLP, encode_nlp(engine)),
        (SECTION_USERS, encode_users(engine)),
        (SECTION_BUS, encode_bus(engine, &transport)),
        (SECTION_OBS, encode_obs(engine)),
        (SECTION_DECISIONS, encode_decisions(engine)),
    ];
    let mut out = ByteWriter::new();
    out.put_bytes(&SNAPSHOT_MAGIC);
    out.put_u32(SNAPSHOT_VERSION);
    out.put_u64(last_wal_seq);
    out.put_u32(sections.len() as u32);
    for (id, payload) in &sections {
        out.put_u16(*id);
        out.put_u64(payload.len() as u64);
        out.put_u32(crc32(payload));
        out.put_bytes(payload);
    }
    Ok(out.into_inner())
}

/// Decodes a snapshot back into an engine, returning it together with
/// the `last_wal_seq` recorded in the header.
pub fn decode_engine(bytes: &[u8]) -> Result<(Engine, u64), PersistError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(4)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let last_seq = r.u64()?;
    let count = r.u32()?;
    let mut parts: [Option<&[u8]>; 7] = [None; 7];
    for _ in 0..count {
        let id = r.u16()?;
        let len = r.u64()? as usize;
        let crc = r.u32()?;
        let payload = r.take(len)?;
        if crc32(payload) != crc {
            return Err(PersistError::SectionCorrupt { id });
        }
        let Some(pos) = SECTION_IDS.iter().position(|s| *s == id) else {
            return Err(PersistError::UnknownSection { id });
        };
        if let Some(slot) = parts.get_mut(pos) {
            *slot = Some(payload);
        }
    }
    let section =
        |pos: usize| -> Result<&[u8], PersistError> {
            parts.get(pos).copied().flatten().ok_or(PersistError::MissingSection {
                id: SECTION_IDS.get(pos).copied().unwrap_or(0),
            })
        };
    let mut engine = decode_config(section(0)?)?;
    decode_catalog(&mut engine, section(1)?)?;
    decode_nlp(&mut engine, section(2)?)?;
    decode_users(&mut engine, section(3)?)?;
    decode_bus(&mut engine, section(4)?)?;
    decode_obs(&mut engine, section(5)?)?;
    decode_decisions(&mut engine, section(6)?)?;
    Ok((engine, last_seq))
}

// ---------------------------------------------------------------------
// Shared small-type codecs
// ---------------------------------------------------------------------

fn sorted_user_keys<V>(map: &HashMap<UserId, V>) -> Vec<UserId> {
    // lint: allow(hash-iter) — keys are sorted immediately below
    let mut keys: Vec<UserId> = map.keys().copied().collect();
    keys.sort_unstable_by_key(|u| u.0);
    keys
}

fn put_point(w: &mut ByteWriter, p: ProjectedPoint) {
    w.put_f64(p.x);
    w.put_f64(p.y);
}

fn get_point(r: &mut ByteReader<'_>) -> Result<ProjectedPoint, PersistError> {
    Ok(ProjectedPoint { x: r.f64()?, y: r.f64()? })
}

fn put_schedule(w: &mut ByteWriter, s: &SlotSchedule) {
    w.put_u32(s.items.len() as u32);
    for item in &s.items {
        w.put_u64(item.clip.0);
        w.put_u64(item.start_s);
        w.put_u64(item.duration.0);
        w.put_f64(item.score);
        w.put_opt(item.pinned_along_m.as_ref(), |w, v| w.put_f64(*v));
    }
    w.put_f64(s.total_score);
    w.put_u64(s.budget.0);
    w.put_u64(s.computed_at.0);
}

fn get_schedule(r: &mut ByteReader<'_>) -> Result<SlotSchedule, PersistError> {
    let n = r.seq_len()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(ScheduledItem {
            clip: ClipId(r.u64()?),
            start_s: r.u64()?,
            duration: TimeSpan(r.u64()?),
            score: r.f64()?,
            pinned_along_m: r.opt(ByteReader::f64)?,
        });
    }
    Ok(SlotSchedule {
        items,
        total_score: r.f64()?,
        budget: TimeSpan(r.u64()?),
        computed_at: TimePoint(r.u64()?),
    })
}

fn put_scored(w: &mut ByteWriter, c: &ScoredClip) {
    w.put_u64(c.clip.0);
    w.put_u64(c.duration.0);
    w.put_f64(c.score);
    w.put_f64(c.content_score);
    w.put_f64(c.context_score);
    w.put_opt(c.geo_distance_m.as_ref(), |w, v| w.put_f64(*v));
    w.put_opt(c.along_route_m.as_ref(), |w, v| w.put_f64(*v));
}

fn get_scored(r: &mut ByteReader<'_>) -> Result<ScoredClip, PersistError> {
    Ok(ScoredClip {
        clip: ClipId(r.u64()?),
        duration: TimeSpan(r.u64()?),
        score: r.f64()?,
        content_score: r.f64()?,
        context_score: r.f64()?,
        geo_distance_m: r.opt(ByteReader::f64)?,
        along_route_m: r.opt(ByteReader::f64)?,
    })
}

fn put_retrieval_stats(w: &mut ByteWriter, s: &RetrievalStats) {
    w.put_u64(s.considered);
    w.put_u64(s.cut_freshness);
    w.put_u64(s.cut_preference);
    w.put_u64(s.cut_geo);
    w.put_u64(s.cut_heard);
    w.put_u64(s.geo_hits);
    w.put_u64(s.scored);
    w.put_u64(s.truncated);
}

fn get_retrieval_stats(r: &mut ByteReader<'_>) -> Result<RetrievalStats, PersistError> {
    Ok(RetrievalStats {
        considered: r.u64()?,
        cut_freshness: r.u64()?,
        cut_preference: r.u64()?,
        cut_geo: r.u64()?,
        cut_heard: r.u64()?,
        geo_hits: r.u64()?,
        scored: r.u64()?,
        truncated: r.u64()?,
    })
}

fn topic_tag(t: Topic) -> u8 {
    match t {
        Topic::Tracking => 0,
        Topic::Feedback => 1,
        Topic::Recommendation => 2,
        Topic::Editorial => 3,
        Topic::Ingest => 4,
    }
}

fn topic_from_tag(tag: u8) -> Result<Topic, PersistError> {
    match tag {
        0 => Ok(Topic::Tracking),
        1 => Ok(Topic::Feedback),
        2 => Ok(Topic::Recommendation),
        3 => Ok(Topic::Editorial),
        4 => Ok(Topic::Ingest),
        _ => Err(PersistError::Corrupt { what: "topic tag" }),
    }
}

fn put_envelope(w: &mut ByteWriter, e: &Envelope) {
    match &e.message {
        BusMessage::Fix { user, fix } => {
            w.put_u8(0);
            w.put_u64(user.0);
            put_fix(w, fix);
        }
        BusMessage::Feedback(event) => {
            w.put_u8(1);
            put_feedback_event(w, event);
        }
        BusMessage::Delivery { user, schedule } => {
            w.put_u8(2);
            w.put_u64(user.0);
            put_schedule(w, schedule);
        }
        BusMessage::Inject { user, clip, at } => {
            w.put_u8(3);
            w.put_u64(user.0);
            w.put_u64(clip.0);
            w.put_u64(at.0);
        }
        BusMessage::Ingested { clip, confidence } => {
            w.put_u8(4);
            w.put_u64(clip.0);
            w.put_f64(*confidence);
        }
        BusMessage::Tuned { user, service } => {
            w.put_u8(5);
            w.put_u64(user.0);
            w.put_u32(service.0);
        }
    }
    w.put_u64(e.published_at.0);
    w.put_u32(e.hops);
    w.put_u64(e.seq);
}

fn get_envelope(r: &mut ByteReader<'_>) -> Result<Envelope, PersistError> {
    let message = match r.u8()? {
        0 => BusMessage::Fix { user: UserId(r.u64()?), fix: get_fix(r)? },
        1 => BusMessage::Feedback(get_feedback_event(r)?),
        2 => BusMessage::Delivery { user: UserId(r.u64()?), schedule: get_schedule(r)? },
        3 => BusMessage::Inject {
            user: UserId(r.u64()?),
            clip: ClipId(r.u64()?),
            at: TimePoint(r.u64()?),
        },
        4 => BusMessage::Ingested { clip: ClipId(r.u64()?), confidence: r.f64()? },
        5 => BusMessage::Tuned { user: UserId(r.u64()?), service: ServiceIndex(r.u32()?) },
        _ => return Err(PersistError::Corrupt { what: "bus message tag" }),
    };
    Ok(Envelope { message, published_at: TimePoint(r.u64()?), hops: r.u32()?, seq: r.u64()? })
}

/// Encodes a coverage map. Shared with the WAL codec: the
/// `SetCoverage` command and the snapshot CONFIG section carry the same
/// bytes.
pub(crate) fn put_coverage(w: &mut ByteWriter, coverage: &CoverageMap) {
    w.put_u32(coverage.transmitters.len() as u32);
    for t in &coverage.transmitters {
        put_point(w, t.position);
        w.put_f64(t.radius_m);
    }
}

/// Decodes [`put_coverage`] output.
pub(crate) fn get_coverage(r: &mut ByteReader<'_>) -> Result<CoverageMap, PersistError> {
    let n = r.seq_len()?;
    let mut transmitters = Vec::with_capacity(n);
    for _ in 0..n {
        transmitters.push(Transmitter { position: get_point(r)?, radius_m: r.f64()? });
    }
    Ok(CoverageMap { transmitters })
}

/// Encodes a road network. Shared with the WAL codec (`SetRoadNetwork`).
pub(crate) fn put_road_network(w: &mut ByteWriter, net: &RoadNetwork) {
    w.put_u32(net.nodes().len() as u32);
    for node in net.nodes() {
        put_point(w, node.pos);
        w.put_u8(match node.kind {
            NodeKind::Plain => 0,
            NodeKind::Intersection => 1,
            NodeKind::Roundabout => 2,
        });
    }
    w.put_u32(net.edges().len() as u32);
    for edge in net.edges() {
        w.put_u32(edge.from.0);
        w.put_u32(edge.to.0);
        w.put_f64(edge.speed_mps);
    }
}

/// Decodes [`put_road_network`] output, validating edge endpoints and
/// speeds.
pub(crate) fn get_road_network(r: &mut ByteReader<'_>) -> Result<RoadNetwork, PersistError> {
    let n_nodes = r.seq_len()?;
    let mut net = RoadNetwork::new();
    for _ in 0..n_nodes {
        let pos = get_point(r)?;
        let kind = match r.u8()? {
            0 => NodeKind::Plain,
            1 => NodeKind::Intersection,
            2 => NodeKind::Roundabout,
            _ => return Err(PersistError::Corrupt { what: "road node kind" }),
        };
        net.add_node(pos, kind);
    }
    let n_edges = r.seq_len()?;
    for _ in 0..n_edges {
        let from = r.u32()?;
        let to = r.u32()?;
        let speed = r.f64()?;
        let bounds = n_nodes as u32;
        if from >= bounds || to >= bounds || !speed.is_finite() || speed <= 0.0 {
            return Err(PersistError::Corrupt { what: "road edge" });
        }
        net.add_edge(NodeId(from), NodeId(to), speed);
    }
    Ok(net)
}

/// Encodes a gazetteer. Shared with the WAL codec (`SetGazetteer`).
pub(crate) fn put_gazetteer(w: &mut ByteWriter, gaz: &Gazetteer) {
    w.put_u64(gaz.min_mentions as u64);
    let places = gaz.places_sorted();
    w.put_u32(places.len() as u32);
    for place in places {
        w.put_str(&place.name);
        w.put_f64(place.point.lat);
        w.put_f64(place.point.lon);
        w.put_f64(place.radius_m);
    }
}

/// Decodes [`put_gazetteer`] output.
pub(crate) fn get_gazetteer(r: &mut ByteReader<'_>) -> Result<Gazetteer, PersistError> {
    let mut gaz = Gazetteer::new();
    gaz.min_mentions = r.u64()? as usize;
    let n = r.seq_len()?;
    for _ in 0..n {
        gaz.add(Place {
            name: r.string()?,
            point: GeoPoint { lat: r.f64()?, lon: r.f64()? },
            radius_m: r.f64()?,
        });
    }
    Ok(gaz)
}

fn put_recommender(w: &mut ByteWriter, rec: &Recommender) {
    let weights = &rec.weights;
    w.put_f64(weights.content_weight);
    w.put_f64(weights.geo_weight);
    w.put_f64(weights.freshness_weight);
    w.put_f64(weights.time_weight);
    w.put_f64(weights.fit_weight);
    w.put_f64(weights.weather_weight);
    w.put_u64(weights.freshness_half_life.0);
    w.put_f64(weights.geo_scale_m);
    let filter = &rec.filter;
    w.put_u64(filter.max_age.0);
    w.put_f64(filter.min_category_pref);
    w.put_f64(filter.route_corridor_m);
    w.put_u64(filter.max_candidates as u64);
    w.put_u64(filter.scan_below as u64);
    let sched = &rec.scheduler;
    w.put_u64(sched.reserve.0);
    w.put_u64(sched.max_items as u64);
    w.put_u64(sched.pin_tolerance_s);
    w.put_bool(sched.avoid_distraction);
    w.put_u8(match sched.selection {
        Selection::ExactDp => 0,
        Selection::Greedy => 1,
    });
}

fn get_recommender(r: &mut ByteReader<'_>) -> Result<Recommender, PersistError> {
    let weights = ScoringWeights {
        content_weight: r.f64()?,
        geo_weight: r.f64()?,
        freshness_weight: r.f64()?,
        time_weight: r.f64()?,
        fit_weight: r.f64()?,
        weather_weight: r.f64()?,
        freshness_half_life: TimeSpan(r.u64()?),
        geo_scale_m: r.f64()?,
    };
    let filter = CandidateFilter {
        max_age: TimeSpan(r.u64()?),
        min_category_pref: r.f64()?,
        route_corridor_m: r.f64()?,
        max_candidates: r.u64()? as usize,
        scan_below: r.u64()? as usize,
    };
    let scheduler = SchedulerConfig {
        reserve: TimeSpan(r.u64()?),
        max_items: r.u64()? as usize,
        pin_tolerance_s: r.u64()?,
        avoid_distraction: r.bool()?,
        selection: match r.u8()? {
            0 => Selection::ExactDp,
            1 => Selection::Greedy,
            _ => return Err(PersistError::Corrupt { what: "selection tag" }),
        },
    };
    Ok(Recommender { weights, filter, scheduler })
}

// ---------------------------------------------------------------------
// Section 1: CONFIG — EngineConfig, live recommender, static geography
// ---------------------------------------------------------------------

fn encode_config(engine: &Engine) -> Vec<u8> {
    let config = engine.config();
    let mut w = ByteWriter::new();
    w.put_f64(config.origin.lat);
    w.put_f64(config.origin.lon);
    put_recommender(&mut w, &config.recommender);
    w.put_f64(config.predictor.hour_weight);
    w.put_f64(config.predictor.geometry_scale_m);
    w.put_f64(config.predictor.min_confidence);
    w.put_f64(config.classifier_alpha);
    w.put_f64(config.junction_snap_m);
    w.put_u64(config.backoff.base.0);
    w.put_f64(config.backoff.factor);
    w.put_u64(config.backoff.max_delay.0);
    w.put_f64(config.backoff.jitter_frac);
    w.put_u32(config.backoff.budget);
    w.put_u64(config.chaos_seed);
    w.put_u64(config.stale_fix_after.0);
    w.put_bool(config.obs_enabled);
    w.put_u64(config.trace_capacity as u64);
    w.put_u64(config.cache_quanta.freshness.0);
    w.put_u64(config.cache_quanta.decay.0);
    w.put_u64(config.cache_quanta.phase.0);
    w.put_f64(config.cache_quanta.position_m);
    // The live recommender: runtime tuning may have diverged from the
    // configured one.
    put_recommender(&mut w, &engine.recommender);
    w.put_opt(engine.road_network.as_ref(), put_road_network);
    w.put_opt(engine.gazetteer.as_ref(), put_gazetteer);
    w.put_opt(engine.coverage.as_ref(), put_coverage);
    w.into_inner()
}

fn decode_config(bytes: &[u8]) -> Result<Engine, PersistError> {
    let mut r = ByteReader::new(bytes);
    let origin = GeoPoint { lat: r.f64()?, lon: r.f64()? };
    let recommender = get_recommender(&mut r)?;
    let predictor = TripPredictor {
        hour_weight: r.f64()?,
        geometry_scale_m: r.f64()?,
        min_confidence: r.f64()?,
    };
    let classifier_alpha = r.f64()?;
    if !classifier_alpha.is_finite() || classifier_alpha <= 0.0 {
        return Err(PersistError::Corrupt { what: "classifier alpha" });
    }
    let junction_snap_m = r.f64()?;
    let backoff = BackoffPolicy {
        base: TimeSpan(r.u64()?),
        factor: r.f64()?,
        max_delay: TimeSpan(r.u64()?),
        jitter_frac: r.f64()?,
        budget: r.u32()?,
    };
    let chaos_seed = r.u64()?;
    let stale_fix_after = TimeSpan(r.u64()?);
    let obs_enabled = r.bool()?;
    let trace_capacity = r.u64()? as usize;
    let cache_quanta = CacheQuanta {
        freshness: TimeSpan(r.u64()?),
        decay: TimeSpan(r.u64()?),
        phase: TimeSpan(r.u64()?),
        position_m: r.f64()?,
    };
    if !cache_quanta.position_m.is_finite() || cache_quanta.position_m <= 0.0 {
        return Err(PersistError::Corrupt { what: "cache quanta position pitch" });
    }
    let config = EngineConfig {
        origin,
        recommender,
        predictor,
        classifier_alpha,
        junction_snap_m,
        backoff,
        chaos_seed,
        stale_fix_after,
        // Worker count is a property of the restoring host, not of the
        // persisted state: results are identical for any count, so the
        // snapshot bytes must be too.
        worker_threads: EngineConfig::default().worker_threads,
        obs_enabled,
        trace_capacity,
        cache_quanta,
    };
    let mut engine = Engine::new(config);
    engine.recommender = get_recommender(&mut r)?;
    engine.road_network = r.opt(get_road_network)?;
    engine.gazetteer = r.opt(get_gazetteer)?;
    engine.coverage = r.opt(get_coverage)?;
    Ok(engine)
}

// ---------------------------------------------------------------------
// Section 2: CATALOG — clip metadata, index meta, audio store
// ---------------------------------------------------------------------

fn encode_catalog(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(engine.next_clip_id);
    w.put_u64(engine.repo.epoch());
    w.put_f64(engine.repo.max_tag_radius_m());
    let mut clips: Vec<&ClipMetadata> = engine.repo.iter().collect();
    clips.sort_unstable_by_key(|c| c.id.0);
    w.put_u32(clips.len() as u32);
    for clip in clips {
        w.put_u64(clip.id.0);
        w.put_str(&clip.title);
        put_clip_kind(&mut w, clip.kind);
        w.put_u16(clip.category.0);
        w.put_f64(clip.category_confidence);
        w.put_u64(clip.duration.0);
        w.put_u64(clip.published.0);
        w.put_opt(clip.geo.as_ref(), put_geo_tag);
        w.put_u32(clip.transcript.len() as u32);
        for token in &clip.transcript {
            w.put_u32(*token);
        }
    }
    w.into_inner()
}

fn decode_catalog(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);
    engine.next_clip_id = r.u64()?;
    let epoch = r.u64()?;
    let max_tag_radius_m = r.f64()?;
    let n = r.seq_len()?;
    for _ in 0..n {
        let id = ClipId(r.u64()?);
        let title = r.string()?;
        let kind = get_clip_kind(&mut r)?;
        let category = CategoryId(r.u16()?);
        let category_confidence = r.f64()?;
        let duration = TimeSpan(r.u64()?);
        let published = TimePoint(r.u64()?);
        let geo = r.opt(get_geo_tag)?;
        let n_tokens = r.seq_len()?;
        let mut transcript = Vec::with_capacity(n_tokens);
        for _ in 0..n_tokens {
            transcript.push(r.u32()?);
        }
        engine.repo.ingest(ClipMetadata {
            id,
            title,
            kind,
            category,
            category_confidence,
            duration,
            published,
            geo,
            transcript,
        });
        engine.clip_audio.insert(AudioClip { id, duration, bitrate: Bitrate::LIVE_STREAM });
    }
    engine.repo.restore_index_meta(epoch, max_tag_radius_m);
    Ok(())
}

// ---------------------------------------------------------------------
// Section 3: NLP — vocabulary and classifier counts
// ---------------------------------------------------------------------

fn encode_nlp(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(engine.vocab.len() as u32);
    for id in 0..engine.vocab.len() as u32 {
        w.put_str(engine.vocab.token(id).unwrap_or(""));
    }
    w.put_u32(engine.classifier.n_categories());
    w.put_f64(engine.classifier.alpha());
    let (doc_counts, category_tokens, token_counts) = engine.classifier.export_raw_counts();
    w.put_u32(doc_counts.len() as u32);
    for v in doc_counts {
        w.put_u64(*v);
    }
    w.put_u32(category_tokens.len() as u32);
    for v in category_tokens {
        w.put_u64(*v);
    }
    w.put_u32(token_counts.len() as u32);
    for row in token_counts {
        w.put_u32(row.len() as u32);
        for v in row {
            w.put_u64(*v);
        }
    }
    w.put_u64(engine.classifier_docs);
    w.into_inner()
}

fn decode_nlp(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);
    let n_tokens = r.seq_len()?;
    for _ in 0..n_tokens {
        let token = r.string()?;
        engine.vocab.intern(&token);
    }
    let n_categories = r.u32()?;
    let alpha = r.f64()?;
    let n = r.seq_len()?;
    let mut doc_counts = Vec::with_capacity(n);
    for _ in 0..n {
        doc_counts.push(r.u64()?);
    }
    let n = r.seq_len()?;
    let mut category_tokens = Vec::with_capacity(n);
    for _ in 0..n {
        category_tokens.push(r.u64()?);
    }
    let n = r.seq_len()?;
    let mut token_counts = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.seq_len()?;
        let mut row = Vec::with_capacity(m);
        for _ in 0..m {
            row.push(r.u64()?);
        }
        token_counts.push(row);
    }
    engine.classifier =
        NaiveBayes::from_raw_counts(n_categories, alpha, doc_counts, category_tokens, token_counts)
            .ok_or(PersistError::Corrupt { what: "classifier counts" })?;
    engine.classifier_docs = r.u64()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Section 4: USERS — every per-listener store and ladder
// ---------------------------------------------------------------------

fn encode_users(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();

    let mut profiles: Vec<_> = engine.profiles.iter().collect();
    profiles.sort_unstable_by_key(|p| p.id.0);
    w.put_u32(profiles.len() as u32);
    for p in profiles {
        put_profile(&mut w, p);
    }

    let feedback_users = engine.feedback.known_users();
    w.put_u32(feedback_users.len() as u32);
    for user in feedback_users {
        w.put_u64(user.0);
        let events = engine.feedback.events(user);
        w.put_u32(events.len() as u32);
        for e in events {
            put_feedback_event(&mut w, e);
        }
    }

    let tracking_users = engine.tracking.known_users();
    w.put_u32(tracking_users.len() as u32);
    for user in tracking_users {
        w.put_u64(user.0);
        let fixes = engine.tracking.trace(user).map_or(&[][..], |t| t.fixes());
        w.put_u32(fixes.len() as u32);
        for fix in fixes {
            put_fix(&mut w, fix);
        }
    }
    w.put_u64(engine.tracking.dropped_invalid());

    let open = engine.sessions.export_open();
    w.put_u32(open.len() as u32);
    for s in open {
        put_session(&mut w, s);
    }
    let closed = engine.sessions.export_closed();
    w.put_u32(closed.len() as u32);
    for s in closed {
        put_session(&mut w, s);
    }

    let player_users = sorted_user_keys(&engine.players);
    w.put_u32(player_users.len() as u32);
    for user in player_users {
        if let Some(p) = engine.players.get(&user) {
            put_player(&mut w, p);
        }
    }

    let proactivity_users = sorted_user_keys(&engine.proactivity);
    w.put_u32(proactivity_users.len() as u32);
    for user in proactivity_users {
        if let Some(m) = engine.proactivity.get(&user) {
            w.put_u64(user.0);
            w.put_u64(m.min_driving.0);
            w.put_f64(m.min_confidence);
            w.put_u64(m.min_delta_t.0);
            w.put_u64(m.cooldown.0);
            w.put_opt(m.driving_since().as_ref(), |w, t| w.put_u64(t.0));
            w.put_opt(m.last_delivery().as_ref(), |w, t| w.put_u64(t.0));
        }
    }

    let trip_users = sorted_user_keys(&engine.trips);
    w.put_u32(trip_users.len() as u32);
    for user in trip_users {
        if let Some(t) = engine.trips.get(&user) {
            w.put_u64(user.0);
            w.put_opt(t.driving_since.as_ref(), |w, v| w.put_u64(v.0));
            w.put_opt(t.origin_stay.as_ref(), |w, v| w.put_u32(*v));
            w.put_u32(t.path.len() as u32);
            for p in &t.path {
                put_point(&mut w, *p);
            }
        }
    }

    let heard_users: Vec<UserId> =
        engine.hot.users_sorted().into_iter().filter(|&u| engine.hot.heard_len(u) > 0).collect();
    w.put_u32(heard_users.len() as u32);
    for user in heard_users {
        w.put_u64(user.0);
        let mut clips: Vec<u64> =
            engine.hot.heard_ref(user).map(|s| s.iter().map(|c| c.0).collect()).unwrap_or_default();
        clips.sort_unstable();
        w.put_u32(clips.len() as u32);
        for c in clips {
            w.put_u64(c);
        }
    }

    let health_users = sorted_user_keys(&engine.health);
    w.put_u32(health_users.len() as u32);
    for user in health_users {
        if let Some(h) = engine.health.get(&user) {
            w.put_u64(user.0);
            w.put_u8(match h.state {
                HealthState::Healthy => 0,
                HealthState::Degraded => 1,
                HealthState::BroadcastOnly => 2,
            });
            w.put_u32(h.fail_streak);
            w.put_u32(h.ok_streak);
            w.put_u64(h.since.0);
            w.put_u64(h.fetch_failures);
            w.put_u64(h.replays);
            w.put_u64(h.stale_model_reuses);
            w.put_u64(h.dup_deliveries);
            w.put_u64(h.transitions);
        }
    }

    let acked_users = sorted_user_keys(&engine.last_acked);
    w.put_u32(acked_users.len() as u32);
    for user in acked_users {
        if let Some(s) = engine.last_acked.get(&user) {
            w.put_u64(user.0);
            put_schedule(&mut w, s);
        }
    }

    let bearer_users = sorted_user_keys(&engine.bearers);
    w.put_u32(bearer_users.len() as u32);
    for user in bearer_users {
        if let Some(b) = engine.bearers.get(&user) {
            w.put_u64(user.0);
            w.put_f64(b.hysteresis_m);
            w.put_u8(match b.current {
                BearerClass::Broadcast => 0,
                BearerClass::Ip => 1,
            });
            w.put_u32(b.switches);
            put_coverage(&mut w, &b.coverage);
        }
    }

    let cache_users: Vec<UserId> =
        engine.hot.users_sorted().into_iter().filter(|&u| engine.hot.cache(u).is_some()).collect();
    w.put_u32(cache_users.len() as u32);
    for user in cache_users {
        if let Some(c) = engine.hot.cache(user) {
            w.put_u64(user.0);
            w.put_u64(c.key.epoch);
            w.put_u64(c.key.feedback_events as u64);
            w.put_u64(c.key.heard_len as u64);
            w.put_u64(c.key.freshness_rev);
            w.put_u64(c.key.decay_rev);
            w.put_u64(c.key.context_rev);
            w.put_u64(c.warmed_at);
            w.put_u32(c.ranked.len() as u32);
            for s in &c.ranked {
                put_scored(&mut w, s);
            }
            put_retrieval_stats(&mut w, &c.stats);
        }
    }

    // The engine tick sequence: counter classification (same-tick warm
    // serve vs cross-tick hit) must survive a restore bit-exactly.
    w.put_u64(engine.tick_seq);

    w.into_inner()
}

fn put_session(w: &mut ByteWriter, s: &ListeningSession) {
    w.put_u64(s.user.0);
    w.put_u32(s.service.0);
    w.put_u64(s.started.0);
    w.put_u64(s.ended.0);
    w.put_u32(s.clips_played.len() as u32);
    for c in &s.clips_played {
        w.put_u64(c.0);
    }
    w.put_u32(s.skips);
    w.put_u32(s.likes);
    match s.end {
        SessionEnd::Stopped => w.put_u8(0),
        SessionEnd::Surfed { to } => {
            w.put_u8(1);
            w.put_u32(to.0);
        }
        SessionEnd::Open => w.put_u8(2),
    }
}

fn get_session(r: &mut ByteReader<'_>) -> Result<ListeningSession, PersistError> {
    let user = UserId(r.u64()?);
    let service = ServiceIndex(r.u32()?);
    let started = TimePoint(r.u64()?);
    let ended = TimePoint(r.u64()?);
    let n = r.seq_len()?;
    let mut clips_played = Vec::with_capacity(n);
    for _ in 0..n {
        clips_played.push(ClipId(r.u64()?));
    }
    let skips = r.u32()?;
    let likes = r.u32()?;
    let end = match r.u8()? {
        0 => SessionEnd::Stopped,
        1 => SessionEnd::Surfed { to: ServiceIndex(r.u32()?) },
        2 => SessionEnd::Open,
        _ => return Err(PersistError::Corrupt { what: "session end tag" }),
    };
    Ok(ListeningSession { user, service, started, ended, clips_played, skips, likes, end })
}

fn put_player(w: &mut ByteWriter, p: &Player) {
    w.put_u64(p.user.0);
    w.put_u32(p.service.0);
    match p.mode {
        PlaybackMode::Live => w.put_u8(0),
        PlaybackMode::Clip { clip, started } => {
            w.put_u8(1);
            put_queued(w, &clip);
            w.put_u64(started.0);
        }
        PlaybackMode::Shifted => w.put_u8(2),
        PlaybackMode::Paused => w.put_u8(3),
    }
    w.put_u32(p.queue.len() as u32);
    for q in &p.queue {
        put_queued(w, q);
    }
    w.put_u64(p.displacement.0);
    w.put_u64(p.feedback_period.0);
    w.put_u64(p.last_feedback.0);
    w.put_u32(p.skips);
    w.put_u32(p.surfs);
}

fn put_queued(w: &mut ByteWriter, q: &QueuedClip) {
    w.put_u64(q.clip.0);
    w.put_u64(q.duration.0);
    w.put_u16(q.category.0);
}

fn get_queued(r: &mut ByteReader<'_>) -> Result<QueuedClip, PersistError> {
    Ok(QueuedClip {
        clip: ClipId(r.u64()?),
        duration: TimeSpan(r.u64()?),
        category: CategoryId(r.u16()?),
    })
}

fn get_player(r: &mut ByteReader<'_>) -> Result<Player, PersistError> {
    let user = UserId(r.u64()?);
    let service = ServiceIndex(r.u32()?);
    let mode = match r.u8()? {
        0 => PlaybackMode::Live,
        1 => {
            let clip = get_queued(r)?;
            PlaybackMode::Clip { clip, started: TimePoint(r.u64()?) }
        }
        2 => PlaybackMode::Shifted,
        3 => PlaybackMode::Paused,
        _ => return Err(PersistError::Corrupt { what: "playback mode tag" }),
    };
    let n = r.seq_len()?;
    let mut queue = std::collections::VecDeque::with_capacity(n);
    for _ in 0..n {
        queue.push_back(get_queued(r)?);
    }
    Ok(Player {
        user,
        service,
        mode,
        queue,
        displacement: TimeSpan(r.u64()?),
        feedback_period: TimeSpan(r.u64()?),
        last_feedback: TimePoint(r.u64()?),
        skips: r.u32()?,
        surfs: r.u32()?,
    })
}

fn decode_users(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);

    let n = r.seq_len()?;
    for _ in 0..n {
        let profile = get_profile(&mut r)?;
        engine.profiles.upsert(profile);
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let _user = UserId(r.u64()?);
        let m = r.seq_len()?;
        for _ in 0..m {
            let event = get_feedback_event(&mut r)?;
            engine.feedback.record(event);
        }
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let m = r.seq_len()?;
        for _ in 0..m {
            let fix = get_fix(&mut r)?;
            engine.tracking.record(user, fix);
        }
    }
    engine.tracking.restore_dropped_invalid(r.u64()?);

    let n = r.seq_len()?;
    let mut open = Vec::with_capacity(n);
    for _ in 0..n {
        open.push(get_session(&mut r)?);
    }
    let n = r.seq_len()?;
    let mut closed = Vec::with_capacity(n);
    for _ in 0..n {
        closed.push(get_session(&mut r)?);
    }
    engine.sessions = SessionStore::restore(open, closed);

    let n = r.seq_len()?;
    for _ in 0..n {
        let player = get_player(&mut r)?;
        engine.players.insert(player.user, player);
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let mut model = ProactivityModel::default();
        model.min_driving = TimeSpan(r.u64()?);
        model.min_confidence = r.f64()?;
        model.min_delta_t = TimeSpan(r.u64()?);
        model.cooldown = TimeSpan(r.u64()?);
        let driving_since = r.opt(|r| Ok(TimePoint(r.u64()?)))?;
        let last_delivery = r.opt(|r| Ok(TimePoint(r.u64()?)))?;
        model.restore_state(driving_since, last_delivery);
        engine.proactivity.insert(user, model);
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let driving_since = r.opt(|r| Ok(TimePoint(r.u64()?)))?;
        let origin_stay = r.opt(ByteReader::u32)?;
        let m = r.seq_len()?;
        let mut path = Vec::with_capacity(m);
        for _ in 0..m {
            path.push(get_point(&mut r)?);
        }
        engine.trips.insert(user, TripTracker { driving_since, origin_stay, path });
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let m = r.seq_len()?;
        for _ in 0..m {
            engine.hot.heard_insert(user, ClipId(r.u64()?));
        }
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let state = match r.u8()? {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            2 => HealthState::BroadcastOnly,
            _ => return Err(PersistError::Corrupt { what: "health state tag" }),
        };
        let health = UserHealth {
            state,
            fail_streak: r.u32()?,
            ok_streak: r.u32()?,
            since: TimePoint(r.u64()?),
            fetch_failures: r.u64()?,
            replays: r.u64()?,
            stale_model_reuses: r.u64()?,
            dup_deliveries: r.u64()?,
            transitions: r.u64()?,
        };
        engine.health.insert(user, health);
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let schedule = get_schedule(&mut r)?;
        engine.last_acked.insert(user, schedule);
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let hysteresis_m = r.f64()?;
        let current = match r.u8()? {
            0 => BearerClass::Broadcast,
            1 => BearerClass::Ip,
            _ => return Err(PersistError::Corrupt { what: "bearer class tag" }),
        };
        let switches = r.u32()?;
        let coverage = get_coverage(&mut r)?;
        engine.bearers.insert(user, BearerSelector { coverage, hysteresis_m, current, switches });
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let key = CandidateCacheKey {
            epoch: r.u64()?,
            feedback_events: r.u64()? as usize,
            heard_len: r.u64()? as usize,
            freshness_rev: r.u64()?,
            decay_rev: r.u64()?,
            context_rev: r.u64()?,
        };
        let warmed_at = r.u64()?;
        let m = r.seq_len()?;
        let mut ranked = Vec::with_capacity(m);
        for _ in 0..m {
            ranked.push(get_scored(&mut r)?);
        }
        let stats = get_retrieval_stats(&mut r)?;
        engine.hot.insert_cache(user, CachedCandidates { key, ranked, stats, warmed_at });
    }

    engine.tick_seq = r.u64()?;
    // The stores were rebuilt wholesale above; re-derive the hot-state
    // revision mirrors from them.
    engine.rebuild_hot_mirrors();

    Ok(())
}

// ---------------------------------------------------------------------
// Section 5: BUS — transport wire state, queues, ledgers, RNGs
// ---------------------------------------------------------------------

fn put_topic_envelopes(w: &mut ByteWriter, pairs: &[(Topic, Vec<Envelope>)]) {
    w.put_u32(pairs.len() as u32);
    for (topic, envelopes) in pairs {
        w.put_u8(topic_tag(*topic));
        w.put_u32(envelopes.len() as u32);
        for e in envelopes {
            put_envelope(w, e);
        }
    }
}

fn get_topic_envelopes(
    r: &mut ByteReader<'_>,
) -> Result<Vec<(Topic, Vec<Envelope>)>, PersistError> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let topic = topic_from_tag(r.u8()?)?;
        let m = r.seq_len()?;
        let mut envelopes = Vec::with_capacity(m);
        for _ in 0..m {
            envelopes.push(get_envelope(r)?);
        }
        out.push((topic, envelopes));
    }
    Ok(out)
}

fn encode_bus(engine: &Engine, transport: &TransportState) -> Vec<u8> {
    let mut w = ByteWriter::new();

    match transport {
        TransportState::Perfect { queues } => {
            w.put_u8(0);
            put_topic_envelopes(&mut w, queues);
        }
        TransportState::Faulty { profile, rng_state, in_flight, stats } => {
            w.put_u8(1);
            w.put_f64(profile.drop_rate);
            w.put_f64(profile.duplicate_rate);
            w.put_f64(profile.reorder_rate);
            w.put_f64(profile.delay_rate);
            w.put_u64(profile.max_delay.0);
            let caps: Vec<(Topic, usize)> = crate::fault::TOPIC_ORDER
                .iter()
                .filter_map(|t| profile.bandwidth_caps.get(t).map(|c| (*t, *c)))
                .collect();
            w.put_u32(caps.len() as u32);
            for (topic, cap) in caps {
                w.put_u8(topic_tag(topic));
                w.put_u64(cap as u64);
            }
            w.put_u64(*rng_state);
            w.put_u32(in_flight.len() as u32);
            for (topic, flights) in in_flight {
                w.put_u8(topic_tag(*topic));
                w.put_u32(flights.len() as u32);
                for (envelope, due) in flights {
                    put_envelope(&mut w, envelope);
                    w.put_u64(due.0);
                }
            }
            w.put_u64(stats.dropped);
            w.put_u64(stats.duplicated);
            w.put_u64(stats.reordered);
            w.put_u64(stats.delayed);
        }
    }

    let queues: Vec<(Topic, Vec<Envelope>)> = crate::fault::TOPIC_ORDER
        .iter()
        .filter_map(|t| {
            engine.bus.queues.get(t).map(|q| (*t, q.iter().cloned().collect::<Vec<_>>()))
        })
        .collect();
    put_topic_envelopes(&mut w, &queues);

    let policies: Vec<(Topic, QueuePolicy)> = crate::fault::TOPIC_ORDER
        .iter()
        .filter_map(|t| engine.bus.policies.get(t).map(|p| (*t, *p)))
        .collect();
    w.put_u32(policies.len() as u32);
    for (topic, policy) in policies {
        w.put_u8(topic_tag(topic));
        w.put_u64(policy.capacity as u64);
        w.put_u8(match policy.overflow {
            OverflowPolicy::DropOldest => 0,
            OverflowPolicy::Reject => 1,
        });
    }

    w.put_u32(engine.bus.dead_letters.len() as u32);
    for dl in &engine.bus.dead_letters {
        w.put_u8(topic_tag(dl.topic));
        put_envelope(&mut w, &dl.envelope);
        w.put_u8(match dl.reason {
            DeadLetterReason::Overflow => 0,
            DeadLetterReason::Rejected => 1,
            DeadLetterReason::RetryBudgetExhausted => 2,
        });
        w.put_u64(dl.at.0);
    }

    w.put_u64(engine.bus.published);
    w.put_u64(engine.bus.delivered);
    w.put_u64(engine.bus.overflowed);
    w.put_u64(engine.bus.rejected);
    w.put_u64(engine.bus.next_seq);
    w.put_u64(engine.bus.clock.0);

    let mut outstanding: Vec<(u64, &OutstandingDelivery)> =
        engine.delivery.outstanding.iter().map(|(s, o)| (*s, o)).collect();
    outstanding.sort_unstable_by_key(|(s, _)| *s);
    w.put_u32(outstanding.len() as u32);
    for (seq, o) in outstanding {
        w.put_u64(seq);
        w.put_u64(o.user.0);
        put_envelope(&mut w, &o.envelope);
        w.put_u32(o.attempts);
        w.put_u64(o.next_retry_at.0);
    }
    let mut seen: Vec<u64> = engine.delivery.seen.iter().copied().collect();
    seen.sort_unstable();
    w.put_u32(seen.len() as u32);
    for s in seen {
        w.put_u64(s);
    }
    w.put_u64(engine.delivery.retries);
    w.put_u64(engine.delivery.exhausted);
    w.put_u64(engine.delivery.duplicates);

    w.put_f64(engine.unicast.failure_rate);
    w.put_u64(engine.unicast.timeout.0);
    w.put_u64(engine.unicast.mean_latency.0);
    w.put_u64(engine.unicast.rng.state());

    let injection_users = sorted_user_keys(&engine.injections.queues);
    w.put_u32(injection_users.len() as u32);
    for user in injection_users {
        if let Some(pending) = engine.injections.queues.get(&user) {
            w.put_u64(user.0);
            w.put_u32(pending.len() as u32);
            for p in pending {
                w.put_u64(p.user.0);
                w.put_u64(p.clip.0);
                w.put_u64(p.submitted_at.0);
                w.put_str(&p.note);
            }
        }
    }
    w.put_u64(engine.injections.total_submitted);
    w.put_u64(engine.injections.total_delivered);

    w.put_u64(engine.chaos_rng.state());

    w.into_inner()
}

fn decode_bus(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);

    let transport = match r.u8()? {
        0 => TransportState::Perfect { queues: get_topic_envelopes(&mut r)? },
        1 => {
            let drop_rate = r.f64()?;
            let duplicate_rate = r.f64()?;
            let reorder_rate = r.f64()?;
            let delay_rate = r.f64()?;
            let max_delay = TimeSpan(r.u64()?);
            let n = r.seq_len()?;
            let mut bandwidth_caps = HashMap::new();
            for _ in 0..n {
                let topic = topic_from_tag(r.u8()?)?;
                bandwidth_caps.insert(topic, r.u64()? as usize);
            }
            let rng_state = r.u64()?;
            let n = r.seq_len()?;
            let mut in_flight = Vec::with_capacity(n);
            for _ in 0..n {
                let topic = topic_from_tag(r.u8()?)?;
                let m = r.seq_len()?;
                let mut flights = Vec::with_capacity(m);
                for _ in 0..m {
                    let envelope = get_envelope(&mut r)?;
                    flights.push((envelope, TimePoint(r.u64()?)));
                }
                in_flight.push((topic, flights));
            }
            let stats = WireStats {
                dropped: r.u64()?,
                duplicated: r.u64()?,
                reordered: r.u64()?,
                delayed: r.u64()?,
            };
            TransportState::Faulty {
                profile: FaultProfile {
                    drop_rate,
                    duplicate_rate,
                    reorder_rate,
                    delay_rate,
                    max_delay,
                    bandwidth_caps,
                },
                rng_state,
                in_flight,
                stats,
            }
        }
        _ => return Err(PersistError::Corrupt { what: "transport tag" }),
    };
    engine.bus.transport = transport_from_state(transport);

    for (topic, envelopes) in get_topic_envelopes(&mut r)? {
        engine.bus.queues.insert(topic, envelopes.into());
    }

    let n = r.seq_len()?;
    for _ in 0..n {
        let topic = topic_from_tag(r.u8()?)?;
        let capacity = r.u64()? as usize;
        let overflow = match r.u8()? {
            0 => OverflowPolicy::DropOldest,
            1 => OverflowPolicy::Reject,
            _ => return Err(PersistError::Corrupt { what: "overflow policy tag" }),
        };
        engine.bus.policies.insert(topic, QueuePolicy { capacity, overflow });
    }

    let n = r.seq_len()?;
    let mut dead_letters = Vec::with_capacity(n);
    for _ in 0..n {
        let topic = topic_from_tag(r.u8()?)?;
        let envelope = get_envelope(&mut r)?;
        let reason = match r.u8()? {
            0 => DeadLetterReason::Overflow,
            1 => DeadLetterReason::Rejected,
            2 => DeadLetterReason::RetryBudgetExhausted,
            _ => return Err(PersistError::Corrupt { what: "dead letter reason tag" }),
        };
        dead_letters.push(DeadLetter { topic, envelope, reason, at: TimePoint(r.u64()?) });
    }
    engine.bus.dead_letters = dead_letters;

    engine.bus.published = r.u64()?;
    engine.bus.delivered = r.u64()?;
    engine.bus.overflowed = r.u64()?;
    engine.bus.rejected = r.u64()?;
    engine.bus.next_seq = r.u64()?;
    engine.bus.clock = TimePoint(r.u64()?);

    let n = r.seq_len()?;
    for _ in 0..n {
        let seq = r.u64()?;
        let user = UserId(r.u64()?);
        let envelope = get_envelope(&mut r)?;
        let attempts = r.u32()?;
        let next_retry_at = TimePoint(r.u64()?);
        engine
            .delivery
            .outstanding
            .insert(seq, OutstandingDelivery { user, envelope, attempts, next_retry_at });
    }
    let n = r.seq_len()?;
    for _ in 0..n {
        engine.delivery.seen.insert(r.u64()?);
    }
    engine.delivery.retries = r.u64()?;
    engine.delivery.exhausted = r.u64()?;
    engine.delivery.duplicates = r.u64()?;

    engine.unicast = UnicastLink {
        failure_rate: r.f64()?,
        timeout: TimeSpan(r.u64()?),
        mean_latency: TimeSpan(r.u64()?),
        rng: ChaosRng::from_state(r.u64()?),
    };

    let n = r.seq_len()?;
    let mut queues = HashMap::with_capacity(n);
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let m = r.seq_len()?;
        let mut pending = Vec::with_capacity(m);
        for _ in 0..m {
            pending.push(PendingInjection {
                user: UserId(r.u64()?),
                clip: ClipId(r.u64()?),
                submitted_at: TimePoint(r.u64()?),
                note: r.string()?,
            });
        }
        queues.insert(user, pending);
    }
    engine.injections =
        InjectionQueue { queues, total_submitted: r.u64()?, total_delivered: r.u64()? };

    engine.chaos_rng = ChaosRng::from_state(r.u64()?);

    Ok(())
}

// ---------------------------------------------------------------------
// Section 6: OBS — registry counters, gauges, histograms
// ---------------------------------------------------------------------

/// Maps a persisted metric name back to the `&'static str` key the
/// registry requires. The allowlist covers every metric the engine
/// records; anything else in a snapshot is corruption or skew.
fn static_metric_name(name: &str) -> Option<&'static str> {
    const NAMES: &[&str] = &[
        "bus.dead_letters",
        "bus.delivered",
        "bus.overflowed",
        "bus.published",
        "bus.rejected",
        "candidates.cache_misses",
        "candidates.cross_tick_hit",
        "candidates.ranked_len",
        "candidates.warm_serve",
        "candidates.warmed",
        "catalog.clips",
        "catalog.epoch",
        "delivery.duplicates",
        "delivery.duplicates_filtered",
        "delivery.fetch_failures",
        "delivery.outstanding",
        "delivery.replays",
        "delivery.retries",
        "delivery.success",
        "engine.tick_users",
        "engine.ticks",
        "health.broadcast_only",
        "health.degraded",
        "health.healthy",
        "health.stale_model_reuse",
        "health.step_down",
        "health.step_up",
        "health.transitions",
        "injection.sent",
        "proactive.empty_schedule",
        "proactive.no_candidates",
        "proactive.triggers",
        "retry.backoff_wait_s",
        "retry.exhausted",
        "retry.registered",
        "retry.resent",
        "schedule.delivered",
        "schedule.items",
        "tick.users",
        "trip.predicted",
    ];
    NAMES.iter().find(|n| **n == name).copied()
}

fn encode_obs(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bool(engine.obs.is_enabled());
    let counters: Vec<(&str, u64)> = engine.obs.counters().collect();
    w.put_u32(counters.len() as u32);
    for (name, value) in counters {
        w.put_str(name);
        w.put_u64(value);
    }
    let gauges: Vec<(&str, i64)> = engine.obs.gauges().collect();
    w.put_u32(gauges.len() as u32);
    for (name, value) in gauges {
        w.put_str(name);
        w.put_i64(value);
    }
    let histograms: Vec<(&str, &Histogram)> = engine.obs.histograms().collect();
    w.put_u32(histograms.len() as u32);
    for (name, h) in histograms {
        w.put_str(name);
        w.put_u64(h.count());
        w.put_u64(h.sum());
        let nonzero: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        w.put_u32(nonzero.len() as u32);
        for (idx, count) in nonzero {
            w.put_u32(idx as u32);
            w.put_u64(count);
        }
    }
    w.into_inner()
}

fn decode_obs(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);
    let _enabled = r.bool()?;
    let n = r.seq_len()?;
    for _ in 0..n {
        let name = r.string()?;
        let value = r.u64()?;
        let key = static_metric_name(&name).ok_or(PersistError::UnknownMetric)?;
        engine.obs.restore_counter(key, value);
    }
    let n = r.seq_len()?;
    for _ in 0..n {
        let name = r.string()?;
        let value = r.i64()?;
        let key = static_metric_name(&name).ok_or(PersistError::UnknownMetric)?;
        engine.obs.restore_gauge(key, value);
    }
    let n = r.seq_len()?;
    for _ in 0..n {
        let name = r.string()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let m = r.seq_len()?;
        let mut nonzero = Vec::with_capacity(m);
        for _ in 0..m {
            let idx = r.u32()? as usize;
            nonzero.push((idx, r.u64()?));
        }
        let key = static_metric_name(&name).ok_or(PersistError::UnknownMetric)?;
        let histogram = Histogram::from_parts(count, sum, nonzero)
            .ok_or(PersistError::Corrupt { what: "histogram buckets" })?;
        engine.obs.restore_histogram(key, histogram);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Section 7: DECISIONS — the decision audit log
// ---------------------------------------------------------------------

fn encode_decisions(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(engine.decisions.len() as u32);
    for d in &engine.decisions {
        w.put_u64(d.user.0);
        w.put_u64(d.at.0);
        w.put_u8(match d.trigger {
            Trigger::TripStarted => 0,
            Trigger::ScheduleUnderrun => 1,
        });
        put_schedule(&mut w, &d.schedule);
        w.put_f64(d.confidence);
    }
    w.into_inner()
}

fn decode_decisions(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);
    let n = r.seq_len()?;
    let mut decisions = Vec::with_capacity(n);
    for _ in 0..n {
        let user = UserId(r.u64()?);
        let at = TimePoint(r.u64()?);
        let trigger = match r.u8()? {
            0 => Trigger::TripStarted,
            1 => Trigger::ScheduleUnderrun,
            _ => return Err(PersistError::Corrupt { what: "trigger tag" }),
        };
        let schedule = get_schedule(&mut r)?;
        let confidence = r.f64()?;
        decisions.push(DecisionRecord { user, at, trigger, schedule, confidence });
    }
    engine.decisions = decisions;
    Ok(())
}
