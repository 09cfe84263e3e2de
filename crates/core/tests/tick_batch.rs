//! Batch-tick equivalence: a batch `Engine::run_tick` must emit a
//! bit-identical event stream to ticking each user sequentially, for
//! any worker count. The parallel phase is pure memoization, so this
//! holds by construction — these tests pin the construction down.

use pphcr_audio::clip::ClipId;
use pphcr_catalog::{CategoryId, ClipKind};
use pphcr_core::{
    CacheQuanta, Engine, EngineCommand, EngineConfig, EngineEvent, PlayerEvent, TickRequest,
};
use pphcr_geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

fn profile(id: u64) -> UserProfile {
    UserProfile {
        id: UserId(id),
        name: format!("user {id}"),
        age_band: AgeBand::Adult,
        favourite_service: pphcr_catalog::ServiceIndex(0),
    }
}

/// Builds an engine with `n_users` commuters, each with seven days of
/// home→work→home history on their own bearing, plus fresh content.
/// Deterministic: two calls produce identical engines.
fn commuter_engine(n_users: u64) -> Engine {
    commuter_engine_with(n_users, EngineConfig::default()).0
}

/// Same fleet under a caller-supplied config; also hands back the
/// ingested clip ids so tests can pre-sate a listener's heard set.
fn commuter_engine_with(n_users: u64, config: EngineConfig) -> (Engine, Vec<ClipId>) {
    let mut e = Engine::new(config);
    let t0 = TimePoint::at(0, 0, 0, 0);
    for u in 1..=n_users {
        e.apply(&EngineCommand::RegisterUser { profile: profile(u), now: t0 }).unwrap();
    }
    for u in 1..=n_users {
        let home = TORINO.destination(30.0 * u as f64, 1_500.0 * u as f64);
        let bearing = 80.0 + 15.0 * u as f64;
        for day in 0..7u64 {
            let d0 = TimePoint::at(day, 0, 0, 0);
            for i in 0..90u64 {
                e.apply(&EngineCommand::RecordFix {
                    user: UserId(u),
                    fix: GpsFix::new(home, d0.advance(TimeSpan::minutes(i * 5)), 0.1),
                })
                .unwrap();
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                e.apply(&EngineCommand::RecordFix {
                    user: UserId(u),
                    fix: GpsFix::new(
                        home.destination(bearing, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                })
                .unwrap();
            }
            let work = home.destination(bearing, 9_000.0);
            for i in 0..57u64 {
                e.apply(&EngineCommand::RecordFix {
                    user: UserId(u),
                    fix: GpsFix::new(work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2),
                })
                .unwrap();
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                e.apply(&EngineCommand::RecordFix {
                    user: UserId(u),
                    fix: GpsFix::new(
                        work.destination(bearing + 180.0, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(18)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                })
                .unwrap();
            }
            for i in 0..66u64 {
                e.apply(&EngineCommand::RecordFix {
                    user: UserId(u),
                    fix: GpsFix::new(home, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1),
                })
                .unwrap();
            }
        }
    }
    let mut clips = Vec::new();
    for i in 0..20u64 {
        e.apply(&EngineCommand::IngestClip {
            title: format!("morning clip {i}"),
            kind: ClipKind::Podcast,
            duration: TimeSpan::minutes(4),
            published: TimePoint::at(7, 5, 0, 0),
            geo: None,
            tokens: vec![],
            editorial: Some(CategoryId::new((i % 7) as u16)),
        })
        .unwrap();
        clips.push(ClipId(i));
    }
    (e, clips)
}

/// Drives day-8 commutes through `step`, collecting every event.
fn run_day8<F>(e: &mut Engine, n_users: u64, mut step: F) -> Vec<EngineEvent>
where
    F: FnMut(&mut Engine, &[UserId], TimePoint) -> Vec<EngineEvent>,
{
    let users: Vec<UserId> = (1..=n_users).map(UserId).collect();
    let d8 = TimePoint::at(7, 8, 0, 0);
    let mut out = Vec::new();
    for i in 0..12u64 {
        let now = d8.advance(TimeSpan::seconds(i * 30));
        for &u in &users {
            let home = TORINO.destination(30.0 * u.0 as f64, 1_500.0 * u.0 as f64);
            let bearing = 80.0 + 15.0 * u.0 as f64;
            let frac = i as f64 / 39.0;
            e.apply(&EngineCommand::RecordFix {
                user: u,
                fix: GpsFix::new(home.destination(bearing, frac * 9_000.0), now, 7.5),
            })
            .unwrap();
        }
        out.extend(step(e, &users, now));
    }
    out
}

#[test]
fn tick_batch_matches_sequential_ticks_across_worker_counts() {
    let n = 3;
    let mut sequential = commuter_engine(n);
    let reference = run_day8(&mut sequential, n, |e, users, now| {
        let mut evs = Vec::new();
        for &u in users {
            evs.extend(e.run_tick(&TickRequest::single(&u, now)).expect("registered").events);
        }
        evs
    });
    assert!(
        reference.iter().any(|ev| matches!(ev, EngineEvent::Recommended { .. })),
        "scenario must exercise the proactive path"
    );
    for workers in [1usize, 2, 8] {
        let mut batched = commuter_engine(n);
        let events = run_day8(&mut batched, n, |e, users, now| {
            e.run_tick(&TickRequest::batch(users, now).with_workers(workers))
                .expect("registered")
                .events
        });
        assert_eq!(
            events, reference,
            "batch tick with {workers} workers diverged from sequential ticks"
        );
    }
}

#[test]
fn tick_batch_default_workers_matches_sequential() {
    let n = 2;
    let mut sequential = commuter_engine(n);
    let reference = run_day8(&mut sequential, n, |e, users, now| {
        let mut evs = Vec::new();
        for &u in users {
            evs.extend(e.run_tick(&TickRequest::single(&u, now)).expect("registered").events);
        }
        evs
    });
    let mut batched = commuter_engine(n);
    let events = run_day8(&mut batched, n, |e, users, now| {
        e.run_tick(&TickRequest::batch(users, now)).expect("registered").events
    });
    assert_eq!(events, reference);
}

/// Coarse quanta so the freshness/phase/position buckets hold across a
/// whole morning window — the regime where ranked lists can survive
/// from one tick to the next.
fn coarse_quanta_config() -> EngineConfig {
    EngineConfig {
        cache_quanta: CacheQuanta {
            freshness: TimeSpan::hours(1),
            decay: TimeSpan::hours(24),
            phase: TimeSpan::hours(1),
            position_m: 50_000.0,
        },
        ..EngineConfig::default()
    }
}

/// One churny morning window at a given worker count: three commuters
/// tick in batches for 15 minutes (past the 10-minute proactive
/// cooldown) while feedback lands mid-run, one listener skips, and
/// user 1 — who has already heard the whole catalog — re-fires onto an
/// empty shortlist with a stable cache key. Returns the full event
/// stream, the `ObsSnapshot` JSON, and the cross-tick hit counter.
fn churn_window(workers: usize) -> (Vec<EngineEvent>, String, u64) {
    let n = 3u64;
    let (mut e, clips) = commuter_engine_with(n, coarse_quanta_config());
    for &clip in &clips {
        e.apply_player_events(UserId(1), &[PlayerEvent::ClipStarted(clip)]);
    }
    let users: Vec<UserId> = (1..=n).map(UserId).collect();
    let d8 = TimePoint::at(7, 8, 0, 0);
    let mut events = Vec::new();
    for i in 0..30u64 {
        let now = d8.advance(TimeSpan::seconds(i * 30));
        for &u in &users {
            let home = TORINO.destination(30.0 * u.0 as f64, 1_500.0 * u.0 as f64);
            let bearing = 80.0 + 15.0 * u.0 as f64;
            let frac = (i as f64 / 39.0).min(1.0);
            e.apply(&EngineCommand::RecordFix {
                user: u,
                fix: GpsFix::new(home.destination(bearing, frac * 9_000.0), now, 7.5),
            })
            .unwrap();
        }
        if i == 7 {
            e.apply(&EngineCommand::RecordFeedback {
                event: FeedbackEvent {
                    user: UserId(2),
                    clip: None,
                    category: CategoryId::new(2),
                    kind: FeedbackKind::Like,
                    time: now,
                },
            })
            .unwrap();
        }
        if i == 9 {
            events.extend(e.apply(&EngineCommand::Skip { user: UserId(3), now }).unwrap());
        }
        let report = e.run_tick(&TickRequest::batch(&users, now).with_workers(workers));
        events.extend(report.expect("registered").events);
    }
    let hits = e.obs().counter("candidates.cross_tick_hit");
    (events, e.obs_snapshot().to_json(), hits)
}

#[test]
fn tick_batch_byte_identical_under_churn_with_cache_survival() {
    let (reference_events, reference_snapshot, hits) = churn_window(1);
    assert!(
        hits >= 1,
        "a fully-heard listener re-firing under coarse quanta must reuse its cached \
         (empty) ranked list across ticks; got {hits} cross-tick hits"
    );
    assert!(
        reference_events.iter().any(|ev| matches!(ev, EngineEvent::Recommended { .. })),
        "scenario must exercise the proactive path"
    );
    for workers in [2usize, 8] {
        let (events, snapshot, _) = churn_window(workers);
        assert_eq!(
            events, reference_events,
            "event stream with {workers} workers diverged from 1 worker under churn"
        );
        assert_eq!(
            snapshot, reference_snapshot,
            "ObsSnapshot JSON with {workers} workers diverged from 1 worker under churn"
        );
    }
}
