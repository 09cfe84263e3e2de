//! End-to-end integration tests: the paper's two demonstration
//! scenarios (§2.1) plus the full ingest pipeline, exercised through
//! the public facade only.

use pphcr::audio::ClipId;
use pphcr::catalog::{CategoryId, ClipKind, Programme, ProgrammeId, ServiceIndex};
use pphcr::core::{Engine, EngineCommand, EngineConfig, EngineEvent, PlaybackMode, TickRequest};
use pphcr::geo::time::TimeInterval;
use pphcr::geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr::nlp::{AsrConfig, SimulatedAsr};
use pphcr::trajectory::GpsFix;
use pphcr::userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

fn register(engine: &mut Engine, id: u64, service: u32, now: TimePoint) -> UserId {
    let user = UserId(id);
    engine
        .apply(&EngineCommand::RegisterUser {
            profile: UserProfile {
                id: user,
                name: format!("user {id}"),
                age_band: AgeBand::Adult,
                favourite_service: ServiceIndex(service),
            },
            now,
        })
        .unwrap();
    user
}

/// §2.1.1 — Manual program change: Greg skips football and reaches a
/// technology programme within two skips; the skips become negative
/// feedback.
#[test]
fn greg_manual_program_change() {
    let mut engine = Engine::new(EngineConfig::default());
    let now = TimePoint::at(0, 8, 30, 0);
    let greg = register(&mut engine, 1, 0, now);
    engine
        .epg
        .add(Programme {
            id: ProgrammeId(1),
            service: ServiceIndex(0),
            title: "Football talk".into(),
            category: CategoryId::from_name("football").unwrap(),
            interval: TimeInterval::new(now, now.advance(TimeSpan::hours(2))),
        })
        .unwrap();
    for _ in 0..3 {
        engine
            .apply(&EngineCommand::RecordFeedback {
                event: FeedbackEvent {
                    user: greg,
                    clip: None,
                    category: CategoryId::from_name("technology").unwrap(),
                    kind: FeedbackKind::Like,
                    time: now.rewind(TimeSpan::hours(12)),
                },
            })
            .unwrap();
    }
    for (title, cat) in [("tech one", "technology"), ("tech two", "technology"), ("cucina", "food")]
    {
        engine
            .apply(&EngineCommand::IngestClip {
                title: title.into(),
                kind: ClipKind::Podcast,
                duration: TimeSpan::minutes(8),
                published: now.rewind(TimeSpan::hours(3)),
                geo: None,
                tokens: vec![],
                editorial: Some(CategoryId::from_name(cat).unwrap()),
            })
            .unwrap();
    }
    // First skip leaves the live programme.
    engine.apply(&EngineCommand::Skip { user: greg, now }).unwrap();
    let first = match engine.player(greg).unwrap().mode() {
        PlaybackMode::Clip { clip, .. } => clip.clip,
        other => panic!("expected a clip after skip, got {other:?}"),
    };
    let first_meta = engine.repo.get(first).unwrap();
    assert_eq!(first_meta.category, CategoryId::from_name("technology").unwrap());
    // The football skip was recorded as negative feedback.
    let prefs = engine.feedback.preferences(greg, now.advance(TimeSpan::minutes(1)));
    assert!(prefs.score(CategoryId::from_name("football").unwrap()) < 0.0);
    // A second skip moves to the next suggestion, not to channel surf.
    engine
        .apply(&EngineCommand::Skip { user: greg, now: now.advance(TimeSpan::seconds(30)) })
        .unwrap();
    assert!(matches!(engine.player(greg).unwrap().mode(), PlaybackMode::Clip { .. }));
    let (skips, surfs) = engine.player(greg).unwrap().counters();
    assert_eq!(skips, 2);
    assert_eq!(surfs, 0);
}

/// §2.1.2 — Contextual proactive recommendation: after a week of
/// commutes the engine predicts Lilly's trip and proactively queues
/// clips matched to her tastes; the player plays them and live radio
/// resumes time-shifted.
#[test]
fn lilly_proactive_morning() {
    let mut engine = Engine::new(EngineConfig::default());
    let lilly = register(&mut engine, 7, 2, TimePoint::EPOCH);
    let home = GeoPoint::new(45.0703, 7.6869);
    let work = home.destination(80.0, 9_000.0);
    for day in 0..7u64 {
        let d0 = TimePoint::at(day, 0, 0, 0);
        for i in 0..90 {
            engine
                .apply(&EngineCommand::RecordFix {
                    user: lilly,
                    fix: GpsFix::new(home, d0.advance(TimeSpan::minutes(i * 5)), 0.1),
                })
                .unwrap();
        }
        for i in 0..40u64 {
            let frac = i as f64 / 39.0;
            engine
                .apply(&EngineCommand::RecordFix {
                    user: lilly,
                    fix: GpsFix::new(
                        home.destination(80.0, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                })
                .unwrap();
        }
        for i in 0..57 {
            engine
                .apply(&EngineCommand::RecordFix {
                    user: lilly,
                    fix: GpsFix::new(work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2),
                })
                .unwrap();
        }
        for i in 0..40u64 {
            let frac = i as f64 / 39.0;
            engine
                .apply(&EngineCommand::RecordFix {
                    user: lilly,
                    fix: GpsFix::new(
                        work.destination(260.0, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(18)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                })
                .unwrap();
        }
        for i in 0..66 {
            engine
                .apply(&EngineCommand::RecordFix {
                    user: lilly,
                    fix: GpsFix::new(home, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1),
                })
                .unwrap();
        }
    }
    let warm = TimePoint::at(6, 20, 0, 0);
    for cat in ["food", "wine"] {
        for _ in 0..3 {
            engine
                .apply(&EngineCommand::RecordFeedback {
                    event: FeedbackEvent {
                        user: lilly,
                        clip: None,
                        category: CategoryId::from_name(cat).unwrap(),
                        kind: FeedbackKind::Like,
                        time: warm,
                    },
                })
                .unwrap();
        }
    }
    let morning = TimePoint::at(7, 6, 0, 0);
    for (title, cat, minutes) in [
        ("Decanter", "wine", 6),
        ("Kitchen", "food", 8),
        ("Football", "football", 10),
        ("News", "national-news", 3),
    ] {
        engine
            .apply(&EngineCommand::IngestClip {
                title: title.into(),
                kind: ClipKind::Podcast,
                duration: TimeSpan::minutes(minutes),
                published: morning,
                geo: None,
                tokens: vec![],
                editorial: Some(CategoryId::from_name(cat).unwrap()),
            })
            .unwrap();
    }
    // The drive starts; within a few minutes the engine must recommend.
    let depart = TimePoint::at(7, 8, 0, 0);
    let mut schedule = None;
    for i in 0..12u64 {
        let now = depart.advance(TimeSpan::seconds(i * 30));
        let frac = i as f64 / 39.0;
        engine
            .apply(&EngineCommand::RecordFix {
                user: lilly,
                fix: GpsFix::new(home.destination(80.0, frac * 9_000.0), now, 7.5),
            })
            .unwrap();
        for ev in engine.run_tick(&TickRequest::single(&lilly, now)).expect("registered").events {
            if let EngineEvent::Recommended { schedule: s, .. } = ev {
                schedule = Some(s);
            }
        }
        if schedule.is_some() {
            break;
        }
    }
    let schedule = schedule.expect("proactive recommendation fired");
    assert!(schedule.is_well_formed());
    assert!(!schedule.items.is_empty());
    // Her liked categories dominate the schedule.
    let liked: Vec<CategoryId> =
        ["wine", "food"].iter().map(|c| CategoryId::from_name(c).unwrap()).collect();
    let liked_items = schedule
        .items
        .iter()
        .filter(|i| liked.contains(&engine.repo.get(i.clip).unwrap().category))
        .count();
    assert!(liked_items * 2 >= schedule.items.len(), "schedule favours her tastes");
    // Playing the queue accumulates displacement → shifted live resume.
    let mut now = depart.advance(TimeSpan::minutes(6));
    engine.apply(&EngineCommand::AdvancePlayer { user: lilly, now }).unwrap();
    for _ in 0..60 {
        now = now.advance(TimeSpan::minutes(1));
        engine.apply(&EngineCommand::AdvancePlayer { user: lilly, now }).unwrap();
    }
    let player = engine.player(lilly).unwrap();
    assert!(matches!(player.mode(), PlaybackMode::Shifted | PlaybackMode::Live));
    if player.mode() == PlaybackMode::Shifted {
        assert!(!player.displacement().is_zero());
    }
}

/// Fig. 3 pipeline: scripts → simulated ASR → classification → catalog
/// → recommendation, at paper scale (30 categories).
#[test]
fn ingest_pipeline_classifies_and_recommends() {
    let mut engine = Engine::new(EngineConfig::default());
    let now = TimePoint::at(0, 6, 0, 0);
    // Train with clean editorial scripts: 6 docs per category, each
    // with a distinctive vocabulary.
    for c in CategoryId::all() {
        for k in 0..6 {
            let tokens: Vec<String> =
                (0..40).map(|w| format!("{}tok{}", c.name(), (w + k * 7) % 25)).collect();
            engine.apply(&EngineCommand::TrainClassifier { category: c, tokens }).unwrap();
        }
    }
    // Ingest noisy transcripts without labels.
    let mut asr = SimulatedAsr::new(AsrConfig { wer: 0.2, seed: 3, ..Default::default() });
    let mut correct = 0;
    for (n, c) in CategoryId::all().enumerate() {
        let script: Vec<String> = (0..60).map(|w| format!("{}tok{}", c.name(), w % 25)).collect();
        let noisy = asr.transcribe(&script, &[]);
        engine
            .apply(&EngineCommand::IngestClip {
                title: format!("{c} bulletin"),
                kind: ClipKind::NewsBulletin,
                duration: TimeSpan::minutes(4),
                published: now,
                geo: None,
                tokens: noisy,
                editorial: None,
            })
            .unwrap();
        // Clip ids are dense in ingest order: this is the n-th clip.
        if engine.repo.get(ClipId(n as u64)).unwrap().category == c {
            correct += 1;
        }
    }
    assert!(correct >= 27, "classification through ASR noise: {correct}/30");
    assert_eq!(engine.repo.len(), 30);
    // A listener who likes wine gets wine-led recommendations.
    let user = register(&mut engine, 5, 0, now);
    for _ in 0..3 {
        engine
            .apply(&EngineCommand::RecordFeedback {
                event: FeedbackEvent {
                    user,
                    clip: None,
                    category: CategoryId::from_name("wine").unwrap(),
                    kind: FeedbackKind::Like,
                    time: now,
                },
            })
            .unwrap();
    }
    engine.apply(&EngineCommand::Skip { user, now: now.advance(TimeSpan::hours(1)) }).unwrap();
    let playing = match engine.player(user).unwrap().mode() {
        PlaybackMode::Clip { clip, .. } => clip.clip,
        other => panic!("expected clip, got {other:?}"),
    };
    assert_eq!(engine.repo.get(playing).unwrap().category, CategoryId::from_name("wine").unwrap());
}

/// Editorial injection (Fig. 6) outranks organic recommendations and
/// flows through the bus.
#[test]
fn editorial_injection_preempts_organic() {
    let mut engine = Engine::new(EngineConfig::default());
    let now = TimePoint::at(0, 10, 0, 0);
    let user = register(&mut engine, 9, 0, now);
    // Strongly liked organic content.
    for _ in 0..3 {
        engine
            .apply(&EngineCommand::RecordFeedback {
                event: FeedbackEvent {
                    user,
                    clip: None,
                    category: CategoryId::new(9),
                    kind: FeedbackKind::Like,
                    time: now,
                },
            })
            .unwrap();
    }
    for i in 0..4u64 {
        engine
            .apply(&EngineCommand::IngestClip {
                title: format!("organic {i}"),
                kind: ClipKind::Podcast,
                duration: TimeSpan::minutes(5),
                published: now,
                geo: None,
                tokens: vec![],
                editorial: Some(CategoryId::new(9)),
            })
            .unwrap();
    }
    engine
        .apply(&EngineCommand::IngestClip {
            title: "editor's pick".into(),
            kind: ClipKind::Podcast,
            duration: TimeSpan::minutes(3),
            published: now,
            geo: None,
            tokens: vec![],
            editorial: Some(CategoryId::new(21)), // a category the user never liked
        })
        .unwrap();
    let pushed = ClipId(4); // after the four organic clips
    engine
        .apply(&EngineCommand::Inject {
            user,
            clip: pushed,
            at: now,
            note: "from the dashboard".into(),
        })
        .unwrap();
    let _ = engine.run_tick(&TickRequest::single(&user, now.advance(TimeSpan::seconds(10))));
    // The injected clip plays before any organic one.
    engine
        .apply(&EngineCommand::AdvancePlayer { user, now: now.advance(TimeSpan::seconds(20)) })
        .unwrap();
    let mode = engine.player(user).unwrap().mode();
    assert!(matches!(mode, PlaybackMode::Clip { clip, .. } if clip.clip == pushed), "{mode:?}");
}
