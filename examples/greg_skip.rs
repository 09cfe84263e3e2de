//! The Greg scenario (paper §2.1.1, *manual program change*): Greg is
//! stuck with "an endless discussion about football results" on his
//! favourite channel. Instead of zapping away, he skips — and surfs a
//! list of suggested clips until he lands on something he loves.
//!
//! Run with `cargo run --example greg_skip`.

use pphcr::catalog::{CategoryId, ClipKind, Programme, ProgrammeId, ServiceIndex};
use pphcr::core::{Engine, EngineCommand, EngineConfig, EngineError, PlaybackMode};
use pphcr::geo::time::TimeInterval;
use pphcr::geo::{TimePoint, TimeSpan};
use pphcr::userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

fn main() -> Result<(), EngineError> {
    let mut engine = Engine::new(EngineConfig::default());
    let morning = TimePoint::at(0, 8, 30, 0);
    let greg = UserId(3);
    engine.apply(&EngineCommand::RegisterUser {
        profile: UserProfile {
            id: greg,
            name: "Greg".into(),
            age_band: AgeBand::Middle,
            favourite_service: ServiceIndex(0),
        },
        now: morning,
    })?;

    // The live schedule: football, wall to wall.
    engine
        .epg
        .add(Programme {
            id: ProgrammeId(1),
            service: ServiceIndex(0),
            title: "Football results, endlessly".into(),
            category: CategoryId::from_name("football").unwrap(),
            interval: TimeInterval::new(morning, morning.advance(TimeSpan::hours(2))),
        })
        .unwrap();

    // Greg's history: technology and economics, no football.
    for (cat, kind) in [
        ("technology", FeedbackKind::Like),
        ("technology", FeedbackKind::Like),
        ("economics", FeedbackKind::Like),
        ("football", FeedbackKind::Skip),
    ] {
        engine.apply(&EngineCommand::RecordFeedback {
            event: FeedbackEvent {
                user: greg,
                clip: None,
                category: CategoryId::from_name(cat).unwrap(),
                kind,
                time: morning.rewind(TimeSpan::hours(24)),
            },
        })?;
    }

    // Today's clip shelf.
    for (title, cat, minutes) in [
        ("Chip wars explained", "technology", 10),
        ("Rates and spreads", "economics", 7),
        ("Wikiradio: the transistor", "technology", 25),
        ("Cooking with chestnuts", "food", 9),
        ("Half-time analysis", "football", 6),
    ] {
        engine.apply(&EngineCommand::IngestClip {
            title: title.into(),
            kind: ClipKind::Podcast,
            duration: TimeSpan::minutes(minutes),
            published: morning.rewind(TimeSpan::hours(2)),
            geo: None,
            tokens: vec![],
            editorial: Some(CategoryId::from_name(cat).unwrap()),
        })?;
    }

    println!("On air: \"Football results, endlessly\" — Greg reaches for the skip button.\n");
    let mut now = morning;
    for attempt in 1..=3 {
        let events = engine.apply(&EngineCommand::Skip { user: greg, now })?;
        let player = engine.player(greg).unwrap();
        match player.mode() {
            PlaybackMode::Clip { clip, .. } => {
                let meta = engine.repo.get(clip.clip).unwrap();
                println!("skip #{attempt}: now playing \"{}\" [{}]", meta.title, meta.category);
                if meta.title.starts_with("Wikiradio") {
                    println!("\nGreg found \"Wikiradio\" after {attempt} skips — no channel change needed.");
                    break;
                }
            }
            other => println!("skip #{attempt}: {other:?} ({} engine events)", events.len()),
        }
        now = now.advance(TimeSpan::seconds(20));
    }

    let (skips, surfs) = engine.player(greg).unwrap().counters();
    println!("\nsession counters: skips={skips} channel_surfs={surfs}");
    println!("negative feedback recorded: {} events", engine.feedback.event_count(greg));
    let prefs = engine.feedback.preferences(greg, now);
    println!(
        "football preference after the morning: {:+.2}",
        prefs.score(CategoryId::from_name("football").unwrap())
    );
    Ok(())
}
