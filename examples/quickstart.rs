//! Quickstart: stand up the PPHCR platform, ingest content, register a
//! listener, and get a personalized reaction to a skip.
//!
//! Run with `cargo run --example quickstart`.

use pphcr::catalog::{CategoryId, ClipKind, ServiceIndex};
use pphcr::core::{Engine, EngineCommand, EngineConfig, EngineError, PlaybackMode};
use pphcr::geo::{TimePoint, TimeSpan};
use pphcr::userdata::{AgeBand, FeedbackKind, UserId, UserProfile};

fn main() -> Result<(), EngineError> {
    let mut engine = Engine::new(EngineConfig::default());
    let now = TimePoint::at(0, 9, 0, 0);

    // A listener tunes in to service 0 (its live stream plus metadata
    // would come from the broadcaster; here they are simulated).
    let greg = UserId(1);
    engine.apply(&EngineCommand::RegisterUser {
        profile: UserProfile {
            id: greg,
            name: "Greg".into(),
            age_band: AgeBand::Adult,
            favourite_service: ServiceIndex(0),
        },
        now,
    })?;

    // The morning's podcast batch arrives (editorially labelled here;
    // see the `nlp` crate for the ASR + Bayes classification path).
    for (title, cat, minutes) in [
        ("Startup stories", "technology", 12),
        ("Market brief", "economics", 4),
        ("Derby preview", "football", 9),
        ("Prosecco tasting", "wine", 15),
    ] {
        let category = CategoryId::from_name(cat).expect("known category");
        engine.apply(&EngineCommand::IngestClip {
            title: title.into(),
            kind: ClipKind::Podcast,
            duration: TimeSpan::minutes(minutes),
            published: now,
            geo: None,
            tokens: vec![],
            editorial: Some(category),
        })?;
    }

    // Greg has taught the platform something about himself already.
    for (cat, kind) in [
        ("technology", FeedbackKind::Like),
        ("economics", FeedbackKind::Like),
        ("football", FeedbackKind::Dislike),
    ] {
        engine.apply(&EngineCommand::RecordFeedback {
            event: pphcr::userdata::FeedbackEvent {
                user: greg,
                clip: None,
                category: CategoryId::from_name(cat).unwrap(),
                kind,
                time: now,
            },
        })?;
    }

    // Endless football talk on the live programme — Greg skips.
    let events = engine.apply(&EngineCommand::Skip { user: greg, now })?;
    println!("engine events after skip: {events:#?}");

    let player = engine.player(greg).expect("registered");
    match player.mode() {
        PlaybackMode::Clip { clip, .. } => {
            let meta = engine.repo.get(clip.clip).unwrap();
            println!("now playing: \"{}\" [{}] ({})", meta.title, meta.category, meta.duration);
            assert_ne!(meta.category, CategoryId::from_name("football").unwrap());
        }
        other => println!("player mode: {other:?}"),
    }
    println!("clips queued behind it: {}", player.queue_len());

    // Everything the platform just did left a deterministic trail in
    // the observability registry.
    let snapshot = engine.obs_snapshot();
    println!(
        "obs: {} bus messages delivered, {} decision trace entr(ies) kept",
        snapshot.gauge("bus.delivered").unwrap_or(0),
        engine.obs_trace().len(),
    );
    Ok(())
}
