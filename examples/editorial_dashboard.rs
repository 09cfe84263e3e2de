//! The control dashboard walkthrough (paper §2.2, Figs. 5–6): an
//! editor watches a listener's trajectories and preferences, then
//! manually injects a recommendation and watches it take precedence.
//!
//! Run with `cargo run --example editorial_dashboard`.

use pphcr::audio::ClipId;
use pphcr::catalog::{CategoryId, ClipKind, Gazetteer, ServiceIndex};
use pphcr::core::{
    Dashboard, Engine, EngineCommand, EngineConfig, EngineError, PlaybackMode, TickRequest,
};
use pphcr::geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr::trajectory::GpsFix;
use pphcr::userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

fn main() -> Result<(), EngineError> {
    let center = GeoPoint::new(45.0703, 7.6869);
    // The gazetteer feeds geo estimation of untagged archive clips
    // (the paper's future-work feature); like every mutation it is
    // attached through `Engine::apply`.
    let mut gazetteer = Gazetteer::new();
    gazetteer.add_place("fairground", center.destination(45.0, 4_000.0), 1_200.0);
    let mut engine = Engine::new(EngineConfig::default());
    engine.apply(&EngineCommand::SetGazetteer { gazetteer })?;
    let listener = UserId(42);
    let t0 = TimePoint::at(0, 7, 0, 0);
    engine.apply(&EngineCommand::RegisterUser {
        profile: UserProfile {
            id: listener,
            name: "Trial listener".into(),
            age_band: AgeBand::Adult,
            favourite_service: ServiceIndex(1),
        },
        now: t0,
    })?;

    // The listener moves around town and reacts to content for a few
    // hours — the raw material of the dashboard panels.
    for i in 0..40u64 {
        let p = center.destination((i * 25) as f64 % 360.0, (i % 7) as f64 * 900.0);
        engine.apply(&EngineCommand::RecordFix {
            user: listener,
            fix: GpsFix::new(p, t0.advance(TimeSpan::minutes(i * 3)), 6.0),
        })?;
    }
    for (cat, kind) in [
        ("history", FeedbackKind::Like),
        ("history", FeedbackKind::Like),
        ("science", FeedbackKind::ListenedThrough),
        ("football", FeedbackKind::Skip),
        ("football", FeedbackKind::Skip),
    ] {
        engine.apply(&EngineCommand::RecordFeedback {
            event: FeedbackEvent {
                user: listener,
                clip: None,
                category: CategoryId::from_name(cat).unwrap(),
                kind,
                time: t0.advance(TimeSpan::hours(1)),
            },
        })?;
    }

    // Archive ingest with gazetteer-based geo estimation: the
    // transcript mentions the fairground twice, so the clip is tagged
    // there automatically.
    let tokens: Vec<String> =
        "storia della città vista dal fairground il fairground compie cento anni"
            .split_whitespace()
            .map(str::to_string)
            .collect();
    engine.apply(&EngineCommand::IngestClip {
        title: "One hundred years of the fairground".into(),
        kind: ClipKind::Podcast,
        duration: TimeSpan::minutes(9),
        published: t0,
        geo: None,
        tokens,
        editorial: Some(CategoryId::from_name("history").unwrap()),
    })?;
    // Clip ids are dense in ingest order: the first clip is `ClipId(0)`.
    let geo_clip = ClipId(0);
    let meta = engine.repo.get(geo_clip).unwrap();
    println!(
        "archive clip ingested: category={}, geo tag estimated: {}",
        meta.category,
        meta.geo.is_some()
    );

    // Some organic content too.
    for (title, c) in [("Science hour", "science"), ("Derby recap", "football")] {
        engine.apply(&EngineCommand::IngestClip {
            title: title.into(),
            kind: ClipKind::Podcast,
            duration: TimeSpan::minutes(6),
            published: t0,
            geo: None,
            tokens: vec![],
            editorial: Some(CategoryId::from_name(c).unwrap()),
        })?;
    }

    // --- Fig. 5: the dashboard panels -------------------------------
    let now = t0.advance(TimeSpan::hours(3));
    println!("\n{}", Dashboard::render_text(&mut engine, listener, now));

    // --- Fig. 6: manual injection ------------------------------------
    println!("editor injects \"One hundred years of the fairground\" to {listener}…");
    engine.apply(&EngineCommand::Inject {
        user: listener,
        clip: geo_clip,
        at: now,
        note: "trial: test geo clip on this listener".into(),
    })?;
    println!("pending injections now: {}", engine.injections.pending(listener).len());
    let report =
        engine.run_tick(&TickRequest::single(&listener, now.advance(TimeSpan::seconds(30))))?;
    for e in &report.events {
        println!("engine: {e:?}");
    }
    // The injected clip plays next, ahead of anything organic.
    engine.apply(&EngineCommand::AdvancePlayer {
        user: listener,
        now: now.advance(TimeSpan::minutes(1)),
    })?;
    match engine.player(listener).unwrap().mode() {
        PlaybackMode::Clip { clip, .. } => {
            println!(
                "listener now hears: \"{}\" (the injected clip: {})",
                engine.repo.get(clip.clip).unwrap().title,
                clip.clip == geo_clip
            );
        }
        other => println!("unexpected mode: {other:?}"),
    }
    println!(
        "\n{}",
        Dashboard::render_text(&mut engine, listener, now.advance(TimeSpan::minutes(2)))
    );
    Ok(())
}
