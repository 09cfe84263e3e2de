//! # PPHCR — Proactive Personalized Hybrid Content Radio
//!
//! A from-scratch Rust reproduction of *Context-Aware Proactive
//! Personalization of Linear Audio Content* (Casagranda, Sapino,
//! Candan — EDBT 2017): a platform that enriches linear broadcast radio
//! by proactively replacing parts of the live stream with audio clips
//! relevant to the listener's context — location, trajectory, speed,
//! time and learned preferences.
//!
//! This crate is the facade: it re-exports the platform crates under
//! one roof. Start with [`core::Engine`] for the integrated platform,
//! or use the layers directly:
//!
//! * [`geo`] — coordinates, spatial index, road networks,
//! * [`trajectory`] — DBSCAN staying points, RDP simplification,
//!   destination & ΔT prediction,
//! * [`audio`] — deterministic PCM substrate: splicing, time-shift,
//! * [`nlp`] — tokenizer, naive Bayes classifier, simulated ASR,
//! * [`catalog`] — services, EPG, clip metadata, content repository,
//! * [`userdata`] — profiles, feedback learning, tracking store,
//! * [`recommender`] — compound scoring, the proactivity model, the ΔT
//!   slot scheduler,
//! * [`obs`] — deterministic counters, histograms, spans and the
//!   decision trace,
//! * [`core`] — the engine, replacement planner, player, injection,
//!   network-cost model, dashboard,
//! * [`sim`] — the synthetic world and the experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use pphcr::audio::ClipId;
//! use pphcr::catalog::{CategoryId, ClipKind, ServiceIndex};
//! use pphcr::core::{Engine, EngineCommand, EngineConfig};
//! use pphcr::geo::{TimePoint, TimeSpan};
//! use pphcr::userdata::{AgeBand, UserId, UserProfile};
//!
//! // Every change to the engine is an `EngineCommand` passed to
//! // `Engine::apply`, the same commands the write-ahead log records.
//! let mut engine = Engine::new(EngineConfig::default());
//! let now = TimePoint::at(0, 9, 0, 0);
//! let profile = UserProfile {
//!     id: UserId(1),
//!     name: "Greg".into(),
//!     age_band: AgeBand::Adult,
//!     favourite_service: ServiceIndex(0),
//! };
//! engine.apply(&EngineCommand::RegisterUser { profile, now })?;
//! engine.apply(&EngineCommand::IngestClip {
//!     title: "Tech news".into(),
//!     kind: ClipKind::Podcast,
//!     duration: TimeSpan::minutes(5),
//!     published: now,
//!     geo: None,
//!     tokens: vec![],
//!     editorial: Some(CategoryId::from_name("technology").unwrap()),
//! })?;
//! // Greg skips the live football talk: the platform reacts with a
//! // personalized clip instead of losing him to another station.
//! let events = engine.apply(&EngineCommand::Skip { user: UserId(1), now })?;
//! assert!(!events.is_empty());
//! // Clip ids are dense in ingest order: the first clip is `ClipId(0)`.
//! assert!(engine.heard(UserId(1)).contains(&ClipId(0)));
//! # Ok::<(), pphcr::core::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use pphcr_audio as audio;
pub use pphcr_catalog as catalog;
pub use pphcr_core as core;
pub use pphcr_geo as geo;
pub use pphcr_nlp as nlp;
pub use pphcr_obs as obs;
pub use pphcr_recommender as recommender;
pub use pphcr_sim as sim;
pub use pphcr_trajectory as trajectory;
pub use pphcr_userdata as userdata;
