//! The control dashboard's read model (paper Figs. 5–6).
//!
//! §2.2: "The website visualizes the user's past trajectories, content
//! preference, and the details of the recommendation process … The
//! dashboard also allows manual injection of recommendations." The
//! web rendering is out of scope; the *data* behind each dashboard
//! panel is produced here, both as structured values and as plain-text
//! tables (what the examples print).

use crate::engine::Engine;
use crate::health::HealthCounts;
use pphcr_geo::{GeoPoint, TimePoint};
use pphcr_obs::Verdict;
use pphcr_userdata::UserId;
use serde::{Deserialize, Serialize};

/// The trajectory panel: recent movements and significant places
/// (Fig. 5's map, as data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectoryView {
    /// The listener.
    pub user: UserId,
    /// Most recent fixes (time, position, speed).
    pub recent: Vec<(TimePoint, GeoPoint, f64)>,
    /// Staying points: (centre, visit count, total dwell seconds).
    pub stay_points: Vec<(GeoPoint, usize, u64)>,
    /// Known routes: (origin stay, destination stay, trip count).
    pub routes: Vec<(u32, u32, usize)>,
}

/// The preference panel: the listener's ranked category profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PreferenceView {
    /// The listener.
    pub user: UserId,
    /// Categories with non-neutral scores, best first.
    pub ranked: Vec<(String, f64)>,
    /// Total feedback events behind the profile.
    pub event_count: usize,
}

/// One row of the recommendation-trace panel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionView {
    /// When the decision fired.
    pub at: TimePoint,
    /// Prediction confidence at the time.
    pub confidence: f64,
    /// Scheduled clips with start offsets (seconds) and scores.
    pub items: Vec<(u64, u64, f64)>,
    /// Fill ratio of the ΔT budget.
    pub fill_ratio: f64,
}

/// The delivery-health panel: the listener's position on the
/// graceful-degradation ladder plus resilience counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthView {
    /// The listener.
    pub user: UserId,
    /// Ladder rung, as rendered ("healthy" / "degraded" /
    /// "broadcast-only").
    pub state: String,
    /// When the rung was last entered.
    pub since: TimePoint,
    /// Unicast fetch failures or timeouts.
    pub fetch_failures: u64,
    /// Last-acknowledged schedule replays.
    pub replays: u64,
    /// Stale mobility-model reuses.
    pub stale_model_reuses: u64,
    /// Duplicate deliveries filtered.
    pub dup_deliveries: u64,
    /// Ladder transitions.
    pub transitions: u64,
}

/// The observability panel: platform-wide counters and the decision
/// trace, summarized from the engine's [`pphcr_obs::Registry`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservabilityView {
    /// Every non-zero counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Listeners per ladder rung.
    pub health: HealthCounts,
    /// Decision-trace entries currently retained.
    pub trace_len: usize,
    /// Decision-trace entries evicted by the ring bound.
    pub trace_dropped: u64,
    /// Retained trace verdicts: (scheduled, no-candidates,
    /// empty-schedule).
    pub verdicts: (u64, u64, u64),
}

/// The dashboard facade.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dashboard;

impl Dashboard {
    /// Builds the trajectory panel for a listener.
    #[must_use]
    pub fn trajectory(engine: &mut Engine, user: UserId, last_n: usize) -> TrajectoryView {
        let recent = engine
            .tracking
            .recent_fixes(user, last_n)
            .into_iter()
            .map(|f| (f.time, f.point, f.speed_mps))
            .collect();
        // An untracked user renders as an empty panel, not an error page.
        let (stay_points, mut routes): (Vec<_>, Vec<(u32, u32, usize)>) = match engine
            .tracking
            .mobility_model(user)
        {
            Ok(model) => (
                model
                    .stay_points
                    .iter()
                    .map(|s| (s.center, s.visit_count, s.total_dwell.as_seconds()))
                    .collect(),
                model.profiles.values().map(|p| (p.origin, p.destination, p.trip_count)).collect(),
            ),
            Err(_) => (Vec::new(), Vec::new()),
        };
        routes.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        TrajectoryView { user, recent, stay_points, routes }
    }

    /// Builds the preference panel for a listener.
    #[must_use]
    pub fn preferences(engine: &Engine, user: UserId, now: TimePoint) -> PreferenceView {
        let prefs = engine.feedback.preferences(user, now);
        let ranked = prefs
            .ranked()
            .into_iter()
            .filter(|(_, s)| s.abs() > 1e-6)
            .map(|(c, s)| (c.name().to_string(), s))
            .collect();
        PreferenceView { user, ranked, event_count: engine.feedback.event_count(user) }
    }

    /// Builds the recommendation-trace panel for a listener.
    #[must_use]
    pub fn decisions(engine: &Engine, user: UserId, last_n: usize) -> Vec<DecisionView> {
        engine
            .decisions()
            .iter()
            .filter(|d| d.user == user)
            .rev()
            .take(last_n)
            .map(|d| DecisionView {
                at: d.at,
                confidence: d.confidence,
                items: d.schedule.items.iter().map(|i| (i.clip.0, i.start_s, i.score)).collect(),
                fill_ratio: d.schedule.fill_ratio(),
            })
            .collect()
    }

    /// Builds the delivery-health panel for a listener (`None` for
    /// unregistered users).
    #[must_use]
    pub fn health(engine: &Engine, user: UserId) -> Option<HealthView> {
        engine.user_health(user).map(|h| HealthView {
            user,
            state: h.state().to_string(),
            since: h.since,
            fetch_failures: h.fetch_failures,
            replays: h.replays,
            stale_model_reuses: h.stale_model_reuses,
            dup_deliveries: h.dup_deliveries,
            transitions: h.transitions,
        })
    }

    /// Builds the platform-wide observability panel.
    #[must_use]
    pub fn observability(engine: &Engine) -> ObservabilityView {
        let counters = engine
            .obs()
            .counters()
            .map(|(name, value)| (name.to_string(), value))
            .filter(|&(_, v)| v > 0)
            .collect();
        let mut verdicts = (0u64, 0u64, 0u64);
        for entry in engine.obs_trace().entries() {
            match entry.verdict {
                Verdict::Scheduled => verdicts.0 += 1,
                Verdict::NoCandidates => verdicts.1 += 1,
                Verdict::EmptySchedule => verdicts.2 += 1,
            }
        }
        ObservabilityView {
            counters,
            health: engine.health_counts(),
            trace_len: engine.obs_trace().len(),
            trace_dropped: engine.obs_trace().dropped(),
            verdicts,
        }
    }

    /// Renders a compact text summary of every panel (what the demo
    /// examples print in place of the web dashboard).
    #[must_use]
    pub fn render_text(engine: &mut Engine, user: UserId, now: TimePoint) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let traj = Dashboard::trajectory(engine, user, 5);
        let prefs = Dashboard::preferences(engine, user, now);
        let decisions = Dashboard::decisions(engine, user, 5);
        let _ = writeln!(out, "== dashboard: {user} at {now} ==");
        let _ = writeln!(
            out,
            "-- trajectory: {} stay points, {} routes",
            traj.stay_points.len(),
            traj.routes.len()
        );
        for (i, (p, visits, dwell)) in traj.stay_points.iter().enumerate() {
            let _ = writeln!(out, "   stay {i}: {p} visits={visits} dwell={dwell}s");
        }
        for (o, d, n) in &traj.routes {
            let _ = writeln!(out, "   route {o}->{d}: {n} trips");
        }
        let _ = writeln!(out, "-- preferences ({} events)", prefs.event_count);
        for (name, score) in prefs.ranked.iter().take(8) {
            let _ = writeln!(out, "   {name:<14} {score:+.3}");
        }
        let _ = writeln!(out, "-- decisions ({})", decisions.len());
        for d in &decisions {
            let _ = writeln!(
                out,
                "   at {} conf={:.2} fill={:.0}% items={:?}",
                d.at,
                d.confidence,
                d.fill_ratio * 100.0,
                d.items.iter().map(|(c, s, _)| format!("clip{c}@{s}s")).collect::<Vec<_>>()
            );
        }
        let pending = engine.injections.pending(user);
        let _ = writeln!(out, "-- pending injections: {}", pending.len());
        if let Some(h) = Dashboard::health(engine, user) {
            let _ = writeln!(
                out,
                "-- health: {} (fetch failures={} replays={} stale models={} dup deliveries={})",
                h.state, h.fetch_failures, h.replays, h.stale_model_reuses, h.dup_deliveries
            );
        }
        let wire = engine.bus.wire_stats();
        let _ = writeln!(
            out,
            "-- wire: dropped={} duplicated={} reordered={} delayed={} | dead letters={} retries={}",
            wire.dropped,
            wire.duplicated,
            wire.reordered,
            wire.delayed,
            engine.bus.dead_letters().len(),
            engine.delivery.retries(),
        );
        let obs = Dashboard::observability(engine);
        let _ = writeln!(
            out,
            "-- obs: {} counters | trace {} kept / {} dropped | verdicts scheduled={} no-candidates={} empty-schedule={}",
            obs.counters.len(),
            obs.trace_len,
            obs.trace_dropped,
            obs.verdicts.0,
            obs.verdicts.1,
            obs.verdicts.2,
        );
        if let Some(banner) = engine.recovery_banner() {
            let _ = writeln!(out, "-- recovery: {banner}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, TickRequest};
    use crate::EngineCommand;
    use pphcr_audio::ClipId;
    use pphcr_catalog::{CategoryId, ClipKind, ServiceIndex};
    use pphcr_geo::TimeSpan;
    use pphcr_trajectory::GpsFix;
    use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserProfile};

    fn engine_with_user() -> Engine {
        let mut e = Engine::new(EngineConfig::default());
        e.apply(&EngineCommand::RegisterUser {
            profile: UserProfile {
                id: UserId(1),
                name: "Lilly".into(),
                age_band: AgeBand::Young,
                favourite_service: ServiceIndex(0),
            },
            now: TimePoint::at(0, 8, 0, 0),
        })
        .unwrap();
        e
    }

    #[test]
    fn preference_panel_reflects_feedback() {
        let mut e = engine_with_user();
        let t = TimePoint::at(0, 9, 0, 0);
        e.apply(&EngineCommand::RecordFeedback {
            event: FeedbackEvent {
                user: UserId(1),
                clip: None,
                category: CategoryId::new(8),
                kind: FeedbackKind::Like,
                time: t,
            },
        })
        .unwrap();
        let view = Dashboard::preferences(&e, UserId(1), t);
        assert_eq!(view.event_count, 1);
        assert_eq!(view.ranked[0].0, "wine");
        assert!(view.ranked[0].1 > 0.0);
    }

    #[test]
    fn trajectory_panel_shows_fixes() {
        let mut e = engine_with_user();
        let home = GeoPoint::new(45.0703, 7.6869);
        for i in 0..10u64 {
            e.apply(&EngineCommand::RecordFix {
                user: UserId(1),
                fix: GpsFix::new(home, TimePoint(i * 60), 0.1),
            })
            .unwrap();
        }
        let view = Dashboard::trajectory(&mut e, UserId(1), 5);
        assert_eq!(view.recent.len(), 5);
        assert_eq!(view.user, UserId(1));
    }

    #[test]
    fn decisions_empty_for_fresh_user() {
        let e = engine_with_user();
        assert!(Dashboard::decisions(&e, UserId(1), 10).is_empty());
    }

    #[test]
    fn render_text_mentions_all_panels() {
        let mut e = engine_with_user();
        let t = TimePoint::at(0, 9, 0, 0);
        e.apply(&EngineCommand::IngestClip {
            title: "x".into(),
            kind: ClipKind::Podcast,
            duration: TimeSpan::minutes(3),
            published: t,
            geo: None,
            tokens: vec![],
            editorial: Some(CategoryId::new(2)),
        })
        .unwrap();
        let clip = ClipId(0);
        e.apply(&EngineCommand::Inject { user: UserId(1), clip, at: t, note: "note".into() })
            .unwrap();
        let text = Dashboard::render_text(&mut e, UserId(1), t);
        assert!(text.contains("trajectory"));
        assert!(text.contains("preferences"));
        assert!(text.contains("decisions"));
        assert!(text.contains("pending injections: 1"));
        assert!(text.contains("-- health: healthy"));
        assert!(text.contains("-- wire: dropped=0"));
    }

    #[test]
    fn observability_panel_summarizes_counters() {
        let mut e = engine_with_user();
        let t = TimePoint::at(0, 9, 0, 0);
        e.run_tick(&TickRequest::single(&UserId(1), t)).expect("registered");
        let view = Dashboard::observability(&e);
        assert_eq!(view.health, HealthCounts { healthy: 1, degraded: 0, broadcast_only: 0 });
        assert!(
            view.counters.iter().any(|(name, v)| name == "engine.ticks" && *v == 1),
            "tick counter missing: {:?}",
            view.counters
        );
        let text = Dashboard::render_text(&mut e, UserId(1), t);
        assert!(text.contains("-- obs:"));
    }

    #[test]
    fn health_panel_for_unregistered_user_is_none() {
        let e = engine_with_user();
        assert!(Dashboard::health(&e, UserId(99)).is_none());
        assert!(Dashboard::health(&e, UserId(1)).is_some());
    }
}
