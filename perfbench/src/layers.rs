//! Shadow calls of the traced run: per-layer work re-measured from
//! outside, by timing the layers' public functions on the same inputs
//! the engine just used.
//!
//! * trajectory — for each ticked listener whose fix count moved since
//!   their model was last built and who is driving (the engine builds
//!   models for driving listeners only; "driving" follows the tracking
//!   pump's rule: a fix above 2.5 m/s starts a trip, one below 1 m/s
//!   ends it), a shadow `MobilityModel::build` over their trace. Traces
//!   are rebuilt here from the commands sent, so the sharded deployment
//!   is covered too;
//! * recommender — for each listener whose proactive loop fired in the
//!   tick (read off the decision trace), the context from
//!   `Engine::context_for`, then shadow retrieval
//!   (`candidates_indexed_excluding_stats`) and packing
//!   (`SchedulerConfig::pack`). In-process deployments only: an agent's
//!   engine is not reachable from the router.

use crate::gen::ORIGIN;
use pphcr_core::{Engine, EngineCommand};
use pphcr_geo::{GeoPoint, LocalProjection, TimePoint};
use pphcr_obs::timing::stopwatch;
use pphcr_trajectory::model::ModelConfig;
use pphcr_trajectory::{MobilityModel, Trace};
use pphcr_userdata::UserId;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Shadow-call tallies of one traced window.
#[derive(Debug)]
pub struct Probe {
    traces: HashMap<UserId, Trace>,
    dirty: BTreeSet<UserId>,
    driving: BTreeSet<UserId>,
    proj: LocalProjection,
    config: ModelConfig,
    decisions_seen: u64,
    /// Fixes sent so far (setup included): the tracking working set.
    pub fixes: u64,
    /// Feedback events sent so far (setup included).
    pub feedback: u64,
    /// Window: ticked, driving listeners whose model had to be rebuilt.
    pub model_builds: u64,
    /// Window: fixes those rebuilds compacted.
    pub build_fixes: u64,
    /// Window: shadow build time, ns.
    pub build_ns: u64,
    /// Window: shadow retrieval time, ns.
    pub retrieve_ns: u64,
    /// Window: shadow packing time, ns.
    pub pack_ns: u64,
}

impl Probe {
    /// An empty probe.
    #[must_use]
    pub fn new() -> Self {
        Probe {
            traces: HashMap::new(),
            dirty: BTreeSet::new(),
            driving: BTreeSet::new(),
            proj: LocalProjection::new(GeoPoint::new(ORIGIN.0, ORIGIN.1)),
            config: ModelConfig::default(),
            decisions_seen: 0,
            fixes: 0,
            feedback: 0,
            model_builds: 0,
            build_fixes: 0,
            build_ns: 0,
            retrieve_ns: 0,
            pack_ns: 0,
        }
    }

    /// Records what `cmd` sends, before it is applied.
    pub fn observe(&mut self, cmd: &EngineCommand) {
        match cmd {
            EngineCommand::RecordFix { user, fix } => {
                self.traces.entry(*user).or_default().push(*fix);
                self.dirty.insert(*user);
                if fix.speed_mps > 2.5 {
                    self.driving.insert(*user);
                } else if fix.speed_mps < 1.0 {
                    self.driving.remove(user);
                }
                self.fixes += 1;
            }
            EngineCommand::RecordFeedback { .. } => self.feedback += 1,
            _ => {}
        }
    }

    /// Marks where the decision trace stands before a tick.
    pub fn before_tick(&mut self, engine: Option<&Engine>) {
        if let Some(engine) = engine {
            let trace = engine.obs_trace();
            self.decisions_seen = trace.len() as u64 + trace.dropped();
        }
    }

    /// After a tick over `users` at `now`: with `shadow`, re-runs the
    /// model builds and the triggered retrievals; without it (setup),
    /// only marks the rebuilt models current.
    pub fn after_tick(
        &mut self,
        users: &[UserId],
        now: TimePoint,
        engine: Option<&mut Engine>,
        shadow: bool,
    ) {
        for user in users {
            if !self.driving.contains(user) || !self.dirty.remove(user) || !shadow {
                continue;
            }
            let Some(trace) = self.traces.get(user) else { continue };
            let sw = stopwatch();
            let model = MobilityModel::build(trace, &self.proj, &self.config);
            self.build_ns += sw.elapsed_ns();
            std::hint::black_box(model);
            self.model_builds += 1;
            self.build_fixes += trace.len() as u64;
        }
        let Some(engine) = engine.filter(|_| shadow) else { return };
        let trace = engine.obs_trace();
        let total = trace.len() as u64 + trace.dropped();
        let fresh = usize::try_from(total - self.decisions_seen).unwrap_or(usize::MAX);
        let skip = trace.len().saturating_sub(fresh);
        let triggered: Vec<UserId> = trace.entries().skip(skip).map(|e| UserId(e.user)).collect();
        for user in triggered {
            let ctx = engine.context_for(user, now);
            let prefs = engine.feedback.preferences(user, now);
            let heard: HashSet<_> = engine.heard(user).into_iter().collect();
            let recommender = &engine.recommender;
            let sw = stopwatch();
            let (ranked, _) = recommender.filter.candidates_indexed_excluding_stats(
                &engine.repo,
                &prefs,
                &ctx,
                &recommender.weights,
                &heard,
            );
            self.retrieve_ns += sw.elapsed_ns();
            if let Some(drive) = ctx.drive.as_ref() {
                let sw = stopwatch();
                let schedule = recommender.scheduler.pack(&ranked, drive, now);
                self.pack_ns += sw.elapsed_ns();
                std::hint::black_box(schedule);
            }
        }
    }
}
