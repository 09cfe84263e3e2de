//! The engine mutation surface.
//!
//! [`EngineCommand`] is the one shape every externally driven engine
//! mutation takes, and [`Engine::apply`](crate::Engine::apply) is the
//! one public way to execute it. The paper's platform is a single
//! pipeline fed by a closed set of inputs (registrations, GPS fixes,
//! feedback, clip ingests, editorial pushes); this enum is that set,
//! plus the ticks that step the pipeline and the environment maps it
//! reads.
//!
//! Three consumers carry commands without knowing what they do: the
//! durable write-ahead path (`DurableEngine`), WAL replay
//! (`restore_engine`) and the `pphcr-shard` router. All three use one
//! binary codec in [`persist::wal`](crate::persist::wal), the same
//! `[seq][kind][body]` payload whether the bytes go to a WAL file or a
//! shard agent's stdin. Because the set is closed and has no second
//! spelling, replaying a command log reproduces the engine bit-for-bit,
//! which the crash-recovery sweep and the shard differential both pin.

use crate::bearer::CoverageMap;
use pphcr_audio::ClipId;
use pphcr_catalog::{CategoryId, ClipKind, Gazetteer, GeoTag, ServiceIndex};
use pphcr_geo::{RoadNetwork, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{FeedbackEvent, UserId, UserProfile};

/// One engine mutation. The set is closed: every externally-driven
/// mutation of the engine flows through exactly one of these (via
/// [`Engine::apply`](crate::Engine::apply)), so a replayed command log
/// reproduces the engine bit-for-bit and a shard router can forward
/// commands without knowing what they do.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineCommand {
    /// Registers (or re-registers) a listener: stores the profile and
    /// opens a player session on the listener's favourite service.
    RegisterUser {
        /// The listener profile being registered (or re-registered).
        profile: UserProfile,
        /// Logical time of the registration.
        now: TimePoint,
    },
    /// Channel surf: tunes the listener to another service, closing
    /// the current listening session as surfed.
    ChangeService {
        /// The listener switching service.
        user: UserId,
        /// Target service index in the line-up.
        service: ServiceIndex,
        /// Logical time of the switch.
        now: TimePoint,
    },
    /// Trains the clip classifier with one labelled document.
    TrainClassifier {
        /// Category the document is labelled with.
        category: CategoryId,
        /// Transcript tokens of the training document.
        tokens: Vec<String>,
    },
    /// Ingests a clip: classifies the transcript (unless an editorial
    /// label is given), stores metadata and audio, and announces it on
    /// the bus. Clip ids are dense in ingest order: the n-th ingest
    /// files `ClipId(n)`, and a restored engine continues the sequence.
    IngestClip {
        /// Clip title.
        title: String,
        /// Clip kind.
        kind: ClipKind,
        /// Clip duration.
        duration: TimeSpan,
        /// Publication time.
        published: TimePoint,
        /// Optional geo-reference.
        geo: Option<GeoTag>,
        /// Transcript tokens.
        tokens: Vec<String>,
        /// Editorial category override, if any.
        editorial: Option<CategoryId>,
    },
    /// Records a GPS fix from a listener's device. The fix rides the
    /// bus's Tracking topic, so a faulty transport may lose or delay it.
    RecordFix {
        /// The listener the fix belongs to.
        user: UserId,
        /// The GPS fix.
        fix: GpsFix,
    },
    /// Records a feedback event. Like fixes, feedback rides the bus and
    /// is learned from once it arrives.
    RecordFeedback {
        /// The feedback event.
        event: FeedbackEvent,
    },
    /// Editor-side injection (the Fig. 6 dashboard action): queues a
    /// clip for the listener's next tick, which delivers it ahead of
    /// organic recommendations.
    Inject {
        /// Target listener.
        user: UserId,
        /// Clip to inject.
        clip: ClipId,
        /// Submission time.
        at: TimePoint,
        /// Editor's note.
        note: String,
    },
    /// Manual skip (the Greg scenario): negative feedback for what is
    /// playing, after refilling an empty queue with reactive
    /// recommendations.
    Skip {
        /// The listener pressing skip.
        user: UserId,
        /// Logical time of the skip.
        now: TimePoint,
    },
    /// Steps the listed users; the same step
    /// [`Engine::run_tick`](crate::Engine::run_tick) takes for a
    /// [`TickRequest`](crate::TickRequest) with these fields.
    Tick {
        /// Users ticked this round.
        users: Vec<UserId>,
        /// Logical time of the tick.
        now: TimePoint,
        /// Whether the batch (sharded) path was requested.
        batch: bool,
        /// Explicit worker count, if pinned.
        workers: Option<u64>,
    },
    /// Steps one listener's player against the broadcast schedule and
    /// feeds the resulting player events (feedback, clip-started
    /// bookkeeping) back into the engine. Read the outcome from
    /// [`Engine::player`](crate::Engine::player). Being a command, the
    /// step is logged, so player state survives crash recovery like
    /// every other store.
    AdvancePlayer {
        /// The listener whose player advances.
        user: UserId,
        /// Logical time the player advances to.
        now: TimePoint,
    },
    /// Attaches the broadcast coverage map.
    SetCoverage {
        /// The transmitter footprint map.
        coverage: CoverageMap,
    },
    /// Attaches the road network used for distraction zones.
    SetRoadNetwork {
        /// The directed weighted road graph.
        network: RoadNetwork,
    },
    /// Attaches the gazetteer used to geo-tag untagged archive clips
    /// from their transcripts.
    SetGazetteer {
        /// The place-name dictionary.
        gazetteer: Gazetteer,
    },
}

impl EngineCommand {
    /// The single listener this command targets, when it targets one.
    ///
    /// This is the shard router's partition key: a `Some(user)` command
    /// is routed to `splitmix64(user) % N`; a `None` command (catalog
    /// and environment mutations, batch ticks) is broadcast to every
    /// shard so replicated state stays identical across the fleet.
    #[must_use]
    pub fn target_user(&self) -> Option<UserId> {
        match self {
            EngineCommand::RegisterUser { profile, .. } => Some(profile.id),
            EngineCommand::ChangeService { user, .. }
            | EngineCommand::RecordFix { user, .. }
            | EngineCommand::Inject { user, .. }
            | EngineCommand::Skip { user, .. }
            | EngineCommand::AdvancePlayer { user, .. } => Some(*user),
            EngineCommand::RecordFeedback { event } => Some(event.user),
            EngineCommand::TrainClassifier { .. }
            | EngineCommand::IngestClip { .. }
            | EngineCommand::Tick { .. }
            | EngineCommand::SetCoverage { .. }
            | EngineCommand::SetRoadNetwork { .. }
            | EngineCommand::SetGazetteer { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_userdata::AgeBand;

    #[test]
    fn target_user_routes_user_commands_and_broadcasts_the_rest() {
        let u = UserId(9);
        let targeted = [
            EngineCommand::ChangeService { user: u, service: ServiceIndex(1), now: TimePoint(0) },
            EngineCommand::Skip { user: u, now: TimePoint(0) },
            EngineCommand::AdvancePlayer { user: u, now: TimePoint(0) },
            EngineCommand::Inject { user: u, clip: ClipId(1), at: TimePoint(0), note: "n".into() },
        ];
        for cmd in targeted {
            assert_eq!(cmd.target_user(), Some(u), "{cmd:?}");
        }
        let profile = UserProfile {
            id: u,
            name: "Greg".into(),
            age_band: AgeBand::Adult,
            favourite_service: ServiceIndex(0),
        };
        assert_eq!(
            EngineCommand::RegisterUser { profile, now: TimePoint(0) }.target_user(),
            Some(u)
        );
        let broadcast = [
            EngineCommand::TrainClassifier { category: CategoryId(1), tokens: vec![] },
            EngineCommand::Tick { users: vec![u], now: TimePoint(0), batch: true, workers: None },
            EngineCommand::SetCoverage { coverage: CoverageMap::new() },
            EngineCommand::SetRoadNetwork { network: RoadNetwork::new() },
            EngineCommand::SetGazetteer { gazetteer: Gazetteer::new() },
        ];
        for cmd in broadcast {
            assert_eq!(cmd.target_user(), None, "{cmd:?}");
        }
    }
}
