//! Seeded command generators for the three workloads.
//!
//! A workload is a fixed amount of work: the same seed gives the same
//! commands, and every seed gives the same *shape* (fleet size, fix
//! counts, archive size, steps, editorial commands), so figures from
//! different seeds are comparable. The seed moves geometry, departure
//! jitter, categories, transcripts, which listener sends what, and in
//! the mixes the listeners' reactions, whose totals move by about 1 %
//! over 2 000 listeners.

use pphcr_audio::ClipId;
use pphcr_catalog::{CategoryId, ClipKind, GeoTag, ServiceIndex, CATEGORY_COUNT};
use pphcr_core::EngineCommand;
use pphcr_geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr_sim::corpus::CorpusGenerator;
use pphcr_sim::{Commuter, ListenerModel, ListeningOutcome, Population, SyntheticCity};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

/// Central Torino — the engine's default projection origin.
pub const ORIGIN: (f64, f64) = (45.0703, 7.6869);

/// Day of the live window; the archive and the histories precede it.
const LIVE_DAY: u64 = 30;
/// Archive: the paper's "more than 100 podcasts created every day",
/// over a month. 3 000 clips is above the retrieval index's
/// `scan_below` threshold (2 000), so ticks take the indexed path.
pub const ARCHIVE_DAYS: u64 = 30;
/// Clips published per archive day.
pub const CLIPS_PER_DAY: u64 = 100;
/// Transcript length of an archive or window clip, tokens.
const TRANSCRIPT_TOKENS: usize = 48;
/// Labelled classifier documents per category.
const TRAINING_DOCS: usize = 6;

/// Tick cadence of every workload.
pub const STEP_S: u64 = 30;

/// `commute`: listeners, each a driver with a week of history.
pub const COMMUTE_USERS: u64 = 24;
/// `commute`: history days per listener (253 fixes a day, 1 771 total).
const COMMUTE_HISTORY_DAYS: u64 = 7;
/// `commute`: 30 s steps in one window.
pub const COMMUTE_STEPS: u64 = 40;

/// `durable_mix` / `sharded_mix`: registered listeners.
pub const MIX_USERS: u64 = 2_000;
/// Every `MIX_DRIVER_EVERY`-th listener is a driver (5 %).
const MIX_DRIVER_EVERY: u64 = 20;
/// Drivers' departures are spread evenly over the outbound band of the
/// sim population model (`pphcr_sim::Population`: 07:00–08:30).
const MIX_DEPART_FIRST_S: u64 = 7 * 3_600;
/// See [`MIX_DEPART_FIRST_S`].
const MIX_DEPART_BAND_S: u64 = 5_400;
/// `durable_mix` / `sharded_mix`: 30 s steps in one window (50
/// minutes, 07:45–08:35, inside the drivers' departure band).
pub const MIX_STEPS: u64 = 100;
/// Hour of the day the archive's first clips are published.
const PUBLISH_FIRST_HOUR: u64 = 5;
/// Hours of the day over which the archive's clips are published.
const PUBLISH_HOURS: u64 = 15;
/// Window clip ingests come at the archive's own publishing rate:
/// [`CLIPS_PER_DAY`] clips over [`PUBLISH_HOURS`] is one every 9
/// minutes (18 steps).
const MIX_INGEST_EVERY: u64 = PUBLISH_HOURS * 3_600 / CLIPS_PER_DAY / STEP_S;

/// A deterministic generator (`splitmix64`), so inputs depend only on
/// the seed and never on a platform RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` and a per-purpose `stream` tag.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One workload instance: setup commands (ending with the warm tick
/// that does the initial compaction) and the measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Commands that build the deployment's state; not measured.
    pub setup: Vec<EngineCommand>,
    /// Commands of the measured window, in order.
    pub window: Vec<EngineCommand>,
    /// Every registered listener, in registration order.
    pub fleet: Vec<UserId>,
}

fn origin() -> GeoPoint {
    GeoPoint::new(ORIGIN.0, ORIGIN.1)
}

fn fix(user: u64, point: GeoPoint, time: TimePoint, speed_mps: f64) -> EngineCommand {
    EngineCommand::RecordFix { user: UserId(user), fix: GpsFix { point, time, speed_mps } }
}

fn register(user: u64) -> EngineCommand {
    EngineCommand::RegisterUser {
        profile: UserProfile {
            id: UserId(user),
            name: format!("listener {user}"),
            age_band: if user.is_multiple_of(3) { AgeBand::Young } else { AgeBand::Adult },
            favourite_service: ServiceIndex(0),
        },
        now: TimePoint::at(0, 0, 0, 0),
    }
}

fn category(rng: &mut Rng) -> CategoryId {
    CategoryId::new(rng.below(u64::from(CATEGORY_COUNT)) as u16)
}

/// Classifier training documents, then the archive: `ARCHIVE_DAYS` ×
/// `CLIPS_PER_DAY` clips with transcripts and no editorial category,
/// so every ingest runs the Bayes classifier.
fn catalog(seed: u64, out: &mut Vec<EngineCommand>) {
    let corpus = CorpusGenerator::new(seed);
    for doc in corpus.training_set(TRAINING_DOCS, 60) {
        out.push(EngineCommand::TrainClassifier { category: doc.category, tokens: doc.tokens });
    }
    let mut rng = Rng::new(seed, 1);
    for day in 0..ARCHIVE_DAYS {
        for i in 0..CLIPS_PER_DAY {
            let published =
                TimePoint::at(day, PUBLISH_FIRST_HOUR + rng.below(PUBLISH_HOURS), rng.below(60), 0);
            out.push(ingest(&corpus, &mut rng, day * CLIPS_PER_DAY + i, published));
        }
    }
}

/// Length of an archive clip, and of an item a mix listener hears:
/// 2 to 19 whole minutes.
fn clip_seconds(rng: &mut Rng) -> u64 {
    60 * (2 + rng.below(18))
}

fn ingest(corpus: &CorpusGenerator, rng: &mut Rng, n: u64, published: TimePoint) -> EngineCommand {
    let doc = corpus.document(category(rng), TRANSCRIPT_TOKENS, n);
    let kind = match rng.below(10) {
        0..=5 => ClipKind::Podcast,
        6..=7 => ClipKind::NewsBulletin,
        8 => ClipKind::MusicTrack,
        _ => ClipKind::Advertisement,
    };
    let geo = (rng.below(20) == 0).then(|| GeoTag {
        point: origin().destination(rng.unit() * 360.0, 500.0 + rng.unit() * 8_000.0),
        radius_m: 800.0,
    });
    EngineCommand::IngestClip {
        title: format!("clip {n}"),
        kind,
        duration: TimeSpan::seconds(clip_seconds(rng)),
        published,
        geo,
        tokens: doc.tokens,
        editorial: None,
    }
}

/// Three likes on each of two favourite categories and two dislikes
/// on a third, so preference vectors are non-trivial.
fn tastes(rng: &mut Rng, user: u64, at: TimePoint, out: &mut Vec<EngineCommand>) {
    let likes = [category(rng), category(rng)];
    let dislike = category(rng);
    let mut n = 0;
    let mut push = |category, kind| {
        out.push(EngineCommand::RecordFeedback {
            event: FeedbackEvent {
                user: UserId(user),
                clip: None,
                category,
                kind,
                time: at.advance(TimeSpan::seconds(n)),
            },
        });
        n += 1;
    };
    for c in likes {
        for _ in 0..3 {
            push(c, FeedbackKind::Like);
        }
    }
    for _ in 0..2 {
        push(dislike, FeedbackKind::Dislike);
    }
}

/// A driver's fixed geometry: home, work, and the daily departure.
#[derive(Debug, Clone, Copy)]
struct Route {
    home: GeoPoint,
    bearing: f64,
    work: GeoPoint,
    /// Seconds after midnight of the daily departure.
    depart_s: u64,
}

const DRIVE_FIXES: u64 = 40;

impl Route {
    fn new(rng: &mut Rng, index: u64, depart_s: u64) -> Self {
        let home = origin()
            .destination(15.0 * index as f64 + rng.unit() * 10.0, 1_200.0 + rng.unit() * 3_000.0);
        let bearing = 40.0 + rng.unit() * 280.0;
        Route { home, bearing, work: home.destination(bearing, 9_000.0), depart_s }
    }

    /// Where the driver is at `t` on a commuting day, and at what speed.
    fn at(&self, t: TimePoint, depart: TimePoint) -> (GeoPoint, f64) {
        if t < depart {
            return (self.home, 0.1);
        }
        let i = t.since(depart).as_seconds() / 30;
        if i < DRIVE_FIXES {
            let frac = i as f64 / (DRIVE_FIXES - 1) as f64;
            (self.home.destination(self.bearing, frac * 9_000.0), 7.5)
        } else {
            (self.work, 0.2)
        }
    }

    /// One history day (the E16b shape, 253 fixes): 90 home fixes
    /// before departure, the 20-minute drive at 30 s cadence, 57 work
    /// fixes until 18:00 (or an hour, for late departures), 66 evening
    /// home fixes every 5 minutes.
    fn history_day(&self, rng: &mut Rng, user: u64, day: u64, out: &mut Vec<EngineCommand>) {
        let d0 = TimePoint::at(day, 0, 0, 0);
        let depart = d0.advance(TimeSpan::seconds(self.depart_s + rng.below(180)));
        let home_step = (depart.since(d0).as_seconds() - 60) / 90;
        for i in 0..90 {
            out.push(fix(user, self.home, d0.advance(TimeSpan::seconds(i * home_step)), 0.1));
        }
        for i in 0..DRIVE_FIXES {
            let t = depart.advance(TimeSpan::seconds(i * 30));
            let (p, v) = self.at(t, depart);
            out.push(fix(user, p, t, v));
        }
        let arrived = depart.advance(TimeSpan::seconds(DRIVE_FIXES * 30));
        let evening = d0.advance(TimeSpan::hours(18)).max(arrived.advance(TimeSpan::hours(1)));
        let work_step = evening.since(arrived).as_seconds() / 58;
        for i in 0..57 {
            out.push(fix(user, self.work, arrived.advance(TimeSpan::seconds(i * work_step)), 0.2));
        }
        for i in 0..66 {
            out.push(fix(user, self.home, evening.advance(TimeSpan::minutes(i * 5)), 0.1));
        }
    }
}

fn window_start() -> TimePoint {
    TimePoint::at(LIVE_DAY, 7, 45, 0)
}

fn step_time(step: u64) -> TimePoint {
    window_start().advance(TimeSpan::seconds(step * STEP_S))
}

fn tick(users: &[UserId], now: TimePoint, workers: u64) -> EngineCommand {
    EngineCommand::Tick { users: users.to_vec(), now, batch: true, workers: Some(workers) }
}

/// `commute`: [`COMMUTE_USERS`] drivers with a week of history each,
/// departures staggered so every tick has listeners starting,
/// mid-route and arriving. Each step sends one fix per driver, one
/// like and one skip from a listener on the road, then a batch tick
/// over the fleet. Live departures carry no seeded jitter, so every
/// seed has the same number of listeners on the road at every tick.
#[must_use]
pub fn commute(seed: u64, workers: u64) -> Workload {
    let mut rng = Rng::new(seed, 2);
    let fleet: Vec<UserId> = (1..=COMMUTE_USERS).map(UserId).collect();
    let mut setup: Vec<EngineCommand> = fleet.iter().map(|u| register(u.0)).collect();
    catalog(seed, &mut setup);
    // Departures spread evenly from one drive length before the window
    // opens to its close: the same number of listeners is on the road
    // at every tick, one starting and one arriving every few ticks.
    let drive_s = DRIVE_FIXES * STEP_S;
    let first = window_start().seconds_of_day() - drive_s;
    let spacing_s = (drive_s + COMMUTE_STEPS * STEP_S) / COMMUTE_USERS;
    let routes: Vec<Route> =
        (0..COMMUTE_USERS).map(|i| Route::new(&mut rng, i, first + i * spacing_s)).collect();
    for (i, route) in routes.iter().enumerate() {
        for day in LIVE_DAY - COMMUTE_HISTORY_DAYS..LIVE_DAY {
            route.history_day(&mut rng, i as u64 + 1, day, &mut setup);
        }
    }
    for u in 1..=COMMUTE_USERS {
        tastes(&mut rng, u, TimePoint::at(LIVE_DAY, 6, 0, 0), &mut setup);
    }
    setup.push(tick(&fleet, step_time(0).rewind(TimeSpan::seconds(STEP_S)), workers));

    let live0 = TimePoint::at(LIVE_DAY, 0, 0, 0);
    let mut window = Vec::new();
    for step in 0..COMMUTE_STEPS {
        let now = step_time(step);
        let mut on_road = Vec::new();
        for (i, route) in routes.iter().enumerate() {
            let (p, v) = route.at(now, live0.advance(TimeSpan::seconds(route.depart_s)));
            window.push(fix(i as u64 + 1, p, now, v));
            if v > 1.0 {
                on_road.push(i as u64 + 1);
            }
        }
        let liker = 1 + rng.below(COMMUTE_USERS);
        window.push(feedback(liker, category(&mut rng), FeedbackKind::Like, now));
        // The skip comes from a listener in the car, as commuters' skips do.
        let skipper = match on_road.len() as u64 {
            0 => 1 + rng.below(COMMUTE_USERS),
            n => on_road[rng.below(n) as usize],
        };
        window.push(EngineCommand::Skip { user: UserId(skipper), now });
        window.push(tick(&fleet, now, workers));
    }
    Workload { setup, window, fleet }
}

fn feedback(user: u64, category: CategoryId, kind: FeedbackKind, time: TimePoint) -> EngineCommand {
    EngineCommand::RecordFeedback {
        event: FeedbackEvent { user: UserId(user), clip: None, category, kind, time },
    }
}

/// What a mix listener is hearing: an item of `category` that ends at
/// `end`, heard to the end or not as the listener model decided when
/// it started.
struct Hearing {
    end: TimePoint,
    clip: ClipId,
    category: CategoryId,
    outcome: ListeningOutcome,
}

impl Hearing {
    /// The item a listener starts at `start`: a category of the
    /// linear stream and an archive-length duration, cut short when
    /// the listener model skips or surfs away.
    fn start(
        rng: &mut Rng,
        model: &mut ListenerModel,
        listener: &Commuter,
        start: TimePoint,
        archive: u64,
    ) -> Self {
        let category = category(rng);
        let length_s = clip_seconds(rng);
        let outcome = model.outcome(listener, category.0);
        let heard_s = match outcome {
            ListeningOutcome::Skipped { fraction } => (length_s as f64 * fraction) as u64,
            ListeningOutcome::Surfed => length_s * (5 + rng.below(35)) / 100,
            ListeningOutcome::LikedIt | ListeningOutcome::ListenedThrough => length_s,
        };
        Hearing {
            end: start.advance(TimeSpan::seconds(heard_s.max(1))),
            clip: ClipId(rng.below(archive)),
            category,
            outcome,
        }
    }

    /// The commands the listener's client sends when the item ends:
    /// explicit or implicit feedback and a player advance when heard
    /// through, a skip otherwise (surfing away is a skip to the engine).
    fn ended(&self, user: u64, now: TimePoint, out: &mut Vec<EngineCommand>) {
        let kind = match self.outcome {
            ListeningOutcome::LikedIt => FeedbackKind::Like,
            ListeningOutcome::ListenedThrough => FeedbackKind::ListenedThrough,
            ListeningOutcome::Skipped { .. } | ListeningOutcome::Surfed => {
                out.push(EngineCommand::Skip { user: UserId(user), now });
                return;
            }
        };
        out.push(EngineCommand::RecordFeedback {
            event: FeedbackEvent {
                user: UserId(user),
                clip: Some(self.clip),
                category: self.category,
                kind,
                time: now,
            },
        });
        out.push(EngineCommand::AdvancePlayer { user: UserId(user), now });
    }
}

/// `durable_mix` and `sharded_mix`: [`MIX_USERS`] listeners, most at
/// home without GPS, one in [`MIX_DRIVER_EVERY`] a driver with a
/// one-day history. The listener traffic comes from the repository's
/// own sim models rather than from chosen rates:
///
/// * every listener hears items back to back, each of an archive clip's
///   length, and reacts to each through `pphcr_sim::ListenerModel` with
///   ground-truth tastes from `pphcr_sim::Population`: a like or a
///   listened-through plus a player advance, or a skip;
/// * drivers leave in the population model's 07:00–08:30 band and send
///   a fix every 30 s for their 20-minute drive;
/// * clips are ingested (transcript, no editorial category) at the
///   archive's publishing rate, and the editor pushes each new clip to
///   one listener half a period later — an assumption, as no source
///   gives an injection rate.
///
/// Each step ends with a batch tick over the whole fleet with
/// `workers` warm workers.
#[must_use]
pub fn mix(seed: u64, workers: u64) -> Workload {
    let mut rng = Rng::new(seed, 3);
    let fleet: Vec<UserId> = (1..=MIX_USERS).map(UserId).collect();
    let mut setup: Vec<EngineCommand> = fleet.iter().map(|u| register(u.0)).collect();
    catalog(seed, &mut setup);
    let drivers: Vec<u64> = (1..=MIX_USERS).filter(|u| u % MIX_DRIVER_EVERY == 7).collect();
    let spacing_s = MIX_DEPART_BAND_S / drivers.len() as u64;
    let routes: Vec<(u64, Route)> = drivers
        .iter()
        .enumerate()
        .map(|(i, &u)| (u, Route::new(&mut rng, u, MIX_DEPART_FIRST_S + i as u64 * spacing_s)))
        .collect();
    for (u, route) in &routes {
        route.history_day(&mut rng, *u, LIVE_DAY - 1, &mut setup);
    }
    for &u in &fleet {
        tastes(&mut rng, u.0, TimePoint::at(LIVE_DAY, 6, 0, 0), &mut setup);
    }
    setup.push(tick(&fleet, step_time(0).rewind(TimeSpan::seconds(STEP_S)), workers));

    let population =
        Population::generate(&SyntheticCity::generate(4, 400.0, seed), MIX_USERS as usize, seed);
    let mut models: Vec<ListenerModel> =
        fleet.iter().map(|u| ListenerModel::new(seed ^ u.0.wrapping_mul(0x9E37_79B9))).collect();
    let mut next_clip = ARCHIVE_DAYS * CLIPS_PER_DAY;
    // Each listener is part-way through an item when the window opens.
    let mut hearing: Vec<Hearing> = (0..fleet.len())
        .map(|i| {
            let began = step_time(0).rewind(TimeSpan::seconds(1 + rng.below(1_200)));
            let listener = &population.commuters[i];
            let mut h = Hearing::start(&mut rng, &mut models[i], listener, began, next_clip);
            while h.end < step_time(0) {
                h = Hearing::start(&mut rng, &mut models[i], listener, h.end, next_clip);
            }
            h
        })
        .collect();

    let corpus = CorpusGenerator::new(seed);
    let live0 = TimePoint::at(LIVE_DAY, 0, 0, 0);
    let mut window = Vec::new();
    for step in 0..MIX_STEPS {
        let now = step_time(step);
        for (u, route) in &routes {
            let depart = live0.advance(TimeSpan::seconds(route.depart_s));
            if now >= depart && now.since(depart).as_seconds() < DRIVE_FIXES * STEP_S {
                let (p, v) = route.at(now, depart);
                window.push(fix(*u, p, now, v));
            }
        }
        for (i, h) in hearing.iter_mut().enumerate() {
            while h.end <= now {
                h.ended(fleet[i].0, now, &mut window);
                let listener = &population.commuters[i];
                *h = Hearing::start(&mut rng, &mut models[i], listener, h.end, next_clip);
            }
        }
        if step % MIX_INGEST_EVERY == 0 {
            window.push(ingest(&corpus, &mut rng, next_clip, now));
            next_clip += 1;
        }
        if step % MIX_INGEST_EVERY == MIX_INGEST_EVERY / 2 {
            window.push(EngineCommand::Inject {
                user: UserId(1 + rng.below(MIX_USERS)),
                clip: ClipId(next_clip - 1),
                at: now,
                note: format!("editorial pick {step}"),
            });
        }
        window.push(tick(&fleet, now, workers));
    }
    Workload { setup, window, fleet }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fewest telemetry commands in any window, so the telemetry tail
    /// of a run of 9 windows rests on at least 10 samples.
    const MIN_TELEMETRY: usize = 1_000;

    #[test]
    fn same_seed_same_commands_other_seed_other_commands() {
        assert_eq!(commute(5, 2), commute(5, 2));
        assert_ne!(commute(5, 2).window, commute(6, 2).window);
        assert_ne!(commute(5, 2).setup, commute(6, 2).setup);
        let a = mix(5, 2);
        assert_eq!(a, mix(5, 2));
        let b = mix(6, 2);
        assert_ne!(a.window, b.window);
        assert_ne!(a.setup, b.setup);
    }

    #[test]
    fn every_seed_has_the_same_shape() {
        let mut drive_fixes = Vec::new();
        for seed in [1, 2, 77] {
            let w = commute(seed, 2);
            assert_eq!(w.fleet.len() as u64, COMMUTE_USERS);
            let history =
                w.setup.iter().filter(|c| matches!(c, EngineCommand::RecordFix { .. })).count();
            assert_eq!(history as u64, COMMUTE_USERS * COMMUTE_HISTORY_DAYS * 253);
            let ticks = w.window.iter().filter(|c| matches!(c, EngineCommand::Tick { .. })).count();
            assert_eq!(ticks as u64, COMMUTE_STEPS);
            assert_eq!(w.window.len() as u64, COMMUTE_STEPS * (COMMUTE_USERS + 3));
            let telemetry = |w: &Workload| {
                w.window
                    .iter()
                    .filter(|c| {
                        matches!(
                            c,
                            EngineCommand::RecordFix { .. }
                                | EngineCommand::RecordFeedback { .. }
                                | EngineCommand::Skip { .. }
                                | EngineCommand::AdvancePlayer { .. }
                        )
                    })
                    .count()
            };
            assert!(telemetry(&w) >= MIN_TELEMETRY);
            assert!(telemetry(&mix(seed, 1)) >= MIN_TELEMETRY);
            let m = mix(seed, 1);
            let ingests =
                m.setup.iter().filter(|c| matches!(c, EngineCommand::IngestClip { .. })).count();
            assert_eq!(ingests as u64, ARCHIVE_DAYS * CLIPS_PER_DAY);
            let fixes =
                m.window.iter().filter(|c| matches!(c, EngineCommand::RecordFix { .. })).count();
            drive_fixes.push(fixes);
        }
        // Departures do not depend on the seed, so neither do the fixes.
        assert!(drive_fixes[0] > 0);
        assert!(drive_fixes.iter().all(|&n| n == drive_fixes[0]), "{drive_fixes:?}");
    }

    #[test]
    fn mix_pins_the_requested_worker_count() {
        for cmd in mix(3, 1).window.iter().chain(&commute(3, 2).window) {
            if let EngineCommand::Tick { workers, .. } = cmd {
                assert!(workers.is_some());
            }
        }
    }
}
