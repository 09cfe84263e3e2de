//! Rounds and runs.
//!
//! A **round** builds a fresh deployment from the workload's setup
//! commands (timed: `setup_s`), then applies the window commands one by
//! one from a single closed-loop caller, timing each at the
//! deployment's entry point. Every round of a run applies the same
//! commands, so every round must produce the same events and the same
//! observability snapshot.
//!
//! A **run** repeats rounds until `--seconds` have passed and there are
//! enough samples for the fixed tail percentiles, then checks the
//! outputs against a reference.

use crate::deploy::{engine_config, Deployment, Output, Recovery};
use crate::gen::{self, Workload};
use crate::layers::Probe;
use crate::probe::{ShardHandle, WalStats};
use crate::stats::Digest;
use pphcr_core::{EngineCommand, EngineConfig};
use pphcr_geo::TimeSpan;
use pphcr_obs::timing::stopwatch;
use pphcr_obs::ObsSnapshot;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 24 commuters with week-long histories, in-process `Engine`.
    Commute,
    /// 2 000 listeners through a `DurableEngine` over a file WAL.
    DurableMix,
    /// The `durable_mix` traffic through a router over two agents.
    ShardedMix,
}

impl Kind {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "commute" => Some(Kind::Commute),
            "durable_mix" => Some(Kind::DurableMix),
            "sharded_mix" => Some(Kind::ShardedMix),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Commute => "commute",
            Kind::DurableMix => "durable_mix",
            Kind::ShardedMix => "sharded_mix",
        }
    }

    /// The commands for `seed`, ticks pinned to this workload's warm
    /// worker count (2 in-process, 1 per agent).
    #[must_use]
    pub fn workload(self, seed: u64) -> Workload {
        match self {
            Kind::Commute => gen::commute(seed, 2),
            Kind::DurableMix => gen::mix(seed, 2),
            Kind::ShardedMix => gen::mix(seed, 1),
        }
    }

    fn deploy(self, round: u64, timed: bool) -> Result<Deployment, String> {
        match self {
            Kind::Commute => Ok(Deployment::in_process(engine_config())),
            Kind::DurableMix => {
                Deployment::durable(&format!("{}-{round}", std::process::id()), timed)
            }
            Kind::ShardedMix => Deployment::sharded(timed),
        }
    }
}

/// Per-command nanosecond samples of a window, by command class.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Tick latencies.
    pub tick: Vec<u64>,
    /// Telemetry latencies: `RecordFix`, `RecordFeedback`, `Skip`,
    /// `AdvancePlayer`.
    pub telemetry: Vec<u64>,
    /// `IngestClip` latencies.
    pub ingest: Vec<u64>,
    /// `Inject` latencies.
    pub inject: Vec<u64>,
    /// Other commands' latencies (registration, configuration,
    /// training).
    pub other: Vec<u64>,
}

impl Samples {
    fn push(&mut self, cmd: &EngineCommand, ns: u64) {
        match cmd {
            EngineCommand::Tick { .. } => self.tick.push(ns),
            EngineCommand::RecordFix { .. }
            | EngineCommand::RecordFeedback { .. }
            | EngineCommand::Skip { .. }
            | EngineCommand::AdvancePlayer { .. } => self.telemetry.push(ns),
            EngineCommand::IngestClip { .. } => self.ingest.push(ns),
            EngineCommand::Inject { .. } => self.inject.push(ns),
            _ => self.other.push(ns),
        }
    }

    fn extend(&mut self, other: &Samples) {
        self.tick.extend(&other.tick);
        self.telemetry.extend(&other.telemetry);
        self.ingest.extend(&other.ingest);
        self.inject.extend(&other.inject);
        self.other.extend(&other.other);
    }

    /// Editorial latencies: ingests and injections together.
    #[must_use]
    pub fn editorial(&self) -> Vec<u64> {
        self.ingest.iter().chain(&self.inject).copied().collect()
    }

    /// Total time at the entry point, ns.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        [&self.tick, &self.telemetry, &self.ingest, &self.inject, &self.other]
            .iter()
            .map(|v| v.iter().sum::<u64>())
            .sum()
    }
}

/// What the traced round saw besides the samples.
#[derive(Debug)]
pub struct Traced {
    /// Shadow-call tallies.
    pub probe: Probe,
    /// Obs snapshots at window start and end.
    pub obs_before: ObsSnapshot,
    /// See `obs_before`.
    pub obs_after: ObsSnapshot,
    /// `engine.tick` / `engine.warm` span totals over the window, ns
    /// (in-process deployments only).
    pub tick_span_ns: u64,
    /// See `tick_span_ns`.
    pub warm_span_ns: u64,
    /// WAL wrapper tallies over the window (durable only).
    pub wal: WalStats,
    /// Router wait per agent over the window, ns (sharded only).
    pub recv_wait_ns: Vec<u64>,
    /// Time of the final `merged_obs` (sharded only), ns.
    pub merge_obs_ns: u64,
    /// Largest shard's share of the fleet over the mean share.
    pub user_skew: f64,
}

/// One round's measurements and identity artefacts.
#[derive(Debug)]
pub struct Round {
    /// Wall time from generation to the first window command, s.
    pub setup_s: f64,
    /// Window wall time (shadow calls excluded), ns.
    pub window_ns: u64,
    /// Entry-point samples.
    pub samples: Samples,
    /// Time spent taking periodic snapshots inside the window, ns.
    pub snapshot_ns: u64,
    /// Summed size of those snapshots.
    pub snapshot_bytes: u64,
    /// Listeners ticked in the window.
    pub tick_users: u64,
    /// Window commands applied.
    pub commands: u64,
    /// Commands (setup or window) the engine rejected.
    pub rejected: u64,
    /// Digest of every identity line of setup and window.
    pub events_digest: u64,
    /// Digest of the obs snapshot JSON at the end of the window.
    pub obs_digest: u64,
    /// This process's peak RSS after the window, MiB.
    pub self_rss_mb: f64,
    /// Summed agent peak RSS after the window, MiB.
    pub agent_rss_mb: f64,
    /// Durable recovery, when the deployment has a WAL.
    pub recovery: Option<Recovery>,
    /// Shadow-call results, for the traced round.
    pub traced: Option<Traced>,
}

/// Two ticks past the window, run on both the live and the recovered
/// engine by the recovery check.
fn next_ticks(work: &Workload) -> Vec<EngineCommand> {
    let Some(EngineCommand::Tick { users, now, batch, workers }) =
        work.window.iter().rev().find(|c| matches!(c, EngineCommand::Tick { .. }))
    else {
        return Vec::new();
    };
    (1..=2u64)
        .map(|k| EngineCommand::Tick {
            users: users.clone(),
            now: now.advance(TimeSpan::seconds(k * gen::STEP_S)),
            batch: *batch,
            workers: *workers,
        })
        .collect()
}

/// Runs one round of `kind` for `seed`; `index` names its scratch
/// directory, `traced` turns on the timing wrappers and shadow calls.
///
/// # Errors
/// Infrastructure failures (WAL, agents).
pub fn round(kind: Kind, seed: u64, index: u64, traced: bool) -> Result<Round, String> {
    let setup_sw = stopwatch();
    let work = kind.workload(seed);
    let mut dep = kind.deploy(index, traced)?;
    let mut probe = traced.then(Probe::new);
    let mut outputs: Vec<Output> = Vec::with_capacity(work.setup.len() + work.window.len());
    for cmd in &work.setup {
        if let Some(p) = probe.as_mut() {
            p.observe(cmd);
        }
        outputs.push(dep.apply(cmd)?);
        if let (Some(p), EngineCommand::Tick { users, now, .. }) = (probe.as_mut(), cmd) {
            p.after_tick(users, *now, None, false);
        }
    }
    let setup_s = setup_sw.elapsed_s();

    let obs_before = if traced { Some(dep.obs()?) } else { None };
    let spans_before = spans(&mut dep);
    let wal_before = dep.wal_stats();
    let mut samples = Samples::default();
    let (mut snapshot_ns, mut snapshot_bytes) = (0, 0);
    let mut tick_users = 0u64;
    let mut probe_ns = 0u64;
    let window_sw = stopwatch();
    for cmd in &work.window {
        if let Some(p) = probe.as_mut() {
            let sw = stopwatch();
            p.observe(cmd);
            p.before_tick(dep.engine_mut().map(|e| &*e));
            probe_ns += sw.elapsed_ns();
        }
        let sw = stopwatch();
        let out = dep.apply(cmd)?;
        let ns = sw.elapsed_ns();
        samples.push(cmd, ns);
        outputs.push(out);
        if let EngineCommand::Tick { users, now, .. } = cmd {
            tick_users += users.len() as u64;
            let sw = stopwatch();
            if let Some(bytes) = dep.after_tick()? {
                snapshot_ns += sw.elapsed_ns();
                snapshot_bytes += bytes;
            }
            if let Some(p) = probe.as_mut() {
                let sw = stopwatch();
                p.after_tick(users, *now, dep.engine_mut(), true);
                probe_ns += sw.elapsed_ns();
            }
        }
    }
    let window_ns = window_sw.elapsed_ns().saturating_sub(probe_ns);
    let spans_after = spans(&mut dep);

    let merge_sw = stopwatch();
    let obs = dep.obs()?;
    let merge_obs_ns = merge_sw.elapsed_ns();
    let mut digest = Digest::default();
    let mut rejected = 0;
    for (op, out) in outputs.iter().enumerate() {
        rejected += u64::from(out.digest_into(&mut digest, op as u64));
    }
    let self_rss_mb = crate::probe::peak_rss_mb();
    let agent_rss_mb = dep.agents().iter().map(ShardHandle::peak_rss_mb).fold(0.0, |a, b| a + b);
    let recovery = dep.recover(&next_ticks(&work))?;
    let traced = match (probe, obs_before) {
        (Some(probe), Some(obs_before)) => Some(Traced {
            probe,
            obs_before,
            obs_after: obs.clone(),
            tick_span_ns: spans_after.0 - spans_before.0,
            warm_span_ns: spans_after.1 - spans_before.1,
            wal: wal_delta(wal_before, dep.wal_stats()),
            recv_wait_ns: dep.agents().iter().map(ShardHandle::recv_wait_ns).collect(),
            merge_obs_ns: if dep.router().is_some() { merge_obs_ns } else { 0 },
            user_skew: user_skew(&dep, &work),
        }),
        _ => None,
    };
    Ok(Round {
        setup_s,
        window_ns,
        samples,
        snapshot_ns,
        snapshot_bytes,
        tick_users,
        commands: work.window.len() as u64,
        rejected,
        events_digest: digest.value(),
        obs_digest: Digest::of(&obs.to_json()),
        self_rss_mb,
        agent_rss_mb,
        recovery,
        traced,
    })
}

/// `(engine.tick, engine.warm)` span totals, ns; zero when the engine
/// is in another process.
fn spans(dep: &mut Deployment) -> (u64, u64) {
    let Some(engine) = dep.engine_mut() else { return (0, 0) };
    let total = |stage| engine.obs().timing(stage).map_or(0, |t| t.total_ns);
    (total("engine.tick"), total("engine.warm"))
}

fn wal_delta(before: WalStats, after: WalStats) -> WalStats {
    WalStats {
        append_ns: after.append_ns - before.append_ns,
        sync_ns: after.sync_ns - before.sync_ns,
        records: after.records - before.records,
        bytes: after.bytes - before.bytes,
    }
}

fn user_skew(dep: &Deployment, work: &Workload) -> f64 {
    let Some(router) = dep.router() else { return 0.0 };
    let mut counts = vec![0u64; router.shard_count()];
    for &user in &work.fleet {
        if let Some(c) = counts.get_mut(router.owner(user)) {
            *c += 1;
        }
    }
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = work.fleet.len() as f64 / counts.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// What an untimed in-process replay of a workload produced.
#[derive(Debug)]
pub struct Reference {
    /// Events digest.
    pub events: u64,
    /// Obs snapshot digest.
    pub obs: u64,
    /// Entry-point samples of its window commands.
    pub samples: Samples,
}

/// Applies the workload to one in-process engine built with `config`,
/// optionally pinning every tick to `workers`; returns the digests a
/// deployment of the same commands must reproduce, and the time each
/// window command took in-process.
#[must_use]
pub fn reference(work: &Workload, config: EngineConfig, workers: Option<u64>) -> Reference {
    let mut dep = Deployment::in_process(config);
    let mut digest = Digest::default();
    let mut samples = Samples::default();
    for (op, cmd) in work.setup.iter().chain(&work.window).enumerate() {
        let pinned;
        let cmd = match (cmd, workers) {
            (EngineCommand::Tick { users, now, batch, .. }, Some(w)) => {
                pinned = EngineCommand::Tick {
                    users: users.clone(),
                    now: *now,
                    batch: *batch,
                    workers: Some(w),
                };
                &pinned
            }
            _ => cmd,
        };
        let sw = stopwatch();
        let out = dep.apply(cmd);
        if op >= work.setup.len() {
            samples.push(cmd, sw.elapsed_ns());
        }
        if let Ok(out) = out {
            out.digest_into(&mut digest, op as u64);
        }
    }
    let obs = dep.obs().map(|o| o.to_json()).unwrap_or_default();
    Reference { events: digest.value(), obs: Digest::of(&obs), samples }
}

/// `(seed, events, obs)` digests pinned for the shipped `commute`
/// seeds; any other seed is checked against an untimed 1-worker replay.
pub const COMMUTE_PINNED: &[(u64, u64, u64)] = &[
    (1, 0x24aa_1d09_1300_c916, 0xe470_0504_16e1_4d03),
    (2, 0x688e_1872_adfe_3815, 0xb6ff_894e_4277_d26c),
    (3, 0x6bb2_d756_d968_ce4d, 0xecb7_2dc4_868d_38f3),
];

/// Fewest rounds in a run: per-round figures are reported as medians.
pub const MIN_ROUNDS: usize = 9;
/// Fewest tick samples in a run's untraced rounds, so the p90 rests on
/// at least 10.
pub const MIN_TICKS: usize = 100;
/// Rounds stop being added after this much time, whatever the counts.
const HARD_STOP_S: f64 = 120.0;

/// A whole run: rounds plus the output checks.
#[derive(Debug)]
pub struct Run {
    /// The rounds, in order (a traced run: plain, traced, plain).
    pub rounds: Vec<Round>,
    /// Failed output checks, described.
    pub failures: Vec<String>,
    /// Notes on checks that passed.
    pub notes: Vec<String>,
    /// Samples of the untimed in-process replay the `sharded_mix`
    /// check runs: the same commands without the router.
    pub in_process: Option<Samples>,
}

impl Run {
    /// The untraced rounds, which the end-to-end figures come from.
    /// All of them count: a shared host speeds up as well as slows
    /// down for seconds at a time, so picking the fastest rounds would
    /// report its luckiest moments, while figures over the whole run
    /// average its drift out.
    #[must_use]
    pub fn timed(&self) -> Vec<&Round> {
        self.rounds.iter().filter(|r| r.traced.is_none()).collect()
    }

    /// All samples of the untraced rounds.
    #[must_use]
    pub fn samples(&self) -> Samples {
        let mut all = Samples::default();
        for r in self.timed() {
            all.extend(&r.samples);
        }
        all
    }
}

/// Runs `kind` for `seed`: untraced rounds for about `seconds`, or —
/// with `trace` — a plain, a traced and a plain round. Then checks
/// outputs.
///
/// # Errors
/// Infrastructure failures.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let started = stopwatch();
    let mut rounds = Vec::new();
    if trace {
        // The traced round sits between two plain ones, so its overhead
        // is read against their mean rather than against a cold round.
        for (index, traced) in [false, true, false].into_iter().enumerate() {
            rounds.push(round(kind, seed, index as u64, traced)?);
        }
    } else {
        loop {
            rounds.push(round(kind, seed, rounds.len() as u64, false)?);
            let ticks: usize = rounds.iter().map(|r| r.samples.tick.len()).sum();
            let elapsed = started.elapsed_s();
            let enough = rounds.len() >= MIN_ROUNDS && ticks >= MIN_TICKS && elapsed >= seconds;
            if enough || elapsed >= HARD_STOP_S {
                break;
            }
        }
    }
    let mut run = Run { rounds, failures: Vec::new(), notes: Vec::new(), in_process: None };
    check(kind, seed, &mut run);
    Ok(run)
}

/// The output checks; failures go to `run.failures`.
fn check(kind: Kind, seed: u64, run: &mut Run) {
    let Some(first) = run.rounds.first() else {
        run.failures.push("no rounds ran".into());
        return;
    };
    let (events, obs) = (first.events_digest, first.obs_digest);
    run.notes.push(format!("digests: events {events:016x}, obs {obs:016x}"));
    for (i, r) in run.rounds.iter().enumerate().skip(1) {
        if (r.events_digest, r.obs_digest) != (events, obs) {
            run.failures.push(format!("round {i} diverged from round 0 (same commands)"));
        }
    }
    let rejected: u64 = run.rounds.iter().map(|r| r.rejected).sum();
    if rejected > 0 {
        run.failures.push(format!("{rejected} commands were rejected"));
    }
    match kind {
        Kind::Commute => {
            let expected = match COMMUTE_PINNED.iter().find(|p| p.0 == seed) {
                Some(&(_, e, o)) => {
                    run.notes.push(format!("digests compared with those pinned for seed {seed}"));
                    (e, o)
                }
                None => {
                    run.notes.push("digests compared with an untimed 1-worker replay".into());
                    let r = reference(&kind.workload(seed), engine_config(), Some(1));
                    (r.events, r.obs)
                }
            };
            if (events, obs) != expected {
                run.failures.push(format!(
                    "commute digests {events:016x}/{obs:016x} != expected {:016x}/{:016x}",
                    expected.0, expected.1
                ));
            }
        }
        Kind::DurableMix => {
            for (i, r) in run.rounds.iter().enumerate() {
                match r.recovery {
                    Some(rec) if rec.obs_equal && rec.ticks_equal && rec.replayed > 0 => {}
                    Some(rec) => run.failures.push(format!(
                        "round {i}: recovered engine differs from live after replaying {} \
                         records: obs snapshot {}, next ticks {}",
                        rec.replayed,
                        if rec.obs_equal { "equal" } else { "DIFFERS" },
                        if rec.ticks_equal { "equal" } else { "DIFFER" },
                    )),
                    None => run.failures.push(format!("round {i}: no recovery ran")),
                }
            }
            run.notes.push("recovered engine equals live engine (obs + next 2 ticks)".into());
        }
        Kind::ShardedMix => {
            let expected = reference(&kind.workload(seed), engine_config(), None);
            run.notes.push("merged events/obs compared with an in-process run".into());
            if (events, obs) != (expected.events, expected.obs) {
                run.failures.push(format!(
                    "sharded digests {events:016x}/{obs:016x} != in-process {:016x}/{:016x}",
                    expected.events, expected.obs
                ));
            }
            run.in_process = Some(expected.samples);
        }
    }
}
