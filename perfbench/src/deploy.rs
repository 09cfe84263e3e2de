//! The three deployments a workload runs against, behind one `apply`:
//! an in-process [`Engine`], a [`DurableEngine`] over a file WAL, and a
//! [`Router`] over shard agent processes.

use crate::probe::{ShardHandle, TimedShard, TimedWal, WalStats};
use crate::stats::Digest;
use pphcr_core::{
    restore_engine, DurableEngine, Engine, EngineCommand, EngineConfig, EngineEvent, FileWal,
};
use pphcr_obs::timing::stopwatch;
use pphcr_obs::ObsSnapshot;
use pphcr_shard::Router;
use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;

/// Records per fsync of the `durable_mix` WAL. An fsync per record
/// (80–95 µs p50 on a container disk) would measure the disk.
pub const GROUP_COMMIT: u64 = 512;
/// `durable_mix` takes a snapshot every this many window ticks, offset
/// by half the period so the window ends with a WAL tail to replay.
pub const SNAPSHOT_EVERY_TICKS: u64 = 100;
/// Shard agents behind the `sharded_mix` router.
pub const AGENTS: usize = 2;
/// Warm workers of the in-process engines (ticks pin the same count).
pub const ENGINE_WORKERS: usize = 2;

/// Where the durable workload keeps its WAL, relative to the working
/// directory (the checkout the benchmark runs in).
pub const SCRATCH_DIR: &str = ".perfbench_tmp";

/// Engine configuration of the in-process deployments: defaults, with
/// the worker count pinned rather than read from the host.
#[must_use]
pub fn engine_config() -> EngineConfig {
    EngineConfig { worker_threads: ENGINE_WORKERS, ..EngineConfig::default() }
}

/// What one command produced at the entry point.
#[derive(Debug)]
pub enum Output {
    /// Events from an in-process or durable engine.
    Events(Vec<EngineEvent>),
    /// An engine rejection (display form).
    Rejected(String),
    /// Identity lines rendered by the shard router.
    Lines(Vec<String>),
}

impl Output {
    /// Feeds this output's identity lines (`op=<i> event=…` /
    /// `op=<i> rejected=…`, the shape the router renders) into `digest`;
    /// returns whether the command was rejected.
    pub fn digest_into(&self, digest: &mut Digest, op: u64) -> bool {
        match self {
            Output::Events(events) => {
                for e in events {
                    digest.line(&format!("op={op} event={e:?}"));
                }
                false
            }
            Output::Rejected(err) => {
                digest.line(&format!("op={op} rejected={err}"));
                true
            }
            Output::Lines(lines) => {
                let mut rejected = false;
                for l in lines {
                    digest.line(l);
                    rejected |= l.contains(" rejected=");
                }
                rejected
            }
        }
    }
}

/// The durable deployment and its on-disk files.
pub struct Durable {
    /// The write-ahead engine.
    pub engine: DurableEngine<TimedWal>,
    dir: PathBuf,
    wal_path: PathBuf,
    last_snapshot: Vec<u8>,
    ticks: u64,
    wal_stats: Rc<Cell<WalStats>>,
}

impl Durable {
    /// What the WAL wrapper has measured so far.
    #[must_use]
    pub fn wal_stats(&self) -> WalStats {
        self.wal_stats.get()
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One deployment of the engine.
pub enum Deployment {
    /// `Engine::apply`, in this process.
    InProcess(Box<Engine>),
    /// `DurableEngine::apply` over a group-committed `FileWal`.
    Durable(Box<Durable>),
    /// `Router::apply` over [`AGENTS`] agent processes.
    Sharded {
        /// The router, which owns the agents' pipes.
        router: Router<TimedShard>,
        /// Side handles to the agents, for RSS and wait timings.
        agents: Vec<ShardHandle>,
    },
}

/// Outcome of crash recovery at the end of a `durable_mix` round.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// Wall time of `restore_engine`, seconds.
    pub seconds: f64,
    /// WAL records replayed on top of the snapshot.
    pub replayed: u64,
    /// The recovered engine's obs snapshot equals the live engine's.
    pub obs_equal: bool,
    /// The next ticks give the same events on both engines.
    pub ticks_equal: bool,
}

impl Deployment {
    /// An in-process engine.
    #[must_use]
    pub fn in_process(config: EngineConfig) -> Self {
        Deployment::InProcess(Box::new(Engine::new(config)))
    }

    /// A durable engine whose WAL lives in a fresh directory `name`
    /// under [`SCRATCH_DIR`].
    ///
    /// # Errors
    /// When the directory or WAL file cannot be created.
    pub fn durable(name: &str, timed: bool) -> Result<Self, String> {
        let dir = PathBuf::from(SCRATCH_DIR).join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let wal_path = dir.join("engine.wal");
        let wal = FileWal::with_group_commit(&wal_path, GROUP_COMMIT)
            .map_err(|e| format!("{}: {e}", wal_path.display()))?;
        let (wal, wal_stats) = TimedWal::new(wal, timed);
        Ok(Deployment::Durable(Box::new(Durable {
            engine: DurableEngine::new(Engine::new(engine_config()), wal),
            dir,
            wal_path,
            last_snapshot: Vec::new(),
            ticks: 0,
            wal_stats,
        })))
    }

    /// A router over freshly spawned agents.
    ///
    /// # Errors
    /// When an agent cannot be spawned.
    pub fn sharded(timed: bool) -> Result<Self, String> {
        let (shards, agents): (Vec<_>, Vec<_>) = (0..AGENTS)
            .map(|_| TimedShard::spawn(timed))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?
            .into_iter()
            .unzip();
        let router = Router::new(shards).map_err(|e| e.to_string())?;
        Ok(Deployment::Sharded { router, agents })
    }

    /// Applies one command at the deployment's entry point.
    ///
    /// # Errors
    /// Infrastructure failures (WAL I/O, agent pipes); engine
    /// rejections are [`Output::Rejected`] outcomes instead.
    pub fn apply(&mut self, cmd: &EngineCommand) -> Result<Output, String> {
        match self {
            Deployment::InProcess(engine) => Ok(match engine.apply(cmd) {
                Ok(events) => Output::Events(events),
                Err(e) => Output::Rejected(e.to_string()),
            }),
            Deployment::Durable(d) => {
                let result = d.engine.apply(cmd.clone()).map_err(|e| format!("wal: {e}"))?;
                Ok(match result.error {
                    Some(e) => Output::Rejected(e),
                    None => Output::Events(result.events),
                })
            }
            Deployment::Sharded { router, .. } => {
                router.apply(cmd).map(Output::Lines).map_err(|e| e.to_string())
            }
        }
    }

    /// After a window tick: the durable deployment snapshots every
    /// [`SNAPSHOT_EVERY_TICKS`] ticks, at mid-period. Returns the
    /// snapshot size.
    ///
    /// # Errors
    /// When the snapshot cannot be encoded.
    pub fn after_tick(&mut self) -> Result<Option<u64>, String> {
        let Deployment::Durable(d) = self else { return Ok(None) };
        d.ticks += 1;
        if d.ticks % SNAPSHOT_EVERY_TICKS != SNAPSHOT_EVERY_TICKS / 2 {
            return Ok(None);
        }
        d.last_snapshot = d.engine.snapshot_bytes().map_err(|e| format!("snapshot: {e}"))?;
        Ok(Some(d.last_snapshot.len() as u64))
    }

    /// The deployment's observability snapshot (merged across shards).
    ///
    /// # Errors
    /// When the shard merge fails.
    pub fn obs(&mut self) -> Result<ObsSnapshot, String> {
        match self {
            Deployment::InProcess(engine) => Ok(engine.obs_snapshot()),
            Deployment::Durable(d) => Ok(d.engine.engine().obs_snapshot()),
            Deployment::Sharded { router, .. } => router.merged_obs().map_err(|e| e.to_string()),
        }
    }

    /// The engine, when it lives in this process.
    pub fn engine_mut(&mut self) -> Option<&mut Engine> {
        match self {
            Deployment::InProcess(engine) => Some(engine),
            Deployment::Durable(d) => Some(d.engine.engine_mut()),
            Deployment::Sharded { .. } => None,
        }
    }

    /// The agents behind a router (none in-process).
    #[must_use]
    pub fn agents(&self) -> &[ShardHandle] {
        match self {
            Deployment::Sharded { agents, .. } => agents,
            _ => &[],
        }
    }

    /// WAL wrapper tallies (zero without a WAL or timing).
    #[must_use]
    pub fn wal_stats(&self) -> WalStats {
        match self {
            Deployment::Durable(d) => d.wal_stats(),
            _ => WalStats::default(),
        }
    }

    /// The router, for the sharded deployment.
    #[must_use]
    pub fn router(&self) -> Option<&Router<TimedShard>> {
        match self {
            Deployment::Sharded { router, .. } => Some(router),
            _ => None,
        }
    }

    /// Crash recovery of the durable deployment: restores an engine
    /// from the last snapshot plus the WAL on disk, then checks that it
    /// equals the live engine — obs snapshot first, then the events of
    /// `next` ticks applied to both. `None` for other deployments.
    ///
    /// # Errors
    /// When the WAL cannot be read or recovery fails.
    pub fn recover(&mut self, next: &[EngineCommand]) -> Result<Option<Recovery>, String> {
        let Deployment::Durable(d) = self else { return Ok(None) };
        let wal = std::fs::read(&d.wal_path).map_err(|e| format!("read wal: {e}"))?;
        let sw = stopwatch();
        let (mut recovered, report) =
            restore_engine(&d.last_snapshot, &wal).map_err(|e| format!("restore: {e}"))?;
        let seconds = sw.elapsed_s();
        let obs_equal =
            recovered.obs_snapshot().to_json() == d.engine.engine().obs_snapshot().to_json();
        let mut ticks_equal = true;
        for cmd in next {
            let live = d.engine.apply(cmd.clone()).map_err(|e| format!("wal: {e}"))?;
            let again = recovered.apply(cmd).map_err(|e| e.to_string())?;
            ticks_equal &=
                live.error.is_none() && format!("{:?}", live.events) == format!("{again:?}");
        }
        Ok(Some(Recovery { seconds, replayed: report.records_replayed, obs_equal, ticks_equal }))
    }
}
