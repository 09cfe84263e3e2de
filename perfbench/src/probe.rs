//! Measurement from outside the layers: timing wrappers around the
//! WAL storage and the shard transport, and peak-RSS readers.
//!
//! Both wrappers forward every call unchanged. With `stats: None`
//! (untimed runs) they add one branch; with `Some` they time each call.

use pphcr_core::{FileWal, PersistError, WalStorage};
use pphcr_obs::timing::stopwatch;
use pphcr_shard::{ProcessShard, Request, Response, ShardError, ShardTransport};
use std::cell::Cell;
use std::rc::Rc;

/// What the WAL wrapper saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Time inside `append`, ns.
    pub append_ns: u64,
    /// Time inside `sync` (group-commit fsyncs included), ns.
    pub sync_ns: u64,
    /// Frames appended.
    pub records: u64,
    /// Bytes appended.
    pub bytes: u64,
}

/// A [`FileWal`] that optionally times its calls into a shared
/// [`WalStats`] cell the benchmark reads while the engine owns the WAL.
#[derive(Debug)]
pub struct TimedWal {
    inner: FileWal,
    stats: Option<Rc<Cell<WalStats>>>,
}

impl TimedWal {
    /// Wraps `inner`; `timed` turns the timers on. Returns the wrapper
    /// and the cell it reports into.
    #[must_use]
    pub fn new(inner: FileWal, timed: bool) -> (Self, Rc<Cell<WalStats>>) {
        let stats = Rc::new(Cell::new(WalStats::default()));
        (TimedWal { inner, stats: timed.then(|| Rc::clone(&stats)) }, stats)
    }
}

impl WalStorage for TimedWal {
    fn append(&mut self, frame: &[u8]) -> Result<(), PersistError> {
        let Some(cell) = self.stats.as_ref() else { return self.inner.append(frame) };
        let sw = stopwatch();
        let out = self.inner.append(frame);
        let mut stats = cell.get();
        stats.append_ns += sw.elapsed_ns();
        stats.records += 1;
        stats.bytes += frame.len() as u64;
        cell.set(stats);
        out
    }

    fn sync(&mut self) -> Result<(), PersistError> {
        let Some(cell) = self.stats.as_ref() else { return self.inner.sync() };
        let sw = stopwatch();
        let out = self.inner.sync();
        let mut stats = cell.get();
        stats.sync_ns += sw.elapsed_ns();
        cell.set(stats);
        out
    }
}

/// Set in a child's environment to start it as a shard agent.
pub const AGENT_ENV: &str = "PERFBENCH_SHARD_AGENT";

/// A [`ProcessShard`] that optionally times how long the router waits
/// in `recv` for this shard's responses.
#[derive(Debug)]
pub struct TimedShard {
    inner: ProcessShard,
    recv_wait_ns: Option<Rc<Cell<u64>>>,
}

/// The benchmark's view of one agent while the router owns its pipe.
#[derive(Debug, Clone)]
pub struct ShardHandle {
    pid: u32,
    recv_wait_ns: Rc<Cell<u64>>,
}

impl ShardHandle {
    /// The agent's peak resident set (`VmHWM`), MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb_of(&format!("/proc/{}/status", self.pid))
    }

    /// Nanoseconds the router spent blocked on this agent's responses
    /// (0 unless timed).
    #[must_use]
    pub fn recv_wait_ns(&self) -> u64 {
        self.recv_wait_ns.get()
    }
}

impl TimedShard {
    /// Spawns this executable as a shard agent: the child inherits
    /// [`AGENT_ENV`], which makes `main` serve the shard protocol.
    ///
    /// # Errors
    /// [`ShardError::Spawn`] when the agent cannot start.
    pub fn spawn(timed: bool) -> Result<(Self, ShardHandle), ShardError> {
        let exe = std::env::current_exe().map_err(ShardError::Spawn)?;
        std::env::set_var(AGENT_ENV, "1");
        let before = children();
        let inner = ProcessShard::spawn(&exe)?;
        let pid = children().into_iter().find(|p| !before.contains(p)).unwrap_or(0);
        let wait = Rc::new(Cell::new(0));
        let handle = ShardHandle { pid, recv_wait_ns: Rc::clone(&wait) };
        Ok((TimedShard { inner, recv_wait_ns: timed.then_some(wait) }, handle))
    }
}

impl ShardTransport for TimedShard {
    fn send(&mut self, request: &Request) -> Result<(), ShardError> {
        self.inner.send(request)
    }

    fn recv(&mut self) -> Result<Response, ShardError> {
        let Some(wait) = self.recv_wait_ns.as_ref() else { return self.inner.recv() };
        let sw = stopwatch();
        let out = self.inner.recv();
        wait.set(wait.get() + sw.elapsed_ns());
        out
    }
}

/// Words of the CPU mask `sched_getaffinity` and `sched_setaffinity`
/// take: glibc's `cpu_set_t`, 1 024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process to the lowest CPU it may run on; threads and agent
/// processes started afterwards inherit the pin. Returns that CPU, or
/// `None` when the kernel refuses.
///
/// A pipe round trip between processes on different virtual CPUs waits
/// for the hypervisor to wake the idle one, which takes as long as the
/// host's other tenants let it; on one CPU the round trip is two
/// context switches.
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, laid out as
    // the kernel's CPU mask; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find_map(|(i, &w)| (w != 0).then(|| i * 64 + w.trailing_zeros() as usize))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// This process's peak resident set (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    peak_rss_mb_of("/proc/self/status")
}

fn peak_rss_mb_of(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pids of this process's live children.
fn children() -> Vec<u32> {
    let me = format!("{}", std::process::id());
    let Ok(dir) = std::fs::read_dir("/proc") else { return Vec::new() };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/status")).is_ok_and(|s| {
                s.lines().any(|l| l.strip_prefix("PPid:").is_some_and(|p| p.trim() == me))
            })
        })
        .collect()
}
