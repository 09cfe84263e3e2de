//! Crash-recovery acceptance: the kill-point sweep.
//!
//! For each chaos seed the scripted workload is run once uninterrupted
//! through a `DurableEngine`, then killed at every WAL record boundary
//! and at mid-record torn tails, restored from the genesis snapshot
//! plus the cut log, and driven to completion. The recovered run must
//! be byte-identical to the uninterrupted one: same per-record event
//! stream, same persisted engine state (`snapshot_engine` bytes), same
//! `ObsSnapshot` JSON.

use pphcr::sim::crash::{full_replay_identical, kill_point_sweep};

/// Seeds swept in tier-1. The nightly chaos job widens this range.
const SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn kill_point_sweep_is_byte_identical_across_seeds() {
    for seed in SEEDS {
        let report = kill_point_sweep(seed);
        assert!(report.records >= 60, "seed {seed}: script too short ({})", report.records);
        assert!(
            report.kill_points > report.records,
            "seed {seed}: sweep must include torn tails, not just boundaries ({} points)",
            report.kill_points
        );
        assert!(
            report.all_identical(),
            "seed {seed}: {} of {} kill points diverged; first: {}",
            report.divergences.len(),
            report.kill_points,
            report.divergences.first().map_or("<none>", String::as_str)
        );
    }
}

#[test]
fn clean_restart_replay_is_byte_identical() {
    for seed in SEEDS {
        assert!(full_replay_identical(seed), "seed {seed}: full WAL replay diverged");
    }
}
