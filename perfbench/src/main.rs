//! `perfbench` — the PPHCR end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload commute|durable_mix|sharded_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines go first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set. The exit code is non-zero when an output check fails.
//! See `perfbench/README.md` for the workloads and the metric table.

mod bench;
mod deploy;
mod gen;
mod layers;
mod probe;
mod stats;

use bench::{Kind, Run, Samples};
use stats::{median_f64, quantile};
use std::fmt::Write as _;

/// Tail percentile of tick latency: with at least
/// [`bench::MIN_TICKS`] samples, at least 10 lie beyond it.
const TICK_TAIL: f64 = 0.90;
/// Tail percentile of telemetry latency. Every workload's window holds
/// at least 1 000 telemetry commands and a run at least
/// [`bench::MIN_ROUNDS`] windows, so at least 45 lie beyond it. Not
/// p99: on `commute` the skips that refill an empty queue (a model
/// build each) are 1.2–1.9 % of telemetry, depending on the seed, so
/// p99 sits at the edge of that mode and moves with the seed; p99.5
/// sits inside it.
const TELEMETRY_TAIL: f64 = 0.995;
/// Largest share of window time that may be left unaccounted by the
/// per-class entry-point times in the traced run.
const RECONCILE_TOLERANCE: f64 = 0.05;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args { kind, seed, seconds, trace })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit, note: String::new() }
}

fn ns_quantile(samples: &[u64], q: f64, scale: f64) -> f64 {
    quantile(samples, q).map_or(0.0, |ns| ns as f64 / scale)
}

fn with_count(mut m: Metric, n: usize, q: f64) -> Metric {
    m.note = format!("n={n} beyond={}", stats::beyond(n, q));
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run, plus the ones that apply
/// to some workloads only (printed, not in the result line).
///
/// Every figure covers all untraced rounds (see [`Run::timed`]):
/// `setup_s` and the throughputs are medians of per-round values, the
/// quantiles are read off the pooled samples.
fn end_to_end(run: &Run) -> (Vec<Metric>, Vec<Metric>) {
    let all = run.timed();
    let samples = run.samples();
    let median =
        |f: fn(&bench::Round) -> f64| median_f64(&all.iter().map(|r| f(r)).collect::<Vec<_>>());
    fn per_s(count: u64, r: &bench::Round) -> f64 {
        ratio(count as f64, r.window_ns as f64 / 1e9)
    }
    let self_rss = all.iter().map(|r| r.self_rss_mb).fold(0.0, f64::max);
    let agent_rss = median(|r| r.agent_rss_mb);
    let (ticks, telemetry) = (samples.tick.len(), samples.telemetry.len());
    let rounds = format!("median of {} rounds", all.len());
    let mut setup_m = metric("setup_s", median(|r| r.setup_s), "s");
    setup_m.note.clone_from(&rounds);
    let mut user_ticks = metric("user_ticks_per_s", median(|r| per_s(r.tick_users, r)), "1/s");
    user_ticks.note.clone_from(&rounds);
    let mut ops = metric("ops_per_s", median(|r| per_s(r.commands, r)), "1/s");
    ops.note = rounds;
    let main = vec![
        setup_m,
        with_count(metric("tick_p50_ms", ns_quantile(&samples.tick, 0.5, 1e6), "ms"), ticks, 0.5),
        with_count(
            metric("tick_p90_ms", ns_quantile(&samples.tick, TICK_TAIL, 1e6), "ms"),
            ticks,
            TICK_TAIL,
        ),
        user_ticks,
        with_count(
            metric("telemetry_p50_us", ns_quantile(&samples.telemetry, 0.5, 1e3), "us"),
            telemetry,
            0.5,
        ),
        with_count(
            metric("telemetry_p995_us", ns_quantile(&samples.telemetry, TELEMETRY_TAIL, 1e3), "us"),
            telemetry,
            TELEMETRY_TAIL,
        ),
        ops,
        metric("peak_rss_mb", self_rss + agent_rss, "MiB"),
    ];
    println!(
        "per-round ops/s: {}",
        all.iter()
            .map(|r| format!("{:.0}", ratio(r.commands as f64, r.window_ns as f64 / 1e9)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut extra = Vec::new();
    let editorial = samples.editorial();
    if !editorial.is_empty() {
        extra.push(with_count(
            metric("editorial_p50_us", ns_quantile(&editorial, 0.5, 1e3), "us"),
            editorial.len(),
            0.5,
        ));
    }
    let recovery: Vec<f64> = all.iter().filter_map(|r| r.recovery.map(|x| x.seconds)).collect();
    if !recovery.is_empty() {
        let mut m = metric("recovery_s", median_f64(&recovery), "s");
        m.note = format!("median of {} recoveries", recovery.len());
        extra.push(m);
    }
    (main, extra)
}

/// The per-layer metrics of a traced run (plain, traced, plain
/// rounds), those that apply to this workload only (printed, not in the
/// result line), the workload-split and reconciliation verdicts, and
/// the failed ones.
fn per_layer(kind: Kind, run: &Run) -> (Vec<Metric>, Vec<Metric>, Vec<String>, Vec<String>) {
    let (Some(plain), Some(round), Some(plain2)) =
        (run.rounds.first(), run.rounds.get(1), run.rounds.get(2))
    else {
        return (Vec::new(), Vec::new(), Vec::new(), vec!["traced run needs three rounds".into()]);
    };
    let Some(t) = round.traced.as_ref() else {
        return (Vec::new(), Vec::new(), Vec::new(), vec!["second round was not traced".into()]);
    };
    let s = &round.samples;
    let secs = |ns: u64| ns as f64 / 1e9;
    let sum = |v: &[u64]| v.iter().sum::<u64>();
    let counter = |name: &str| t.obs_after.counter(name).saturating_sub(t.obs_before.counter(name));
    let gauge = |snap: &pphcr_obs::ObsSnapshot, name: &str| snap.gauge(name).unwrap_or(0);
    let hist = |snap: &pphcr_obs::ObsSnapshot, name: &str| {
        snap.histograms.iter().find(|(n, _)| n == name).map_or((0, 0), |(_, h)| (h.count, h.sum))
    };
    let sharded = kind == Kind::ShardedMix;
    let only_sharded = |v: f64| if sharded { v } else { 0.0 };

    let tick_busy = secs(sum(&s.tick));
    let accounted = s.busy_ns() + round.snapshot_ns;
    let unaccounted = (round.window_ns as f64 - accounted as f64) / 1e9;
    let p = &t.probe;
    let build_s = secs(p.build_ns);
    let hits = counter("candidates.warm_serve") + counter("candidates.cross_tick_hit");
    let misses = counter("candidates.cache_misses");
    let triggers = counter("proactive.triggers");
    let delivered = counter("schedule.delivered");
    let (rc0, rs0) = hist(&t.obs_before, "candidates.ranked_len");
    let (rc1, rs1) = hist(&t.obs_after, "candidates.ranked_len");
    let routed: Vec<u64> = s.telemetry.iter().chain(&s.inject).copied().collect();
    // The router's share of entry-point time: one minus the time the
    // same commands take in-process, over the plain rounds' mean; and
    // its share of the median routed command.
    let plain_mean = |f: fn(&Samples) -> u64| (f(&plain.samples) + f(&plain2.samples)) as f64 / 2.0;
    let routed_p50 = |rounds: &[&Samples]| {
        let all: Vec<u64> =
            rounds.iter().flat_map(|s| s.telemetry.iter().chain(&s.inject)).copied().collect();
        ns_quantile(&all, 0.5, 1.0)
    };
    let (router_share, router_p50_share) = match run.in_process.as_ref() {
        Some(local) if sharded => (
            1.0 - ratio(local.busy_ns() as f64, plain_mean(Samples::busy_ns)),
            1.0 - ratio(routed_p50(&[local]), routed_p50(&[&plain.samples, &plain2.samples])),
        ),
        _ => (0.0, 0.0),
    };
    let recv_wait: Vec<f64> = t.recv_wait_ns.iter().map(|&ns| secs(ns)).collect();
    let recv_wait_total = secs(t.recv_wait_ns.iter().sum());
    let m = vec![
        metric("core.tick_busy_s", tick_busy, "s"),
        metric("core.telemetry_busy_s", secs(sum(&s.telemetry)), "s"),
        metric("core.editorial_busy_s", secs(sum(&s.ingest) + sum(&s.inject)), "s"),
        metric("core.unaccounted_s", unaccounted, "s"),
        metric("core.warm_s", secs(t.warm_span_ns), "s"),
        metric("core.commit_s", secs(t.tick_span_ns.saturating_sub(t.warm_span_ns)), "s"),
        metric("core.schedules_delivered", delivered as f64, "count"),
        metric("core.delivery_retries", counter("retry.resent") as f64, "count"),
        metric("core.delivery_failed", counter("retry.exhausted") as f64, "count"),
        metric("core.editorial_p50_us", ns_quantile(&run.samples().editorial(), 0.5, 1e3), "us"),
        metric("trajectory.model_builds", p.model_builds as f64, "count"),
        metric("trajectory.build_s", build_s, "s"),
        metric(
            "trajectory.fixes_per_build",
            ratio(p.build_fixes as f64, p.model_builds as f64),
            "count",
        ),
        metric("trajectory.predictions", counter("trip.predicted") as f64, "count"),
        metric("trajectory.tick_share", ratio(build_s, tick_busy), "ratio"),
        metric("recommender.triggers", triggers as f64, "count"),
        metric("recommender.retrievals", misses as f64, "count"),
        metric("recommender.cache_hit_ratio", ratio(hits as f64, (hits + misses) as f64), "ratio"),
        metric("recommender.schedule_yield", ratio(delivered as f64, triggers as f64), "ratio"),
        metric(
            "recommender.ranked_len_mean",
            ratio(rs1.saturating_sub(rs0) as f64, rc1.saturating_sub(rc0) as f64),
            "count",
        ),
        metric("recommender.retrieve_s", secs(p.retrieve_ns), "s"),
        metric("recommender.pack_s", secs(p.pack_ns), "s"),
        metric("catalog.clips", gauge(&t.obs_after, "catalog.clips") as f64, "count"),
        metric(
            "catalog.epoch_bumps",
            (gauge(&t.obs_after, "catalog.epoch") - gauge(&t.obs_before, "catalog.epoch")) as f64,
            "count",
        ),
        metric("catalog.ingest_busy_s", secs(sum(&s.ingest)), "s"),
        metric("userdata.fixes", p.fixes as f64, "count"),
        metric("userdata.feedback_events", p.feedback as f64, "count"),
        metric("shard.routed_busy_s", only_sharded(secs(sum(&routed))), "s"),
        metric("shard.routed_p50_us", only_sharded(ns_quantile(&routed, 0.5, 1e3)), "us"),
        metric("shard.fanout_busy_s", only_sharded(tick_busy), "s"),
        metric("shard.broadcast_busy_s", only_sharded(secs(sum(&s.ingest))), "s"),
        metric("shard.merge_obs_s", secs(t.merge_obs_ns), "s"),
        metric("shard.recv_wait_s", recv_wait_total, "s"),
        metric("shard.recv_wait_s.0", recv_wait.first().copied().unwrap_or(0.0), "s"),
        metric("shard.recv_wait_s.1", recv_wait.get(1).copied().unwrap_or(0.0), "s"),
        metric("shard.user_skew", t.user_skew, "ratio"),
        metric("shard.router_share", router_share, "ratio"),
        metric("shard.router_p50_share", router_p50_share, "ratio"),
        metric("shard.agent_rss_mb", round.agent_rss_mb, "MiB"),
        metric(
            "obs.trace_overhead",
            ratio(2.0 * round.window_ns as f64, (plain.window_ns + plain2.window_ns) as f64),
            "ratio",
        ),
    ];

    let persist = vec![
        metric("persist.wal_append_s", secs(t.wal.append_ns), "s"),
        metric("persist.wal_sync_s", secs(t.wal.sync_ns), "s"),
        metric("persist.wal_records", t.wal.records as f64, "count"),
        metric("persist.wal_bytes", t.wal.bytes as f64, "bytes"),
        metric("persist.snapshot_s", secs(round.snapshot_ns), "s"),
        metric("persist.snapshot_bytes", round.snapshot_bytes as f64, "bytes"),
        metric(
            "persist.replay_records",
            round.recovery.map_or(0.0, |r| r.replayed as f64),
            "count",
        ),
        metric("persist.recovery_s", plain.recovery.map_or(0.0, |r| r.seconds), "s"),
    ];
    let only_here = if kind == Kind::DurableMix { persist } else { Vec::new() };

    let share = ratio(build_s, tick_busy);
    let (mut split, mut failures) = (Vec::new(), Vec::new());
    let mut predict = |what: String, holds: bool| {
        split.push(format!("split: {what} — {}", if holds { "holds" } else { "DOES NOT HOLD" }));
        if !holds {
            failures.push(format!("workload split: {what}"));
        }
    };
    match kind {
        Kind::Commute => predict(
            format!("trajectory builds are {:.1} % of tick time (predicted > 50 %)", share * 100.0),
            share > 0.5,
        ),
        Kind::DurableMix => predict(
            format!("trajectory builds are {:.1} % of tick time (predicted < 10 %)", share * 100.0),
            share < 0.1,
        ),
        Kind::ShardedMix => predict(
            format!(
                "against an in-process run of the same commands, the router is {:.1} % of the \
                 median routed command (predicted > 50 %) and {:.1} % of all entry-point time",
                router_p50_share * 100.0,
                router_share * 100.0
            ),
            router_p50_share > 0.5,
        ),
    }
    let reconcile = ratio(unaccounted.abs(), secs(round.window_ns));
    split.push(format!(
        "reconcile: entry-point time + snapshots = {:.4} s of {:.4} s window, unaccounted {:.2} % \
         (tolerance {:.0} %)",
        secs(accounted),
        secs(round.window_ns),
        reconcile * 100.0,
        RECONCILE_TOLERANCE * 100.0
    ));
    if reconcile > RECONCILE_TOLERANCE {
        failures
            .push(format!("reconciliation: {:.2} % of window time unaccounted", reconcile * 100.0));
    }
    (m, only_here, split, failures)
}

fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<30} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
}

fn main() {
    if std::env::var_os(probe::AGENT_ENV).is_some() {
        let mut input = std::io::stdin().lock();
        let mut output = std::io::BufWriter::new(std::io::stdout().lock());
        if let Err(e) = pphcr_shard::serve(&mut input, &mut output) {
            eprintln!("shard agent: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // `sharded_mix` runs the router and its agents on one CPU, so that
    // its pipe round trips measure the program and not how soon the
    // hypervisor wakes an idle virtual CPU.
    let pinned = if args.kind == Kind::ShardedMix { probe::pin_to_one_cpu() } else { None };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} profile={} rev={} \
         engine_workers={} agents={} group_commit={} pinned_cpu={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_rev(),
        deploy::ENGINE_WORKERS,
        deploy::AGENTS,
        deploy::GROUP_COMMIT,
        pinned.map_or_else(|| "none".to_string(), |c| c.to_string()),
    );
    let run = match bench::run(args.kind, args.seed, args.seconds, args.trace) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let _ = std::fs::remove_dir_all(deploy::SCRATCH_DIR);
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir(deploy::SCRATCH_DIR);
    let mut failures = run.failures.clone();
    let metrics = if args.trace {
        let (metrics, extra, split, failed) = per_layer(args.kind, &run);
        failures.extend(failed);
        print_table(
            "per-layer (traced round; latencies and recovery from the plain rounds)",
            &metrics,
        );
        print_table("per-layer, this workload only", &extra);
        for line in split {
            println!("{line}");
        }
        metrics
    } else {
        let (metrics, extra) = end_to_end(&run);
        print_table("end-to-end", &metrics);
        print_table("end-to-end, this workload only", &extra);
        metrics
    };
    let attempted: u64 = run.rounds.iter().map(|r| r.commands).sum();
    let failed = if failures.is_empty() { 0 } else { attempted };
    println!(
        "rounds={} failed_ratio={} checks: {}",
        run.rounds.len(),
        ratio(failed as f64, attempted as f64),
        if failures.is_empty() { "pass" } else { "FAIL" }
    );
    for note in &run.notes {
        println!("  check: {note}");
    }
    for f in &failures {
        println!("  FAILED: {f}");
    }
    println!("{}", json_line(failures.is_empty(), attempted.max(1), failed, &metrics));
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
