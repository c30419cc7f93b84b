//! The campaign executor: a crossbeam thread pool pulling points from a
//! shared queue. Each DES run is single-threaded internally and fully
//! determined by its spec, so results are bit-identical at any `--jobs`;
//! the executor restores submission order before returning.

use crate::cache::{Cache, PointResult};
use crate::manifest::{CampaignManifest, CampaignMetrics, ManifestPoint};
use crate::spec::PointSpec;
use pa_simkit::SimDur;
use serde::Serialize;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// How a campaign executes: parallelism, caching, reporting.
#[derive(Debug)]
pub struct ExecutorConfig {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Result cache; `None` disables caching entirely.
    pub cache: Option<Cache>,
    /// Ignore existing cache entries (but still store fresh results).
    pub rerun: bool,
    /// Print per-point progress lines to stderr (stdout stays reserved
    /// for figure output, which must be byte-identical across runs).
    pub progress: bool,
    /// Campaign label, used for progress lines and the manifest name.
    pub label: String,
    /// Periodic mid-run checkpoint interval (sim time) for fresh points.
    /// Requires a cache (checkpoints live under `<cache>/checkpoints/`,
    /// keyed by point content hash); `None` disables checkpointing.
    pub checkpoint_every: Option<SimDur>,
}

impl ExecutorConfig {
    /// One worker, no cache, no progress — the in-process default used
    /// by library helpers and tests.
    pub fn serial(label: impl Into<String>) -> ExecutorConfig {
        ExecutorConfig {
            jobs: 1,
            cache: None,
            rerun: false,
            progress: false,
            label: label.into(),
            checkpoint_every: None,
        }
    }

    /// Set the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> ExecutorConfig {
        self.jobs = jobs;
        self
    }

    /// Attach a cache.
    pub fn with_cache(mut self, cache: Cache) -> ExecutorConfig {
        self.cache = Some(cache);
        self
    }

    /// Checkpoint fresh points every `every` of sim time (needs a cache).
    pub fn with_checkpoint_every(mut self, every: SimDur) -> ExecutorConfig {
        self.checkpoint_every = Some(every);
        self
    }
}

/// Mid-run checkpoint context the executor hands a resumable runner for
/// one fresh point: where the point's checkpoint lives (restore from it
/// when present — a previous invocation was killed mid-run) and how often
/// to write it.
#[derive(Debug, Clone)]
pub struct CheckpointCtx {
    /// Checkpoint file, `<cache>/checkpoints/<content_key>.json`.
    pub path: PathBuf,
    /// Periodic checkpoint interval (sim time).
    pub every: SimDur,
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One result per input spec, in input order.
    pub results: Vec<PointResult>,
    /// Invocation statistics.
    pub metrics: CampaignMetrics,
    /// Indices of fixed-work points (no horizon override) that were
    /// nevertheless cut off — each one a failed reproduction.
    pub truncated: Vec<usize>,
}

/// Error listing the points a campaign failed to complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncatedPoints {
    /// Campaign label.
    pub label: String,
    /// Offending point indices.
    pub indices: Vec<usize>,
}

impl fmt::Display for TruncatedPoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "campaign '{}': {} fixed-work point(s) cut by the horizon (indices {:?})",
            self.label,
            self.indices.len(),
            self.indices
        )
    }
}

impl CampaignOutcome {
    /// Fail if any fixed-work point was cut by the horizon.
    pub fn ensure_complete(&self, label: &str) -> Result<(), TruncatedPoints> {
        if self.truncated.is_empty() {
            Ok(())
        } else {
            Err(TruncatedPoints {
                label: label.to_string(),
                indices: self.truncated.clone(),
            })
        }
    }
}

/// One worker-to-reporter message. Workers never print: every progress
/// line flows through this single channel and is written by the caller
/// thread, so `--jobs N` output is never torn across threads.
enum WorkerMsg {
    /// A fresh (uncached) simulation is starting.
    Started { index: usize },
    /// A point finished (fresh run or cache hit).
    Done {
        index: usize,
        result: PointResult,
        cached: bool,
    },
}

/// Run every spec through `runner`, in parallel, consulting the cache.
///
/// `runner` must be a pure function of the spec (the DES guarantees
/// this: one seed, one single-threaded simulation); under that contract
/// the returned results are identical for any `jobs` value.
pub fn run_campaign<W, F>(
    specs: &[PointSpec<W>],
    cfg: &ExecutorConfig,
    runner: F,
) -> CampaignOutcome
where
    W: Serialize + Sync,
    F: Fn(&PointSpec<W>) -> PointResult + Sync,
{
    run_campaign_resumable(specs, cfg, |spec, _ckpt| runner(spec))
}

/// [`run_campaign`] for checkpoint-aware runners: fresh points receive a
/// [`CheckpointCtx`] (when the config arms `checkpoint_every` and has a
/// cache) telling them where to write periodic checkpoints — and where to
/// restore from if an earlier invocation died mid-point. Restored tails
/// replay bit-identically, so results still match an uninterrupted
/// campaign's; a point's checkpoint is deleted once its result is cached.
pub fn run_campaign_resumable<W, F>(
    specs: &[PointSpec<W>],
    cfg: &ExecutorConfig,
    runner: F,
) -> CampaignOutcome
where
    W: Serialize + Sync,
    F: Fn(&PointSpec<W>, Option<&CheckpointCtx>) -> PointResult + Sync,
{
    let started = Instant::now();
    let total = specs.len();
    let keys: Vec<String> = specs.iter().map(|s| s.content_key()).collect();

    let (task_tx, task_rx) = crossbeam::channel::unbounded::<usize>();
    let (msg_tx, msg_rx) = crossbeam::channel::unbounded::<WorkerMsg>();
    for i in 0..total {
        task_tx.send(i).expect("queue open");
    }
    drop(task_tx);

    let jobs = cfg.jobs.max(1).min(total.max(1));
    let cache = cfg.cache.as_ref();
    let corrupt_before = cache.map_or(0, |c| c.corrupt_entries());
    let runner = &runner;
    let keys_ref = &keys;

    let mut slots: Vec<Option<(PointResult, bool)>> = (0..total).map(|_| None).collect();
    crossbeam::scope(|s| {
        for _ in 0..jobs {
            let task_rx = task_rx.clone();
            let msg_tx = msg_tx.clone();
            s.spawn(move |_| {
                while let Ok(i) = task_rx.recv() {
                    let spec = &specs[i];
                    let key = &keys_ref[i];
                    let cached_hit = match cache {
                        Some(c) if !cfg.rerun => c.lookup(key),
                        _ => None,
                    };
                    let (result, cached) = match cached_hit {
                        Some(r) => (r, true),
                        None => {
                            let _ = msg_tx.send(WorkerMsg::Started { index: i });
                            let ckpt = match (cache, cfg.checkpoint_every) {
                                (Some(c), Some(every)) => Some(CheckpointCtx {
                                    path: c.dir().join("checkpoints").join(format!("{key}.json")),
                                    every,
                                }),
                                _ => None,
                            };
                            let r = runner(spec, ckpt.as_ref());
                            if let Some(c) = cache {
                                let _ = c.store(key, spec, &r);
                            }
                            // The result is durable now; the mid-run
                            // checkpoint has served its purpose.
                            if let Some(cx) = &ckpt {
                                let _ = std::fs::remove_file(&cx.path);
                            }
                            (r, false)
                        }
                    };
                    if msg_tx
                        .send(WorkerMsg::Done {
                            index: i,
                            result,
                            cached,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
            });
        }
        drop(msg_tx);
        while let Ok(msg) = msg_rx.recv() {
            match msg {
                WorkerMsg::Started { index } => {
                    if cfg.progress {
                        eprintln!(
                            "  [{}] point {}/{total}: {} procs seed {} — running...",
                            cfg.label,
                            index + 1,
                            specs[index].procs(),
                            specs[index].seed,
                        );
                    }
                }
                WorkerMsg::Done {
                    index,
                    result,
                    cached,
                } => {
                    if cfg.progress {
                        eprintln!(
                            "  [{}] point {}/{total}: {} procs seed {} — {} ({:.1} µs)",
                            cfg.label,
                            index + 1,
                            specs[index].procs(),
                            specs[index].seed,
                            if cached { "cache hit" } else { "ran" },
                            result.mean_allreduce_us,
                        );
                    }
                    slots[index] = Some((result, cached));
                }
            }
        }
    })
    .expect("campaign worker panicked");

    let wall_s = started.elapsed().as_secs_f64();
    let mut results = Vec::with_capacity(total);
    let mut cache_hits = 0usize;
    let mut sim_events = 0u64;
    let mut cached_flags = Vec::with_capacity(total);
    for slot in slots {
        let (r, cached) = slot.expect("every point produced a result");
        if cached {
            cache_hits += 1;
        } else {
            sim_events += r.events;
        }
        cached_flags.push(cached);
        results.push(r);
    }
    let truncated: Vec<usize> = specs
        .iter()
        .zip(&results)
        .enumerate()
        .filter(|(_, (s, r))| s.horizon.is_none() && !r.completed)
        .map(|(i, _)| i)
        .collect();
    let corrupt_entries = cache.map_or(0, |c| c.corrupt_entries()) - corrupt_before;
    let metrics = CampaignMetrics {
        points_total: total,
        points_run: total - cache_hits,
        cache_hits,
        corrupt_entries,
        sim_events,
        wall_s,
        events_per_sec: if wall_s > 0.0 {
            sim_events as f64 / wall_s
        } else {
            0.0
        },
    };
    if cfg.progress {
        eprintln!(
            "  [{}] {} points ({} cache hits) in {:.2}s — {:.0} events/s",
            cfg.label, total, cache_hits, wall_s, metrics.events_per_sec
        );
        if corrupt_entries > 0 {
            eprintln!(
                "  [{}] warning: {corrupt_entries} corrupt cache entr{} re-run and overwritten",
                cfg.label,
                if corrupt_entries == 1 { "y" } else { "ies" }
            );
        }
    }

    if let Some(c) = cache {
        let manifest = CampaignManifest {
            label: cfg.label.clone(),
            schema: crate::cache::CACHE_SCHEMA_VERSION,
            points: specs
                .iter()
                .enumerate()
                .map(|(i, s)| ManifestPoint {
                    index: i,
                    key: keys[i].clone(),
                    family: s.family.clone(),
                    nodes: s.nodes,
                    procs: s.procs(),
                    seed: s.seed,
                    cached: cached_flags[i],
                    completed: results[i].completed,
                    mean_allreduce_us: results[i].mean_allreduce_us,
                    events: results[i].events,
                    extra: results[i].extra.clone(),
                })
                .collect(),
            metrics: metrics.clone(),
        };
        if let Err(e) = manifest.write(c.dir()) {
            eprintln!("  [{}] warning: manifest not written: {e}", cfg.label);
        }
    }

    CampaignOutcome {
        results,
        metrics,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::SchedOptions;
    use pa_mpi::MpiConfig;
    use pa_noise::NoiseProfile;
    use std::collections::BTreeMap;

    fn spec(seed: u64) -> PointSpec<u64> {
        PointSpec {
            family: "unit".into(),
            nodes: 2,
            tasks_per_node: 2,
            cpus_per_node: 4,
            kernel: SchedOptions::vanilla(),
            cosched: None,
            noise: NoiseProfile::dedicated(),
            mpi: MpiConfig::default(),
            progress: None,
            workload: seed * 10,
            seed,
            horizon: None,
            link_bandwidth: None,
            policy: None,
        }
    }

    /// A cheap deterministic stand-in for a DES run.
    fn fake_runner(s: &PointSpec<u64>) -> PointResult {
        PointResult {
            mean_allreduce_us: (s.seed * 3 + s.workload) as f64,
            wall_s: 0.0,
            completed: s.seed != 99,
            events: s.seed,
            extra: BTreeMap::new(),
        }
    }

    #[test]
    fn results_keep_submission_order_at_any_job_count() {
        let specs: Vec<_> = (0..20).map(spec).collect();
        let serial = run_campaign(&specs, &ExecutorConfig::serial("t"), fake_runner);
        let parallel = run_campaign(
            &specs,
            &ExecutorConfig::serial("t").with_jobs(4),
            fake_runner,
        );
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.results[7].mean_allreduce_us, 7.0 * 3.0 + 70.0);
        assert_eq!(serial.metrics.points_total, 20);
        assert_eq!(serial.metrics.cache_hits, 0);
    }

    #[test]
    fn cache_turns_second_run_into_all_hits() {
        let dir = std::env::temp_dir().join(format!("pa-exec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs: Vec<_> = (0..6).map(spec).collect();
        let cfg = |rerun| ExecutorConfig {
            jobs: 3,
            cache: Some(Cache::at(&dir).unwrap()),
            rerun,
            progress: false,
            label: "cached".into(),
            checkpoint_every: None,
        };
        let first = run_campaign(&specs, &cfg(false), fake_runner);
        assert_eq!(first.metrics.cache_hits, 0);
        let second = run_campaign(&specs, &cfg(false), fake_runner);
        assert_eq!(second.metrics.cache_hits, 6);
        assert_eq!(first.results, second.results);
        // --rerun bypasses lookups but results stay identical.
        let third = run_campaign(&specs, &cfg(true), fake_runner);
        assert_eq!(third.metrics.cache_hits, 0);
        assert_eq!(first.results, third.results);
        // The manifest was written alongside the entries.
        assert!(dir.join("cached.manifest.json").exists());
    }

    #[test]
    fn corrupt_cache_entries_are_rerun_not_fatal() {
        let dir = std::env::temp_dir().join(format!("pa-exec-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs: Vec<_> = (0..4).map(spec).collect();
        let cfg = || ExecutorConfig {
            jobs: 2,
            cache: Some(Cache::at(&dir).unwrap()),
            rerun: false,
            progress: false,
            label: "corrupt".into(),
            checkpoint_every: None,
        };
        let first = run_campaign(&specs, &cfg(), fake_runner);
        assert_eq!(first.metrics.corrupt_entries, 0);
        // Truncate one entry (a half-written file) and garble another
        // with a wrong-schema body; the campaign must re-run both points
        // and overwrite the bad entries, not abort.
        let c = Cache::at(&dir).unwrap();
        std::fs::write(c.path_for(&specs[1].content_key()), "{\"schema\": 1,").unwrap();
        std::fs::write(
            c.path_for(&specs[2].content_key()),
            "{\"schema\": 999, \"key\": \"nope\"}",
        )
        .unwrap();
        let second = run_campaign(&specs, &cfg(), fake_runner);
        assert_eq!(second.results, first.results);
        assert_eq!(second.metrics.cache_hits, 2);
        assert_eq!(second.metrics.points_run, 2);
        assert_eq!(second.metrics.corrupt_entries, 2);
        // The overwritten entries now serve hits again.
        let third = run_campaign(&specs, &cfg(), fake_runner);
        assert_eq!(third.metrics.cache_hits, 4);
        assert_eq!(third.metrics.corrupt_entries, 0);
    }

    #[test]
    fn truncated_fixed_work_points_are_flagged() {
        let mut specs = vec![spec(1), spec(99), spec(3)];
        let out = run_campaign(&specs, &ExecutorConfig::serial("t"), fake_runner);
        assert_eq!(out.truncated, vec![1]);
        assert!(out.ensure_complete("t").is_err());
        // A horizon-bounded point is allowed to be cut.
        specs[1].horizon = Some(pa_simkit::SimDur::from_millis(10));
        let out = run_campaign(&specs, &ExecutorConfig::serial("t"), fake_runner);
        assert!(out.truncated.is_empty());
        assert!(out.ensure_complete("t").is_ok());
    }
}
