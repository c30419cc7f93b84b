//! The workloads, and one pass of a workload through the campaign
//! executor with the engine's counters read back after every point.

use crate::calib;
use pa_campaign::{run_campaign, Cache, ExecutorConfig, PointResult, PointSpec};
use pa_core::RunOutput;
use pa_mpi::OpKind;
use pa_obs::SpanTimeline;
use pa_simkit::{SimDur, SimTime};
use pa_workloads::{collect_scale_points, run_point, AggregateSpec, ScalingConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One benchmark workload: a figure sweep or a single paper-scale point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3: vanilla kernel, 16 tasks/node, five sizes, two seeds,
    /// 512 Allreduce calls per point.
    SweepVanilla,
    /// Figure 5: prototype kernel plus co-scheduler, same sizes and seeds.
    SweepCosched,
    /// One Figure 3 point at 512 nodes × 16 tasks (8192 ranks), four seeds.
    PaperPoint,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SweepVanilla,
        Workload::SweepCosched,
        Workload::PaperPoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepVanilla => "sweep_vanilla",
            Workload::SweepCosched => "sweep_cosched",
            Workload::PaperPoint => "paper_point",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The sweep this workload runs for `seed`. The sweeps keep the
    /// figure binaries' standard sizes and seed pair. Each point's host
    /// work is held nearly fixed across seeds, so that a run measures the
    /// simulator rather than the seed: Figure 3 points run a fixed number
    /// of Allreduce calls (a fixed horizon lets their event count swing
    /// 2.6x between seeds), Figure 5 points a short fixed horizon (their
    /// event count barely moves with the seed), and the paper-scale point
    /// is averaged over four seeds.
    pub fn config(self, seed: u64) -> ScalingConfig {
        const SIZES: [u32; 5] = [4, 8, 16, 32, 59];
        let (mut cfg, nodes, seeds, horizon_ms) = match self {
            Workload::SweepVanilla => (
                ScalingConfig::fig3(false),
                SIZES.to_vec(),
                vec![seed, seed + 1],
                None,
            ),
            Workload::SweepCosched => (
                ScalingConfig::fig5(false),
                SIZES.to_vec(),
                vec![seed, seed + 1],
                Some(300),
            ),
            Workload::PaperPoint => (
                ScalingConfig::fig3(false),
                vec![512],
                (seed..seed + 4).collect(),
                Some(400),
            ),
        };
        cfg.node_counts = nodes;
        cfg.seeds = seeds;
        // Without a horizon a point runs the figure's standard 512
        // Allreduce calls and stops.
        cfg.target_sim_time = horizon_ms.map(SimDur::from_millis);
        cfg
    }
}

/// Deterministic scalars of one point: a pure function of its spec, so
/// they must repeat exactly across passes, tracing and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counters {
    pub events: u64,
    pub windows: u64,
    pub widened_windows: u64,
    pub messages: u64,
    pub fifo_clamps: u64,
    pub dispatches: u64,
    pub ctx_switches: u64,
    pub preemptions: u64,
    pub ticks: u64,
    pub callouts: u64,
    pub ipis: u64,
    pub scheduled: u64,
    pub cancelled: u64,
    pub max_pending: u64,
    pub collectives: u64,
    pub sim_wall_ns: u64,
    pub mean_allreduce_us: f64,
}

impl Counters {
    pub fn of(out: &RunOutput) -> Counters {
        let sim = &out.sim;
        let mut c = Counters {
            events: out.events,
            windows: sim.windows_run(),
            widened_windows: sim.widened_windows(),
            messages: sim.messages_routed(),
            fifo_clamps: sim.fifo_clamps(),
            sim_wall_ns: out.wall.nanos(),
            mean_allreduce_us: out.mean_allreduce_us(),
            ..Counters::default()
        };
        for node in 0..sim.nodes() {
            let s = sim.kernel(node).stats();
            c.dispatches += s.dispatches;
            c.ctx_switches += s.ctx_switches;
            c.preemptions += s.preemptions;
            c.ticks += s.ticks;
            c.callouts += s.callouts_fired;
            c.ipis += s.ipis_taken;
        }
        let q = sim.queue_stats();
        c.scheduled = q.scheduled;
        c.cancelled = q.cancelled;
        c.max_pending = q.max_pending;
        let recorder = out.job.recorder.lock().expect("recorder lock poisoned");
        c.collectives = [
            OpKind::Allreduce,
            OpKind::Barrier,
            OpKind::Allgather,
            OpKind::Reduce,
            OpKind::Bcast,
            OpKind::Exchange,
        ]
        .into_iter()
        .map(|k| recorder.count(k) as u64)
        .sum();
        c
    }
}

/// Host time of one point inside a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointTime {
    /// `run_point`: build, boot and simulate.
    pub run_s: f64,
    /// Of which the engine measured inside `process_window`.
    pub shard_busy_s: f64,
    /// `PointResult::from_run` (plus `metrics_of` in a traced pass).
    pub fold_s: f64,
    /// The `metrics_of` share of `fold_s` (traced passes only).
    pub metrics_s: f64,
    /// Reference-loop slices run just before the point.
    pub slice_s: f64,
}

/// One pass: every point of the workload through `run_campaign`, with a
/// fresh, empty cache, as a figure binary runs it.
pub struct Pass {
    /// `run_campaign` wall time, less the reference-loop slices in it.
    pub wall_s: f64,
    /// Time of the [`calib::SLICES_PER_POINT`] slices before each point.
    pub slice_s: f64,
    pub counters: Vec<Counters>,
    pub times: Vec<PointTime>,
    pub results: Vec<PointResult>,
    /// The sweep's figure data (`ScalePoint`s) as JSON.
    pub scale_json: String,
}

impl Pass {
    /// [`Pass::wall_s`] at the reference speed.
    pub fn wall_at_reference(&self) -> f64 {
        calib::at_reference(
            self.wall_s,
            self.slice_s,
            self.times.len() * calib::SLICES_PER_POINT,
        )
    }
}

/// Host-time spans of a traced run, kept in memory and written out as
/// Chrome trace JSON at the end. Host nanoseconds since the run started
/// stand in for the timeline's simulated-time axis.
pub struct Tracer {
    origin: Instant,
    timeline: Mutex<SpanTimeline>,
}

impl Tracer {
    pub fn new() -> Tracer {
        let mut timeline = SpanTimeline::new();
        timeline.name_process(0, "perfbench (host time)");
        timeline.name_track(0, 0, "main");
        timeline.name_track(0, 1, "campaign worker");
        Tracer {
            origin: Instant::now(),
            timeline: Mutex::new(timeline),
        }
    }

    /// Record a closed span on track `tid` from `start` to now.
    pub fn span(&self, tid: u32, name: &str, start: Instant) {
        let at = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur = start.elapsed().as_nanos() as u64;
        self.timeline.lock().expect("span lock poisoned").complete(
            0,
            tid,
            name,
            SimTime::from_nanos(at),
            SimDur::from_nanos(dur),
        );
    }

    pub fn to_chrome_trace(&self) -> String {
        self.timeline
            .lock()
            .expect("span lock poisoned")
            .to_chrome_trace()
    }
}

/// Which point's `RunOutput` a traced pass keeps for the blame row.
pub struct Keep<'a> {
    pub index: usize,
    pub slot: &'a Mutex<Option<RunOutput>>,
}

/// Run one pass. `dir` is emptied first, so every point is a cache miss
/// plus a store. A panic anywhere in the pass is returned as an error.
pub fn run_pass(
    cfg: &ScalingConfig,
    specs: &[PointSpec<AggregateSpec>],
    dir: &Path,
    tracer: Option<&Tracer>,
    keep: Option<Keep<'_>>,
) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = Cache::at(dir).map_err(|e| format!("cache at {}: {e}", dir.display()))?;
    let exec = ExecutorConfig::serial("perfbench").with_cache(cache);
    let slots: Mutex<Vec<Option<(Counters, PointTime)>>> = Mutex::new(vec![None; specs.len()]);
    let runner = |spec: &PointSpec<AggregateSpec>| -> PointResult {
        let index = specs
            .iter()
            .position(|s| std::ptr::eq(s, spec))
            .expect("the executor hands out specs from the slice it was given");
        let slice_start = Instant::now();
        let slice_s = calib::slices(calib::SLICES_PER_POINT);
        if let Some(t) = tracer {
            t.span(1, "calib.slices", slice_start);
        }
        let start = Instant::now();
        let out = run_point(spec);
        let run_s = start.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            t.span(1, "core.experiment_run", start);
        }
        let fold_start = Instant::now();
        let result = PointResult::from_run(&out);
        let mut metrics_s = 0.0;
        if tracer.is_some() {
            let m = Instant::now();
            std::hint::black_box(pa_core::observe::metrics_of(&out));
            metrics_s = m.elapsed().as_secs_f64();
        }
        let fold_s = fold_start.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            t.span(1, "core.observe_fold", fold_start);
            t.span(1, "campaign.point", start);
        }
        let time = PointTime {
            run_s,
            shard_busy_s: out.sim.shard_busy_ns() as f64 / 1e9,
            fold_s,
            metrics_s,
            slice_s,
        };
        slots.lock().expect("slot lock poisoned")[index] = Some((Counters::of(&out), time));
        match &keep {
            Some(k) if k.index == index => {
                *k.slot.lock().expect("keep lock poisoned") = Some(out);
            }
            _ => drop(out),
        }
        result
    };
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_campaign(specs, &exec, runner)))
        .map_err(|p| format!("pass panicked: {}", panic_text(&p)))?;
    let elapsed_s = start.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.span(0, "campaign.run_campaign", start);
    }
    outcome
        .ensure_complete("perfbench")
        .map_err(|e| e.to_string())?;
    let scale_json = serde_json::to_string(&collect_scale_points(cfg, &outcome.results))
        .map_err(|e| format!("scale points: {}", e.0))?;
    let (counters, times): (Vec<Counters>, Vec<PointTime>) = slots
        .into_inner()
        .expect("slot lock poisoned")
        .into_iter()
        .map(|s| s.expect("every point ran"))
        .unzip();
    let slice_s = times.iter().map(|t| t.slice_s).sum::<f64>();
    Ok(Pass {
        wall_s: elapsed_s - slice_s,
        slice_s,
        counters,
        times,
        results: outcome.results,
        scale_json,
    })
}

/// Set-up time of one point: `Experiment::run` of the same spec at zero
/// horizon (build, install and boot), median of `reps` repetitions.
pub fn setup_time(spec: &PointSpec<AggregateSpec>, reps: usize) -> f64 {
    let mut zero = spec.clone();
    zero.horizon = Some(SimDur::ZERO);
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let out = run_point(&zero);
            let t = start.elapsed().as_secs_f64();
            drop(out);
            t
        })
        .collect();
    median(&mut times)
}

/// Host seconds of one point at `threads` engine threads, with its
/// counters (which must match the serial engine's).
pub fn timed_at_threads(spec: &PointSpec<AggregateSpec>, threads: usize) -> (f64, Counters) {
    pa_core::set_default_sim_threads(threads);
    let start = Instant::now();
    let out = run_point(spec);
    let t = start.elapsed().as_secs_f64();
    pa_core::set_default_sim_threads(1);
    (t, Counters::of(&out))
}

pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Repeat `f` until `budget` has passed (at least `min_reps` times) and
/// return the median of what it reports.
pub fn median_over(budget: Duration, min_reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed() < budget {
        samples.push(f());
    }
    median(&mut samples)
}

pub fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-text panic".into())
}
