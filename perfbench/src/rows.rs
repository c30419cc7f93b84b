//! Layer rows: one layer driven alone, sized from the counters of the
//! workload's largest point so the rows stay tied to real traffic.

use crate::sweep::{median_over, Counters};
use pa_campaign::PointSpec;
use pa_kernel::{Action, ClockModel, CpuId, Kernel, Prio, Script, SoloRunner, ThreadSpec};
use pa_simkit::{EventId, EventQueue, SeedSpace, SimDur, SimTime};
use pa_trace::ThreadClass;
use pa_workloads::{audit_node, AggregateSpec};
use std::time::{Duration, Instant};

/// Host time per row.
const ROW_BUDGET: Duration = Duration::from_millis(400);

/// `kernel.ns_per_event`: host ns per kernel event of one node run
/// through `audit_node` with the point's kernel options and noise
/// profile, over the point's simulated duration.
///
/// `audit_node` does not report its event count, so an identical node is
/// built from the same public kernel API and run once to count them; its
/// interference share must equal the audit's, or the row is refused.
pub fn kernel_ns_per_event(
    spec: &PointSpec<AggregateSpec>,
    point: &Counters,
) -> Result<f64, String> {
    let window = SimDur::from_nanos(point.sim_wall_ns);
    let (events, share) = audit_replica(spec, window);
    let audit = audit_node(
        &spec.noise,
        spec.kernel,
        spec.cpus_per_node,
        window,
        spec.seed,
    );
    if audit.total_one_cpu_share != share || events == 0 {
        return Err(format!(
            "audit replica disagrees with audit_node (share {share} vs {}, {events} events)",
            audit.total_one_cpu_share
        ));
    }
    // One batch audits as many events as one node of the point processed.
    let per_node = point.events / u64::from(spec.nodes.max(1));
    let reps = per_node.div_ceil(events).max(1);
    let ns = median_over(ROW_BUDGET, 3, || {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(audit_node(
                &spec.noise,
                spec.kernel,
                spec.cpus_per_node,
                window,
                spec.seed,
            ));
        }
        start.elapsed().as_nanos() as f64
    });
    Ok(ns / (reps * events) as f64)
}

/// The node `audit_node` builds: one soaker per CPU plus the noise
/// profile's daemons. Returns its event count and interference share.
fn audit_replica(spec: &PointSpec<AggregateSpec>, window: SimDur) -> (u64, f64) {
    let seeds = SeedSpace::new(spec.seed);
    let ncpus = spec.cpus_per_node;
    let mut kernel = Kernel::new(
        0,
        ncpus,
        spec.kernel,
        ClockModel::synced(),
        seeds.stream_at("audit/kernel", 0, 0),
        1 << 12,
    );
    for c in 0..ncpus {
        kernel.spawn(
            ThreadSpec::new(format!("soak{c}"), ThreadClass::App, Prio::USER).on_cpu(CpuId(c)),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_secs(
                36_000,
            ))])),
        );
    }
    spec.noise.install(&mut kernel, &seeds, 0);
    let mut runner = SoloRunner::new(kernel);
    runner.boot();
    runner.run_until(SimTime::ZERO + window);
    // Summed in the audit's row order, so the shares match bit for bit.
    let mut rows: Vec<(SimDur, String)> = runner
        .kernel
        .usage_report()
        .into_iter()
        .filter(|r| r.class.is_interference())
        .map(|r| (r.cpu_time, r.name))
        .collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let share = rows
        .iter()
        .map(|(t, _)| t.nanos() as f64 / window.nanos() as f64)
        .sum();
    (runner.events_processed(), share)
}

/// `simkit.ns_per_op`: host ns per `EventQueue` operation (schedule, pop
/// or cancel) on one shard's calendar, at the point's per-shard pending
/// depth, per-shard event count and cancel ratio.
pub fn simkit_ns_per_op(nodes: u32, point: &Counters, seed: u64) -> f64 {
    let nodes = u64::from(nodes.max(1));
    let depth = (point.max_pending / nodes).max(1);
    let scheduled = (point.scheduled / nodes).max(depth);
    let cancel_ratio = point.cancelled as f64 / point.scheduled.max(1) as f64;
    // Mean gap between a shard's events, so new events land as far ahead
    // as the real calendar's do.
    let gap_ns = (point.sim_wall_ns / scheduled).max(1);
    median_over(ROW_BUDGET, 3, || {
        let (ops, ns) = queue_churn(depth, scheduled, cancel_ratio, gap_ns, seed);
        ns / ops as f64
    })
}

/// Schedule `depth` events, then pop and reschedule until `scheduled`
/// events have been scheduled, cancelling a pending one at
/// `cancel_ratio`. Returns (operations, host ns).
fn queue_churn(
    depth: u64,
    scheduled: u64,
    cancel_ratio: f64,
    gap_ns: u64,
    seed: u64,
) -> (u64, f64) {
    let mut rng = seed | 1;
    let mut next = move || {
        // xorshift64: cheap, seeded, identical on every host.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let spread = 2 * depth * gap_ns;
    let cancel_cut = (cancel_ratio.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    let mut q: EventQueue<u64> = EventQueue::new();
    // The last 64 scheduled ids are the cancellation candidates (the
    // kernel cancels timers it armed recently).
    let mut recent = [EventId::NONE; 64];
    let mut armed = 0usize;
    let mut ops = 0u64;
    let start = Instant::now();
    for i in 0..depth {
        recent[armed % 64] = q.schedule(SimTime::from_nanos(next() % spread), i);
        armed += 1;
        ops += 1;
    }
    let mut done = depth;
    while done < scheduled {
        let Some((t, payload)) = q.pop() else { break };
        ops += 1;
        let at = t + SimDur::from_nanos(next() % spread);
        recent[armed % 64] = q.schedule(at, payload);
        armed += 1;
        ops += 1;
        done += 1;
        if next() < cancel_cut {
            let victim = recent[(next() % 64) as usize];
            if q.cancel(victim) {
                ops += 1;
                recent[armed % 64] = q.schedule(at, payload);
                armed += 1;
                ops += 1;
                done += 1;
            }
        }
    }
    std::hint::black_box(q.len());
    (ops, start.elapsed().as_nanos() as f64)
}
