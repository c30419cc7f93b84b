//! Shard-assignment permutation tests for the work-stealing window
//! scheduler: assignment decides only *which worker* advances a shard
//! inside a window, so the canonical metrics snapshot (which omits the
//! nondeterministic `local.*` namespace), the per-node trace buffers,
//! and the blame report must all be byte-identical under heaviest-first
//! stealing and the adversarial rotating claim order at `--sim-threads`
//! 1/2/4/8.

use pa_cluster::ClusterSim;
use pa_core::{blame_of, metrics_of, Experiment};
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_simkit::SimDur;
use proptest::prelude::*;

/// A deliberately skewed workload: ranks on node 0 compute ~40× longer
/// per round than the rest, so the hot shard dominates every window —
/// the exact scenario the stealing order exists to absorb.
fn skewed_workload(tasks_per_node: u32) -> impl FnMut(u32) -> Box<dyn RankWorkload> {
    move |rank: u32| -> Box<dyn RankWorkload> {
        // Block layout: ranks 0..tasks_per_node live on node 0.
        let compute_us = if rank < tasks_per_node { 400 } else { 10 };
        Box::new(OpList::new(
            std::iter::repeat_n(
                [
                    MpiOp::Compute(SimDur::from_micros(compute_us)),
                    MpiOp::Allreduce { bytes: 256 },
                ],
                12,
            )
            .flatten()
            .collect(),
        ))
    }
}

/// Everything observable from one run: canonical metrics (minus
/// `local.*` by construction), node 0's trace buffer, and the blame
/// report's canonical JSON. `adversarial` runs under the engine's
/// adversarial claim-order test hook instead of heaviest-first stealing.
fn fingerprint(
    seed: u64,
    link_bw: Option<f64>,
    threads: usize,
    adversarial: bool,
) -> (String, Vec<pa_trace::TraceEvent>, String) {
    let run = || {
        Experiment::new(4, 2)
            .with_cpus_per_node(4)
            .with_trace_node(0)
            .with_record_all_ranks()
            .with_seed(seed)
            .with_link_bandwidth(link_bw)
            .with_sim_threads(threads)
            .run(&mut skewed_workload(2))
    };
    let out = if adversarial {
        ClusterSim::with_adversarial_claims(run)
    } else {
        run()
    };
    let trace: Vec<pa_trace::TraceEvent> = out.sim.kernel(0).trace().events().copied().collect();
    let blame = pa_blame::BlameReport {
        title: "sched".into(),
        runs: vec![blame_of(&out, "sched")],
        ..pa_blame::BlameReport::default()
    }
    .to_json();
    (metrics_of(&out).snapshot_json(), trace, blame)
}

#[test]
fn shard_schedule_permutations_replay_identical_history() {
    let reference = fingerprint(42, None, 1, false);
    for threads in [1usize, 2, 4, 8] {
        for adversarial in [false, true] {
            let got = fingerprint(42, None, threads, adversarial);
            assert_eq!(
                reference.0, got.0,
                "metrics diverge at {threads} threads (adversarial={adversarial})"
            );
            assert_eq!(
                reference.1, got.1,
                "trace diverges at {threads} threads (adversarial={adversarial})"
            );
            assert_eq!(
                reference.2, got.2,
                "blame diverges at {threads} threads (adversarial={adversarial})"
            );
        }
    }
}

proptest! {
    // Random seeds and link capacities: the finite-link mode is the one
    // where barrier grouping is history-visible, so it is the strongest
    // invariance check for an assignment permutation.
    #[test]
    fn stealing_is_history_invariant_under_random_links(
        seed in 0u64..10_000,
        link_bw in (any::<bool>(), 1e6f64..1e9).prop_map(|(l, bw)| l.then_some(bw)),
    ) {
        let reference = fingerprint(seed, link_bw, 1, false);
        for adversarial in [false, true] {
            let got = fingerprint(seed, link_bw, 4, adversarial);
            prop_assert_eq!(
                &reference.0, &got.0,
                "metrics diverge (seed={}, link_bw={:?}, adversarial={})", seed, link_bw, adversarial
            );
            prop_assert_eq!(
                &reference.1, &got.1,
                "trace diverges (seed={}, link_bw={:?}, adversarial={})", seed, link_bw, adversarial
            );
            prop_assert_eq!(
                &reference.2, &got.2,
                "blame diverges (seed={}, link_bw={:?}, adversarial={})", seed, link_bw, adversarial
            );
        }
    }
}
