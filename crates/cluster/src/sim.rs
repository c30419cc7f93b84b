//! The multi-node simulation driver.
//!
//! [`ClusterSim`] owns one *shard* per node — the node's [`Kernel`] plus a
//! private event calendar — and a switch [`FabricModel`] connecting them.
//! The engine is **conservatively parallel**: it advances all shards in
//! bounded time windows whose width is the cross-node wire latency
//! (the *lookahead*). Because every cross-node message takes at least
//! `net_latency` of fabric time, no event processed inside the current
//! window can affect another shard within that same window, so shards may
//! run the window concurrently without coordination. At each window
//! barrier, cross-shard messages are exchanged and merged in a
//! deterministic order — sorted by `(delivery time, source node, send
//! sequence)` — so the simulation history is **bit-identical at any
//! thread count**.
//!
//! One coordinator loop owns the window sequence: stop conditions, window
//! planning, the barrier merge and periodic checkpoints. It drives the
//! shards through a [`ShardExec`]: either inline on the calling thread
//! (`sim_threads` = 1) or through a scoped worker pool that claims shards
//! off a shared index. The executor decides only *which thread* advances
//! a shard inside a window, never what the shard does.
//!
//! The per-shard calendars together *are* the switch's globally
//! synchronized timebase; each node's kernel sees global time only through
//! its own `ClockModel` — exactly as real nodes see real time only through
//! their (possibly skewed) time-of-day clocks.
//!
//! Fabric channels are FIFO: delivery on each `(src node, dst node)`
//! channel is clamped to be non-decreasing in send order, mirroring the
//! in-order SP switch routes. Without the clamp a small message could
//! overtake a large one sent earlier on the same channel (serialization
//! makes the large one slower), which no real in-order fabric permits.

use crate::fabric::{FabricModel, LINK_WAIT_BUCKETS, LINK_WAIT_EDGES_NS};
use pa_kernel::{
    pop_event, schedule_effects, seg_slots_of, ClockModel, Effects, Kernel, KernelEvent,
    KernelSnapshot, Message, SchedOptions,
};
use pa_simkit::{sha256_hex, EventId, EventQueue, QueueStats, SeedSpace, SimDur, SimTime};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Static description of a cluster to build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of SMP nodes.
    pub nodes: u32,
    /// CPUs per node (the study's machines: 16-way Nighthawk/Power3).
    pub cpus_per_node: u8,
    /// Kernel options (identical on every node, like a site-wide kernel).
    pub options: SchedOptions,
    /// Maximum boot-time clock offset; each node draws uniformly from
    /// `[0, skew_max)`. Zero models pre-synchronized clocks.
    pub skew_max: SimDur,
    /// Trace-ring capacity per node.
    pub trace_capacity: usize,
    /// Fabric constants.
    pub fabric: FabricModel,
}

impl ClusterSpec {
    /// A cluster in the study's shape: `nodes` × 16-way, vanilla kernel,
    /// unsynchronized clocks (up to 10 ms skew).
    pub fn sp_system(nodes: u32) -> ClusterSpec {
        ClusterSpec {
            nodes,
            cpus_per_node: 16,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::from_millis(10),
            trace_capacity: 1 << 18,
            fabric: FabricModel::default(),
        }
    }

    /// Same, with the prototype kernel options.
    pub fn sp_system_prototype(nodes: u32) -> ClusterSpec {
        ClusterSpec {
            options: SchedOptions::prototype(),
            ..ClusterSpec::sp_system(nodes)
        }
    }

    /// Total CPU count.
    pub fn total_cpus(&self) -> u32 {
        self.nodes * u32::from(self.cpus_per_node)
    }
}

/// A cross-shard message staged during a window, delivered at the barrier.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StagedMsg {
    deliver_at: SimTime,
    src_node: u32,
    seq: u64,
    dst_node: u32,
    msg: Message,
}

/// One node's slice of the cluster: its kernel, its private event
/// calendar, and the staging state for messages leaving the node. Shard
/// structure is *per node*, never per thread, so the event history is
/// independent of how shards are distributed over worker threads.
struct Shard {
    node: u32,
    nnodes: u32,
    kernel: Kernel,
    queue: EventQueue<KernelEvent>,
    fx: Effects,
    events_processed: u64,
    messages_routed: u64,
    bytes_routed: u64,
    fifo_clamps: u64,
    /// Monotone sequence for cross-shard sends; with the source node it
    /// forms the deterministic tie-break of the barrier merge.
    msg_seq: u64,
    /// Per-destination FIFO floor: the latest delivery time already
    /// promised on the `(this node → dst)` channel.
    last_delivery: HashMap<u32, SimTime>,
    /// Cross-shard messages staged during the current window.
    outbox: Vec<StagedMsg>,
    /// Outstanding `SegEnd` calendar entry per CPU ([`EventId::NONE`]
    /// when none), so kernel-voided segment timers are cancelled out of
    /// the calendar instead of accumulating as stale entries.
    seg_events: Vec<EventId>,
    /// Busy-until register of this node's egress link. Advanced at send,
    /// inside the owning shard, so it is deterministic in event order.
    egress_free_at: SimTime,
    /// Busy-until register of this node's ingress link. Advanced only at
    /// the window-merge barrier, in the canonical merge order.
    ingress_free_at: SimTime,
    /// Messages delayed by a busy link (egress or ingress).
    link_waits: u64,
    /// Total link queueing delay, nanoseconds.
    link_wait_ns: u64,
    /// Queueing-delay histogram; buckets bounded by `LINK_WAIT_EDGES_NS`
    /// plus one overflow bucket.
    link_wait_hist: [u64; LINK_WAIT_BUCKETS],
}

/// One shard's slice of a cluster checkpoint. Everything mutable lives
/// here; static structure (node config, fabric, trace registrations) is
/// rebuilt from the [`ClusterSpec`] on restore and validated against the
/// snapshot by [`Kernel::restore`].
#[derive(Debug, Serialize, Deserialize)]
struct ShardSnap {
    node: u32,
    queue_now: SimTime,
    queue_next_id: u64,
    queue_stats: QueueStats,
    queue_entries: Vec<(SimTime, u64, KernelEvent)>,
    kernel: KernelSnapshot,
    events_processed: u64,
    messages_routed: u64,
    bytes_routed: u64,
    fifo_clamps: u64,
    msg_seq: u64,
    /// FIFO floors as a node-sorted pair list (canonical encoding).
    last_delivery: Vec<(u32, SimTime)>,
    /// Always empty at a window barrier; serialized anyway so the format
    /// does not change if checkpoints ever move inside a window.
    outbox: Vec<StagedMsg>,
    egress_free_at: SimTime,
    ingress_free_at: SimTime,
    link_waits: u64,
    link_wait_ns: u64,
    /// `LINK_WAIT_BUCKETS` entries (length-checked on restore).
    link_wait_hist: Vec<u64>,
}

impl Shard {
    /// Process every local event strictly before `window_end` — or up to
    /// and including it when `inclusive` (the final window of a
    /// `SimTime`-saturating horizon, where the exclusive bound is not
    /// representable).
    fn process_window(&mut self, window_end: SimTime, inclusive: bool, fabric: &FabricModel) {
        while let Some(t) = self.queue.peek_time() {
            if !in_window(t, window_end, inclusive) {
                break;
            }
            let (now, ev) =
                pop_event(&mut self.queue, &mut self.seg_events).expect("peeked event vanished");
            self.events_processed += 1;
            self.kernel.handle(now, ev, &mut self.fx);
            self.drain_effects(now, fabric);
        }
    }

    /// Earliest pending event in nanoseconds (`u64::MAX` when none).
    fn next_ns(&self) -> u64 {
        self.queue.peek_time().map_or(u64::MAX, SimTime::nanos)
    }

    /// Fold this shard's state after a window into `tally`: its earliest
    /// pending event, its live application threads, and the cross-shard
    /// messages it staged.
    fn report(&mut self, tally: &mut WindowTally) {
        tally
            .ran
            .push((self.node, self.next_ns(), self.kernel.app_alive()));
        tally.staged.append(&mut self.outbox);
    }

    /// Capture this shard's full mutable state.
    fn snapshot(&self) -> ShardSnap {
        let mut last_delivery: Vec<(u32, SimTime)> =
            self.last_delivery.iter().map(|(&n, &t)| (n, t)).collect();
        last_delivery.sort_by_key(|&(n, _)| n);
        ShardSnap {
            node: self.node,
            queue_now: self.queue.now(),
            queue_next_id: self.queue.next_id_raw(),
            queue_stats: self.queue.stats(),
            queue_entries: self
                .queue
                .live_entries()
                .into_iter()
                .map(|(t, id, ev)| (t, id, ev.clone()))
                .collect(),
            kernel: self.kernel.snapshot(),
            events_processed: self.events_processed,
            messages_routed: self.messages_routed,
            bytes_routed: self.bytes_routed,
            fifo_clamps: self.fifo_clamps,
            msg_seq: self.msg_seq,
            last_delivery,
            outbox: self.outbox.clone(),
            egress_free_at: self.egress_free_at,
            ingress_free_at: self.ingress_free_at,
            link_waits: self.link_waits,
            link_wait_ns: self.link_wait_ns,
            link_wait_hist: self.link_wait_hist.to_vec(),
        }
    }

    /// Overlay a checkpointed state onto this freshly assembled shard.
    fn restore(&mut self, snap: &ShardSnap) -> Result<(), String> {
        if snap.node != self.node {
            return Err(format!(
                "checkpoint shard {} restored into node {}",
                snap.node, self.node
            ));
        }
        if snap.link_wait_hist.len() != LINK_WAIT_BUCKETS {
            return Err(format!(
                "node {}: link-wait histogram has {} buckets, engine expects {}",
                self.node,
                snap.link_wait_hist.len(),
                LINK_WAIT_BUCKETS
            ));
        }
        self.kernel
            .restore(&snap.kernel)
            .map_err(|e| format!("node {}: {e}", self.node))?;
        self.queue = EventQueue::from_parts(
            snap.queue_now,
            snap.queue_next_id,
            snap.queue_stats,
            snap.queue_entries.clone(),
        )
        .map_err(|e| format!("node {}: {e}", self.node))?;
        // The per-CPU outstanding-SegEnd slots are derived state: with
        // true cancellation at most one SegEnd per CPU is live at any
        // barrier, so the restored calendar names them all.
        self.seg_events = seg_slots_of(&self.queue, self.kernel.ncpus() as usize);
        self.events_processed = snap.events_processed;
        self.messages_routed = snap.messages_routed;
        self.bytes_routed = snap.bytes_routed;
        self.fifo_clamps = snap.fifo_clamps;
        self.msg_seq = snap.msg_seq;
        self.last_delivery = snap.last_delivery.iter().copied().collect();
        self.outbox = snap.outbox.clone();
        self.egress_free_at = snap.egress_free_at;
        self.ingress_free_at = snap.ingress_free_at;
        self.link_waits = snap.link_waits;
        self.link_wait_ns = snap.link_wait_ns;
        for (slot, &v) in self
            .link_wait_hist
            .iter_mut()
            .zip(snap.link_wait_hist.iter())
        {
            *slot = v;
        }
        Ok(())
    }

    /// Move kernel effects into the calendar (local) or outbox (remote).
    fn drain_effects(&mut self, now: SimTime, fabric: &FabricModel) {
        schedule_effects(&mut self.queue, &mut self.seg_events, &mut self.fx);
        for msg in self.fx.outbound.drain(..) {
            let dst = msg.dst.node;
            assert!(dst < self.nnodes, "message to nonexistent node {dst}");
            self.messages_routed += 1;
            self.bytes_routed += u64::from(msg.bytes);
            let mut deliver_at = now + fabric.delay(&msg);
            // Egress link: concurrent cross-node sends share the node's
            // finite uplink, so a send issued while the link is still
            // draining an earlier payload queues behind it. The wait is
            // non-negative, so `deliver_at >= now + net_latency` still
            // holds and the engine's lookahead is never shortened.
            if dst != self.node {
                if let Some(occ) = fabric.link_occupancy(msg.bytes) {
                    let start = if self.egress_free_at > now {
                        let wait = self.egress_free_at - now;
                        self.link_waits += 1;
                        self.link_wait_ns += wait.nanos();
                        self.link_wait_hist[link_wait_bucket(wait)] += 1;
                        deliver_at += wait;
                        self.egress_free_at
                    } else {
                        now
                    };
                    self.egress_free_at = start + occ;
                }
            }
            // FIFO clamp: fabric channels deliver in send order. A later
            // (smaller) message may not overtake an earlier (larger) one
            // still serializing on the same channel.
            let floor = self.last_delivery.entry(dst).or_insert(SimTime::ZERO);
            if deliver_at < *floor {
                deliver_at = *floor;
                self.fifo_clamps += 1;
            }
            *floor = deliver_at;
            if dst == self.node {
                self.queue
                    .schedule(deliver_at, KernelEvent::Deliver { msg });
            } else {
                self.outbox.push(StagedMsg {
                    deliver_at,
                    src_node: self.node,
                    seq: self.msg_seq,
                    dst_node: dst,
                    msg,
                });
                self.msg_seq += 1;
            }
        }
    }

    /// Apply ingress-link queueing to a staged cross-shard message and
    /// schedule it into this (destination) shard's calendar; returns the
    /// final delivery time. Must be called in the canonical
    /// `(deliver_at, src_node, seq)` merge order: the ingress busy-until
    /// register advances monotonically in that order, so the serial and
    /// parallel engines observe identical queueing.
    fn accept_staged(&mut self, m: StagedMsg, fabric: &FabricModel) -> SimTime {
        let mut deliver_at = m.deliver_at;
        if let Some(occ) = fabric.link_occupancy(m.msg.bytes) {
            if self.ingress_free_at > deliver_at {
                let wait = self.ingress_free_at - deliver_at;
                self.link_waits += 1;
                self.link_wait_ns += wait.nanos();
                self.link_wait_hist[link_wait_bucket(wait)] += 1;
                deliver_at = self.ingress_free_at;
            }
            self.ingress_free_at = deliver_at + occ;
        }
        self.queue
            .schedule(deliver_at, KernelEvent::Deliver { msg: m.msg });
        deliver_at
    }
}

/// Histogram bucket for a link queueing delay (last bucket is overflow).
fn link_wait_bucket(wait: SimDur) -> usize {
    LINK_WAIT_EDGES_NS
        .iter()
        .position(|&edge| wait.nanos() <= edge)
        .unwrap_or(LINK_WAIT_EDGES_NS.len())
}

/// What the coordinator learns from one window: a report from every
/// shard that ran, and the staged cross-shard messages. Shards that did
/// not run are unchanged, so the top of the loop never rescans them.
#[derive(Default)]
struct WindowTally {
    /// `(node, earliest pending event ns or u64::MAX, live application
    /// threads)` for each shard that ran.
    ran: Vec<(u32, u64, usize)>,
    staged: Vec<StagedMsg>,
}

/// The coordinator's per-shard view between windows (see
/// [`ClusterSim::coordinate`]). It lives with the shards instead of
/// being allocated per run: a per-run allocation lands among the event
/// heaps as they grow and measurably raised the process's peak RSS.
#[derive(Default)]
struct Frontier {
    /// Earliest pending event per shard, ns (`u64::MAX` when none).
    next_at: Vec<u64>,
    /// Live application threads per shard.
    apps_at: Vec<usize>,
    /// This window's active shards, ascending.
    active: Vec<u32>,
}

impl Frontier {
    fn new(n: usize) -> Self {
        Frontier {
            next_at: vec![u64::MAX; n],
            apps_at: vec![0; n],
            active: Vec::with_capacity(n),
        }
    }
}

/// Wall-clock load accounting: a `local.*` diagnostic and the input of
/// the pool's claim order. Nothing deterministic reads it, and it is
/// never checkpointed (losing it only costs a few warm-up windows).
///
/// Only the shards that ran in a window are timed. An idle shard's
/// estimate is therefore frozen at its last active window rather than
/// decayed toward zero: heaviest-first ordering compares shards by what
/// they cost when they last had work.
struct HostLoad {
    /// Cumulative measured `process_window` wall time per shard.
    busy_ns: Vec<u64>,
    /// Exponentially-weighted per-shard busy-time estimate (ns) driving
    /// the pool's heavy-first claim order.
    est: Vec<u64>,
    /// Shards claimed by a pool worker off its static stripe.
    steals: u64,
    /// Sum over windows of (busiest − idlest worker) wall time at the
    /// barrier: the time the barrier spent waiting on load imbalance.
    imbalance_ns: u64,
}

impl HostLoad {
    fn new(shards: usize) -> HostLoad {
        HostLoad {
            busy_ns: vec![0; shards],
            est: vec![0; shards],
            steals: 0,
            imbalance_ns: 0,
        }
    }

    /// Charge `ns` of window wall time to `shard`.
    fn record(&mut self, shard: usize, ns: u64) {
        self.busy_ns[shard] = self.busy_ns[shard].saturating_add(ns);
        let est = &mut self.est[shard];
        *est = *est - *est / 4 + ns / 4;
    }
}

/// How the coordinator reaches the shards while it owns a run. The
/// inline executor is the shard vector itself, its active shards walked
/// in order on the calling thread; [`Pool`] spreads each window's active
/// shards over worker threads. Either way every active shard processes
/// exactly the same window, so the choice never reaches the history.
trait ShardExec {
    fn shard_count(&self) -> usize;

    /// Exclusive access to shard `i` between windows.
    fn with_shard<R>(&mut self, i: usize, f: impl FnOnce(&mut Shard) -> R) -> R;

    /// Advance the `active` shards (ascending indices, never empty)
    /// through the window ending at `end`, charging wall time to `load`
    /// and folding each one's [`Shard::report`] into `tally`. Returns
    /// false when a shard panicked: the window is then incomplete and
    /// must not be merged.
    fn run_window(
        &mut self,
        active: &[u32],
        end: SimTime,
        inclusive: bool,
        fabric: &FabricModel,
        load: &mut HostLoad,
        tally: &mut WindowTally,
    ) -> bool;
}

impl ShardExec for Vec<Shard> {
    fn shard_count(&self) -> usize {
        self.len()
    }

    fn with_shard<R>(&mut self, i: usize, f: impl FnOnce(&mut Shard) -> R) -> R {
        f(&mut self[i])
    }

    fn run_window(
        &mut self,
        active: &[u32],
        end: SimTime,
        inclusive: bool,
        fabric: &FabricModel,
        load: &mut HostLoad,
        tally: &mut WindowTally,
    ) -> bool {
        for &i in active {
            let sh = &mut self[i as usize];
            let t0 = Instant::now();
            sh.process_window(end, inclusive, fabric);
            load.record(i as usize, t0.elapsed().as_nanos() as u64);
            sh.report(tally);
        }
        true
    }
}

thread_local! {
    /// See [`ClusterSim::with_adversarial_claims`].
    static ADVERSARIAL_CLAIMS: Cell<bool> = const { Cell::new(false) };
}

/// Bounds of the window opening at `t_start`: `(end, inclusive)`. The
/// window covers `[t_start, end)`, or `[t_start, end]` when `inclusive`.
///
/// `horizon` is an inclusive cap, so the exclusive end is
/// `min(t_start + lookahead, horizon + 1)` — computed in 128 bits because
/// at `horizon = SimTime::FAR_FUTURE` the `+ 1` is not representable in
/// nanoseconds. A saturating add here would silently shrink the final
/// window by one nanosecond: events at the last representable instant
/// would never be processed and the window loop would spin on them
/// forever. When the true bound exceeds `u64::MAX`, the window is instead
/// closed *inclusively* at `FAR_FUTURE`.
fn window_bounds(t_start: SimTime, horizon: SimTime, lookahead: SimDur) -> (SimTime, bool) {
    bounds_from_end(window_end_u128(t_start, horizon, lookahead))
}

/// Exclusive window end in 128-bit nanoseconds (see [`window_bounds`]).
fn window_end_u128(t_start: SimTime, horizon: SimTime, lookahead: SimDur) -> u128 {
    let end = u128::from(t_start.nanos()) + u128::from(lookahead.nanos());
    end.min(u128::from(horizon.nanos()) + 1)
}

/// Does an event at `t` fall inside the window closing at `end`? The one
/// membership test: [`Shard::process_window`] and the coordinator's
/// active-set filter both use it, so a shard is skipped exactly when it
/// would have processed nothing.
fn in_window(t: SimTime, end: SimTime, inclusive: bool) -> bool {
    t < end || (inclusive && t == end)
}

/// Convert a 128-bit exclusive window end to `(end, inclusive)` bounds.
fn bounds_from_end(end: u128) -> (SimTime, bool) {
    if end > u128::from(u64::MAX) {
        (SimTime::FAR_FUTURE, true)
    } else {
        (SimTime::from_nanos(end as u64), false)
    }
}

/// Magic string identifying a cluster checkpoint file.
pub const CHECKPOINT_FORMAT: &str = "pa-cluster-checkpoint";

/// Checkpoint format version. Bump on any change to the snapshot schema;
/// restore rejects mismatches instead of guessing.
///
/// v2: per-thread wait-state accounting fields in `ThreadSnap`, the
/// rank program's compute counters, and the recorder's record-all flag.
///
/// v3: `QueueStats` gained the `tombstones`/`compactions` queue-health
/// fields (the indexed-heap event calendar overhaul).
///
/// v4: ready-queue entries carry dispatch keys and arrival sequences
/// instead of priorities, `SchedOptions` gained the `dispatcher` field,
/// and `KernelSnapshot` carries the dispatcher policy state (`disp`).
///
/// v5: `QueueStats` lost the `tombstones`/`compactions` fields with the
/// lazy-cancellation queue mode.
pub const CHECKPOINT_VERSION: u64 = 5;

/// Whole-cluster checkpoint state (everything the engine mutates).
#[derive(Debug, Serialize, Deserialize)]
struct ClusterSnap {
    now: SimTime,
    clock_resyncs: u64,
    /// Carried so a restored run's write counter continues where the
    /// interrupted run's left off (totals then match an uninterrupted
    /// run's bit-for-bit).
    checkpoints_written: u64,
    /// Next scheduled periodic checkpoint, nanoseconds (None = unarmed).
    /// Carried so a restored run keeps the uninterrupted run's schedule.
    checkpoint_next_ns: Option<u64>,
    shards: Vec<ShardSnap>,
}

/// Callback that captures engine-external state (e.g. a shared run
/// recorder) into a checkpoint's `extras` section.
pub type ExtrasProvider = Box<dyn Fn() -> Vec<(String, Value)> + Send + Sync>;

/// The running cluster.
pub struct ClusterSim {
    shards: Vec<Shard>,
    fabric: FabricModel,
    /// Window width: the minimum cross-node fabric delay.
    lookahead: SimDur,
    booted: bool,
    clock_resyncs: u64,
    sim_threads: usize,
    now: SimTime,
    /// Periodic-checkpoint interval (None = disabled).
    checkpoint_every: Option<SimDur>,
    /// File the periodic checkpointer overwrites.
    checkpoint_path: Option<PathBuf>,
    /// Next barrier time at/after which a periodic checkpoint is due.
    next_checkpoint_at: Option<SimTime>,
    checkpoints_written: u64,
    checkpoint_restores: u64,
    /// Size of the most recent checkpoint file written or restored.
    last_checkpoint_bytes: u64,
    extras_provider: Option<ExtrasProvider>,
    /// Windows opened by the engine (identical at any thread count).
    windows_run: u64,
    /// Windows widened past the lookahead because the whole cluster was
    /// daemon-idle.
    widened_windows: u64,
    /// Sum over windows of the number of shards that ran in them.
    shard_windows: u64,
    frontier: Frontier,
    /// Wall-clock load accounting (`local.*` diagnostics).
    load: HostLoad,
    /// Pool workers claim shards in the adversarial test order (see
    /// [`ClusterSim::with_adversarial_claims`]).
    adversarial_claims: bool,
}

/// Serialize a checkpoint to `path` atomically (write + rename), hashing
/// the payload so corruption and truncation are caught on restore.
/// Returns the file size in bytes.
fn write_checkpoint_file(
    path: &Path,
    snap: &ClusterSnap,
    extras: Vec<(String, Value)>,
) -> Result<u64, String> {
    let payload = Value::Map(vec![
        ("state".to_string(), snap.to_value()),
        ("extras".to_string(), Value::Map(extras)),
    ]);
    let payload_json =
        serde_json::to_string(&payload).map_err(|e| format!("encode checkpoint: {}", e.0))?;
    let file = Value::Map(vec![
        (
            "format".to_string(),
            Value::Str(CHECKPOINT_FORMAT.to_string()),
        ),
        ("version".to_string(), Value::UInt(CHECKPOINT_VERSION)),
        (
            "sha256".to_string(),
            Value::Str(sha256_hex(payload_json.as_bytes())),
        ),
        ("payload".to_string(), Value::Str(payload_json)),
    ]);
    let text = serde_json::to_string(&file).map_err(|e| format!("encode checkpoint: {}", e.0))?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
    }
    // Write-then-rename: a run killed mid-write leaves the previous
    // checkpoint intact instead of a truncated file.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text.as_bytes()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
    Ok(text.len() as u64)
}

/// What [`read_checkpoint_file`] yields: the snapshot, the extras pairs,
/// and the file size in bytes.
type CheckpointContents = (ClusterSnap, Vec<(String, Value)>, u64);

/// Check that `path` holds a well-formed checkpoint — parseable, right
/// format and version, hash intact — without applying it. Callers that
/// resume opportunistically (the campaign executor) use this to treat a
/// damaged checkpoint as absent rather than fatal.
pub fn verify_checkpoint_file(path: impl AsRef<Path>) -> Result<(), String> {
    read_checkpoint_file(path.as_ref()).map(|_| ())
}

/// Parse and verify a checkpoint file.
fn read_checkpoint_file(path: &Path) -> Result<CheckpointContents, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let file =
        serde_json::parse(&text).map_err(|e| format!("parse {}: {}", path.display(), e.0))?;
    let field = |name: &str| -> Result<&Value, String> {
        match &file {
            Value::Map(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("{}: missing field `{name}`", path.display())),
            _ => Err(format!("{}: not a checkpoint object", path.display())),
        }
    };
    match field("format")? {
        Value::Str(f) if f == CHECKPOINT_FORMAT => {}
        other => return Err(format!("{}: bad format tag {other:?}", path.display())),
    }
    match field("version")? {
        Value::UInt(v) if *v == CHECKPOINT_VERSION => {}
        other => {
            return Err(format!(
                "{}: unsupported checkpoint version {other:?} (expected {CHECKPOINT_VERSION})",
                path.display()
            ))
        }
    }
    let Value::Str(expect_hash) = field("sha256")? else {
        return Err(format!("{}: sha256 is not a string", path.display()));
    };
    let Value::Str(payload_json) = field("payload")? else {
        return Err(format!("{}: payload is not a string", path.display()));
    };
    let got = sha256_hex(payload_json.as_bytes());
    if &got != expect_hash {
        return Err(format!(
            "{}: checkpoint corrupt (sha256 {got} != recorded {expect_hash})",
            path.display()
        ));
    }
    let payload = serde_json::parse(payload_json)
        .map_err(|e| format!("parse checkpoint payload: {}", e.0))?;
    let Value::Map(pairs) = payload else {
        return Err("checkpoint payload is not an object".to_string());
    };
    let mut state = None;
    let mut extras = Vec::new();
    for (k, v) in pairs {
        match k.as_str() {
            "state" => state = Some(v),
            "extras" => {
                if let Value::Map(e) = v {
                    extras = e;
                }
            }
            _ => {}
        }
    }
    let state = state.ok_or("checkpoint payload has no state")?;
    let snap =
        ClusterSnap::from_value(&state).map_err(|e| format!("decode checkpoint: {}", e.0))?;
    Ok((snap, extras, text.len() as u64))
}

impl ClusterSim {
    /// Build the cluster: one kernel per node with per-node RNG streams
    /// and boot-time clock offsets drawn from `seeds`.
    pub fn build(spec: &ClusterSpec, seeds: &SeedSpace) -> ClusterSim {
        spec.fabric.validate().expect("invalid fabric model");
        assert!(spec.nodes > 0, "cluster needs at least one node");
        let shards = (0..spec.nodes)
            .map(|n| {
                let mut clock_rng = seeds.stream_at("cluster/clock", u64::from(n), 0);
                let offset = if spec.skew_max.is_zero() {
                    SimDur::ZERO
                } else {
                    SimDur::from_nanos(clock_rng.range(0, spec.skew_max.nanos()))
                };
                Shard {
                    node: n,
                    nnodes: spec.nodes,
                    kernel: Kernel::new(
                        n,
                        spec.cpus_per_node,
                        spec.options,
                        ClockModel::with_offset(offset),
                        seeds.stream_at("cluster/kernel", u64::from(n), 0),
                        spec.trace_capacity,
                    ),
                    queue: EventQueue::new(),
                    fx: Effects::new(),
                    events_processed: 0,
                    messages_routed: 0,
                    bytes_routed: 0,
                    fifo_clamps: 0,
                    msg_seq: 0,
                    last_delivery: HashMap::new(),
                    outbox: Vec::new(),
                    seg_events: vec![EventId::NONE; spec.cpus_per_node as usize],
                    egress_free_at: SimTime::ZERO,
                    ingress_free_at: SimTime::ZERO,
                    link_waits: 0,
                    link_wait_ns: 0,
                    link_wait_hist: [0; LINK_WAIT_BUCKETS],
                }
            })
            .collect();
        ClusterSim {
            shards,
            fabric: spec.fabric,
            lookahead: spec.fabric.net_latency,
            booted: false,
            clock_resyncs: 0,
            sim_threads: 1,
            now: SimTime::ZERO,
            checkpoint_every: None,
            checkpoint_path: None,
            next_checkpoint_at: None,
            checkpoints_written: 0,
            checkpoint_restores: 0,
            last_checkpoint_bytes: 0,
            extras_provider: None,
            windows_run: 0,
            widened_windows: 0,
            shard_windows: 0,
            frontier: Frontier::new(spec.nodes as usize),
            load: HostLoad::new(spec.nodes as usize),
            adversarial_claims: ADVERSARIAL_CLAIMS.with(Cell::get),
        }
    }

    /// Test hook: every cluster built on this thread while `f` runs has
    /// its pool workers claim shards in an adversarial order — reversed
    /// and rotated every window — instead of heaviest-first. The
    /// permutation tests use it to prove that which worker advances which
    /// shard never reaches the history. The inline (`sim_threads` = 1)
    /// executor has no claims and ignores it.
    #[doc(hidden)]
    pub fn with_adversarial_claims<R>(f: impl FnOnce() -> R) -> R {
        let prev = ADVERSARIAL_CLAIMS.with(|c| c.replace(true));
        let out = f();
        ADVERSARIAL_CLAIMS.with(|c| c.set(prev));
        out
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Worker threads used to advance shards (1 = serial). The event
    /// history is identical at any setting; this only trades wall-clock
    /// time. Clamped to the node count at run time.
    pub fn set_sim_threads(&mut self, threads: usize) {
        self.sim_threads = threads.max(1);
    }

    /// Configured worker thread count.
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// Shards claimed by a pool worker outside its static stripe
    /// (wall-clock diagnostic — nondeterministic, reported under
    /// `local.*`; always zero at one thread).
    pub fn steals(&self) -> u64 {
        self.load.steals
    }

    /// Total measured `process_window` wall time across shards, ns
    /// (wall-clock diagnostic, `local.*`).
    pub fn shard_busy_ns(&self) -> u64 {
        self.load.busy_ns.iter().sum()
    }

    /// One shard's cumulative measured window wall time, ns.
    pub fn shard_busy_ns_of(&self, node: u32) -> u64 {
        self.load.busy_ns[node as usize]
    }

    /// Sum over windows of the busiest-minus-idlest worker wall time at
    /// the barrier (wall-clock diagnostic, `local.*`): how long barriers
    /// spent waiting on load imbalance. Always zero at one thread.
    pub fn barrier_imbalance_ns(&self) -> u64 {
        self.load.imbalance_ns
    }

    /// Access a node's kernel (setup: spawning threads, enabling traces).
    pub fn kernel_mut(&mut self, node: u32) -> &mut Kernel {
        &mut self.shards[node as usize].kernel
    }

    /// Access a node's kernel read-only (post-run analysis).
    pub fn kernel(&self, node: u32) -> &Kernel {
        &self.shards[node as usize].kernel
    }

    /// Current global time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Spawn a thread on `node` at the current barrier time — a mid-run
    /// arrival (the batch layer's job launch). Callable only between run
    /// calls, when every shard is quiescent at a window barrier, so the
    /// spawn lands at the same instant regardless of `--sim-threads`.
    /// The kernel schedules a dispatcher nudge so the thread starts
    /// without waiting for the next tick.
    pub fn spawn_thread(
        &mut self,
        node: u32,
        spec: pa_kernel::ThreadSpec,
        program: Box<dyn pa_kernel::Program>,
    ) -> pa_kernel::Tid {
        assert!(self.booted, "spawn_thread on an unbooted cluster");
        let sh = &mut self.shards[node as usize];
        // The shard clock may sit ahead of the global barrier time when a
        // prior `run_until` advanced it; never spawn into the past.
        let at = self.now.max(sh.queue.now());
        let tid = sh.kernel.spawn_at(at, spec, program, &mut sh.fx);
        sh.drain_effects(at, &self.fabric);
        tid
    }

    /// Inject a message at the current barrier time, as if sent by an
    /// external agent (the batch layer's control traffic to per-node
    /// daemons). Delivery is immediate — control decisions are taken at
    /// quiescent barriers, so no fabric transit is modeled. Callable only
    /// between run calls; injection order is the caller's iteration
    /// order, which must itself be canonical.
    pub fn inject_message(&mut self, msg: Message) {
        assert!(self.booted, "inject_message on an unbooted cluster");
        let sh = &mut self.shards[msg.dst.node as usize];
        let at = self.now.max(sh.queue.now());
        sh.queue.schedule(at, KernelEvent::Deliver { msg });
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Messages routed over the fabric.
    pub fn messages_routed(&self) -> u64 {
        self.shards.iter().map(|s| s.messages_routed).sum()
    }

    /// Payload bytes routed over the fabric.
    pub fn bytes_routed(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes_routed).sum()
    }

    /// Deliveries delayed by the per-channel FIFO clamp (a later message
    /// would otherwise have overtaken an earlier one on the same channel).
    pub fn fifo_clamps(&self) -> u64 {
        self.shards.iter().map(|s| s.fifo_clamps).sum()
    }

    /// Messages delayed behind a busy ingress or egress link. Always zero
    /// in the unlimited (default) link mode.
    pub fn link_waits(&self) -> u64 {
        self.shards.iter().map(|s| s.link_waits).sum()
    }

    /// Total link queueing delay across all messages, nanoseconds.
    pub fn link_wait_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.link_wait_ns).sum()
    }

    /// One node's link contention: `(delayed messages, total queueing
    /// delay ns)` charged at that node's shard — its egress waits plus
    /// the ingress waits of messages arriving there. The per-node blame
    /// ranking reads this.
    pub fn link_wait_of(&self, node: u32) -> (u64, u64) {
        let sh = &self.shards[node as usize];
        (sh.link_waits, sh.link_wait_ns)
    }

    /// Link queueing-delay histogram, merged across shards; buckets are
    /// bounded by [`LINK_WAIT_EDGES_NS`] plus one overflow bucket.
    pub fn link_wait_hist(&self) -> [u64; LINK_WAIT_BUCKETS] {
        let mut total = [0u64; LINK_WAIT_BUCKETS];
        for sh in &self.shards {
            for (t, &c) in total.iter_mut().zip(sh.link_wait_hist.iter()) {
                *t += c;
            }
        }
        total
    }

    /// Node clocks re-synchronized via [`ClusterSim::sync_clocks`].
    pub fn clock_resyncs(&self) -> u64 {
        self.clock_resyncs
    }

    /// Engine self-profile, merged across all shard calendars.
    pub fn queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for sh in &self.shards {
            total.absorb(sh.queue.stats());
        }
        total
    }

    /// Synchronize every node's clock to the switch clock, leaving at most
    /// `residual_max` of error per node (the co-scheduler's startup
    /// procedure, §4). Must be called before [`ClusterSim::boot`] so tick
    /// boundaries are planned on the synced clocks.
    pub fn sync_clocks(&mut self, seeds: &SeedSpace, residual_max: SimDur) {
        for (n, sh) in self.shards.iter_mut().enumerate() {
            let mut rng = seeds.stream_at("cluster/clocksync", n as u64, 0);
            let residual = if residual_max.is_zero() {
                SimDur::ZERO
            } else {
                SimDur::from_nanos(rng.range(0, residual_max.nanos()))
            };
            sh.kernel.clock_mut().sync_to_switch(residual);
            self.clock_resyncs += 1;
        }
    }

    /// Arm periodic checkpointing: at the first window barrier at or past
    /// each multiple of `every`, the engine overwrites `path` with a full
    /// snapshot. Checkpoints are taken only at barriers, so the restored
    /// run replays the identical window sequence — and therefore the
    /// identical event history — at any `sim_threads` setting.
    ///
    /// If a schedule was already restored from a checkpoint, that
    /// schedule is kept (both call orders around [`ClusterSim::restore`]
    /// behave identically).
    pub fn set_checkpoint_every(&mut self, every: SimDur, path: impl Into<PathBuf>) {
        assert!(!every.is_zero(), "checkpoint interval must be positive");
        self.checkpoint_every = Some(every);
        self.checkpoint_path = Some(path.into());
        if self.next_checkpoint_at.is_none() {
            self.next_checkpoint_at = Some(SimTime::from_nanos(every.nanos()));
        }
    }

    /// Install a callback that contributes engine-external state (e.g. the
    /// MPI run recorder) to every checkpoint's `extras` section; restore
    /// hands the section back via [`ClusterSim::restore_with_extras`].
    pub fn set_checkpoint_extras(&mut self, provider: ExtrasProvider) {
        self.extras_provider = Some(provider);
    }

    /// Checkpoints written (manual and periodic) — carried across restore
    /// so totals match an uninterrupted run's.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Successful [`ClusterSim::restore`] calls on this instance.
    pub fn checkpoint_restores(&self) -> u64 {
        self.checkpoint_restores
    }

    /// Size in bytes of the most recent checkpoint file written or
    /// restored (0 if neither has happened).
    pub fn last_checkpoint_bytes(&self) -> u64 {
        self.last_checkpoint_bytes
    }

    /// Write a checkpoint to `path` now. Valid at any point where the
    /// engine is quiescent (before or after a `run_*` call — which is
    /// always a window barrier). Returns the file size in bytes.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> Result<u64, String> {
        if !self.booted {
            return Err("checkpoint requires a booted cluster".to_string());
        }
        let mut shards = std::mem::take(&mut self.shards);
        let written = self.write_checkpoint(&mut shards, path.as_ref());
        self.shards = shards;
        written
    }

    /// Snapshot every shard into `path`; the one capture path behind both
    /// manual and periodic checkpoints. Returns the file size in bytes.
    fn write_checkpoint<X: ShardExec>(
        &mut self,
        shards: &mut X,
        path: &Path,
    ) -> Result<u64, String> {
        // Increment before capture: the snapshot's counter then includes
        // this write, so a restored run's total matches an uninterrupted
        // run's.
        self.checkpoints_written += 1;
        let snap = ClusterSnap {
            now: self.now,
            clock_resyncs: self.clock_resyncs,
            checkpoints_written: self.checkpoints_written,
            checkpoint_next_ns: self.next_checkpoint_at.map(|t| t.nanos()),
            shards: (0..shards.shard_count())
                .map(|i| shards.with_shard(i, |sh| sh.snapshot()))
                .collect(),
        };
        let extras = self
            .extras_provider
            .as_ref()
            .map(|f| f())
            .unwrap_or_default();
        let bytes = write_checkpoint_file(path, &snap, extras)?;
        self.last_checkpoint_bytes = bytes;
        Ok(bytes)
    }

    /// Overlay state from a checkpoint file onto this cluster. The cluster
    /// must have been rebuilt from the *same* spec (same node/CPU/thread
    /// layout, same programs in the same spawn order) and booted; restore
    /// then rewinds every mutable piece of engine state to the barrier the
    /// checkpoint captured. Returns nothing; see
    /// [`ClusterSim::restore_with_extras`] for the extras section.
    pub fn restore(&mut self, path: impl AsRef<Path>) -> Result<(), String> {
        self.restore_with_extras(path).map(|_| ())
    }

    /// [`ClusterSim::restore`], additionally returning the checkpoint's
    /// `extras` section for the caller to apply (e.g. run-recorder state).
    pub fn restore_with_extras(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<Vec<(String, Value)>, String> {
        if !self.booted {
            return Err(
                "restore requires a booted cluster (rebuild the experiment, boot, then restore)"
                    .to_string(),
            );
        }
        let (snap, extras, bytes) = read_checkpoint_file(path.as_ref())?;
        if snap.shards.len() != self.shards.len() {
            return Err(format!(
                "checkpoint has {} nodes, cluster has {}",
                snap.shards.len(),
                self.shards.len()
            ));
        }
        for (sh, ss) in self.shards.iter_mut().zip(snap.shards.iter()) {
            sh.restore(ss)?;
        }
        self.now = snap.now;
        self.clock_resyncs = snap.clock_resyncs;
        self.checkpoints_written = snap.checkpoints_written;
        self.next_checkpoint_at = snap.checkpoint_next_ns.map(SimTime::from_nanos);
        self.checkpoint_restores += 1;
        self.last_checkpoint_bytes = bytes;
        Ok(extras)
    }

    /// Is a periodic checkpoint due at the barrier ending at `we`?
    fn checkpoint_due(&self, we: SimTime) -> bool {
        matches!(self.next_checkpoint_at, Some(at) if we >= at)
    }

    /// Advance the periodic schedule strictly past `we`. Done *before*
    /// capturing the snapshot so the restored run continues the schedule
    /// exactly where the interrupted run would have (no repeated write at
    /// the restore barrier).
    fn advance_schedule(next: &mut Option<SimTime>, every: SimDur, we: SimTime) {
        let Some(at) = *next else { return };
        let step = u128::from(every.nanos()).max(1);
        let mut at = u128::from(at.nanos());
        let we = u128::from(we.nanos());
        while at <= we {
            at += step;
        }
        *next = if at > u128::from(u64::MAX) {
            None
        } else {
            Some(SimTime::from_nanos(at as u64))
        };
    }

    /// Periodic-checkpoint hook, called by the coordinator at each
    /// window barrier after the merge.
    fn maybe_autocheckpoint<X: ShardExec>(
        &mut self,
        shards: &mut X,
        we: SimTime,
    ) -> Result<(), String> {
        if !self.checkpoint_due(we) {
            return Ok(());
        }
        let path = self
            .checkpoint_path
            .clone()
            .ok_or("checkpoint interval armed without a path")?;
        let every = self
            .checkpoint_every
            .ok_or("checkpoint due without an interval")?;
        Self::advance_schedule(&mut self.next_checkpoint_at, every, we);
        self.write_checkpoint(shards, &path).map(|_| ())
    }

    /// Boot every node at the current time.
    pub fn boot(&mut self) {
        assert!(!self.booted, "boot called twice");
        self.booted = true;
        let now = self.now;
        let mut staged = Vec::new();
        for sh in &mut self.shards {
            sh.kernel.boot(now, &mut sh.fx);
            sh.drain_effects(now, &self.fabric);
            staged.append(&mut sh.outbox);
        }
        // The coordinator rescans every shard when a run starts, so the
        // boot merge's delivery times need not be kept.
        merge_outboxes(
            &mut self.shards,
            &self.fabric,
            &mut staged,
            &mut self.frontier.next_at,
        );
    }

    /// Live application threads across the cluster.
    pub fn apps_alive(&self) -> usize {
        self.shards.iter().map(|s| s.kernel.app_alive()).sum()
    }

    /// Run until every application thread has exited or `horizon` passes.
    /// Returns the stop time: the latest event processed. Termination is
    /// checked at window barriers, so trailing events inside the final
    /// lookahead window are processed on every shard before stopping —
    /// identically at any thread count.
    pub fn run_until_apps_done(&mut self, horizon: SimTime) -> SimTime {
        self.run_windows(horizon, true);
        let end = self
            .shards
            .iter()
            .map(|s| s.queue.now())
            .max()
            .unwrap_or(self.now)
            .max(self.now);
        self.now = end;
        end
    }

    /// Run until `horizon` regardless of application state. Afterwards the
    /// global clock reads exactly `horizon` (every event at or before it
    /// has been processed), and that time is returned.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        self.run_windows(horizon, false);
        for sh in &mut self.shards {
            let target = horizon.max(sh.queue.now());
            sh.queue.advance_to(target);
        }
        self.now = self.now.max(horizon);
        self.now
    }

    /// Windows opened so far (a function of simulation state alone, so
    /// identical at any `sim_threads`).
    pub fn windows_run(&self) -> u64 {
        self.windows_run
    }

    /// Windows widened past the lookahead because every application
    /// thread had exited (daemon-idle fast-forward).
    pub fn widened_windows(&self) -> u64 {
        self.widened_windows
    }

    /// Sum over windows of the shards that ran in them: those with an
    /// event inside the window. Between `windows_run()` and
    /// `nodes() × windows_run()`; a function of simulation state alone,
    /// so identical at any `sim_threads`.
    pub fn shard_windows(&self) -> u64 {
        self.shard_windows
    }

    /// Bounds of the window opening at `t_start`, widened when the whole
    /// cluster is daemon-idle. Returns `(end, inclusive, idle)`; `idle`
    /// marks a daemon-idle window whose merge must stage nothing.
    ///
    /// Widening is sound because only application threads send cross-node
    /// messages: with `apps == 0` everywhere, no event processed anywhere
    /// can stage a cross-shard delivery, so the conservative-lookahead
    /// bound is vacuous and the window may run to the horizon. New
    /// application threads enter only via `spawn_thread`, between run
    /// calls, never inside one. The widened window is capped at the next
    /// periodic-checkpoint barrier so the checkpoint cadence survives
    /// daemon-idle stretches, and the merge path asserts that an idle
    /// window staged nothing (`daemon-idle window staged a cross-shard
    /// message` means the invariant — daemons never send cross-node — was
    /// broken by a new workload).
    ///
    /// The checkpoint cap also *shortens* the window when the due time
    /// falls inside the lookahead (`t_start < at < t_start + lookahead`)
    /// or at `t_start` itself. Before this, the `max(at, t_start + 1)`
    /// clamp made the capped end no wider than a normal window, the
    /// widening branch was skipped, and the barrier — and therefore the
    /// checkpoint — slid a full lookahead past the due time. Now the
    /// barrier lands at `max(at, t_start + 1)`: exactly the due time, or
    /// one nanosecond past it when the checkpoint is due exactly at
    /// `t_start` (a zero-width window cannot exist — the event at
    /// `t_start` must be processed or the loop would spin). Shrinking a
    /// daemon-idle window is as sound as widening one: no cross-shard
    /// message exists for the partition to reorder.
    fn plan_window(
        &mut self,
        t_start: SimTime,
        horizon: SimTime,
        daemon_idle: bool,
    ) -> (SimTime, bool, bool) {
        self.windows_run += 1;
        let normal = window_end_u128(t_start, horizon, self.lookahead);
        if daemon_idle {
            let mut wide = u128::from(horizon.nanos()) + 1;
            if let Some(at) = self.next_checkpoint_at {
                wide = wide.min(u128::from(at.nanos()).max(u128::from(t_start.nanos()) + 1));
            }
            if wide != normal {
                if wide > normal {
                    self.widened_windows += 1;
                }
                let (we, inclusive) = bounds_from_end(wide);
                return (we, inclusive, true);
            }
        }
        let (we, inclusive) = window_bounds(t_start, horizon, self.lookahead);
        (we, inclusive, daemon_idle)
    }

    /// Run the window loop to `horizon`. The shards leave `self` for the
    /// run and go to the executor `sim_threads` selects; they come back
    /// before any panic from the run is re-raised.
    fn run_windows(&mut self, horizon: SimTime, until_apps_done: bool) {
        assert!(self.booted, "boot the cluster first");
        let nthreads = self.sim_threads.min(self.shards.len()).max(1);
        let mut shards = std::mem::take(&mut self.shards);
        let (outcome, worker_panic) = if nthreads <= 1 {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.coordinate(&mut shards, horizon, until_apps_done)
            }));
            (outcome, None)
        } else {
            Pool::run(
                &mut shards,
                nthreads,
                self.fabric,
                self.adversarial_claims,
                |pool| {
                    catch_unwind(AssertUnwindSafe(|| {
                        self.coordinate(pool, horizon, until_apps_done)
                    }))
                },
            )
        };
        self.shards = shards;
        if let Some((node, payload)) = worker_panic {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            match msg {
                Some(m) => panic!("shard worker panicked while advancing node {node}: {m}"),
                None => resume_unwind(payload),
            }
        }
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
    }

    /// The window loop. One initial scan records every shard's earliest
    /// pending event and live-app count; afterwards both are maintained
    /// from the reports of the shards that ran plus the merged
    /// deliveries, so no window rescans the shards. Each window runs only
    /// its active set: the shards with an event inside it. A shard left
    /// out would have processed nothing and reported nothing new, and
    /// cross-shard input reaches it only through the merge, which lowers
    /// its `next_at`. Stop conditions, window bounds, the active set,
    /// per-shard event order and merge order are all functions of
    /// simulation state alone, so the history is identical under either
    /// executor at any thread count.
    fn coordinate<X: ShardExec>(
        &mut self,
        shards: &mut X,
        horizon: SimTime,
        until_apps_done: bool,
    ) {
        let n = shards.shard_count();
        // Taken for the run because `plan_window` borrows `self`. A panic
        // leaves an empty one behind, which the resizes refill.
        let Frontier {
            mut next_at,
            mut apps_at,
            mut active,
        } = std::mem::take(&mut self.frontier);
        next_at.resize(n, u64::MAX);
        apps_at.resize(n, 0);
        for i in 0..n {
            shards.with_shard(i, |sh| {
                next_at[i] = sh.next_ns();
                apps_at[i] = sh.kernel.app_alive();
            });
        }
        let mut apps: usize = apps_at.iter().sum();
        let mut tally = WindowTally::default();
        loop {
            if until_apps_done && apps == 0 {
                break;
            }
            let next_ns = next_at.iter().copied().min().unwrap_or(u64::MAX);
            if next_ns == u64::MAX || next_ns > horizon.nanos() {
                break;
            }
            let (we, inclusive, idle) =
                self.plan_window(SimTime::from_nanos(next_ns), horizon, apps == 0);
            active.clear();
            for (i, &t) in next_at.iter().enumerate() {
                if in_window(SimTime::from_nanos(t), we, inclusive) {
                    active.push(i as u32);
                }
            }
            self.shard_windows += active.len() as u64;
            if !shards.run_window(
                &active,
                we,
                inclusive,
                &self.fabric,
                &mut self.load,
                &mut tally,
            ) {
                break;
            }
            for (node, next, node_apps) in tally.ran.drain(..) {
                let i = node as usize;
                apps = apps - apps_at[i] + node_apps;
                apps_at[i] = node_apps;
                next_at[i] = next;
            }
            assert!(
                !idle || tally.staged.is_empty(),
                "daemon-idle window staged a cross-shard message"
            );
            merge_outboxes(shards, &self.fabric, &mut tally.staged, &mut next_at);
            if let Err(e) = self.maybe_autocheckpoint(shards, we) {
                panic!("periodic checkpoint failed: {e}");
            }
        }
        self.frontier = Frontier {
            next_at,
            apps_at,
            active,
        };
    }
}

/// Deliver staged cross-shard messages in the canonical
/// `(deliver_at, src_node, seq)` order, applying ingress-link queueing
/// per destination as they land. `staged` is drained but keeps its
/// capacity, so the per-barrier merge allocates nothing in steady state.
/// Each *final* delivery time lowers its destination's `next_at` entry
/// (nanoseconds): ingress queueing may move a delivery later, and the
/// next window must open exactly where a full queue scan would put it.
fn merge_outboxes<X: ShardExec>(
    shards: &mut X,
    fabric: &FabricModel,
    staged: &mut Vec<StagedMsg>,
    next_at: &mut [u64],
) {
    staged.sort_by_key(|m| (m.deliver_at, m.src_node, m.seq));
    for m in staged.drain(..) {
        let dst = m.dst_node as usize;
        let final_at = shards.with_shard(dst, |sh| sh.accept_staged(m, fabric));
        next_at[dst] = next_at[dst].min(final_at.nanos());
    }
}

/// A panic caught in a pool worker, with the node it struck.
type WorkerPanic = (u32, Box<dyn Any + Send>);

/// What one pool worker learned during a window. The wall-clock fields
/// feed [`HostLoad`] only.
#[derive(Default)]
struct WindowReport {
    tally: WindowTally,
    /// Wall time this worker spent inside `process_window` this window.
    busy_ns: u64,
    /// Per-shard wall time measured this window: `(shard, ns)`.
    shard_busy: Vec<(u32, u64)>,
    /// Claims outside this worker's static stripe.
    steals: u64,
}

/// State shared by the coordinator and the pool's workers.
struct PoolShared {
    shards: Vec<Mutex<Shard>>,
    fabric: FabricModel,
    nthreads: usize,
    barrier: Barrier,
    window_end_ns: AtomicU64,
    window_inclusive: AtomicBool,
    done: AtomicBool,
    /// `order[k]` is the shard to run k-th; the first `active_len`
    /// entries are rewritten by the coordinator between windows while
    /// workers are parked.
    order: Vec<AtomicU32>,
    /// Length of this window's claim list: its active shards.
    active_len: AtomicUsize,
    /// Next unclaimed position in `order`.
    claim: AtomicUsize,
    /// Set by the first worker panic: everyone stops at the next claim.
    abort: AtomicBool,
    panicked: Mutex<Option<WorkerPanic>>,
    /// One report per worker, handed to the coordinator at the barrier.
    slots: Vec<Mutex<WindowReport>>,
}

/// A panic inside `process_window` unwinds across a held shard guard and
/// poisons that mutex. The payload is re-raised after shutdown, so the
/// poison flag carries no information — strip it everywhere.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl PoolShared {
    /// One worker: per window, claim positions of the active list off the
    /// shared index until none are left, so a worker that finishes early
    /// pulls the next unprocessed shard instead of idling at the barrier.
    /// A claim off the worker's home stripe (`k % nthreads != t`) counts
    /// as a steal.
    fn worker(&self, t: usize) {
        loop {
            self.barrier.wait();
            if self.done.load(Ordering::Acquire) {
                break;
            }
            let we = SimTime::from_nanos(self.window_end_ns.load(Ordering::Acquire));
            let inclusive = self.window_inclusive.load(Ordering::Acquire);
            let active_len = self.active_len.load(Ordering::Acquire);
            // Reclaim the slot's report (the coordinator drained its
            // staged list but left the capacity), so steady state
            // reallocates nothing per window.
            let mut report = std::mem::take(&mut *lock(&self.slots[t]));
            report.tally.ran.clear();
            report.busy_ns = 0;
            report.shard_busy.clear();
            report.steals = 0;
            while !self.abort.load(Ordering::Acquire) {
                let k = self.claim.fetch_add(1, Ordering::Relaxed);
                if k >= active_len {
                    break;
                }
                if k % self.nthreads != t {
                    report.steals += 1;
                }
                let i = self.order[k].load(Ordering::Relaxed) as usize;
                let mut sh = lock(&self.shards[i]);
                let node = sh.node;
                let t0 = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    sh.process_window(we, inclusive, &self.fabric);
                }));
                let busy = t0.elapsed().as_nanos() as u64;
                if let Err(payload) = outcome {
                    // First panic wins. This worker still files its
                    // report and reaches the barrier so nobody deadlocks.
                    self.abort.store(true, Ordering::Release);
                    lock(&self.panicked).get_or_insert((node, payload));
                    break;
                }
                sh.report(&mut report.tally);
                report.busy_ns += busy;
                report.shard_busy.push((node, busy));
            }
            *lock(&self.slots[t]) = report;
            self.barrier.wait();
        }
    }
}

/// The scoped worker pool: the coordinator's side of [`PoolShared`].
struct Pool<'a> {
    shared: &'a PoolShared,
    /// Scratch for building each window's claim order.
    order_scratch: Vec<u32>,
    adversarial: bool,
    windows: usize,
}

impl Pool<'_> {
    /// Run `coordinate` against a pool of `nthreads` workers over
    /// `shards`, then shut the pool down and hand the shards back.
    /// Returns `coordinate`'s result and the first worker panic, if any.
    /// `coordinate` must not unwind: a panic on the coordinator would
    /// leave the workers parked at the barrier forever.
    fn run<R>(
        shards: &mut Vec<Shard>,
        nthreads: usize,
        fabric: FabricModel,
        adversarial: bool,
        coordinate: impl FnOnce(&mut Pool<'_>) -> R,
    ) -> (R, Option<WorkerPanic>) {
        let n = shards.len();
        let shared = PoolShared {
            shards: std::mem::take(shards).into_iter().map(Mutex::new).collect(),
            fabric,
            nthreads,
            barrier: Barrier::new(nthreads + 1),
            window_end_ns: AtomicU64::new(0),
            window_inclusive: AtomicBool::new(false),
            done: AtomicBool::new(false),
            order: (0..n as u32).map(AtomicU32::new).collect(),
            active_len: AtomicUsize::new(0),
            claim: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            panicked: Mutex::new(None),
            slots: (0..nthreads).map(|_| Mutex::default()).collect(),
        };
        let out = std::thread::scope(|scope| {
            for t in 0..nthreads {
                let shared = &shared;
                scope.spawn(move || shared.worker(t));
            }
            let mut pool = Pool {
                shared: &shared,
                order_scratch: Vec::with_capacity(n),
                adversarial,
                windows: 0,
            };
            let out = coordinate(&mut pool);
            shared.done.store(true, Ordering::Release);
            shared.barrier.wait();
            out
        });
        *shards = shared
            .shards
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .collect();
        let panicked = shared
            .panicked
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (out, panicked)
    }
}

impl ShardExec for Pool<'_> {
    fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    fn with_shard<R>(&mut self, i: usize, f: impl FnOnce(&mut Shard) -> R) -> R {
        f(&mut lock(&self.shared.shards[i]))
    }

    /// Workers are parked at the top-of-loop barrier on entry, so the
    /// coordinator owns the claim state here. The claim list is the
    /// active set, ordered heaviest-first by the busy-time EWMA — an
    /// LPT-style greedy that starts the hot shard before the cheap ones —
    /// or, under the adversarial test hook, reversed and rotated every
    /// window.
    fn run_window(
        &mut self,
        active: &[u32],
        end: SimTime,
        inclusive: bool,
        _fabric: &FabricModel,
        load: &mut HostLoad,
        tally: &mut WindowTally,
    ) -> bool {
        let shared = self.shared;
        let m = active.len();
        self.order_scratch.clear();
        if self.adversarial {
            let rot = self.windows % m;
            self.order_scratch
                .extend((0..m).map(|k| active[(m - 1 - k + rot) % m]));
        } else {
            self.order_scratch.extend_from_slice(active);
            self.order_scratch
                .sort_by_key(|&i| (std::cmp::Reverse(load.est[i as usize]), i));
        }
        self.windows += 1;
        for (slot, &i) in shared.order.iter().zip(&self.order_scratch) {
            slot.store(i, Ordering::Relaxed);
        }
        shared.active_len.store(m, Ordering::Release);
        shared.claim.store(0, Ordering::Relaxed);
        shared.window_end_ns.store(end.nanos(), Ordering::Release);
        shared.window_inclusive.store(inclusive, Ordering::Release);
        shared.barrier.wait(); // open the window
        shared.barrier.wait(); // all shards processed it
        if shared.abort.load(Ordering::Acquire) {
            return false;
        }
        let mut min_busy = u64::MAX;
        let mut max_busy = 0u64;
        for slot in &shared.slots {
            let mut r = lock(slot);
            tally.ran.append(&mut r.tally.ran);
            tally.staged.append(&mut r.tally.staged);
            load.steals += r.steals;
            min_busy = min_busy.min(r.busy_ns);
            max_busy = max_busy.max(r.busy_ns);
            for &(node, busy) in &r.shard_busy {
                load.record(node as usize, busy);
            }
        }
        if min_busy != u64::MAX {
            load.imbalance_ns = load.imbalance_ns.saturating_add(max_busy - min_busy);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::{
        Action, CpuId, Endpoint, Message, Prio, Script, SrcSel, TagSel, ThreadSpec, ThreadState,
        Tid, WaitMode,
    };
    use pa_trace::{HookMask, ThreadClass};

    fn two_node_cluster() -> ClusterSim {
        let spec = ClusterSpec {
            nodes: 2,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::ZERO,
            trace_capacity: 1 << 14,
            fabric: FabricModel::default(),
        };
        ClusterSim::build(&spec, &SeedSpace::new(1))
    }

    fn ep(node: u32, tid: u32) -> Endpoint {
        Endpoint {
            node,
            tid: Tid(tid),
        }
    }

    fn msg(src: Endpoint, dst: Endpoint, tag: u64, bytes: u32) -> Message {
        Message {
            src,
            dst,
            tag,
            bytes,
            sent_at: SimTime::ZERO,
            payload: 0,
        }
    }

    #[test]
    fn cross_node_ping_pong() {
        let mut sim = two_node_cluster();
        // Node 0 rank sends to node 1 rank, which replies; both then exit.
        sim.kernel_mut(0).trace_mut().set_mask(HookMask::ALL);
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("rank0", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Send(msg(ep(0, 0), ep(1, 0), 1, 8)),
                Action::Recv {
                    tag: TagSel::Exact(2),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
            ])),
        );
        sim.kernel_mut(1).spawn(
            ThreadSpec::new("rank1", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(1),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
                Action::Send(msg(ep(1, 0), ep(0, 0), 2, 8)),
            ])),
        );
        sim.boot();
        let end = sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        // Two network hops plus overheads: tens of microseconds.
        assert!(end >= SimTime::from_micros(26), "too fast: {end}");
        assert!(end < SimTime::from_millis(1), "too slow: {end}");
        assert_eq!(sim.kernel(0).thread_state(Tid(0)), ThreadState::Exited);
        assert_eq!(sim.now(), end);
    }

    #[test]
    fn fifo_clamp_prevents_overtaking() {
        // A 1 MB message followed by an 8-byte message on the same
        // channel: serialization makes the large one ~2.9 ms slower, so
        // without the clamp the small one would overtake it. The receiver
        // waits only for the *small* message; in-order delivery forces its
        // completion past the large message's serialization time.
        let mut sim = two_node_cluster();
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("sender", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Send(msg(ep(0, 0), ep(1, 0), 1, 1_000_000)),
                Action::Send(msg(ep(0, 0), ep(1, 0), 2, 8)),
            ])),
        );
        sim.kernel_mut(1).spawn(
            ThreadSpec::new("receiver", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![Action::Recv {
                tag: TagSel::Exact(2),
                src: SrcSel::Any,
                wait: WaitMode::Poll,
            }])),
        );
        sim.boot();
        let end = sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        assert_eq!(sim.fifo_clamps(), 1, "small message should be clamped");
        // 1 MB at 350 MB/s is ~2.86 ms of serialization.
        assert!(
            end >= SimTime::from_millis(2),
            "overtook the large message: {end}"
        );
    }

    fn two_node_cluster_with_link(link_bandwidth: f64) -> ClusterSim {
        let spec = ClusterSpec {
            nodes: 2,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::ZERO,
            trace_capacity: 1 << 14,
            fabric: FabricModel {
                link_bandwidth: Some(link_bandwidth),
                ..FabricModel::default()
            },
        };
        ClusterSim::build(&spec, &SeedSpace::new(1))
    }

    #[test]
    fn egress_link_queues_concurrent_sends() {
        // Two 100 KB messages sent back-to-back over a 100 MB/s link:
        // each occupies the egress link for 1 ms, so the second must queue
        // behind the first instead of overlapping for free.
        let mut sim = two_node_cluster_with_link(100e6);
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("sender", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Send(msg(ep(0, 0), ep(1, 0), 1, 100_000)),
                Action::Send(msg(ep(0, 0), ep(1, 0), 2, 100_000)),
            ])),
        );
        sim.kernel_mut(1).spawn(
            ThreadSpec::new("receiver", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(1),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
                Action::Recv {
                    tag: TagSel::Exact(2),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
            ])),
        );
        sim.boot();
        let end = sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        assert!(sim.link_waits() >= 1, "second send should queue");
        assert!(sim.link_wait_ns() > 0);
        // The second send waits ~1 ms for the link; without contention the
        // run finishes in ~0.6 ms (latency + serialization only).
        assert!(
            end >= SimTime::from_micros(1200),
            "link never queued: {end}"
        );
        let hist = sim.link_wait_hist();
        assert_eq!(hist.iter().sum::<u64>(), sim.link_waits());
    }

    #[test]
    fn ingress_link_queues_simultaneous_senders() {
        // Two nodes fire 100 KB at node 2 at the same instant: the
        // messages arrive together, and the destination's 100 MB/s ingress
        // link forces the merge-ordered second one to wait ~1 ms.
        let spec = ClusterSpec {
            nodes: 3,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::ZERO,
            trace_capacity: 1 << 14,
            fabric: FabricModel {
                link_bandwidth: Some(100e6),
                ..FabricModel::default()
            },
        };
        let mut sim = ClusterSim::build(&spec, &SeedSpace::new(1));
        for n in 0..2u32 {
            sim.kernel_mut(n).spawn(
                ThreadSpec::new("sender", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![Action::Send(msg(
                    ep(n, 0),
                    ep(2, 0),
                    u64::from(n) + 1,
                    100_000,
                ))])),
            );
        }
        sim.kernel_mut(2).spawn(
            ThreadSpec::new("receiver", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(1),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
                Action::Recv {
                    tag: TagSel::Exact(2),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
            ])),
        );
        sim.boot();
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        assert!(sim.link_waits() >= 1, "ingress should serialize arrivals");
    }

    #[test]
    fn unlimited_link_mode_records_no_waits() {
        let mut sim = two_node_cluster();
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("sender", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Send(msg(ep(0, 0), ep(1, 0), 1, 100_000)),
                Action::Send(msg(ep(0, 0), ep(1, 0), 2, 100_000)),
            ])),
        );
        sim.boot();
        sim.run_until_apps_done(SimTime::from_millis(50));
        assert_eq!(sim.link_waits(), 0);
        assert_eq!(sim.link_wait_ns(), 0);
        assert_eq!(sim.link_wait_hist(), [0; LINK_WAIT_BUCKETS]);
    }

    #[test]
    fn identical_history_with_link_contention() {
        // The contention registers must not perturb determinism: an
        // all-to-all burst over a tight 10 MB/s link replays identically
        // at 1/2/4 threads, waits included.
        let fingerprint = |threads: usize| {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel {
                    link_bandwidth: Some(10e6),
                    ..FabricModel::default()
                },
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(7));
            sim.set_sim_threads(threads);
            for n in 0..4u32 {
                let mut acts = Vec::new();
                for peer in 0..4u32 {
                    if peer != n {
                        acts.push(Action::Send(msg(
                            ep(n, 0),
                            ep(peer, 0),
                            u64::from(n * 4 + peer),
                            200_000,
                        )));
                    }
                }
                for peer in 0..4u32 {
                    if peer != n {
                        acts.push(Action::Recv {
                            tag: TagSel::Exact(u64::from(peer * 4 + n)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        });
                    }
                }
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                    Box::new(Script::new(acts)),
                );
            }
            sim.boot();
            let end = sim.run_until_apps_done(SimTime::from_secs(5));
            (
                end,
                sim.events_processed(),
                sim.fifo_clamps(),
                sim.link_waits(),
                sim.link_wait_ns(),
                sim.link_wait_hist(),
                sim.queue_stats(),
            )
        };
        let serial = fingerprint(1);
        assert!(serial.3 > 0, "burst over a 10 MB/s link must queue");
        assert_eq!(serial, fingerprint(2));
        assert_eq!(serial, fingerprint(4));
    }

    #[test]
    fn run_until_advances_clock_to_horizon() {
        let mut sim = two_node_cluster();
        sim.boot();
        let horizon = SimTime::from_millis(50);
        let end = sim.run_until(horizon);
        assert_eq!(end, horizon);
        assert_eq!(sim.now(), horizon, "clock must land on the horizon");
    }

    #[test]
    fn daemon_idle_windows_widen_without_changing_history() {
        // Short app phase with real cross-node traffic, then a long
        // daemon-only tail: periodic sleepers ticking every 500 µs with
        // nothing to say to other nodes. Once the apps exit, every
        // window may widen past the lookahead — and must do so without
        // perturbing anything observable at any thread count. The merge
        // path hard-asserts the soundness condition (a widened window
        // staging a cross-shard message panics), so running this at all
        // proves every widened window preceded the earliest cross-shard
        // delivery: after the apps exit there is none.
        let fingerprint = |threads: usize| {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel::default(),
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(11));
            sim.set_sim_threads(threads);
            for n in 0..4u32 {
                let next = (n + 1) % 4;
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                    Box::new(Script::new(vec![
                        Action::Send(msg(ep(n, 0), ep(next, 0), u64::from(n), 4096)),
                        Action::Recv {
                            tag: TagSel::Exact(u64::from((n + 3) % 4)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        },
                    ])),
                );
                let mut acts = Vec::new();
                for k in 1..=40u64 {
                    acts.push(Action::SleepUntil(SimTime::from_micros(500 * k)));
                    acts.push(Action::Compute(SimDur::from_micros(5)));
                }
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::USER).on_cpu(CpuId(1)),
                    Box::new(Script::new(acts)),
                );
            }
            sim.boot();
            let end = sim.run_until(SimTime::from_millis(20));
            assert_eq!(sim.apps_alive(), 0, "app phase must finish first");
            (
                end,
                sim.events_processed(),
                sim.messages_routed(),
                sim.queue_stats(),
                sim.windows_run(),
                sim.widened_windows(),
            )
        };
        let serial = fingerprint(1);
        assert!(
            serial.5 > 0,
            "daemon-only tail widened no windows: {serial:?}"
        );
        assert!(serial.2 > 0, "app phase routed no cross-node messages");
        assert_eq!(serial, fingerprint(2));
        assert_eq!(serial, fingerprint(4));
    }

    #[test]
    fn identical_history_across_thread_counts() {
        // A 4-node ring of send/recv pairs; fingerprints of the run must
        // match exactly no matter how shards are spread over threads.
        let fingerprint = |threads: usize| {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel::default(),
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(7));
            sim.set_sim_threads(threads);
            for n in 0..4u32 {
                let next = (n + 1) % 4;
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                    Box::new(Script::new(vec![
                        Action::Send(msg(ep(n, 0), ep(next, 0), u64::from(n), 4096)),
                        Action::Recv {
                            tag: TagSel::Exact(u64::from((n + 3) % 4)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        },
                        Action::Compute(SimDur::from_micros(200)),
                        Action::Send(msg(ep(n, 0), ep(next, 0), 10 + u64::from(n), 64)),
                        Action::Recv {
                            tag: TagSel::Exact(10 + u64::from((n + 3) % 4)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        },
                    ])),
                );
            }
            sim.boot();
            let end = sim.run_until_apps_done(SimTime::from_secs(1));
            (
                end,
                sim.events_processed(),
                sim.messages_routed(),
                sim.bytes_routed(),
                sim.fifo_clamps(),
                sim.queue_stats(),
            )
        };
        let serial = fingerprint(1);
        assert_eq!(serial, fingerprint(2));
        assert_eq!(serial, fingerprint(4));
        assert_eq!(serial, fingerprint(16)); // clamped to node count
    }

    #[test]
    fn skew_draws_distinct_offsets() {
        let spec = ClusterSpec {
            skew_max: SimDur::from_millis(10),
            ..ClusterSpec::sp_system(4)
        };
        let sim = ClusterSim::build(&spec, &SeedSpace::new(1));
        let offsets: Vec<SimDur> = (0..4).map(|n| sim.kernel(n).clock().offset()).collect();
        let distinct: std::collections::HashSet<u64> = offsets.iter().map(|o| o.nanos()).collect();
        assert!(distinct.len() >= 3, "offsets look degenerate: {offsets:?}");
    }

    #[test]
    fn sync_clocks_collapses_offsets() {
        let spec = ClusterSpec {
            skew_max: SimDur::from_millis(10),
            ..ClusterSpec::sp_system(4)
        };
        let seeds = SeedSpace::new(1);
        let mut sim = ClusterSim::build(&spec, &seeds);
        sim.sync_clocks(&seeds, SimDur::from_micros(20));
        for n in 0..4 {
            assert!(sim.kernel(n).clock().offset() < SimDur::from_micros(20));
        }
    }

    #[test]
    fn same_seed_same_history() {
        let run = || {
            let mut sim = two_node_cluster();
            sim.kernel_mut(0).spawn(
                ThreadSpec::new("a", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(5))])),
            );
            sim.boot();
            let t = sim.run_until_apps_done(SimTime::from_secs(1));
            (t, sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spec_presets() {
        let v = ClusterSpec::sp_system(59);
        assert_eq!(v.total_cpus(), 944);
        let p = ClusterSpec::sp_system_prototype(59);
        assert_eq!(p.options.big_tick, 25);
        assert_eq!(v.options.big_tick, 1);
    }

    #[test]
    fn window_bounds_handles_max_horizon() {
        let la = SimDur::from_micros(10);
        // Ordinary window: end = start + lookahead, exclusive.
        let (we, inc) = window_bounds(SimTime::from_micros(100), SimTime::from_secs(1), la);
        assert_eq!(we, SimTime::from_micros(110));
        assert!(!inc);
        // Clamped to horizon + 1 ns near the horizon (still exclusive:
        // events *at* the horizon are inside the window).
        let (we, inc) = window_bounds(SimTime::from_nanos(999_999_995), SimTime::from_secs(1), la);
        assert_eq!(we, SimTime::from_nanos(1_000_000_001));
        assert!(!inc);
        // At the maximum representable horizon the old arithmetic
        // saturated at u64::MAX and silently dropped events in the final
        // nanosecond; the bound must become *inclusive* instead.
        let (we, inc) = window_bounds(SimTime::from_nanos(u64::MAX - 5), SimTime::FAR_FUTURE, la);
        assert_eq!(we, SimTime::FAR_FUTURE);
        assert!(inc, "final window at the max horizon must be inclusive");
        // A start far from the max horizon is unaffected.
        let (we, inc) = window_bounds(SimTime::from_micros(100), SimTime::FAR_FUTURE, la);
        assert_eq!(we, SimTime::from_micros(110));
        assert!(!inc);
    }

    #[test]
    fn in_window_handles_inclusive_far_future_edge() {
        let end = SimTime::from_micros(110);
        assert!(in_window(SimTime::from_micros(109), end, false));
        assert!(!in_window(end, end, false), "exclusive end is outside");
        assert!(in_window(end, end, true));
        assert!(!in_window(SimTime::from_micros(111), end, true));
        // The final window at the max horizon closes inclusively at
        // FAR_FUTURE: an event at the last representable instant is
        // inside it, so its shard is active and processes it.
        let (we, inc) = window_bounds(
            SimTime::from_nanos(u64::MAX - 5),
            SimTime::FAR_FUTURE,
            SimDur::from_micros(10),
        );
        assert!(in_window(SimTime::FAR_FUTURE, we, inc));
        assert!(in_window(SimTime::from_nanos(u64::MAX - 5), we, inc));
        assert!(!in_window(SimTime::FAR_FUTURE, we, false));
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "pa-cluster-test-{}-{name}.ckpt",
            std::process::id()
        ));
        p
    }

    /// 4-node ring workload used by the checkpoint tests: enough cross-
    /// node traffic, compute, and skew to exercise every snapshotted
    /// register.
    fn ring_sim(threads: usize) -> ClusterSim {
        let spec = ClusterSpec {
            nodes: 4,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::from_millis(1),
            trace_capacity: 1 << 14,
            fabric: FabricModel {
                link_bandwidth: Some(10e6),
                ..FabricModel::default()
            },
        };
        let mut sim = ClusterSim::build(&spec, &SeedSpace::new(7));
        sim.set_sim_threads(threads);
        for n in 0..4u32 {
            let next = (n + 1) % 4;
            sim.kernel_mut(n).spawn(
                ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![
                    Action::Send(msg(ep(n, 0), ep(next, 0), u64::from(n), 200_000)),
                    Action::Recv {
                        tag: TagSel::Exact(u64::from((n + 3) % 4)),
                        src: SrcSel::Any,
                        wait: WaitMode::Poll,
                    },
                    Action::Compute(SimDur::from_micros(200)),
                    Action::Send(msg(ep(n, 0), ep(next, 0), 10 + u64::from(n), 64)),
                    Action::Recv {
                        tag: TagSel::Exact(10 + u64::from((n + 3) % 4)),
                        src: SrcSel::Any,
                        wait: WaitMode::Poll,
                    },
                ])),
            );
        }
        sim
    }

    type Fingerprint = (SimTime, u64, u64, u64, u64, u64, u64, QueueStats, u64);

    fn fingerprint(sim: &ClusterSim, end: SimTime) -> Fingerprint {
        (
            end,
            sim.events_processed(),
            sim.messages_routed(),
            sim.bytes_routed(),
            sim.fifo_clamps(),
            sim.link_waits(),
            sim.link_wait_ns(),
            sim.queue_stats(),
            sim.checkpoints_written(),
        )
    }

    #[test]
    fn manual_checkpoint_restore_is_bit_identical() {
        // Uninterrupted reference run.
        let mut base = ring_sim(1);
        base.boot();
        let end = base.run_until_apps_done(SimTime::from_secs(5));
        let want = fingerprint(&base, end);

        // Interrupted run: advance partway, checkpoint, throw it away.
        let path = tmp_path("manual");
        let mut first = ring_sim(1);
        first.boot();
        first.run_until(SimTime::from_micros(400));
        let bytes = first.checkpoint(&path).expect("checkpoint");
        assert!(bytes > 0);
        assert_eq!(first.last_checkpoint_bytes(), bytes);
        drop(first);

        // Resume in a rebuilt cluster at several thread counts: the tail
        // must replay to the identical final state (modulo the write
        // counter carried by the snapshot).
        for threads in [1usize, 2, 4] {
            let mut resumed = ring_sim(threads);
            resumed.boot();
            resumed.restore(&path).expect("restore");
            assert_eq!(resumed.checkpoint_restores(), 1);
            let end2 = resumed.run_until_apps_done(SimTime::from_secs(5));
            let mut got = fingerprint(&resumed, end2);
            // The reference never checkpointed; the resumed run carries
            // the interrupted run's single write.
            assert_eq!(got.8, 1);
            got.8 = want.8;
            assert_eq!(got, want, "threads={threads}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn periodic_checkpoints_match_uninterrupted_counters() {
        // Reference: periodic checkpointing on, run to completion.
        let every = SimDur::from_micros(300);
        let base_path = tmp_path("periodic-base");
        let mut base = ring_sim(1);
        base.set_checkpoint_every(every, &base_path);
        base.boot();
        let end = base.run_until_apps_done(SimTime::from_secs(5));
        let want = fingerprint(&base, end);
        assert!(
            base.checkpoints_written() >= 2,
            "workload too short to exercise periodic checkpoints: {}",
            base.checkpoints_written()
        );

        // The file on disk is the *last* periodic checkpoint. Resume from
        // it at each thread count; the restored schedule must not repeat
        // the write that produced it, so the final counter matches.
        for threads in [1usize, 2, 4] {
            let resumed_path = tmp_path(&format!("periodic-resume-{threads}"));
            let mut resumed = ring_sim(threads);
            resumed.set_checkpoint_every(every, &resumed_path);
            resumed.boot();
            resumed.restore(&base_path).expect("restore");
            let end2 = resumed.run_until_apps_done(SimTime::from_secs(5));
            assert_eq!(fingerprint(&resumed, end2), want, "threads={threads}");
            let _ = std::fs::remove_file(&resumed_path);
        }
        let _ = std::fs::remove_file(&base_path);
    }

    #[test]
    fn restore_rejects_corrupt_checkpoint() {
        let path = tmp_path("corrupt");
        let mut sim = ring_sim(1);
        sim.boot();
        sim.run_until(SimTime::from_micros(200));
        sim.checkpoint(&path).expect("checkpoint");
        // Flip one character inside the hashed payload.
        let text = std::fs::read_to_string(&path).unwrap();
        let idx = text.find("\\\"now\\\"").expect("payload field");
        let mut bytes = text.into_bytes();
        bytes[idx + 2] = b'x';
        std::fs::write(&path, bytes).unwrap();
        let mut fresh = ring_sim(1);
        fresh.boot();
        let err = fresh.restore(&path).unwrap_err();
        assert!(err.contains("corrupt"), "unexpected error: {err}");
        assert_eq!(fresh.checkpoint_restores(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_rejects_node_count_mismatch() {
        let path = tmp_path("shape");
        let mut sim = ring_sim(1);
        sim.boot();
        sim.checkpoint(&path).expect("checkpoint");
        let mut small = two_node_cluster();
        small.boot();
        let err = small.restore(&path).unwrap_err();
        assert!(err.contains("nodes"), "unexpected error: {err}");
        let _ = std::fs::remove_file(&path);
    }

    /// A program that computes briefly, then panics — stands in for any
    /// bug in kernel or workload code reached from a shard worker. (The
    /// delay matters: the first dispatch happens during `boot`, which is
    /// serial; the panic must land inside the windowed run.)
    struct PanicBomb {
        armed: bool,
    }
    impl pa_kernel::Program for PanicBomb {
        fn step(&mut self, _ctx: &mut pa_kernel::StepCtx<'_>) -> Action {
            if !self.armed {
                self.armed = true;
                return Action::Compute(SimDur::from_micros(50));
            }
            panic!("deliberate test panic");
        }
        fn kind(&self) -> &'static str {
            "panic-bomb"
        }
    }

    #[test]
    fn worker_panic_reports_node_not_poison() {
        // Before the hardening, a panic inside a shard worker poisoned
        // that shard's mutex and the run died with an opaque
        // `PoisonError` (or hung at the barrier). It must now surface the
        // original payload tagged with the node it struck.
        let mut sim = ring_sim(2);
        sim.kernel_mut(2).spawn(
            ThreadSpec::new("bomb", ThreadClass::App, Prio::USER).on_cpu(CpuId(1)),
            Box::new(PanicBomb { armed: false }),
        );
        sim.boot();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run_until_apps_done(SimTime::from_secs(1));
        }));
        let payload = outcome.expect_err("run must propagate the worker panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload should be a string");
        assert!(
            msg.contains("node 2") && msg.contains("deliberate test panic"),
            "panic message should name the node and original payload: {msg}"
        );
        assert!(
            !msg.contains("PoisonError"),
            "poison must not leak into the panic message: {msg}"
        );
    }

    /// A 4-node workload with one artificially hot shard: node 0's rank
    /// computes ~50× longer per round than the others, so a static stripe
    /// would leave the other workers idle at the barrier while stealing
    /// lets them drain the cheap shards and pull forward.
    fn skewed_sim(threads: usize) -> ClusterSim {
        let spec = ClusterSpec {
            nodes: 4,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::from_millis(1),
            trace_capacity: 1 << 14,
            fabric: FabricModel::default(),
        };
        let mut sim = ClusterSim::build(&spec, &SeedSpace::new(23));
        sim.set_sim_threads(threads);
        for n in 0..4u32 {
            let next = (n + 1) % 4;
            let compute = if n == 0 { 500 } else { 10 };
            let mut acts = Vec::new();
            for round in 0..16u64 {
                acts.push(Action::Compute(SimDur::from_micros(compute)));
                acts.push(Action::Send(msg(
                    ep(n, 0),
                    ep(next, 0),
                    100 * round + u64::from(n),
                    4096,
                )));
                acts.push(Action::Recv {
                    tag: TagSel::Exact(100 * round + u64::from((n + 3) % 4)),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                });
            }
            sim.kernel_mut(n).spawn(
                ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(acts)),
            );
        }
        sim
    }

    #[test]
    fn shard_schedule_permutation_preserves_history() {
        // The permutation test from the stealing scheduler's contract:
        // assignment decides only which worker runs a shard, so the full
        // deterministic fingerprint must be identical under heaviest-first
        // stealing and the adversarial rotating claim order at every
        // thread count. `local.*` values (steals, busy, imbalance) are
        // deliberately NOT in the fingerprint — they are wall-clock facts.
        let run = |threads: usize, adversarial: bool| {
            let mut sim = if adversarial {
                ClusterSim::with_adversarial_claims(|| skewed_sim(threads))
            } else {
                skewed_sim(threads)
            };
            assert_eq!(sim.adversarial_claims, adversarial);
            sim.boot();
            let end = sim.run_until_apps_done(SimTime::from_secs(1));
            (
                end,
                sim.events_processed(),
                sim.messages_routed(),
                sim.bytes_routed(),
                sim.fifo_clamps(),
                sim.queue_stats(),
                sim.windows_run(),
            )
        };
        let reference = run(1, false);
        for threads in [1usize, 2, 4, 8] {
            for adversarial in [false, true] {
                assert_eq!(
                    reference,
                    run(threads, adversarial),
                    "history diverged at {threads} threads (adversarial={adversarial})"
                );
            }
        }
    }

    #[test]
    fn idle_shards_are_skipped_without_changing_history() {
        // Each window runs only the shards with an event inside it. The
        // skip must never reach the history, and the active-set sizes
        // must be a function of simulation state alone: identical at
        // every thread count and under the adversarial claim order.
        for (name, build) in [
            ("skewed", skewed_sim as fn(usize) -> ClusterSim),
            ("ring", ring_sim),
        ] {
            let run = |threads: usize, adversarial: bool| {
                let mut sim = if adversarial {
                    ClusterSim::with_adversarial_claims(|| build(threads))
                } else {
                    build(threads)
                };
                sim.boot();
                let end = sim.run_until_apps_done(SimTime::from_secs(5));
                let windows = sim.windows_run();
                let shard_windows = sim.shard_windows();
                assert!(
                    windows <= shard_windows,
                    "{name}: a window ran no shard ({shard_windows} < {windows})"
                );
                assert!(
                    shard_windows < u64::from(sim.nodes()) * windows,
                    "{name}: no idle shard was ever skipped ({shard_windows} shard-windows \
                     in {windows} windows)"
                );
                (fingerprint(&sim, end), windows, shard_windows)
            };
            let reference = run(1, false);
            for threads in [1usize, 2, 4, 8] {
                for adversarial in [false, true] {
                    assert_eq!(
                        reference,
                        run(threads, adversarial),
                        "{name}: diverged at {threads} threads (adversarial={adversarial})"
                    );
                }
            }
        }
    }

    #[test]
    fn stealing_moves_work_off_the_home_stripe() {
        // With 2 workers over 4 shards, stealing lets whichever worker
        // finishes first claim a position off its stripe. The steal
        // counter is wall-clock-dependent (how often that happens varies),
        // but the claim protocol guarantees every position is claimed, so
        // across a few hundred windows at least one steal occurring is a
        // statistical certainty on any host.
        let mut sim = skewed_sim(2);
        sim.boot();
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert!(sim.windows_run() > 10, "workload too short to steal");
        assert!(sim.steals() > 0, "no shard was claimed off its home stripe");
        assert!(
            sim.shard_busy_ns() > 0,
            "per-shard busy accounting recorded nothing"
        );
    }

    #[test]
    fn serial_engine_accounts_shard_busy_time() {
        let mut sim = skewed_sim(1);
        sim.boot();
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.steals(), 0, "serial engine has nothing to steal");
        assert_eq!(sim.barrier_imbalance_ns(), 0);
        assert!(sim.shard_busy_ns() > 0);
        let per_node: u64 = (0..4).map(|n| sim.shard_busy_ns_of(n)).sum();
        assert_eq!(per_node, sim.shard_busy_ns());
    }

    #[test]
    fn periodic_checkpoint_failure_panics_once_at_any_thread_count() {
        // A periodic checkpoint into a directory that does not exist (and
        // cannot be created: its parent is a regular file) must surface as
        // the one named panic, with the shards handed back. At 2 threads
        // the run also proves the pool shuts down instead of leaving its
        // workers parked at the barrier forever.
        let blocker = tmp_path("ckpt-blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        for threads in [1usize, 2] {
            let mut sim = ring_sim(threads);
            sim.set_checkpoint_every(
                SimDur::from_micros(100),
                blocker.join("missing").join("run.ckpt"),
            );
            sim.boot();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                sim.run_until_apps_done(SimTime::from_secs(1));
            }));
            let payload = outcome.expect_err("checkpoint failure must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic payload should be a String");
            assert!(
                msg.starts_with("periodic checkpoint failed: "),
                "threads={threads}: unexpected panic: {msg}"
            );
            assert_eq!(sim.nodes(), 4, "threads={threads}: shards not handed back");
        }
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn plan_window_checkpoint_cap_boundary() {
        // The widened-window checkpoint cap must SHORTEN a daemon-idle
        // window when the due time falls inside (or exactly at the start
        // of) the lookahead, not fall back to the normal window and slide
        // the barrier — and therefore the checkpoint — a full lookahead
        // past the due time.
        let mut sim = two_node_cluster();
        let la = sim.lookahead.nanos();
        assert!(la > 2, "lookahead too small to exercise the boundary");
        let horizon = SimTime::from_secs(1);
        let t0 = SimTime::from_micros(500);

        // Due exactly at t_start: the barrier lands 1 ns past the due
        // time (a zero-width window cannot exist), not lookahead ns past.
        sim.next_checkpoint_at = Some(t0);
        let (we, inclusive, idle) = sim.plan_window(t0, horizon, true);
        assert!(idle && !inclusive);
        assert_eq!(we.nanos(), t0.nanos() + 1, "barrier must hug the due time");
        assert!(sim.checkpoint_due(we));

        // Due inside the lookahead: the barrier lands exactly on it.
        let due = SimTime::from_nanos(t0.nanos() + la / 2);
        sim.next_checkpoint_at = Some(due);
        let (we, _inc, idle) = sim.plan_window(t0, horizon, true);
        assert!(idle);
        assert_eq!(we, due, "barrier must land exactly on the due time");
        assert!(sim.checkpoint_due(we));

        // Shortened windows are not "widened": the counter tracks only
        // genuine fast-forwards.
        assert_eq!(sim.widened_windows(), 0);

        // No checkpoint armed: the idle window widens to the horizon.
        sim.next_checkpoint_at = None;
        let (we, _inc, idle) = sim.plan_window(t0, horizon, true);
        assert!(idle);
        assert_eq!(we.nanos(), horizon.nanos() + 1);
        assert_eq!(sim.widened_windows(), 1);

        // Busy (non-idle) windows ignore the cap entirely: shrinking one
        // would change which cross-shard messages share a barrier, which
        // is history-visible under finite link bandwidth.
        sim.next_checkpoint_at = Some(t0);
        let (we, _inc, idle) = sim.plan_window(t0, horizon, false);
        assert!(!idle);
        assert_eq!(
            we.nanos(),
            t0.nanos() + la,
            "busy windows keep the lookahead bound"
        );
    }

    #[test]
    fn checkpoint_cadence_survives_daemon_idle_stretch() {
        // Regression for the cap boundary: periodic checkpoints armed at
        // 1 ms through a ~20 ms daemon-only tail that generates events
        // every 200 µs (compute segments), so a window barrier is
        // available near every due time. Each 1 ms multiple inside the
        // tail must produce a checkpoint — the cap shortens or widens the
        // daemon-idle window to land a barrier on the due time instead of
        // sliding past it — identically at any thread count.
        let run = |threads: usize| {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel::default(),
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(11));
            sim.set_sim_threads(threads);
            for n in 0..4u32 {
                let next = (n + 1) % 4;
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                    Box::new(Script::new(vec![
                        Action::Send(msg(ep(n, 0), ep(next, 0), u64::from(n), 4096)),
                        Action::Recv {
                            tag: TagSel::Exact(u64::from((n + 3) % 4)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        },
                    ])),
                );
                let mut acts = Vec::new();
                for _ in 0..100u64 {
                    acts.push(Action::Compute(SimDur::from_micros(200)));
                }
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::USER).on_cpu(CpuId(1)),
                    Box::new(Script::new(acts)),
                );
            }
            let path = tmp_path(&format!("cadence-{threads}t"));
            sim.set_checkpoint_every(SimDur::from_millis(1), &path);
            sim.boot();
            let end = sim.run_until(SimTime::from_millis(20));
            assert_eq!(sim.apps_alive(), 0, "app phase must finish first");
            let _ = std::fs::remove_file(&path);
            (
                end,
                sim.events_processed(),
                sim.checkpoints_written(),
                sim.windows_run(),
                sim.widened_windows(),
            )
        };
        let serial = run(1);
        // ~20 ms of daemon activity at a 1 ms interval: nearly every
        // multiple has events around it, so nearly every multiple must
        // get its own checkpoint (a broken cap collapses the tail into a
        // handful of tick-batched writes).
        assert!(
            serial.2 >= 15,
            "checkpoint cadence broke through the daemon-idle stretch: {serial:?}"
        );
        assert!(serial.4 > 0, "daemon tail widened no windows: {serial:?}");
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }
}
