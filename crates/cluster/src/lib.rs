//! # pa-cluster — the multi-node SP system
//!
//! Assembles per-node kernels (`pa-kernel`) into a cluster connected by a
//! switch fabric with a globally synchronized timebase, mirroring the
//! study's RS/6000 SP machines (ASCI White, Frost, Blue Oak):
//!
//! * [`FabricModel`] — LogGP-style message delivery (switch vs. shared
//!   memory paths);
//! * [`ClusterSpec`] — the machine shape (nodes × CPUs, kernel options,
//!   boot-time clock skew);
//! * [`ClusterSim`] — the conservatively-parallel engine that advances one
//!   shard per node in lookahead-bounded time windows, routes messages
//!   between shards at deterministic window barriers (bit-identical at any
//!   thread count), and performs the switch-clock synchronization step the
//!   co-scheduler runs at startup (§4).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;
pub mod sim;

pub use fabric::{FabricModel, LINK_WAIT_BUCKETS, LINK_WAIT_EDGES_NS};
pub use sim::{verify_checkpoint_file, ClusterSim, ClusterSpec};
