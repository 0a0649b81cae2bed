//! # distclk
//!
//! The distributed Chained Lin-Kernighan evolutionary algorithm of
//! Fischer & Merz (IPPS 2005) — the paper's primary contribution.
//!
//! Every node runs the loop of the paper's Figure 1:
//!
//! ```text
//! s_prev := INITIALTOUR; s_best := CLK(s_prev)
//! while not TERMINATIONDETECTED:
//!     s := CLK(PERTURBATE(s_best))
//!     s_best := SELECTBESTTOUR(received ∪ {s} ∪ {s_prev})
//!     if len(s_best) = len(s_prev): NumNoImprovements++
//!     else if s_best = s: BROADCASTTONEIGHBORS(s_best)
//!     s_prev := s_best
//! ```
//!
//! with the adaptive perturbation of §2.3: `NumPerturbations =
//! NumNoImprovements / c_v + 1` random double-bridge moves, and a full
//! restart from a fresh construction once `NumNoImprovements > c_r`
//! (defaults `c_v = 64`, `c_r = 256`).
//!
//! One driver, [`Run`], schedules the node loop in one of two ways:
//!
//! - [`Run::threads`] — one OS thread per node over any
//!   [`p2p::Transport`] (in-memory or TCP), wall-clock budgets; this is
//!   the paper's deployment shape.
//! - [`Run::lockstep`] — single-threaded round-based simulation with
//!   deterministic message delivery, used by tests and the
//!   effort-budgeted experiments; it alone applies churn schedules.

pub mod churn;
pub mod driver;
pub mod evolve;
pub mod node;
pub mod perturb;
pub mod service;
pub mod shard;

pub use churn::{run_lockstep_churn, ChurnAction, ChurnSchedule};
pub use driver::{run_lockstep, run_over_transports, DistResult, Run, TelemetryAttach};
pub use evolve::{evolve_hard, hard_suite, solve_effort, EvolveConfig};
pub use node::{DistConfig, NodeDriver, NodeEvent, NodeResult};
pub use perturb::{PerturbAction, Perturbator};
pub use service::{
    points_to_json, DoneReason, FlowBudget, FlowLedger, JobHandle, JobPayload, JobSpec, JobUpdate,
    ServiceConfig, ServiceJobHandler, SolverService,
};
pub use shard::{
    node_of_shard, run_sharded_threads, validate_shard_result,
    ShardDistConfig, ShardDistResult, RESOLVED_LOCALLY,
};

/// Build the candidate lists a distributed run's config asks for
/// (`cfg.clk.candidates` of width `cfg.clk.neighbor_k`). The drivers
/// take lists by reference so they are built once per process, but they
/// must match the wire-level config: every node derives its engine from
/// `cfg.clk`, so lists built any other way would make nodes disagree
/// with the config they gossip. Deterministic in `(instance, cfg)`,
/// hence bit-identical across nodes and hosts.
pub fn build_neighbors(
    inst: &tsp_core::Instance,
    cfg: &DistConfig,
) -> tsp_core::NeighborLists {
    cfg.clk.build_neighbors(inst)
}
