//! Experiment harness reproducing every measured figure of the A4 paper.
//!
//! Every experiment is described declaratively: a [`spec::ScenarioSpec`]
//! captures one cell (devices, workload placements with named roles,
//! CAT/DCA knobs, scheme, run protocol) as serializable data and builds
//! a ready harness with `ScenarioSpec::build()`; sweeps fan their cells
//! out over threads with a [`runner::SweepRunner`] and collect
//! deterministically, every cell through the one supervised path
//! [`runner::SweepRunner::run_specs_robust`]. One module per figure;
//! each exposes `specs(opts)` (the grid as data) and a pure
//! `table(runs)`/`tables(runs)` renderer producing [`Table`]s whose
//! rows/series correspond to what the paper plots. Figures run as
//! [`service::SweepJob`]s: the [`service`] module ties the two halves
//! together — a job describes a figure sweep as serializable data that
//! any process can execute in [`service::Shard`]s against the shared
//! content-addressed store ([`cache::ResultCache`]), with a filesystem
//! work [`queue`] handing shards to workers; rendering is a pure
//! function of the store, so sharded and unsharded runs merge to
//! byte-identical tables. The `a4-repro` binary is one client of that
//! service (and dumps/loads the specs as JSON); `a4-bench` wraps the
//! figures in Criterion targets; the integration tests assert the
//! *shapes* (who wins, where the bumps are)
//! rather than absolute numbers — see EXPERIMENTS.md.
//!
//! | module | paper figure | what it shows |
//! |---|---|---|
//! | [`fig3`] | Fig. 3a/3b | latent + DMA-bloat + directory contention way sweep |
//! | [`fig4`] | Fig. 4 | directory contention disappears with DCA off |
//! | [`fig5`] | Fig. 5a | storage throughput & memory traffic vs block size |
//! | [`fig6`] | Fig. 6 | storage I/O inflating DPDK-T latency |
//! | [`fig7`] | Fig. 7b | n-Exclude vs (n+2)-Overlap allocation strategies |
//! | [`fig8`] | Fig. 8a/8b | per-SSD DCA off + trash-way shrinking |
//! | [`fig11`] | Fig. 11 | X-Mem IPC/hit rates vs packet size, 3 schemes |
//! | [`fig12`] | Fig. 12 | network metrics vs storage block size, 3 schemes |
//! | [`fig13`] | Fig. 13a/13b | real-world colocations, Default/Isolate/A4-a..d |
//! | [`fig14`] | Fig. 14a–d | latency breakdowns, I/O throughput, memory BW |
//! | [`fig15`] | Fig. 15a–c | threshold & timing sensitivity |
//! | [`fig_numa`] | beyond the paper | local vs remote NIC/NVMe placement on a 2-socket system |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fault;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig_numa;
pub mod queue;
pub mod runner;
pub mod service;
pub mod spec;
pub mod supervise;
mod table;

pub use cache::{spec_key, ResultCache};
pub use fault::{Backoff, FabricHealth, FaultFs, FaultPlan, Fs, RealFs};
pub use queue::{Enqueued, JobQueue, QueueError, Task, TaskState, MIN_STALE_AGE};
pub use runner::{CellFailure, FailureKind, SweepOutcome, SweepRunner, TypedAxis, TypedSweep2};
pub use service::{
    drain_queue, fabric_health, figures, DrainReport, FigureDef, JobTables, Protocol, SeedPolicy,
    Shard, SweepJob, MAX_ATTEMPTS, MAX_HEARTBEAT_FAILURES,
};
pub use spec::{RunOpts, ScenarioRun, ScenarioSpec, Scheme, WorkloadSpec};
pub use supervise::{CellCkpt, CellSupervisor, CkptStore, CELL_CKPT_VERSION};
pub use table::{Row, Table, TableStats};
