//! Fig. 3: the way-sweep that exposes latent contention (DCA ways),
//! DMA bloat (the DPDK ways) and the hidden **directory contention**
//! (the inclusive ways).
//!
//! Setup (§3.1): DPDK-T or DPDK-NT on 4 cores with per-core rings of 1 KB
//! packets, explicitly allocated to ways `[5:6]`; cache-sensitive X-Mem
//! (4 MB sequential read, 2 cores) swept across every pair of consecutive
//! ways from `[0:1]` (the DCA ways) to `[9:10]` (the inclusive ways).
//!
//! Expected shape: X-Mem's miss rate spikes at `[0:1]`/`[1:2]` for both
//! variants (latent contention); only DPDK-**T** adds the `[5:6]` bump
//! (DMA bloat) and the `[9:10]` bump (directory contention, observation
//! O1).

use crate::runner::TypedAxis;
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, WorkloadSpec};
use crate::table::Table;
use a4_model::{Priority, WayMask};

/// The ten swept X-Mem masks `[m:m+1]`.
pub fn sweep_masks() -> Vec<WayMask> {
    (0..=9)
        .map(|m| WayMask::from_paper_range(m, m + 1).expect("within 11 ways"))
        .collect()
}

/// The swept masks as a typed axis (row labels are the mask displays).
pub fn axis() -> TypedAxis<WayMask> {
    TypedAxis::labeled("xmem_mask", sweep_masks())
}

/// The declarative cell: DPDK (T or NT) pinned to ways `[5:6]`, X-Mem
/// swept across `xmem_mask`.
pub fn spec(opts: &RunOpts, touch: bool, xmem_mask: WayMask) -> ScenarioSpec {
    let kind = if touch { "t" } else { "nt" };
    ScenarioSpec::new(format!("fig3 dpdk-{kind} xmem@{xmem_mask}"), *opts)
        .with_nic(4, 1024)
        .with_workload(
            "dpdk",
            WorkloadSpec::Dpdk {
                device: "nic".into(),
                touch,
            },
            &[0, 1, 2, 3],
            Priority::High,
        )
        .with_workload(
            "xmem",
            WorkloadSpec::XMem { instance: 1 },
            &[4, 5],
            Priority::High,
        )
        .with_cat(
            1,
            WayMask::from_paper_range(5, 6).expect("static"),
            &["dpdk"],
        )
        .with_cat(2, xmem_mask, &["xmem"])
}

/// All cells of one panel, in row order.
pub fn specs(opts: &RunOpts, touch: bool) -> Vec<ScenarioSpec> {
    axis()
        .values
        .into_iter()
        .map(|mask| spec(opts, touch, mask))
        .collect()
}

/// Renders one panel from the runs of [`specs`] (same order). Pure:
/// looks only at the results, never simulates.
pub fn table(touch: bool, runs: &[ScenarioRun]) -> Table {
    let (id, title) = if touch {
        ("fig3b", "DPDK-T (touching) vs X-Mem way sweep")
    } else {
        ("fig3a", "DPDK-NT (non-touching) vs X-Mem way sweep")
    };
    let mut table = Table::new(
        id,
        title,
        ["xmem_miss", "dpdk_miss", "mem_rd_gbps", "mem_wr_gbps"],
    );
    for (label, run) in axis().labels.iter().zip(runs) {
        table.push(
            label.clone(),
            [
                run.llc_miss_rate("xmem"),
                run.llc_miss_rate("dpdk"),
                run.mem_read_gbps(),
                run.mem_write_gbps(),
            ],
        );
    }
    table
}

/// Runs one sweep point and returns
/// `(xmem_miss, dpdk_miss, mem_rd_gbps, mem_wr_gbps)`.
pub fn run_point(opts: &RunOpts, touch: bool, xmem_mask: WayMask) -> (f64, f64, f64, f64) {
    let run = spec(opts, touch, xmem_mask)
        .build()
        .expect("static fig3 layout")
        .run();
    (
        run.llc_miss_rate("xmem"),
        run.llc_miss_rate("dpdk"),
        run.mem_read_gbps(),
        run.mem_write_gbps(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_ten_pairs() {
        let masks = sweep_masks();
        assert_eq!(masks.len(), 10);
        assert_eq!(masks[0], WayMask::DCA);
        assert_eq!(masks[9], WayMask::INCLUSIVE);
    }

    #[test]
    fn latent_contention_shows_at_dca_ways() {
        // One quick contrast point instead of the full sweep: X-Mem at the
        // DCA ways suffers much more than at neutral standard ways.
        let opts = RunOpts::quick();
        let (at_dca, ..) = run_point(&opts, true, WayMask::from_paper_range(0, 1).unwrap());
        let (at_std, ..) = run_point(&opts, true, WayMask::from_paper_range(3, 4).unwrap());
        assert!(
            at_dca > at_std + 0.1,
            "latent contention: miss at [0:1] {at_dca:.3} vs [3:4] {at_std:.3}"
        );
    }
}
