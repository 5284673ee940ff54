//! Fig. 5: storage-I/O characteristics — throughput is insensitive to
//! DCA, while memory read bandwidth stays high even with DCA on (the DMA
//! leak of observation O2's groundwork).
//!
//! Setup (§3.2): FIO alone, 4 threads, random read, `O_DIRECT`, QD 32
//! total, block size swept 4 KB – 2 MB (scaled), DCA on vs off.

use crate::runner::{TypedAxis, TypedSweep2};
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, WorkloadSpec};
use crate::table::Table;
use a4_model::Priority;

/// The paper's block-size axis in KiB.
pub const BLOCK_KIB: [u64; 10] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// One cell: FIO alone at `block_kib` with the SSD's DCA at `dca_on`.
pub fn spec(opts: &RunOpts, block_kib: u64, dca_on: bool) -> ScenarioSpec {
    ScenarioSpec::new(
        format!(
            "fig5 {block_kib}KB dca={}",
            if dca_on { "on" } else { "off" }
        ),
        *opts,
    )
    .with_ssd()
    .with_workload(
        "fio",
        WorkloadSpec::Fio {
            device: "ssd".into(),
            block_kib,
        },
        &[0, 1, 2, 3],
        Priority::Low,
    )
    .with_device_dca("ssd", dca_on)
}

/// The block × DCA grid (block slowest, on before off).
pub fn grid() -> TypedSweep2<u64, bool> {
    TypedSweep2::new(
        TypedAxis::new("block_kib", BLOCK_KIB.map(|k| (k, format!("{k}KB")))),
        TypedAxis::new("dca", [(true, "on"), (false, "off")]),
    )
}

/// All cells, block-major then DCA on/off.
pub fn specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    grid().map(|&kib, &dca_on| spec(opts, kib, dca_on))
}

/// Renders the figure from the runs of [`specs`] (same order).
pub fn table(runs: &[ScenarioRun]) -> Table {
    let grid = grid();
    let mut table = Table::new(
        "fig5a",
        "storage throughput and memory read bandwidth vs block size",
        ["tp_dca_on", "mem_rd_dca_on", "tp_dca_off", "mem_rd_dca_off"],
    );
    for (pair, label) in runs.chunks_exact(grid.b.len()).zip(&grid.a.labels) {
        let (on, off) = (&pair[0], &pair[1]);
        table.push(
            label.clone(),
            [
                on.io_gbps("fio"),
                on.mem_read_gbps(),
                off.io_gbps("fio"),
                off.mem_read_gbps(),
            ],
        );
    }
    table
}

/// One configuration: returns `(storage_gbps, mem_read_gbps)`.
pub fn run_point(opts: &RunOpts, block_kib: u64, dca_on: bool) -> (f64, f64) {
    let run = spec(opts, block_kib, dca_on)
        .build()
        .expect("static fig5 layout")
        .run();
    (run.io_gbps("fio"), run.mem_read_gbps())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dca_does_not_change_large_block_throughput() {
        let opts = RunOpts::quick();
        let (tp_on, _) = run_point(&opts, 512, true);
        let (tp_off, _) = run_point(&opts, 512, false);
        let ratio = tp_on / tp_off.max(1e-9);
        assert!(
            (0.8..1.25).contains(&ratio),
            "storage throughput insensitive to DCA: on={tp_on:.2} off={tp_off:.2}"
        );
    }

    #[test]
    fn large_blocks_leak_despite_dca() {
        let opts = RunOpts::quick();
        // With DCA on, big blocks overflow the 2 DCA ways long before the
        // cores consume them, so memory reads stay substantial.
        let (tp, mem_rd) = run_point(&opts, 1024, true);
        assert!(tp > 0.0);
        assert!(
            mem_rd > 0.1 * tp,
            "DMA leak refetches from memory: tp={tp:.2} rd={mem_rd:.2}"
        );
    }

    #[test]
    fn throughput_grows_with_block_size_then_saturates() {
        let opts = RunOpts::quick();
        let (tp_small, _) = run_point(&opts, 4, true);
        let (tp_big, _) = run_point(&opts, 256, true);
        assert!(tp_big > tp_small, "IOPS-bound 4KB vs link-bound 256KB");
    }
}
