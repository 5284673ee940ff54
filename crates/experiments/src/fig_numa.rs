//! NUMA placement sweep (beyond the paper): the §7.1 microbenchmark mix
//! on socket 0 of a two-socket system, with the NIC and the SSD swept
//! between the local socket and the remote one.
//!
//! The paper's colocation results all assume I/O lands on the socket
//! that owns the DCA-capable LLC. Real deployments routinely mis-place
//! NICs and NVMe across sockets; this figure quantifies what that costs
//! under each LLC-management scheme:
//!
//! * **remote-nic** — the NIC (and its Rx rings) sit on socket 1 while
//!   every consumer core is on socket 0: DCA still injects into socket
//!   1's LLC, but each descriptor/payload line is consumed across the
//!   UPI link (one hop per line, no MLC residency), so network latency
//!   rises and per-budget throughput falls;
//! * **remote-ssd** — the SSD sits on socket 1 while FIO's buffers are
//!   homed with FIO on socket 0: every DMA write crosses the link and —
//!   DDIO being socket-local — cannot DCA-inject, so consumption comes
//!   from memory instead of the DCA ways.
//!
//! Cells are generated from a typed sweep ([`crate::runner::TypedSweep2`]):
//! the placement and scheme axes carry their values, so `specs()` is the
//! grid itself rather than a label-to-value re-derivation.
//!
//! A second panel — the **saturation ramp** ([`ramp_specs`] /
//! [`ramp_table`]) — ramps streamer count on a four-socket system whose
//! UPI links are capacity-limited to [`RAMP_GBPS`]: the local arm's
//! memory throughput keeps growing with offered load while the remote
//! arm's (0, 1)-link throughput flattens at the link's capacity. The
//! paper has no such figure; it exists because the simulator's link
//! model makes the saturation cliff measurable.

use crate::runner::{TypedAxis, TypedSweep2};
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, Scheme, SystemTweaks, WorkloadSpec};
use crate::table::Table;
use a4_model::Priority;
use a4_sim::LatencyKind;

/// Where the I/O devices sit relative to the (socket-0) workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// NIC and SSD both on socket 0 (the paper's implicit assumption).
    Local,
    /// NIC on socket 1, SSD local.
    RemoteNic,
    /// SSD on socket 1, NIC local.
    RemoteSsd,
}

impl Placement {
    /// Display label ("local", "remote-nic", "remote-ssd").
    pub fn label(self) -> &'static str {
        match self {
            Placement::Local => "local",
            Placement::RemoteNic => "remote-nic",
            Placement::RemoteSsd => "remote-ssd",
        }
    }
}

/// The typed placement × scheme grid every entry point shares.
pub fn grid() -> TypedSweep2<Placement, Scheme> {
    TypedSweep2::new(
        TypedAxis::new(
            "placement",
            [Placement::Local, Placement::RemoteNic, Placement::RemoteSsd].map(|p| (p, p.label())),
        ),
        TypedAxis::new("scheme", Scheme::main_three().map(|s| (s, s.label()))),
    )
}

/// The §7.1 mix on socket 0 of a two-socket system, devices placed per
/// `placement`.
pub fn mix_spec(opts: &RunOpts, scheme: Scheme, placement: Placement) -> ScenarioSpec {
    let nic_socket = u8::from(placement == Placement::RemoteNic);
    let ssd_socket = u8::from(placement == Placement::RemoteSsd);
    ScenarioSpec::new(
        format!("fig_numa {} {}", placement.label(), scheme.label()),
        *opts,
    )
    .with_system(SystemTweaks::two_socket(None))
    .with_nic_on(nic_socket, 4, 1514)
    .with_ssd_on(ssd_socket)
    .with_workload_on(
        0,
        "dpdk",
        WorkloadSpec::Dpdk {
            device: "nic".into(),
            touch: true,
        },
        &[0, 1, 2, 3],
        Priority::High,
    )
    .with_workload_on(
        0,
        "fio",
        WorkloadSpec::Fio {
            device: "ssd".into(),
            block_kib: 512,
        },
        &[4, 5, 6, 7],
        Priority::Low,
    )
    .with_workload_on(
        0,
        "xmem1",
        WorkloadSpec::XMem { instance: 1 },
        &[8, 9],
        Priority::High,
    )
    .with_workload_on(
        0,
        "xmem2",
        WorkloadSpec::XMem { instance: 2 },
        &[10],
        Priority::Low,
    )
    .with_workload_on(
        0,
        "xmem3",
        WorkloadSpec::XMem { instance: 3 },
        &[11],
        Priority::Low,
    )
    .with_scheme(scheme)
}

/// All cells of the figure, generated from the typed grid (placement
/// major, scheme minor).
pub fn specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    grid().map(|&placement, &scheme| mix_spec(opts, scheme, placement))
}

/// Renders the figure from the runs of [`specs`] (same order): per
/// placement, per scheme, DPDK-T p99 latency (µs) and rx throughput
/// (GB/s), FIO mean block latency (µs) and I/O throughput (GB/s).
pub fn table(runs: &[ScenarioRun]) -> Table {
    let grid = grid();
    let mut columns = Vec::new();
    for scheme in &grid.b.values {
        columns.push(format!("{}_net_p99_us", scheme.label()));
        columns.push(format!("{}_rx_gbps", scheme.label()));
        columns.push(format!("{}_sto_us", scheme.label()));
        columns.push(format!("{}_sto_gbps", scheme.label()));
    }
    let mut table = Table::new(
        "fig_numa",
        "I/O metrics vs NIC/SSD socket placement (2-socket, UPI 80ns)",
        columns,
    );
    for (chunk, placement) in runs.chunks_exact(grid.b.len()).zip(&grid.a.labels) {
        let mut row = Vec::new();
        for run in chunk {
            row.push(run.p99_latency_us("dpdk", LatencyKind::NetTotal));
            row.push(run.io_gbps("dpdk"));
            row.push(run.mean_latency_us("fio", LatencyKind::StorageTotal));
            row.push(run.io_gbps("fio"));
        }
        table.push(placement.clone(), row);
    }
    table
}

/// Per-direction UPI link capacity of the saturation ramp, GB/s. Small
/// enough that a handful of streamers overruns it.
pub const RAMP_GBPS: f64 = 1.0;

/// Streamer counts of the ramp's load axis.
pub const RAMP_STREAMERS: [usize; 4] = [1, 2, 4, 6];

/// One ramp cell: `k` single-core X-Mem streamers on socket 0 of a
/// four-socket system with [`RAMP_GBPS`] links. The local arm homes
/// every buffer with its streamer; the remote arm homes them all on
/// socket 1, so the whole offered load funnels through the (0, 1) link.
pub fn ramp_spec(opts: &RunOpts, remote: bool, k: usize) -> ScenarioSpec {
    let arm = if remote { "remote" } else { "local" };
    let mut spec =
        ScenarioSpec::new(format!("fig_numa ramp {arm} x{k}"), *opts).with_system(SystemTweaks {
            sockets: Some(a4_model::MAX_SOCKETS),
            upi_gbps: Some(RAMP_GBPS),
            ..SystemTweaks::none()
        });
    for i in 0..k {
        let role = format!("s{i}");
        let wl = WorkloadSpec::XMem { instance: 1 };
        let cores = [i as u8];
        spec = if remote {
            spec.with_workload_on_homed(0, 1, role, wl, &cores, Priority::High)
        } else {
            spec.with_workload_on(0, role, wl, &cores, Priority::High)
        };
    }
    spec
}

/// All ramp cells: the local arm over [`RAMP_STREAMERS`], then the
/// remote arm in the same order.
pub fn ramp_specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for &remote in &[false, true] {
        for &k in &RAMP_STREAMERS {
            specs.push(ramp_spec(opts, remote, k));
        }
    }
    specs
}

/// Renders the ramp from the runs of [`ramp_specs`] (same order): per
/// streamer count, the local arm's memory read throughput and the
/// remote arm's memory and (0, 1)-link read throughput. The remote link
/// column flattening at [`RAMP_GBPS`] while the local column keeps
/// growing *is* the figure.
pub fn ramp_table(runs: &[ScenarioRun]) -> Table {
    let n = RAMP_STREAMERS.len();
    let mut table = Table::new(
        "fig_numa_ramp",
        "UPI saturation ramp (4-socket, 1 GB/s links): read GB/s vs streamers",
        vec![
            "local_mem_gbps".to_string(),
            "remote_mem_gbps".to_string(),
            "remote_link01_gbps".to_string(),
        ],
    );
    for (i, k) in RAMP_STREAMERS.iter().enumerate() {
        let local = &runs[i];
        let remote = &runs[n + i];
        table.push(
            format!("x{k}"),
            vec![
                local.mem_read_gbps(),
                remote.mem_read_gbps(),
                remote.upi_link_read_gbps(0, 1),
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOpts {
        RunOpts {
            warmup: 12,
            measure: 4,
            seed: 0xA4,
        }
    }

    #[test]
    fn specs_follow_the_typed_grid_order() {
        let opts = RunOpts::quick();
        let specs = specs(&opts);
        let grid = grid();
        assert_eq!(specs.len(), grid.len());
        let labels = grid.a.labels.iter().flat_map(|placement| {
            grid.b
                .labels
                .iter()
                .map(move |scheme| format!("fig_numa {placement} {scheme}"))
        });
        for (spec, label) in specs.iter().zip(labels) {
            assert_eq!(
                spec.name, label,
                "spec order must match the grid's label order"
            );
            assert_eq!(spec.system.sockets, Some(2));
            spec.validate().expect("static fig_numa cells are valid");
        }
    }

    #[test]
    fn ramp_specs_are_valid_and_ordered() {
        let opts = RunOpts::quick();
        let specs = ramp_specs(&opts);
        assert_eq!(specs.len(), 2 * RAMP_STREAMERS.len());
        for (i, spec) in specs.iter().enumerate() {
            let arm = if i < RAMP_STREAMERS.len() {
                "local"
            } else {
                "remote"
            };
            let k = RAMP_STREAMERS[i % RAMP_STREAMERS.len()];
            assert_eq!(spec.name, format!("fig_numa ramp {arm} x{k}"));
            assert_eq!(spec.system.sockets, Some(a4_model::MAX_SOCKETS));
            assert_eq!(spec.system.upi_gbps, Some(RAMP_GBPS));
            assert_eq!(spec.workloads.len(), k);
            for p in &spec.workloads {
                assert_eq!(p.buffer_home, (arm == "remote").then_some(1));
            }
            spec.validate().expect("static ramp cells are valid");
        }
    }

    #[test]
    fn ramp_remote_throughput_flattens_at_link_capacity() {
        let opts = RunOpts::quick();
        let runs: Vec<ScenarioRun> = ramp_specs(&opts)
            .into_iter()
            .map(|s| s.build().unwrap().run())
            .collect();
        let n = RAMP_STREAMERS.len();
        let local: Vec<f64> = runs[..n].iter().map(|r| r.mem_read_gbps()).collect();
        let link: Vec<f64> = runs[n..]
            .iter()
            .map(|r| r.upi_link_read_gbps(0, 1))
            .collect();

        // Low offered load: doubling the streamers nearly doubles the
        // link throughput.
        assert!(
            link[1] > link[0] * 1.3,
            "unsaturated link must scale with load: {link:?}"
        );
        // High offered load: throughput flattens at the configured
        // capacity instead of scaling — x6 gains almost nothing over x4
        // and never exceeds the link's capacity.
        assert!(
            link[3] <= link[2] * 1.25,
            "remote throughput must flatten: {link:?}"
        );
        assert!(
            link[3] <= RAMP_GBPS * 1.05,
            "remote throughput exceeded link capacity: {link:?}"
        );
        assert!(
            link[3] >= RAMP_GBPS * 0.4,
            "saturated link should run near capacity: {link:?}"
        );
        // The local arm sees no link and keeps scaling.
        assert!(
            local[3] > local[0] * 2.5,
            "local throughput must keep growing: {local:?}"
        );
        assert!(
            local[3] > link[3] * 2.0,
            "local must beat the capacity-limited link: local={local:?} link={link:?}"
        );

        // The rendered table carries the same story.
        let table = ramp_table(&runs);
        assert_eq!(table.rows.len(), n);
    }

    #[test]
    fn remote_placement_is_strictly_slower() {
        let opts = quick();
        let local = mix_spec(&opts, Scheme::Default, Placement::Local)
            .build()
            .unwrap()
            .run();
        let remote_nic = mix_spec(&opts, Scheme::Default, Placement::RemoteNic)
            .build()
            .unwrap()
            .run();
        let remote_ssd = mix_spec(&opts, Scheme::Default, Placement::RemoteSsd)
            .build()
            .unwrap()
            .run();
        // The acceptance bar: remote cells show strictly higher I/O
        // latency than local cells.
        let net_local = local.mean_latency_us("dpdk", LatencyKind::NetTotal);
        let net_remote = remote_nic.mean_latency_us("dpdk", LatencyKind::NetTotal);
        assert!(
            net_remote > net_local,
            "remote NIC must inflate network latency: local={net_local:.1}us \
             remote={net_remote:.1}us"
        );
        // For the remote SSD the causal chain is DCA defeat: cross-socket
        // DMA lands in memory, so every consumed line costs DRAM instead
        // of a DCA-way hit. That shows directly (and robustly) in the
        // block *consumption* latency; the end-to-end StorageTotal is
        // dominated by queueing/transfer time, where the same delta is
        // present but thin.
        let sto_local = local.mean_latency_us("fio", LatencyKind::StorageRegex);
        let sto_remote = remote_ssd.mean_latency_us("fio", LatencyKind::StorageRegex);
        assert!(
            sto_remote > sto_local,
            "remote SSD must inflate block consumption latency: \
             local={sto_local:.1}us remote={sto_remote:.1}us"
        );
        // And the throughput side of the NIC story: per-budget payload
        // consumption falls when every line crosses the UPI link.
        assert!(
            remote_nic.io_gbps("dpdk") < local.io_gbps("dpdk"),
            "remote NIC must lower network consumption throughput"
        );
    }
}
