//! The benchmark's workloads: fixed slices of the figure registry, run
//! under the quick protocol of their figure with the seed the caller
//! passes.

use a4_experiments::service::figure;
use a4_experiments::{RunOpts, ScenarioSpec};

/// The seed every figure of the repository uses; only at this seed do
/// the committed golden tables apply.
pub const DEFAULT_SEED: u64 = 0xA4;

/// One benchmark workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it (also recorded in `BENCHMARK.json`).
    pub why: &'static str,
    figure: &'static str,
    select: fn(Vec<ScenarioSpec>) -> Vec<ScenarioSpec>,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mix_fig12",
        why: "fig12's 512 KB row: the 7.1 mix where C1 migrations and C2 leaks are both active \
              and the A4 controller reprograms CAT and DCA",
        figure: "fig12",
        select: mix_fig12,
    },
    Workload {
        name: "sweep_fig5",
        why: "all fig5 cells: one storage tenant, no NIC and no controller, mostly device DMA \
              writes, half of the cells bypassing the DCA ways",
        figure: "fig5",
        select: |specs| specs,
    },
    Workload {
        name: "numa_ramp",
        why: "fig_numa's 4-socket X-Mem ramp: no devices, core-side traffic across four socket \
              hierarchies, the UPI fabric and the remote-requester cache",
        figure: "fig_numa",
        select: numa_ramp,
    },
];

/// Cells 21 to 23 of fig12: the 512 KB block size under Default,
/// Isolate and A4-d.
fn mix_fig12(specs: Vec<ScenarioSpec>) -> Vec<ScenarioSpec> {
    let row: Vec<ScenarioSpec> = specs.into_iter().skip(21).take(3).collect();
    assert!(
        row.len() == 3 && row.iter().all(|s| s.name.contains(" 512KB ")),
        "fig12 cells 21-23 are no longer its 512KB row"
    );
    row
}

/// fig_numa's saturation-ramp cells: the only four-socket ones.
fn numa_ramp(specs: Vec<ScenarioSpec>) -> Vec<ScenarioSpec> {
    let ramp: Vec<ScenarioSpec> = specs
        .into_iter()
        .filter(|s| s.system.socket_count() == a4_model::MAX_SOCKETS)
        .collect();
    assert_eq!(ramp.len(), 8, "fig_numa no longer has 8 ramp cells");
    ramp
}

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's cells under its figure's quick protocol, seeded
    /// with `seed`.
    pub fn specs(&self, seed: u64) -> Vec<ScenarioSpec> {
        let fig = figure(self.figure).expect("the workload's figure is registered");
        let opts = RunOpts {
            seed,
            ..fig.protocol.opts(true)
        };
        (self.select)((fig.specs)(&opts))
    }

    /// Whether the golden-row check applies: `mix_fig12` at the default
    /// seed reproduces the committed `512KB` row of fig12.
    pub fn has_golden_row(&self, seed: u64) -> bool {
        self.name == "mix_fig12" && seed == DEFAULT_SEED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_records_each_workload_and_why() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        for w in &WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
            assert!(
                json.contains(&format!("\"why\": \"{}\"", w.why)),
                "{}",
                w.name
            );
        }
    }
}
