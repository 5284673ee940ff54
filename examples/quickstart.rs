//! Quickstart: build the paper's §7.1 microbenchmark colocation as one
//! declarative `ScenarioSpec`, run it under the Default baseline and
//! under full A4 (two sweep cells, executed in parallel), and print the
//! improvement of the cache-sensitive high-priority workload.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use a4::experiments::{RunOpts, ScenarioSpec, Scheme, SweepRunner};

fn main() {
    let opts = RunOpts {
        warmup: 14,
        measure: 6,
        seed: 0xA4,
    };

    // One spec, two schemes: Default (share everything) vs full A4
    // (zoning + DCA Zone + selective DCA off + trash ways).
    let specs: Vec<ScenarioSpec> = [Scheme::Default, Scheme::A4(a4::core::FeatureLevel::D)]
        .into_iter()
        .map(|scheme| ScenarioSpec::microbench(opts).with_scheme(scheme))
        .collect();
    let runs = SweepRunner::with_threads(2)
        .run_specs_robust(&specs)
        .into_runs()
        .expect("static microbench layout");
    let (default_run, a4_run) = (&runs[0], &runs[1]);

    println!("workload           Default-IPC   A4-IPC   speedup   A4 LLC hit");
    for binding in &a4_run.workloads {
        let ipc_d = default_run.ipc(&binding.role);
        let ipc_a = a4_run.ipc(&binding.role);
        println!(
            "{:<18} {:>10.3} {:>8.3} {:>8.2}x {:>10.3}",
            binding.role,
            ipc_d,
            ipc_a,
            ipc_a / ipc_d.max(1e-12),
            a4_run.llc_hit_rate(&binding.role),
        );
    }
}
