//! Datacenter colocation: the paper's Fig. 13a HPW-heavy mix (Fastclick,
//! Redis, SPEC CPU2017 and FFSB workloads) under all six LLC-management
//! schemes, with the six scheme cells fanned out across four threads.
//! Prints relative performance normalized to the Default model.
//!
//! ```text
//! cargo run --release --example colocation
//! ```

use a4::experiments::{fig13, RunOpts, SweepRunner};

fn main() {
    let opts = RunOpts::controller();
    let runs = SweepRunner::with_threads(4)
        .run_specs_robust(&fig13::specs(&opts, true))
        .into_runs()
        .expect("static fig13 layout");
    let table = fig13::table(true, &runs);
    println!("{table}");
    println!("(perf columns are relative to the Default model; >1 is better)");
}
