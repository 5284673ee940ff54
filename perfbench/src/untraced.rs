//! The untraced run: repeated cold passes of one workload through the
//! serial sweep runner into a fresh result store, the end-to-end
//! metrics, and the correctness checks on every cell.

use crate::probe::{normalized, Probe, REFERENCE_NS};
use crate::stats::{median, peak_rss_mb, Metric};
use crate::workloads::Workload;
use a4_experiments::{
    spec_key, CellFailure, ResultCache, ScenarioRun, ScenarioSpec, SweepOutcome, SweepRunner, Table,
};
use a4_sim::LatencyKind;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds of set-up timing before each pass; a round builds every cell
/// once.
const SETUP_ROUNDS: usize = 8;

/// The outcome of an untraced run.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The first pass's reports, serialized, in cell order (empty for a
    /// cell that failed).
    pub reports: Vec<String>,
}

/// Times `SETUP_ROUNDS` rounds of `ScenarioSpec::build` over every cell,
/// adding one probe-normalized sample per build to `samples[cell]`.
/// Returns each cell's quanta (`None` where the spec does not build) and
/// the probe's last reading.
fn time_setup(
    specs: &[ScenarioSpec],
    samples: &mut [Vec<f64>],
    probe: &mut Probe,
) -> (Vec<Option<u64>>, f64) {
    let mut quanta = vec![None; specs.len()];
    let mut raw = vec![Vec::with_capacity(SETUP_ROUNDS); specs.len()];
    let before = probe.sample();
    // Rounds over all cells rather than one cell at a time, so a burst of
    // host noise lands on one sample of many cells, not on many samples
    // of one.
    for _ in 0..SETUP_ROUNDS {
        for (i, spec) in specs.iter().enumerate() {
            let start = Instant::now();
            let built = spec.build();
            raw[i].push(start.elapsed().as_secs_f64());
            if let Ok(scenario) = built {
                let per_second = scenario.harness.system().config().quanta_per_second;
                quanta[i] = Some((spec.opts.warmup + spec.opts.measure) * u64::from(per_second));
            }
        }
    }
    let after = probe.sample();
    for (cell, raw) in samples.iter_mut().zip(raw) {
        cell.extend(
            raw.into_iter()
                .map(|s| normalized(s, (before + after) / 2.0)),
        );
    }
    (quanta, after)
}

/// Runs every cell once, one at a time, through `runner`, timing each
/// cell and normalizing its wall time by the probe readings on either
/// side of it. Returns the outcome in cell order and the raw and the
/// normalized seconds.
fn run_pass(
    runner: &SweepRunner,
    specs: &[ScenarioSpec],
    probe: &mut Probe,
    mut before: f64,
) -> (SweepOutcome, f64, f64) {
    let mut outcome = SweepOutcome {
        runs: Vec::with_capacity(specs.len()),
        failures: Vec::new(),
    };
    let (mut wall_s, mut norm_s) = (0.0, 0.0);
    for (i, spec) in specs.iter().enumerate() {
        let start = Instant::now();
        let mut cell = runner.run_specs_robust(std::slice::from_ref(spec));
        let wall = start.elapsed().as_secs_f64();
        let after = probe.sample();
        wall_s += wall;
        norm_s += normalized(wall, (before + after) / 2.0);
        before = after;
        outcome.runs.append(&mut cell.runs);
        outcome.failures.extend(
            cell.failures
                .into_iter()
                .map(|f| CellFailure { index: i, ..f }),
        );
    }
    (outcome, wall_s, norm_s)
}

/// Instruction-weighted mean IPC over every workload sample of every
/// cell's measurement window.
fn sim_ipc<'a>(reports: impl IntoIterator<Item = &'a a4_core::RunReport>) -> f64 {
    let (mut weighted, mut instructions) = (0.0, 0.0);
    for report in reports {
        for w in report.samples.iter().flat_map(|s| &s.workloads) {
            weighted += w.ipc * w.instructions as f64;
            instructions += w.instructions as f64;
        }
    }
    weighted / instructions
}

/// The committed fig12 table's `512KB` row, checked against the DPDK p99
/// NetTotal latency and `io_gbps` of each cell of `mix_fig12`. Returns
/// each cell's errors, in cell order.
fn golden_row_errors(specs: &[ScenarioSpec], runs: &[Option<ScenarioRun>]) -> Vec<Vec<String>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden/fig12.json");
    let table: Result<Table, String> = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|json| serde_json::from_str(&json).map_err(|e| e.to_string()));
    let row = table.and_then(|t| {
        let row = t.rows.iter().find(|r| r.label == "512KB").cloned();
        row.map(|r| (t.columns, r.values))
            .ok_or_else(|| "fig12 golden has no 512KB row".to_string())
    });
    let (columns, values) = match row {
        Ok(row) => row,
        Err(e) => return vec![vec![e]; specs.len()],
    };
    let mut errors = vec![Vec::new(); specs.len()];
    for (i, (spec, run)) in specs.iter().zip(runs).enumerate() {
        let Some(run) = run else { continue };
        let label = spec.scheme.map_or("none", |s| s.label());
        let got = [
            (
                format!("{label}_tl_us"),
                run.p99_latency_us("dpdk", LatencyKind::NetTotal),
            ),
            (format!("{label}_rx_gbps"), run.io_gbps("dpdk")),
        ];
        for (name, value) in got {
            match columns.iter().position(|c| *c == name).map(|c| values[c]) {
                Some(want) if want == value => {}
                want => errors[i].push(format!(
                    "{}: {name} = {value:?}, golden 512KB row has {want:?}",
                    spec.name
                )),
            }
        }
    }
    errors
}

/// Runs cold passes of `workload` at `seed` until `seconds` would be
/// exceeded (at least one), each into a fresh store under `work`.
/// `quanta_per_s` is the quanta of every pass over the passes' summed
/// probe-normalized seconds: under host noise that drifts over seconds,
/// the whole-run ratio repeats more closely than a median of per-pass
/// rates.
pub fn run(workload: &Workload, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let specs = workload.specs(seed);
    let mut setup_samples = vec![Vec::new(); specs.len()];

    let mut attempted = 0;
    let mut failed = 0;
    let mut first: Vec<String> = Vec::new();
    let mut ipc = 0.0;
    let mut probe = Probe::new();
    let (mut total_quanta, mut total_wall, mut total_norm, mut passes) = (0, 0.0, 0.0, 0);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut last = Duration::ZERO;
    for pass in 0.. {
        if pass > 0 && started.elapsed() + last > budget {
            break;
        }
        let pass_start = Instant::now();
        // Set-up timing is spread over the run, between passes, so it
        // samples the same host conditions the passes do.
        let (quanta, probe_ns) = time_setup(&specs, &mut setup_samples, &mut probe);
        let dir = work.join(format!("pass{pass}"));
        let cache = ResultCache::new(&dir);
        let runner = SweepRunner::serial().with_cache(cache.clone());
        let (outcome, wall_s, norm_s) = run_pass(&runner, &specs, &mut probe, probe_ns);
        last = pass_start.elapsed();

        let mut golden = if pass == 0 && workload.has_golden_row(seed) {
            golden_row_errors(&specs, &outcome.runs)
        } else {
            vec![Vec::new(); specs.len()]
        };
        let mut pass_quanta = 0;
        let mut reports = Vec::with_capacity(specs.len());
        for (i, (spec, run)) in specs.iter().zip(&outcome.runs).enumerate() {
            attempted += 1;
            let mut errors: Vec<String> = outcome
                .failures
                .iter()
                .filter(|f| f.index == i)
                .map(ToString::to_string)
                .collect();
            errors.append(&mut golden[i]);
            let bytes = match run {
                Some(run) => serde_json::to_string(&run.report).expect("reports serialize"),
                None => String::new(),
            };
            if run.is_some() {
                let loaded = cache
                    .load(&spec_key(spec))
                    .map(|r| serde_json::to_string(&r).expect("reports serialize"));
                if loaded.as_deref() != Some(bytes.as_str()) {
                    errors.push("report loaded from the store differs from the runner's".into());
                }
                if pass > 0 && bytes != first[i] {
                    errors.push("report differs from the first pass's".into());
                }
                pass_quanta += quanta[i].unwrap_or(0);
            }
            if !errors.is_empty() {
                failed += 1;
                for e in errors {
                    eprintln!("[perfbench] pass {pass} cell {i} ({}): {e}", spec.name);
                }
            }
            reports.push(bytes);
        }
        if pass == 0 {
            ipc = sim_ipc(outcome.runs.iter().flatten().map(|r| &r.report));
            first = reports;
        }
        total_quanta += pass_quanta;
        total_wall += wall_s;
        total_norm += norm_s;
        passes += 1;
        eprintln!(
            "[perfbench] {} seed {seed} pass {pass}: {wall_s:.3} s, probe {:.1} ns, {:.0} \
             quanta/s raw, {:.0} normalized",
            workload.name,
            REFERENCE_NS * wall_s / norm_s,
            pass_quanta as f64 / wall_s,
            pass_quanta as f64 / norm_s
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    // Per-cell median build time, summed over the cells.
    let setup_s = setup_samples.iter().map(|s| median(s)).sum();
    eprintln!(
        "[perfbench] {} seed {seed}: {passes} passes in {total_wall:.3} s, {:.0} quanta/s raw",
        workload.name,
        total_quanta as f64 / total_wall
    );
    Outcome {
        metrics: vec![
            Metric {
                name: "quanta_per_s",
                unit: "1/s",
                value: total_quanta as f64 / total_norm,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: setup_s,
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MiB",
                value: peak_rss_mb() - probe.resident_mib(),
            },
            Metric {
                name: "sim_ipc",
                unit: "instr/cycle",
                value: ipc,
            },
        ],
        attempted,
        failed,
        reports: first,
    }
}
