//! The traced run: each cell driven by hand through the public calls of
//! every crate, with a span around each call, plus the counters each
//! layer exposes and direct timings of the cache-substrate operations.
//!
//! Span nesting is workload › cell › {build, second › {quanta, sample,
//! tick}, store, load}. Spans are kept in memory and written out when the
//! run ends; a span's self time is its duration minus its children's.

use crate::probe::{normalized, Probe};
use crate::stats::{median, percentile, Metric};
use crate::workloads::Workload;
use a4_cache::{CacheHierarchy, HierarchyConfig};
use a4_core::RunReport;
use a4_experiments::{spec_key, ResultCache, ScenarioSpec};
use a4_model::{ClosId, CoreId, DeviceId, LineAddr, WorkloadId};
use a4_sim::System;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. `cell` identifies the operation (pass-major cell
/// number) that every span beneath a cell shares.
struct Span {
    name: &'static str,
    cell: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, cell: usize) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ns();
            }
        }
        own
    }

    /// Durations in ms of every span named `name`.
    fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line, then a summary of
    /// self time per span name.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = String::new();
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"cell\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.cell, s.name, s.start_ns, s.end_ns, own[id]
            )
            .expect("writing to a String cannot fail");
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own[id];
        }
        for (name, (count, ns)) in by_name {
            writeln!(
                out,
                "{{\"summary\": \"{name}\", \"spans\": {count}, \"self_ms\": {:?}}}",
                ns as f64 / 1e6
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Counters summed over the cells of one pass.
#[derive(Default, PartialEq)]
struct Counts {
    accesses: u64,
    mlc_hits: u64,
    llc_hits: u64,
    llc_misses: u64,
    migrations: u64,
    dca_allocs: u64,
    dca_updates: u64,
    dca_consumed: u64,
    dma_leaks: u64,
    dma_bloats: u64,
    evictions_suffered: u64,
    back_invalidations: u64,
    dma_write_lines: u64,
    dma_to_memory_lines: u64,
    dma_read_lines: u64,
    mem_read_lines: u64,
    mem_write_lines: u64,
    upi_crossed_lines: u64,
    remote_hits: u64,
    remote_misses: u64,
    instructions: u64,
    ops: u64,
    cat_changes: u64,
    dca_toggles: u64,
    report_bytes: u64,
}

impl Counts {
    /// Adds a finished cell's cumulative counters, read from the public
    /// accessors of each layer.
    fn add_system(&mut self, sys: &System, devices: &[DeviceId]) {
        for socket in 0..sys.sockets() {
            let stats = sys.socket_hierarchy(socket).stats();
            let t = &stats.total;
            self.accesses += t.accesses();
            self.mlc_hits += t.mlc_hits;
            self.llc_hits += t.llc_hits;
            self.llc_misses += t.llc_misses;
            self.migrations += t.migrations;
            self.dca_allocs += t.dca_allocs;
            self.dca_updates += t.dca_updates;
            self.dca_consumed += t.dca_consumed;
            self.dma_leaks += t.dma_leaks;
            self.dma_bloats += t.dma_bloats;
            self.evictions_suffered += t.evictions_suffered;
            self.back_invalidations += t.back_invalidations;
            for &dev in devices {
                let d = stats.device(dev);
                self.dma_write_lines += d.dma_write_lines;
                self.dma_to_memory_lines += d.dma_to_memory_lines;
                self.dma_read_lines += d.dma_read_lines;
            }
            let remote = sys.remote_cache(socket);
            self.remote_hits += remote.hits();
            self.remote_misses += remote.misses();
        }
        let traffic = sys.memory().cumulative_traffic();
        self.mem_read_lines += traffic.read.lines();
        self.mem_write_lines += traffic.written.lines();
        self.upi_crossed_lines += sys.upi().crossed_lines();
    }
}

/// What the A4 controller has programmed: every socket's CLOS masks and
/// each device's DCA state.
fn knobs(sys: &System, devices: &[DeviceId]) -> (Vec<u16>, Vec<bool>) {
    let mut masks = Vec::new();
    for socket in 0..sys.sockets() {
        let clos = sys.socket_hierarchy(socket).clos();
        masks.extend((0..=u8::MAX).map_while(|c| clos.mask(ClosId(c)).ok().map(|m| m.bits())));
    }
    (masks, devices.iter().map(|&d| sys.dca_enabled(d)).collect())
}

/// The outcome of one traced cell.
struct Cell {
    report: String,
    quanta: u64,
}

/// Drives one cell by hand with a span around every call into the
/// program. Fails if the spec does not build or its report does not come
/// back unchanged from the store.
fn trace_cell(
    tr: &mut Tracer,
    cell: usize,
    spec: &ScenarioSpec,
    cache: &ResultCache,
    counts: &mut Counts,
    hierarchy: &mut Option<HierarchyConfig>,
) -> Result<Cell, String> {
    let cell_span = tr.enter("cell", cell);
    let span = tr.enter("build", cell);
    let scenario = spec.build().map_err(|e| e.to_string());
    let (devices, mut sys, mut policy) = match scenario {
        Ok(scenario) => {
            let devices: Vec<DeviceId> = scenario.devices.iter().map(|d| d.id).collect();
            let sys = scenario.harness.into_system();
            (
                devices,
                sys,
                spec.scheme.map(|s| s.policy_with(spec.thresholds)),
            )
        }
        Err(e) => {
            tr.exit(span);
            tr.exit(cell_span);
            return Err(e);
        }
    };
    tr.exit(span);

    let mut samples = Vec::with_capacity(spec.opts.measure as usize);
    let mut knobs_before = knobs(&sys, &devices);
    for second in 0..spec.opts.warmup + spec.opts.measure {
        let second_span = tr.enter("second", cell);
        let span = tr.enter("quanta", cell);
        sys.run_logical_seconds(1);
        tr.exit(span);
        let span = tr.enter("sample", cell);
        let sample = sys.sample();
        tr.exit(span);
        // Without a controller the tick span is empty: it then times only
        // the tracer, so `core.tick_us` reads as measured, never as 0.
        let span = tr.enter("tick", cell);
        if let Some(p) = policy.as_mut() {
            p.tick(&mut sys, &sample);
        }
        tr.exit(span);
        tr.exit(second_span);
        for w in &sample.workloads {
            counts.instructions += w.instructions;
            counts.ops += w.ops;
        }
        if second >= spec.opts.warmup {
            samples.push(sample);
        }
        let knobs_after = knobs(&sys, &devices);
        let (m0, d0) = &knobs_before;
        let (m1, d1) = &knobs_after;
        counts.cat_changes += m0.iter().zip(m1).filter(|(a, b)| a != b).count() as u64;
        counts.dca_toggles += d0.iter().zip(d1).filter(|(a, b)| a != b).count() as u64;
        knobs_before = knobs_after;
    }
    let report = RunReport {
        policy: policy
            .as_ref()
            .map_or("none".into(), |p| p.name().to_string()),
        samples,
    };

    let span = tr.enter("store", cell);
    let key = spec_key(spec);
    cache.store(&key, &report);
    tr.exit(span);
    let span = tr.enter("load", cell);
    let loaded = cache.load(&key);
    tr.exit(span);
    tr.exit(cell_span);

    counts.add_system(&sys, &devices);
    hierarchy.get_or_insert(sys.config().hierarchy);
    let bytes = serde_json::to_string(&report).expect("reports serialize");
    counts.report_bytes += bytes.len() as u64;
    let loaded = loaded.map(|r| serde_json::to_string(&r).expect("reports serialize"));
    if loaded.as_deref() != Some(bytes.as_str()) {
        return Err("report loaded from the store differs from the traced run's".into());
    }
    Ok(Cell {
        report: bytes,
        quanta: sys.quantum_count(),
    })
}

/// Nanoseconds per call of `op` (given a running index), over batches
/// until at least `min` has passed; the median of five such timings.
fn ns_per_op(mut fresh: impl FnMut() -> CacheHierarchy, op: fn(&mut CacheHierarchy, u64)) -> f64 {
    const BATCH: u64 = 4096;
    let min = Duration::from_millis(30);
    let timings: Vec<f64> = (0..5)
        .map(|_| {
            let mut h = fresh();
            let mut i = 0u64;
            let start = Instant::now();
            while start.elapsed() < min {
                for _ in 0..BATCH {
                    op(black_box(&mut h), i);
                    i += 1;
                }
            }
            start.elapsed().as_nanos() as f64 / i as f64
        })
        .collect();
    median(&timings)
}

/// Names of the [`substrate_ns`] timings, in order.
const SUBSTRATE: [&str; 5] = [
    "cache.dma_write_ns",
    "cache.dca_consume_ns",
    "cache.read_hit_ns",
    "cache.read_miss_ns",
    "cache.read_run_ns",
];

/// Host ns of the cache-substrate operations the simulate phase is made
/// of, on a fresh hierarchy of the workload's own geometry: a DCA
/// write-allocate, that write plus its consuming core read, an MLC hit,
/// a streaming miss, and one line of a 64-line streaming read run.
fn substrate_ns(cfg: &HierarchyConfig) -> [f64; 5] {
    const IO: u64 = 1 << 32;
    const OWNER: WorkloadId = WorkloadId(0);
    let fresh = || CacheHierarchy::new(*cfg);
    [
        ns_per_op(fresh, |h, i| {
            black_box(h.dma_write(DeviceId(0), LineAddr(IO + i), OWNER, true));
        }),
        ns_per_op(fresh, |h, i| {
            h.dma_write(DeviceId(0), LineAddr(IO + i), OWNER, true);
            black_box(h.core_read_io(CoreId(0), LineAddr(IO + i), OWNER));
        }),
        ns_per_op(fresh, |h, _| {
            black_box(h.core_read(CoreId(0), LineAddr(1), OWNER));
        }),
        ns_per_op(fresh, |h, i| {
            black_box(h.core_read(CoreId(0), LineAddr(i), OWNER));
        }),
        ns_per_op(fresh, |h, i| {
            h.core_read_run(CoreId(0), LineAddr(i * 64), 64, OWNER);
        }) / 64.0,
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The outcome of a traced run.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs traced passes of `workload` at `seed` for about `seconds`,
/// compares every report with `untraced` (the untraced run's reports,
/// in cell order) and writes the spans to `trace_path`.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    untraced: &[String],
    untraced_qps: f64,
    work: &Path,
    trace_path: &Path,
) -> Outcome {
    let specs = workload.specs(seed);
    let mut tr = Tracer::new();
    let root = tr.enter("workload", usize::MAX);
    let mut counts = Counts::default();
    let mut hierarchy = None;
    let (mut attempted, mut failed) = (0, 0);
    // Traced throughput is normalized like the untraced run's, so the two
    // compare across host drift.
    let mut probe = Probe::new();
    let mut probe_ns = vec![probe.sample()];
    let (mut total_quanta, mut total_norm) = (0, 0.0);
    let mut ns_per_event = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut last = Duration::ZERO;
    for pass in 0.. {
        if pass > 0 && started.elapsed() + last > budget {
            break;
        }
        let t = Instant::now();
        let dir = work.join(format!("traced{pass}"));
        let cache = ResultCache::new(&dir);
        let mut pass_counts = Counts::default();
        let mut quanta_ns = 0;
        for (i, spec) in specs.iter().enumerate() {
            attempted += 1;
            let cell = pass * specs.len() + i;
            let first_span = tr.spans.len();
            let result = trace_cell(
                &mut tr,
                cell,
                spec,
                &cache,
                &mut pass_counts,
                &mut hierarchy,
            );
            probe_ns.push(probe.sample());
            let around = (probe_ns[probe_ns.len() - 2] + probe_ns[probe_ns.len() - 1]) / 2.0;
            total_norm += normalized(tr.spans[first_span].ns() as f64 / 1e9, around);
            quanta_ns += tr.spans[first_span..]
                .iter()
                .filter(|s| s.name == "quanta")
                .map(Span::ns)
                .sum::<u64>();
            let error = match result {
                Ok(c) if untraced.get(i) == Some(&c.report) => {
                    total_quanta += c.quanta;
                    None
                }
                Ok(_) => Some("traced report differs from the untraced run's".to_string()),
                Err(e) => Some(e),
            };
            if let Some(e) = error {
                failed += 1;
                eprintln!(
                    "[perfbench] traced pass {pass} cell {i} ({}): {e}",
                    spec.name
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        let events =
            pass_counts.accesses + pass_counts.dma_write_lines + pass_counts.dma_read_lines;
        ns_per_event.push(quanta_ns as f64 / events.max(1) as f64);
        if pass == 0 {
            counts = pass_counts;
        } else if pass_counts != counts {
            failed += 1;
            eprintln!("[perfbench] traced pass {pass}: layer counters differ from pass 0's");
        }
        last = t.elapsed();
    }
    tr.exit(root);

    // Share of each cell's wall time its child spans cover.
    let own = tr.self_ns();
    let coverage = tr
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "cell")
        .map(|(id, s)| 100.0 * (1.0 - own[id] as f64 / s.ns().max(1) as f64))
        .fold(100.0, f64::min);
    if coverage < 95.0 {
        eprintln!("[perfbench] warning: spans cover only {coverage:.2}% of some cell");
    }
    let sum_ms = |name| tr.ms_of(name).iter().sum::<f64>();
    let share = 100.0 * sum_ms("quanta") / sum_ms("cell");
    let seconds_ms = tr.ms_of("quanta");
    let ticks = seconds_ms.len().max(1) as f64;
    let traced_qps = total_quanta as f64 / total_norm;
    let substrate = hierarchy.as_ref().map(substrate_ns);
    if let Err(e) = tr.write(trace_path) {
        eprintln!("[perfbench] cannot write {}: {e}", trace_path.display());
    }

    let c = &counts;
    let cells = specs.len().max(1) as f64;
    let mut metrics = vec![
        m("sim.second_ms.p50", "ms", percentile(&seconds_ms, 50.0)),
        m("sim.second_ms.p90", "ms", percentile(&seconds_ms, 90.0)),
        m("sim.ns_per_event", "ns", median(&ns_per_event)),
        m("sim.share", "%", share),
        m("sim.sample_us", "us", 1e3 * median(&tr.ms_of("sample"))),
        // A mean, not a median: ticks without a controller are a few
        // clock ticks each, and their median would read the same every run.
        m("core.tick_us", "us", 1e3 * sum_ms("tick") / ticks),
        m("core.cat_changes", "count", c.cat_changes as f64),
        m("core.dca_toggles", "count", c.dca_toggles as f64),
        m("cache.accesses", "count", c.accesses as f64),
        m("cache.mlc_hits", "count", c.mlc_hits as f64),
        m("cache.llc_hits", "count", c.llc_hits as f64),
        m("cache.llc_misses", "count", c.llc_misses as f64),
        m(
            "cache.evictions_suffered",
            "count",
            c.evictions_suffered as f64,
        ),
        m(
            "cache.back_invalidations",
            "count",
            c.back_invalidations as f64,
        ),
        m("cache.migrations", "count", c.migrations as f64),
        m("cache.dca_allocs", "count", c.dca_allocs as f64),
        m("cache.dca_updates", "count", c.dca_updates as f64),
        m("cache.dca_consumed", "count", c.dca_consumed as f64),
        m("cache.dma_leaks", "count", c.dma_leaks as f64),
        m("cache.dma_bloats", "count", c.dma_bloats as f64),
        m(
            "cache.dca_consumed_ratio",
            "ratio",
            ratio(c.dca_consumed, c.dca_allocs + c.dca_updates),
        ),
        m(
            "cache.mlc_hit_ratio",
            "ratio",
            ratio(c.mlc_hits, c.accesses),
        ),
        m(
            "cache.llc_hit_ratio",
            "ratio",
            ratio(c.llc_hits, c.llc_hits + c.llc_misses),
        ),
    ];
    for (name, ns) in SUBSTRATE.into_iter().zip(substrate.unwrap_or_default()) {
        metrics.push(m(name, "ns", ns));
    }
    metrics.extend([
        m("upi.crossed_lines", "count", c.upi_crossed_lines as f64),
        m(
            "upi.remote_cache_hit_ratio",
            "ratio",
            ratio(c.remote_hits, c.remote_hits + c.remote_misses),
        ),
        m("pcie.dma_write_lines", "count", c.dma_write_lines as f64),
        m(
            "pcie.dma_to_memory_lines",
            "count",
            c.dma_to_memory_lines as f64,
        ),
        m("pcie.dma_read_lines", "count", c.dma_read_lines as f64),
        m("mem.read_lines", "count", c.mem_read_lines as f64),
        m("mem.write_lines", "count", c.mem_write_lines as f64),
        m("workloads.instructions", "count", c.instructions as f64),
        m("workloads.ops", "count", c.ops as f64),
        m("experiments.build_ms", "ms", median(&tr.ms_of("build"))),
        m(
            "experiments.store_write_ms",
            "ms",
            median(&tr.ms_of("store")),
        ),
        m("experiments.store_load_ms", "ms", median(&tr.ms_of("load"))),
        m(
            "experiments.report_kb",
            "KiB",
            c.report_bytes as f64 / 1024.0 / cells,
        ),
        m("trace.quanta_per_s", "1/s", traced_qps),
        m("trace.untraced_quanta_per_s", "1/s", untraced_qps),
        m("trace.probe_ns", "ns", median(&probe_ns)),
        m(
            "trace.overhead_pct",
            "%",
            100.0 * (untraced_qps / traced_qps - 1.0),
        ),
        m("trace.span_coverage_pct", "%", coverage),
    ]);
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}
