//! `a4-repro` — regenerates every measured figure of the A4 paper.
//!
//! One client of the sweep service ([`a4_experiments::service`]): every
//! figure run is a [`SweepJob`] executed against the shared
//! content-addressed store, and the printed tables are a pure function
//! of that store — which is what makes sharded, queued and resumed runs
//! merge byte-identically.
//!
//! Usage: at most one mode flag, plus flags that mode lists. Any other
//! flag, or figures given to a mode without FIGURES, exits with status 2.
//!
//! ```text
//! a4-repro [FIGURES] [--quick] [--threads N] [--replicas N] [--json DIR]
//!          [--ckpt-every Q] [STORE | --no-cache]
//!     run the figures in this process and print their tables
//! a4-repro --list [--quick]
//!     list figures and their cell counts
//! a4-repro --timing [--quick] [--json DIR]
//!     time the fig12 representative cell, write BENCH_hotloop.json (to
//!     --json DIR, or the current directory)
//! a4-repro --dump-specs DIR [FIGURES] [--quick]
//!     write each figure's cells as DIR/<fig>.specs.json, run nothing
//! a4-repro --spec FILE [--threads N] [--replicas N] [--json DIR]
//!          [--ckpt-every Q] [STORE | --no-cache]
//!     run a ScenarioSpec JSON file (one spec or an array; older schema
//!     versions are migrated) and print a per-role metric table
//! a4-repro --shard I/N [FIGURES] [--quick] [--threads N] [--replicas N]
//!          [--json DIR] [--ckpt-every Q] [STORE]
//!     execute shard I of N of each figure's work units into the store;
//!     tables render once every shard has landed
//! a4-repro --merge-only [FIGURES] [--best-effort] [--quick] [--replicas N]
//!          [--json DIR] [STORE]
//!     never simulate: render the tables purely from the store;
//!     --best-effort renders partial sweeps with (missing) cells
//! a4-repro --enqueue [FIGURES] [--shards N] [--quick] [--replicas N] [STORE]
//!     split each figure into --shards tasks (default 2) on the store's
//!     job queue
//! a4-repro --worker [--stale-secs S] [--max-attempts N] [--threads N]
//!          [--ckpt-every Q] [STORE]
//!     claim queued tasks one lease at a time, execute them into the
//!     store, exit when none are claimable
//! a4-repro --serve [FIGURES] [--shards N] [--stale-secs S]
//!          [--max-attempts N] [--quick] [--threads N] [--replicas N]
//!          [--json DIR] [--ckpt-every Q] [STORE]
//!     --enqueue, work the queue in-process until it drains, then merge
//!
//! STORE:   [--cache-dir DIR] [--cache-gc [--max-age-days N]]
//! FIGURES: fig3 fig4 fig5 fig6 fig7 fig8 fig11 fig12 fig13 fig14 fig15
//!          fig_numa (default: all)
//!
//! --quick:          short warm-up/measure windows (CI-friendly)
//! --threads N:      fan sweep cells out over N threads (default 1;
//!                   tables are identical for any N)
//! --replicas N:     run every cell at N derived-seed replicas and
//!                   report mean ± stddev per metric (replicas hit the
//!                   store independently); --json writes <id>.mean.json
//!                   and <id>.stddev.json
//! --json DIR:       additionally dump each table as DIR/<id>.json
//! --cache-dir DIR:  the shared result store (default out/.cache);
//!                   cells already stored are loaded instead of
//!                   re-simulated, so edited sweeps re-run only the
//!                   edited cells and interrupted sweeps resume. Tables
//!                   are byte-identical either way.
//! --no-cache:       disable the result store entirely
//! --cache-gc:       garbage-collect the store first: drop entries not
//!                   touched (stored or loaded) within --max-age-days
//!                   (default 30). With no mode and no figures, exits
//!                   after the collection.
//! --ckpt-every Q:   checkpoint each in-flight cell's complete
//!                   simulation state into <store>/ckpt/ every Q quanta
//!                   (default off; 1000 quanta = 1 logical second). A
//!                   killed worker's replacement resumes each cell from
//!                   its latest valid checkpoint instead of quantum 0;
//!                   results are bit-identical either way
//! --stale-secs S:   lease age after which a crashed worker's task is
//!                   re-claimed (default 300)
//! --max-attempts N: executions a task gets before it is quarantined as
//!                   exhausted instead of retried (default 3); distinct
//!                   from parse-poison
//! ```
//!
//! Setting `A4_FAULTS=<seed>` routes every store and queue filesystem
//! operation through a seeded deterministic fault injector
//! ([`a4_experiments::FaultFs`]: ENOSPC/EIO writes, refused renames,
//! torn tmp files). Workers retry transients with bounded backoff and
//! report a fabric-health summary — the chaos knob CI uses to prove
//! that an injected run merges byte-identically to a fault-free one.

use a4_experiments::cache::ResultCache;
use a4_experiments::fig11;
use a4_experiments::service::ServiceError;
use a4_experiments::{drain_queue, fabric_health, Backoff, DrainReport, FaultFs, Fs, RealFs};
use a4_experiments::{execute_replicated, figures, FigureDef, JobTables, Protocol, Shard};
use a4_experiments::{CkptStore, JobQueue, SweepJob, Task, MAX_ATTEMPTS};
use a4_experiments::{RunOpts, ScenarioRun, ScenarioSpec, Scheme, SweepRunner, Table};
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// Prints the error and exits with status 2. The CLI front door for
/// every fatal condition: fleet workers and scripted callers get a
/// one-line diagnosis and a clean exit code, never a panic backtrace.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("[a4-repro] error: {msg}");
    std::process::exit(2);
}

/// Every flag without a value, then every flag with one.
const SWITCHES: &str = "--list --timing --merge-only --enqueue --worker --serve --quick \
                        --no-cache --cache-gc --best-effort";
const VALUED: &str = "--dump-specs --spec --shard --threads --replicas --json --cache-dir \
                      --max-age-days --ckpt-every --shards --stale-secs --max-attempts";

/// Each mode's flag ("" when none is given) and what else it accepts —
/// the usage block above, as the parser reads it.
const MODES: [(&str, &str); 10] = [
    ("", "FIGURES --quick --threads --replicas --json --ckpt-every STORE --no-cache"),
    ("--list", "--quick"),
    ("--timing", "--quick --json"),
    ("--dump-specs", "FIGURES --quick"),
    ("--spec", "--threads --replicas --json --ckpt-every STORE --no-cache"),
    ("--shard", "FIGURES --quick --threads --replicas --json --ckpt-every STORE"),
    ("--merge-only", "FIGURES --best-effort --quick --replicas --json STORE"),
    ("--enqueue", "FIGURES --shards --quick --replicas STORE"),
    ("--worker", "--stale-secs --max-attempts --threads --ckpt-every STORE"),
    ("--serve", "FIGURES --shards --stale-secs --max-attempts --quick --threads --replicas --json --ckpt-every STORE"),
];

/// What one invocation does; each variant holds its mode's own flags.
#[derive(Debug, Clone, PartialEq)]
enum Mode {
    List,
    Timing,
    DumpSpecs(String),
    Spec(String),
    /// No mode flag: run the figures in this process.
    Run,
    Shard(Shard),
    MergeOnly {
        best_effort: bool,
    },
    Enqueue {
        shards: u64,
    },
    Worker(Leasing),
    Serve {
        shards: u64,
        leasing: Leasing,
    },
}

/// How a queue-draining mode treats leases.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Leasing {
    stale: Duration,
    max_attempts: u64,
}

/// A parsed command line: the mode plus the settings modes share.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    mode: Mode,
    /// The figures named on the command line (none: every figure).
    figures: Vec<&'static str>,
    quick: bool,
    threads: usize,
    replicas: u64,
    json: Option<String>,
    /// The result store's directory; `None` under `--no-cache` and in
    /// the modes without STORE.
    store: Option<String>,
    ckpt_every: u64,
    /// `--cache-gc`: prune store entries idle this many days first.
    cache_gc: Option<u64>,
}

/// Parses the arguments (without the program name) into a [`Cli`], or
/// describes the usage error.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut given: Vec<(&'static str, String)> = Vec::new();
    let mut named = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            let def = figures().into_iter().find(|f| f.name == arg.as_str());
            let unknown = || format!("unknown figure {arg:?} (run --list for the vocabulary)");
            named.push(def.ok_or_else(unknown)?.name);
            continue;
        }
        let known = |list: &'static str| list.split_whitespace().find(|f| f == arg);
        let entry = match (known(SWITCHES), known(VALUED)) {
            (Some(flag), _) => (flag, String::new()),
            // `--json --quick` must not treat the next flag as a
            // directory.
            (_, Some(flag)) => match args.next() {
                Some(v) if !v.starts_with("--") => (flag, v.clone()),
                _ => return Err(format!("{flag} requires a value argument")),
            },
            _ => return Err(format!("unknown flag {arg:?}")),
        };
        if given.iter().any(|(f, _)| *f == entry.0) {
            return Err(format!("{arg} given twice"));
        }
        given.push(entry);
    }
    let value = |flag: &str| {
        given
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.clone())
    };
    let has = |flag: &str| value(flag).is_some();
    let count = |flag: &str, default: u64, min: u64, what: &str| {
        value(flag).map_or(Ok(default), |v| {
            v.parse()
                .ok()
                .filter(|n| *n >= min)
                .ok_or_else(|| format!("{flag} takes {what}"))
        })
    };

    let chosen: Vec<&str> = given
        .iter()
        .map(|(f, _)| *f)
        .filter(|f| MODES[1..].iter().any(|(m, _)| m == f))
        .collect();
    if let [a, b, ..] = chosen[..] {
        return Err(format!("{a} and {b} are mutually exclusive"));
    }
    let (flag, accepts) = MODES
        .into_iter()
        .find(|(m, _)| *m == chosen.first().copied().unwrap_or(""))
        .unwrap_or(MODES[0]);
    let name = if flag.is_empty() {
        "a figure run"
    } else {
        flag
    };
    let accepted = |f: &str| {
        let store = ["--cache-dir", "--cache-gc", "--max-age-days"].contains(&f);
        accepts
            .split_whitespace()
            .any(|a| a == f || store && a == "STORE")
    };
    if let Some((f, _)) = given.iter().find(|(f, _)| *f != flag && !accepted(f)) {
        return Err(format!("{f} does not apply to {name}"));
    }
    if !named.is_empty() && !accepted("FIGURES") {
        return Err(format!("{name} takes no figure arguments"));
    }
    if has("--max-age-days") && !has("--cache-gc") {
        return Err("--max-age-days only applies to --cache-gc".into());
    }
    for store_flag in ["--cache-dir", "--cache-gc", "--ckpt-every"] {
        if has("--no-cache") && has(store_flag) {
            return Err(format!(
                "--no-cache and {store_flag} are mutually exclusive"
            ));
        }
    }

    let leasing = || -> Result<Leasing, String> {
        Ok(Leasing {
            stale: Duration::from_secs(count("--stale-secs", 300, 0, "a second count")?),
            max_attempts: count("--max-attempts", MAX_ATTEMPTS, 1, "a positive integer")?,
        })
    };
    let shards = || count("--shards", 2, 1, "a positive integer");
    let mode = match flag {
        "--list" => Mode::List,
        "--timing" => Mode::Timing,
        "--dump-specs" => Mode::DumpSpecs(value(flag).unwrap_or_default()),
        "--spec" => Mode::Spec(value(flag).unwrap_or_default()),
        "--shard" => Mode::Shard(
            Shard::parse(&value(flag).unwrap_or_default()).map_err(|e| format!("--shard: {e}"))?,
        ),
        "--merge-only" => Mode::MergeOnly {
            best_effort: has("--best-effort"),
        },
        "--enqueue" => Mode::Enqueue { shards: shards()? },
        "--worker" => Mode::Worker(leasing()?),
        "--serve" => Mode::Serve {
            shards: shards()?,
            leasing: leasing()?,
        },
        _ => Mode::Run,
    };
    let store = (accepted("--cache-dir") && !has("--no-cache"))
        .then(|| value("--cache-dir").unwrap_or_else(|| "out/.cache".into()));
    Ok(Cli {
        mode,
        figures: named,
        quick: has("--quick"),
        threads: count("--threads", 1, 1, "a positive integer")? as usize,
        replicas: count("--replicas", 1, 1, "a positive integer")?,
        json: value("--json"),
        store,
        ckpt_every: count("--ckpt-every", 0, 0, "a quantum count")?,
        cache_gc: match has("--cache-gc") {
            true => Some(count("--max-age-days", 30, 0, "a day count")?),
            false => None,
        },
    })
}

impl Cli {
    /// The selected figures, in registry order.
    fn selected(&self) -> Vec<FigureDef> {
        figures()
            .into_iter()
            .filter(|f| self.figures.is_empty() || self.figures.contains(&f.name))
            .collect()
    }

    fn job(&self, f: &FigureDef) -> SweepJob {
        SweepJob::new(f.name, f.protocol.opts(self.quick), self.replicas)
            .unwrap_or_else(|e| fail(format!("figure registry inconsistent for {}: {e}", f.name)))
    }
}

/// The runner over the result store, and the filesystem every store,
/// checkpoint and queue operation goes through.
struct Fabric {
    runner: SweepRunner,
    fs: Arc<dyn Fs>,
    /// The injector behind `fs` when `A4_FAULTS` is set.
    faults: Option<Arc<FaultFs>>,
}

impl Fabric {
    fn open(cli: &Cli) -> Fabric {
        // The chaos knob: A4_FAULTS=<seed> puts the store, checkpoints
        // and queue on a deterministic fault-injecting filesystem.
        let faults = FaultFs::from_env();
        if faults.is_some() {
            eprintln!("[a4-repro] A4_FAULTS set: injecting seeded store/queue faults");
            // Only these modes accept --no-cache.
            if cli.store.is_none() && matches!(cli.mode, Mode::Run | Mode::Spec(_)) {
                fail("A4_FAULTS exercises the store; drop --no-cache");
            }
        }
        let fs: Arc<dyn Fs> = match &faults {
            Some(f) => f.clone(),
            None => Arc::new(RealFs),
        };
        let mut runner = SweepRunner::with_threads(cli.threads);
        if let Some(dir) = &cli.store {
            runner = runner.with_cache(ResultCache::with_fs(dir, fs.clone()));
            if cli.ckpt_every > 0 {
                let ckpt = CkptStore::with_fs(std::path::Path::new(dir).join("ckpt"), fs.clone());
                runner = runner.with_ckpt(ckpt, cli.ckpt_every);
            }
        }
        Fabric { runner, fs, faults }
    }

    fn store(&self) -> &ResultCache {
        self.runner
            .cache()
            .unwrap_or_else(|| fail("this mode needs the result store (internal)"))
    }

    fn queue(&self) -> JobQueue {
        JobQueue::open_with_fs(self.store().dir(), self.fs.clone())
            .unwrap_or_else(|e| fail(format!("cannot open job queue: {e}")))
    }

    /// Prints the health summary of whatever ran: store counters, queue
    /// poison count, worker drain stats, and the injector's fault count.
    fn print_health(&self, queue: Option<&JobQueue>, report: Option<&DrainReport>) {
        let mut health = fabric_health(self.runner.cache(), queue, report);
        if let Some(f) = &self.faults {
            health.injected_faults = f.injected();
        }
        eprintln!("[a4-repro] fabric {health}");
    }

    /// One [`drain_queue`] pass with the CLI's retry policy and log
    /// prefix; a fatal queue/execution error exits via [`fail`] (the
    /// library released the task first, so it survives for another
    /// worker).
    fn drain(&self, queue: &JobQueue, worker: &str, leasing: Leasing) -> DrainReport {
        drain_queue(
            queue,
            &self.runner,
            worker,
            leasing.stale,
            leasing.max_attempts,
            &Backoff::fabric(),
            |line| eprintln!("[a4-repro] {worker}: {line}"),
        )
        .unwrap_or_else(|e| fail(format!("{worker}: {e}")))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|e| fail(e));
    let fabric = Fabric::open(&cli);
    if let Some(days) = cli.cache_gc {
        let cache = fabric.store();
        let (removed, kept) = cache.gc(Duration::from_secs(days.saturating_mul(86_400)));
        eprintln!(
            "[a4-repro] cache-gc {}: removed {removed} entr{} older than {days} day(s), kept {kept}",
            cache.dir().display(),
            if removed == 1 { "y" } else { "ies" },
        );
        // GC-only invocation: nothing else to run.
        if cli.mode == Mode::Run && cli.figures.is_empty() {
            return;
        }
    }
    match &cli.mode {
        Mode::List => list(cli.quick),
        Mode::Timing => run_timing(cli.quick, cli.json.as_deref()),
        Mode::DumpSpecs(dir) => dump_specs(&cli, dir),
        Mode::Spec(path) => emit(&cli, &fabric, vec![run_spec_file(&cli, &fabric, path)]),
        Mode::Run => emit(&cli, &fabric, run_figures(&cli, &fabric)),
        Mode::Shard(shard) => emit(&cli, &fabric, run_shard(&cli, &fabric, *shard)),
        Mode::MergeOnly { best_effort } => {
            let rendered = merge(&cli, &fabric, *best_effort);
            fabric.print_health(None, None);
            emit(&cli, &fabric, rendered);
        }
        Mode::Enqueue { shards } => enqueue(&cli, &fabric, *shards),
        Mode::Worker(leasing) => work(&fabric, *leasing),
        Mode::Serve { shards, leasing } => {
            emit(&cli, &fabric, serve(&cli, &fabric, *shards, *leasing));
        }
    }
}

fn list(quick: bool) {
    println!("figure  cells  description");
    for f in figures() {
        let cells = (f.specs)(&f.protocol.opts(quick)).len();
        println!("{:<7} {:>5}  {}", f.name, cells, f.desc);
    }
}

fn dump_specs(cli: &Cli, dir: &str) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(format!("cannot create spec output dir {dir}: {e}")));
    for f in cli.selected() {
        let specs = (f.specs)(&f.protocol.opts(cli.quick));
        let path = format!("{dir}/{}.specs.json", f.name);
        let json = serde_json::to_string_pretty(&specs)
            .unwrap_or_else(|e| fail(format!("specs failed to serialize: {e}")));
        std::fs::write(&path, json).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("[a4-repro] wrote {path} ({} cells)", specs.len());
    }
}

fn spec_table(run: &ScenarioRun) -> Table {
    let mut table = Table::new(
        format!("spec-{}", run.name),
        format!("scenario {} ({})", run.name, run.report.policy),
        ["perf", "ipc", "llc_hit", "io_gbps"],
    );
    for binding in &run.workloads {
        table.push(
            binding.role.clone(),
            [
                run.perf(&binding.role),
                run.ipc(&binding.role),
                run.llc_hit_rate(&binding.role),
                run.io_gbps(&binding.role),
            ],
        );
    }
    table
}

fn run_spec_file(cli: &Cli, fabric: &Fabric, path: &str) -> JobTables {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read spec file {path}: {e}")));
    // Accept a single spec object or an array of them; migrate older
    // schema versions to the current one.
    let parsed: Vec<ScenarioSpec> = serde_json::from_str::<Vec<ScenarioSpec>>(&json)
        .or_else(|_| serde_json::from_str::<ScenarioSpec>(&json).map(|s| vec![s]))
        .unwrap_or_else(|e| fail(format!("cannot parse {path} as ScenarioSpec JSON: {e}")));
    let specs: Vec<ScenarioSpec> = parsed
        .into_iter()
        .map(|s| s.migrate().unwrap_or_else(|e| fail(format!("{path}: {e}"))))
        .collect();
    if specs.is_empty() {
        fail(format!("{path} contains no scenario specs"));
    }
    eprintln!(
        "[a4-repro] running {} scenario(s) from {path} on {} thread(s)...",
        specs.len(),
        cli.threads
    );
    execute_replicated(&fabric.runner, path, &specs, cli.replicas, |runs| {
        runs.iter().map(spec_table).collect()
    })
    .unwrap_or_else(|e| fail(e))
}

fn run_figures(cli: &Cli, fabric: &Fabric) -> Vec<JobTables> {
    cli.selected()
        .iter()
        .map(|f| {
            let job = cli.job(f);
            let cells = (f.specs)(&job.opts).len();
            eprintln!(
                "[a4-repro] {} ({}; {cells} cells, {} thread(s), {} replica(s))...",
                f.name, f.desc, cli.threads, cli.replicas
            );
            job.execute(&fabric.runner)
                .unwrap_or_else(|e| fail(format!("{}: {e}", f.name)))
        })
        .collect()
}

/// Executes `shard` of every selected figure into the store, rendering
/// the figures whose sweeps are complete.
fn run_shard(cli: &Cli, fabric: &Fabric, shard: Shard) -> Vec<JobTables> {
    let mut rendered = Vec::new();
    for f in cli.selected() {
        let job = cli.job(&f);
        let executed = job
            .execute_shard(shard, &fabric.runner)
            .unwrap_or_else(|e| fail(format!("{}: {e}", f.name)));
        match job.render_from_store(fabric.store()) {
            Ok(tables) => rendered.push(tables),
            Err(ServiceError::MissingCells { missing, total, .. }) => eprintln!(
                "[a4-repro] {} shard {shard}: executed {executed} unit(s); \
                 {}/{total} cell(s) not in the store yet — render with \
                 --merge-only once every shard has run",
                f.name,
                missing.len()
            ),
            Err(e) => fail(format!("{}: {e}", f.name)),
        }
    }
    rendered
}

/// Renders every selected figure purely from the store.
fn merge(cli: &Cli, fabric: &Fabric, best_effort: bool) -> Vec<JobTables> {
    let store = fabric.store();
    cli.selected()
        .iter()
        .map(|f| {
            let job = cli.job(f);
            if !best_effort {
                return job
                    .render_from_store(store)
                    .unwrap_or_else(|e| fail(format!("{}: {e}", f.name)));
            }
            let (rendered, missing, total) = job
                .render_from_store_best_effort(store)
                .unwrap_or_else(|e| fail(format!("{}: {e}", f.name)));
            if missing > 0 {
                eprintln!(
                    "[a4-repro] {}: best-effort merge with {missing}/{total} cell(s) missing",
                    f.name
                );
            }
            rendered
        })
        .collect()
}

fn queue_counts(queue: &JobQueue) -> (usize, usize, usize) {
    queue
        .counts()
        .unwrap_or_else(|e| fail(format!("cannot scan queue: {e}")))
}

fn report_poisoned(queue: &JobQueue) {
    let poisoned = queue.poisoned().unwrap_or(0);
    if poisoned > 0 {
        eprintln!(
            "[a4-repro] warning: {poisoned} unparseable task(s) quarantined in {}",
            queue.root().join("poison").display()
        );
    }
    let exhausted = queue.exhausted().unwrap_or(0);
    if exhausted > 0 {
        eprintln!(
            "[a4-repro] warning: {exhausted} repeatedly-failing task(s) \
             quarantined as exhausted in {}",
            queue.root().join("poison").display()
        );
    }
}

/// Splits every selected figure into `shards` tasks on the queue.
fn enqueue_tasks(cli: &Cli, queue: &JobQueue, shards: u64) {
    for f in cli.selected() {
        let job = cli.job(&f);
        for index in 0..shards {
            let task = Task {
                job: job.clone(),
                shard: Shard::new(index, shards),
            };
            let state = queue
                .enqueue(&task)
                .unwrap_or_else(|e| fail(format!("cannot enqueue task: {e}")));
            eprintln!(
                "[a4-repro] enqueue {} shard {}: {state:?}",
                f.name, task.shard
            );
        }
    }
}

fn enqueue(cli: &Cli, fabric: &Fabric, shards: u64) {
    let queue = fabric.queue();
    enqueue_tasks(cli, &queue, shards);
    let (pending, leased, done) = queue_counts(&queue);
    eprintln!(
        "[a4-repro] queue {}: {pending} pending / {leased} leased / {done} done \
         (start workers with --worker --cache-dir {})",
        queue.root().display(),
        fabric.store().dir().display()
    );
}

fn work(fabric: &Fabric, leasing: Leasing) {
    let queue = fabric.queue();
    let me = format!("w{}", std::process::id());
    let report = fabric.drain(&queue, &me, leasing);
    let (pending, leased, done) = queue_counts(&queue);
    eprintln!(
        "[a4-repro] {me}: executed {} unit(s); queue now \
         {pending} pending / {leased} leased / {done} done",
        report.executed
    );
    report_poisoned(&queue);
    fabric.print_health(Some(&queue), Some(&report));
}

/// Enqueues, works the queue alongside any external workers, waits for
/// stragglers (re-claiming their leases if they go stale), then merges.
fn serve(cli: &Cli, fabric: &Fabric, shards: u64, leasing: Leasing) -> Vec<JobTables> {
    let queue = fabric.queue();
    enqueue_tasks(cli, &queue, shards);
    let me = format!("w{}", std::process::id());
    let mut total = DrainReport::default();
    loop {
        let report = fabric.drain(&queue, &me, leasing);
        total += report;
        if report.released {
            // Our own lease heartbeats keep failing: the store dir is
            // unhealthy, and looping would thrash it.
            fail(format!(
                "{me}: lease heartbeats keep failing; task released"
            ));
        }
        let (pending, leased, _) = queue_counts(&queue);
        if pending == 0 && leased == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    report_poisoned(&queue);
    fabric.print_health(Some(&queue), Some(&total));
    merge(cli, fabric, false)
}

/// Prints the store tally and the rendered tables, and writes them
/// under `--json`.
fn emit(cli: &Cli, fabric: &Fabric, rendered: Vec<JobTables>) {
    if let Some(cache) = fabric.runner.cache() {
        let (hits, simulated) = (cache.hits(), cache.simulated());
        if hits + simulated > 0 {
            eprintln!(
                "[a4-repro] cache {}: {hits} cell(s) loaded, {simulated} simulated \
                 (--no-cache forces re-simulation)",
                cache.dir().display()
            );
        }
    }
    for tables in &rendered {
        match tables {
            JobTables::Single(ts) => ts.iter().for_each(|t| println!("{t}")),
            JobTables::Replicated(stats) => stats.iter().for_each(|s| println!("{s}")),
        }
    }
    let Some(dir) = &cli.json else { return };
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(format!("cannot create json output dir {dir}: {e}")));
    let write_table = |path: String, table: &Table| {
        let json = serde_json::to_string_pretty(table)
            .unwrap_or_else(|e| fail(format!("table failed to serialize: {e}")));
        std::fs::write(&path, json).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("[a4-repro] wrote {path}");
    };
    for tables in &rendered {
        match tables {
            JobTables::Single(ts) => {
                for table in ts {
                    write_table(format!("{dir}/{}.json", table.id), table);
                }
            }
            JobTables::Replicated(stats) => {
                for s in stats {
                    write_table(format!("{dir}/{}.mean.json", s.mean.id), &s.mean);
                    write_table(format!("{dir}/{}.stddev.json", s.stddev.id), &s.stddev);
                }
            }
        }
    }
}

/// `BENCH_hotloop.json`, the hot-loop trajectory CI's delta step reads.
#[derive(Serialize)]
struct HotloopBench {
    bench: &'static str,
    cell: &'static str,
    quick: bool,
    logical_seconds: u64,
    quanta: u64,
    /// Combined throughput: total quanta over total wall.
    quanta_per_sec: u64,
    runs: Vec<HotloopRun>,
}

/// One scheme's best-of-N timing.
#[derive(Serialize)]
struct HotloopRun {
    scheme: &'static str,
    wall_secs: f64,
    quanta_per_sec: u64,
}

/// The fig12 representative cell the timing harness pins: the §7.1 mix
/// at 1514 B packets / 512 KB blocks — mid-sweep, all contention
/// mechanisms active.
fn timing_cell(opts: &RunOpts, scheme: Scheme) -> ScenarioSpec {
    fig11::mix_spec(opts, scheme, 1514, 512)
}

/// Runs the hot-loop timing harness and writes `BENCH_hotloop.json`:
/// wall-clock and quanta/sec for the fig12 representative cell under the
/// Default and A4-d schemes (best of `reps` runs each).
fn run_timing(quick: bool, json_dir: Option<&str>) {
    let opts = Protocol::Controller.opts(quick);
    // Quanta per logical second comes from the built cell's system
    // config, so a future quantum change cannot silently skew the
    // trajectory this artifact tracks.
    let probe = timing_cell(&opts, Scheme::Default)
        .build()
        .unwrap_or_else(|e| fail(format!("timing cell failed to build: {e}")));
    let quanta_per_logical_sec = u64::from(probe.harness.system().config().quanta_per_second);
    drop(probe);
    let logical_seconds = opts.warmup + opts.measure;
    let quanta = logical_seconds * quanta_per_logical_sec;
    let reps = 3;
    let mut runs = Vec::new();
    let mut total_wall = 0.0;
    for scheme in [Scheme::Default, Scheme::A4(a4_core::FeatureLevel::D)] {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let scenario = timing_cell(&opts, scheme)
                .build()
                .unwrap_or_else(|e| fail(format!("timing cell failed to build: {e}")));
            let t0 = std::time::Instant::now();
            let run = scenario.run();
            let secs = t0.elapsed().as_secs_f64();
            if run.report.total_instructions_all() == 0 {
                fail(format!(
                    "timing cell retired no instructions under {}",
                    scheme.label()
                ));
            }
            best = best.min(secs);
        }
        let qps = quanta as f64 / best;
        eprintln!(
            "[a4-repro] timing {}: best of {reps} = {best:.3}s wall, {qps:.0} quanta/sec",
            scheme.label()
        );
        total_wall += best;
        runs.push(HotloopRun {
            scheme: scheme.label(),
            wall_secs: (best * 1e4).round() / 1e4,
            quanta_per_sec: qps.round() as u64,
        });
    }
    // Headline: combined throughput over the measured schemes, so
    // neither the baseline nor the controller cell alone defines the
    // trajectory.
    let combined = (quanta * runs.len() as u64) as f64 / total_wall;
    eprintln!("[a4-repro] timing combined: {combined:.0} quanta/sec");
    let bench = HotloopBench {
        bench: "hotloop",
        cell: "fig12 mix 1514B 512KB",
        quick,
        logical_seconds,
        quanta,
        quanta_per_sec: combined.round() as u64,
        runs,
    };
    let json = serde_json::to_string_pretty(&bench)
        .unwrap_or_else(|e| fail(format!("timing result failed to serialize: {e}")));
    let dir = json_dir.unwrap_or(".");
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(format!("cannot create timing output dir {dir}: {e}")));
    let path = format!("{dir}/BENCH_hotloop.json");
    std::fs::write(&path, json).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
    eprintln!("[a4-repro] wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn usage_errors_name_the_broken_rule() {
        // One row per rule: a command line => a fragment of its error.
        let rows = [
            "--qiuck fig3 => unknown flag \"--qiuck\"",
            "--lsit => unknown flag \"--lsit\"",
            "fig99 => unknown figure \"fig99\"",
            "--json --quick => --json requires a value",
            "fig3 --json => --json requires a value",
            "--quick --quick => --quick given twice",
            "--worker fig3 => --worker takes no figure",
            "--timing fig12 => --timing takes no figure",
            "--spec f.json fig12 => --spec takes no figure",
            "--list fig3 => --list takes no figure",
            "--best-effort => --best-effort does not apply to a figure run",
            "--serve --best-effort => --best-effort does not apply to --serve",
            "--shard 0/2 --shards 2 => --shards does not apply to --shard",
            "--enqueue --stale-secs 5 => --stale-secs does not apply to --enqueue",
            "--max-attempts 2 => --max-attempts does not apply to a figure run",
            "--merge-only --threads 2 => --threads does not apply to --merge-only",
            "--enqueue --ckpt-every 9 => --ckpt-every does not apply to --enqueue",
            "--worker --replicas 2 => --replicas does not apply to --worker",
            "--worker --json out => --json does not apply to --worker",
            "--dump-specs d --json out => --json does not apply to --dump-specs",
            "--worker --quick => --quick does not apply to --worker",
            "--spec f.json --quick => --quick does not apply to --spec",
            "--timing --cache-dir d => --cache-dir does not apply to --timing",
            "--list --cache-gc => --cache-gc does not apply to --list",
            "--worker --no-cache => --no-cache does not apply to --worker",
            "fig12 --serve --no-cache => --no-cache does not apply to --serve",
            "--max-age-days 3 => --max-age-days only applies to --cache-gc",
            "--threads 0 => --threads takes a positive integer",
            "--threads two => --threads takes a positive integer",
            "--enqueue --shards 0 => --shards takes a positive integer",
            "--replicas 0 => --replicas takes a positive integer",
            "--worker --max-attempts 0 => --max-attempts takes a positive integer",
            "--shard 2/2 => --shard: ",
            "--no-cache --cache-dir d => --no-cache and --cache-dir",
            "--no-cache --cache-gc => --no-cache and --cache-gc",
            "--spec f.json --no-cache --ckpt-every 5 => --no-cache and --ckpt-every",
        ];
        for row in rows {
            let (line, expect) = row.split_once(" => ").unwrap();
            match parse_line(line) {
                Err(e) => assert!(e.contains(expect), "{line:?}: {e:?} lacks {expect:?}"),
                Ok(cli) => panic!("{line:?} parsed as {cli:?}"),
            }
        }
        // Every pair of mode flags.
        let modes = [
            "--list",
            "--timing",
            "--dump-specs d",
            "--spec f.json",
            "--shard 0/2",
        ];
        let modes = modes
            .iter()
            .chain(&["--merge-only", "--enqueue", "--worker", "--serve"]);
        let modes: Vec<&&str> = modes.collect();
        for (i, a) in modes.iter().enumerate() {
            for b in &modes[i + 1..] {
                let err = parse_line(&format!("{a} {b}")).unwrap_err();
                assert!(err.contains("mutually exclusive"), "{a} {b}: {err}");
            }
        }
    }

    #[test]
    fn documented_command_lines_parse() {
        // A command line => the Debug form of the parsed mode.
        let rows = [
            "fig3 fig12 --quick --threads 2 --json out/ --cache-dir c => Run",
            "--cache-gc --max-age-days 14 => Run",
            "--list => List",
            "--timing --quick --json out/ => Timing",
            "fig12 --quick --dump-specs out/ => DumpSpecs(\"out/\")",
            "--spec s.json --threads 4 --replicas 3 --no-cache => Spec(\"s.json\")",
            "fig12 --quick --shard 1/2 --cache-dir s => Shard(Shard { index: 1, count: 2 })",
            "fig12 --merge-only --best-effort --replicas 2 => MergeOnly { best_effort: true }",
            "fig12 --quick --enqueue --shards 4 => Enqueue { shards: 4 }",
            "--worker --ckpt-every 1000 --stale-secs 2 --cache-dir kr => \
             Worker(Leasing { stale: 2s, max_attempts: 3 })",
            "fig12 --serve --max-attempts 5 --threads 2 => \
             Serve { shards: 2, leasing: Leasing { stale: 300s, max_attempts: 5 } }",
        ];
        for row in rows {
            let (line, mode) = row.split_once(" => ").unwrap();
            let cli = parse_line(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(format!("{:?}", cli.mode), mode, "{line:?}");
        }
        let run = parse_line("").unwrap();
        assert_eq!(
            (run.threads, run.replicas, run.ckpt_every, run.cache_gc),
            (1, 1, 0, None)
        );
        assert_eq!(run.store.as_deref(), Some("out/.cache"));
        assert_eq!(parse_line("fig12 --no-cache").unwrap().store, None);
        assert_eq!(parse_line("--list").unwrap().store, None);
        assert_eq!(parse_line("--cache-gc").unwrap().cache_gc, Some(30));
        // A value slot is never a figure filter; figures run in registry
        // order.
        let cli = parse_line("--json fig-tables/").unwrap();
        assert_eq!(
            (cli.json.as_deref(), cli.figures.len()),
            (Some("fig-tables/"), 0)
        );
        let cli = parse_line("fig12 fig3 --threads 2 --cache-dir c").unwrap();
        let selected: Vec<&str> = cli.selected().iter().map(|f| f.name).collect();
        assert_eq!(selected, ["fig3", "fig12"]);
        assert_eq!((cli.threads, cli.store.as_deref()), (2, Some("c")));
    }
}
