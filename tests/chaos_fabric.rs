//! Chaos tests for the sweep fabric: every guarantee the fabric makes
//! — no task lost, no duplicate completion, no corrupt result served,
//! byte-identical merges — must hold *under injected faults*, not just
//! on the happy path. The [`a4::experiments::FaultFs`] seam drives a
//! deterministic, seeded fault schedule through the exact same code
//! paths `a4-repro --worker` uses in production, so a failure here is a
//! real crash-consistency bug, not test flakiness.

use a4::core::RunReport;
use a4::experiments::service::ServiceError;
use a4::experiments::{
    drain_queue, fabric_health, spec_key, Backoff, DrainReport, Enqueued, FaultFs, FaultPlan, Fs,
    JobQueue, JobTables, ResultCache, RunOpts, ScenarioSpec, Shard, SweepJob, SweepRunner, Task,
    TaskState, MIN_STALE_AGE,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

fn quick() -> RunOpts {
    RunOpts {
        warmup: 1,
        measure: 2,
        seed: 0xA4,
    }
}

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("a4-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Byte-identical in both renderings (display text and JSON), not
/// merely structurally equal.
fn assert_rendered_identical(a: &JobTables, b: &JobTables) {
    assert_eq!(a, b);
    let (JobTables::Single(ta), JobTables::Single(tb)) = (a, b) else {
        panic!("single-replica jobs render plain tables");
    };
    for (x, y) in ta.iter().zip(tb) {
        assert_eq!(x.to_string(), y.to_string());
        assert_eq!(
            serde_json::to_string(x).unwrap(),
            serde_json::to_string(y).unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Crash consistency: a worker process dying at *any* filesystem
// boundary of the enqueue → claim → heartbeat → complete protocol must
// leave the queue directories recoverable — the task sits in at most
// one state directory, every published file parses, and a fresh
// process drives the task to done exactly once.
// ---------------------------------------------------------------------

/// The scripted protocol run performs exactly these mutating ops:
/// enqueue (temp write, publish rename), claim (rename, attempt-count
/// write), heartbeat (touch), complete (rename, attempt-count remove)
/// — seven schedule slots, so crashing at ordinal 7 means "no crash".
const PROTOCOL_OPS: u64 = 7;

fn backdate(path: &Path) {
    let f = std::fs::File::options().append(true).open(path).unwrap();
    f.set_modified(SystemTime::now() - Duration::from_secs(60))
        .unwrap();
}

/// Files in `queue/<sub>/` belonging to task `id` (temp scratch files
/// start with `.` and are excluded — they are never protocol state).
fn task_files(dir: &Path, sub: &str, id: &str) -> Vec<PathBuf> {
    let prefix = format!("{id}.");
    let Ok(entries) = std::fs::read_dir(dir.join("queue").join(sub)) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .map(|e| e.path())
        .collect()
}

/// Runs the protocol against a filesystem scripted to crash at
/// mutating op `crash_at`, then recovers with a plain filesystem and
/// asserts the fabric's invariants at every step.
fn crash_and_recover(seed: u64, crash_at: u64) {
    let dir = tmp_store(&format!("crash-{seed:x}-{crash_at}"));
    let job = SweepJob::new("fig12", quick(), 1).unwrap();
    let task = Task {
        job,
        shard: Shard::new(0, 2),
    };
    let id = task.id().unwrap();

    let faults = Arc::new(FaultFs::new(FaultPlan::crash_only(seed, crash_at)));
    if let Ok(queue) = JobQueue::open_with_fs(&dir, faults.clone() as Arc<dyn Fs>) {
        // Each step tolerates failure: past the crash point the handle
        // is dead and everything errors, exactly like a killed process.
        if queue.enqueue(&task).is_ok() {
            if let Ok(Some(lease)) = queue.claim("w1") {
                let _ = lease.heartbeat();
                let _ = queue.complete(lease).is_ok();
            }
        }
    }
    assert_eq!(
        faults.crashed(),
        crash_at < PROTOCOL_OPS,
        "crash ordinal {crash_at} (seed {seed:#x})"
    );

    // Invariant 1: the task occupies at most one state directory —
    // every transition is a rename, which either happened or did not.
    let pending = task_files(&dir, "pending", &id);
    let leased = task_files(&dir, "leases", &id);
    let done = task_files(&dir, "done", &id);
    let occupied = [&pending, &leased, &done]
        .iter()
        .filter(|v| !v.is_empty())
        .count();
    assert!(
        occupied <= 1,
        "task {id} in {occupied} state dirs after crash at {crash_at} \
         (pending {pending:?}, leased {leased:?}, done {done:?})"
    );

    // Invariant 2: every *published* task file parses — torn writes can
    // only ever land in dot-prefixed temp files, never behind a rename.
    for path in pending.iter().chain(&done) {
        let json = std::fs::read_to_string(path).unwrap();
        let parsed: Result<Task, _> = serde_json::from_str(&json);
        assert!(parsed.is_ok(), "torn task file published at {path:?}");
    }

    // Recovery: a fresh process on a healthy filesystem drives the task
    // to done, whatever state the crash left it in.
    let queue = JobQueue::open(&dir).unwrap();
    match queue.state(&id) {
        TaskState::Done => {}
        TaskState::Pending | TaskState::Unknown => {
            // Unknown = the crash predates publication; re-enqueue is
            // the client's normal retry and must not be confused by
            // leftover temp files.
            let enq = queue.enqueue(&task).unwrap();
            assert_ne!(enq, Enqueued::AlreadyDone);
            let lease = queue.claim("w2").unwrap().expect("pending task claims");
            queue.complete(lease).unwrap();
        }
        TaskState::Leased => {
            // The dead worker's lease must age out, not block forever.
            for lease in task_files(&dir, "leases", &id) {
                backdate(&lease);
            }
            assert_eq!(queue.reclaim_stale(Duration::ZERO).unwrap(), 1);
            let lease = queue.claim("w2").unwrap().expect("reclaimed task claims");
            queue.complete(lease).unwrap();
        }
    }

    // Invariant 3: done exactly once, and completion is terminal — a
    // re-enqueue deduplicates and nothing remains claimable.
    assert_eq!(queue.state(&id), TaskState::Done);
    assert_eq!(task_files(&dir, "done", &id).len(), 1);
    assert_eq!(queue.enqueue(&task).unwrap(), Enqueued::AlreadyDone);
    assert!(queue.claim("w3").unwrap().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The queue protocol survives a crash at every mutating-op
    /// boundary, for arbitrary schedule seeds (the seed decides each
    /// crash's half-applied/not-applied polarity).
    #[test]
    fn queue_survives_a_crash_at_every_boundary(seed in 1u64..u64::MAX) {
        for crash_at in 0..=PROTOCOL_OPS {
            crash_and_recover(seed, crash_at);
        }
    }
}

// ---------------------------------------------------------------------
// Store corruption: arbitrary damage to a stored entry — truncation,
// bit flips, garbage — must never be served as a result. Parseable
// entries with checksum mismatches are quarantined for post-mortem;
// everything else is a plain miss; the cell re-executes idempotently.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Corruption {
    /// Keep this percentage of the entry's bytes.
    Truncate(usize),
    /// Flip one bit somewhere in the entry.
    BitFlip(usize),
    /// Replace the entry wholesale.
    Garbage(u8),
}

fn corruption_strategy() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        (0usize..99).prop_map(Corruption::Truncate),
        (0usize..100_000).prop_map(Corruption::BitFlip),
        (0u8..4).prop_map(Corruption::Garbage),
    ]
}

fn corrupt(bytes: &[u8], how: &Corruption) -> Vec<u8> {
    match *how {
        Corruption::Truncate(pct) => bytes[..bytes.len() * pct / 100].to_vec(),
        Corruption::BitFlip(pos) => {
            let mut out = bytes.to_vec();
            out[pos % bytes.len()] ^= 1 << (pos % 8);
            out
        }
        Corruption::Garbage(kind) => match kind {
            0 => Vec::new(),
            1 => b"not json at all".to_vec(),
            2 => b"{\"payload_fnv\":42}".to_vec(),
            _ => b"{\"payload_fnv\":\"00000000000000000000000000000000\",\"report\":{}}".to_vec(),
        },
    }
}

fn sample_report() -> &'static (String, RunReport) {
    static SAMPLE: std::sync::OnceLock<(String, RunReport)> = std::sync::OnceLock::new();
    SAMPLE.get_or_init(|| {
        let spec = ScenarioSpec::microbench(RunOpts {
            warmup: 0,
            measure: 1,
            seed: 0xA4,
        });
        let report = spec.build().unwrap().run().report;
        (spec_key(&spec), report)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any corruption of a stored entry misses (or, for damage the
    /// canonical serialization cannot even observe, loads the exact
    /// original bytes); checksum-mismatched entries are quarantined,
    /// and the cell re-stores and serves again afterwards.
    #[test]
    fn corrupt_entries_never_serve_wrong_data(how in corruption_strategy(), case in 0u64..u64::MAX) {
        let (key, report) = sample_report();
        let dir = tmp_store(&format!("corrupt-{case:x}"));
        let cache = ResultCache::new(&dir);
        cache.store(key, report);
        prop_assert_eq!(cache.write_failures(), 0);

        let path = dir.join(format!("{key}.report.json"));
        let original = std::fs::read(&path).unwrap();
        let damaged = corrupt(&original, &how);
        if damaged == original {
            // A 100% truncate draw is the identity; nothing to test.
            std::fs::remove_dir_all(&dir).ok();
            return Ok(());
        }
        std::fs::write(&path, &damaged).unwrap();

        match cache.load(key) {
            None => {}
            Some(loaded) => {
                // Only reachable if the damage round-trips to the exact
                // original payload — then it *is* the original report.
                prop_assert_eq!(
                    serde_json::to_string(&loaded).unwrap(),
                    serde_json::to_string(report).unwrap(),
                    "corrupted entry served as a different report: {:?}", how
                );
            }
        }

        // Quarantine happens exactly for parseable-but-mismatched
        // entries, and moves (not copies) the damaged file.
        let quarantined = cache.quarantined();
        prop_assert!(quarantined <= 1);
        if quarantined == 1 {
            let grave = cache.corrupt_dir().join(format!("{key}.report.json"));
            prop_assert!(grave.exists(), "quarantined entry kept for post-mortem");
            prop_assert!(!path.exists(), "quarantined entry removed from the store");
            prop_assert_eq!(std::fs::read(&grave).unwrap(), damaged);
        }

        // The cell re-executes idempotently: a fresh store overwrites
        // whatever the corruption left and serves again.
        cache.store(key, report);
        let back = cache.load(key).expect("re-stored entry loads");
        prop_assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(report).unwrap()
        );
        prop_assert_eq!(cache.quarantined(), quarantined, "re-store never re-quarantines");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// End-to-end chaos: a fig12 sweep drained by queue workers whose every
// filesystem operation runs under the seeded chaos schedule (ENOSPC-
// style write failures, torn temp writes, refused renames) must merge
// to tables byte-identical to a fault-free single-process run.
// ---------------------------------------------------------------------

#[test]
fn fig12_chaos_drain_merges_byte_identical_to_fault_free() {
    let dir = tmp_store("e2e");
    let job = SweepJob::new("fig12", quick(), 1).unwrap();

    // Reference: the direct, fault-free, cache-less path.
    let direct = job.execute(&SweepRunner::serial()).unwrap();

    let faults = Arc::new(FaultFs::new(FaultPlan::chaos(0xA4)));
    let backoff = Backoff::immediate();
    let queue = JobQueue::open_with_fs(&dir, faults.clone() as Arc<dyn Fs>).unwrap();
    for index in 0..3 {
        let task = Task {
            job: job.clone(),
            shard: Shard::new(index, 3),
        };
        let mut retries = 0;
        backoff
            .retry(&mut retries, || queue.enqueue(&task))
            .expect("enqueue converges under chaos");
    }

    // Drain through the same library loop `a4-repro --worker` uses,
    // with both the store and the queue behind the fault schedule. A
    // drain pass may legitimately stop early (repeated heartbeat
    // failures release the lease); the released task is simply claimed
    // again — exactly a worker fleet's behaviour.
    let store = ResultCache::with_fs(&dir, faults.clone() as Arc<dyn Fs>);
    let runner = SweepRunner::serial().with_cache(store);
    let mut drain = DrainReport::default();
    loop {
        // Unlimited attempt budget: heartbeat-release cycles under
        // chaos legitimately re-claim the same healthy task many
        // times, and quarantining it would stall the drain this test
        // asserts converges.
        let pass = drain_queue(
            &queue,
            &runner,
            "chaos",
            MIN_STALE_AGE,
            u64::MAX,
            &backoff,
            |_| {},
        )
        .expect("drain converges under chaos");
        drain += pass;
        let (_, _, done) = queue.counts().unwrap();
        if done == 3 {
            break;
        }
        assert!(pass.released, "a non-draining pass must have released");
    }
    assert_eq!(drain.tasks, 3, "every shard task completed");
    assert!(
        faults.injected() > 0,
        "the chaos schedule actually injected faults"
    );
    let cache = runner.cache().unwrap();
    assert_eq!(cache.write_failures(), 0, "retries absorb every transient");
    assert_eq!(cache.quarantined(), 0, "torn writes never publish");

    // The merge is a pure read on a healthy filesystem — byte-identical
    // to the fault-free run, strict and best-effort alike.
    let merged = job.render_from_store(&ResultCache::new(&dir)).unwrap();
    assert_rendered_identical(&merged, &direct);
    let (best_effort, missing, total) = job
        .render_from_store_best_effort(&ResultCache::new(&dir))
        .unwrap();
    assert_eq!((missing > 0, total > 0), (false, true));
    assert_rendered_identical(&best_effort, &direct);

    // The health summary aggregates what actually happened and renders.
    let mut health = fabric_health(Some(cache), Some(&queue), Some(&drain));
    health.injected_faults = faults.injected();
    let line = health.to_string();
    assert!(
        line.starts_with("healthy:") || line.starts_with("degraded:"),
        "unexpected health line: {line}"
    );
    assert!(line.contains("injected"), "chaos runs report fault counts");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn best_effort_merge_renders_partial_sweeps_with_missing_cells() {
    let dir = tmp_store("best-effort");
    let job = SweepJob::new("fig12", quick(), 1).unwrap();
    job.execute_shard(
        Shard::new(0, 3),
        &SweepRunner::serial().with_cache_dir(&dir),
    )
    .unwrap();

    // The strict merge refuses a partial store outright...
    let store = ResultCache::new(&dir);
    match job.render_from_store(&store) {
        Err(ServiceError::MissingCells { missing, total, .. }) => {
            assert!(!missing.is_empty() && missing.len() < total);
        }
        other => panic!("partial store must report missing cells, got {other:?}"),
    }

    // ...while best-effort renders every table, labels the shortfall in
    // the title and prints `(missing)` — never a fabricated number —
    // in the absent cells.
    let (tables, missing, total) = job.render_from_store_best_effort(&store).unwrap();
    assert!(missing > 0 && missing < total, "{missing}/{total}");
    let JobTables::Single(tables) = &tables else {
        panic!("fig12 renders plain tables");
    };
    let suffix = format!("[best-effort: {missing}/{total} cells missing]");
    for table in tables {
        assert!(
            table.title.ends_with(&suffix),
            "title {:?} lacks the shortfall label",
            table.title
        );
    }
    let text: String = tables.iter().map(|t| t.to_string()).collect();
    assert!(text.contains("(missing)"), "absent cells render as such");
    assert!(!text.contains("NaN"), "NaN never leaks into the rendering");
    std::fs::remove_dir_all(&dir).ok();
}
