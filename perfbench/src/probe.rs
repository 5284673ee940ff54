//! The host-speed probe: a small set-associative LRU cache model owned by
//! the benchmark, timed between cells.
//!
//! Host time on a shared machine drifts: back-to-back passes of the same
//! cells differ by up to 2x, in episodes of seconds to minutes, so a
//! 35 s run of raw wall time does not repeat within a tenth. The
//! simulator's cells and this probe slow down together (their per-pass
//! times correlate at about 0.8), because both spend their time walking
//! the ways of set-associative arrays a few times larger than a core's
//! L2. Dividing each cell's wall time by the probe's slowdown around it
//! removes most of the drift. The probe is the benchmark's own code, so
//! no change to the program can speed it up or slow it down.

use std::hint::black_box;
use std::time::Instant;

const SETS: usize = 16384;
const WAYS: usize = 11;
/// Accesses per timed burst (a few ms), after an untimed warm-up of a
/// fifth as many that refills the host caches the previous cell used.
const BURST: u32 = 100_000;

/// The probe's ns per access that a normalized second is defined
/// against: its median over the runs the bounds were set from, on a
/// shared 2-vCPU VM. The constant only scales `quanta_per_s` and
/// `setup_s`; comparisons between commits do not depend on it.
pub const REFERENCE_NS: f64 = 32.0;

/// The probe's state.
pub struct Probe {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    clock: u32,
    rng: u64,
    stream: u64,
}

impl Probe {
    /// A probe with every array page touched, so its footprint is
    /// resident from the start (see [`Probe::resident_mib`]).
    pub fn new() -> Self {
        Probe {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![1; SETS * WAYS],
            clock: 1,
            rng: 0x1234_5678_9abc_def1,
            stream: 0,
        }
    }

    /// MiB the probe's arrays keep resident; `peak_rss_mb` excludes
    /// them.
    pub fn resident_mib(&self) -> f64 {
        let bytes = self.tags.len() * size_of::<u64>() + self.stamps.len() * size_of::<u32>();
        bytes as f64 / (1024.0 * 1024.0)
    }

    /// One access: a quarter streaming, the rest random over four times
    /// the model's capacity; a miss replaces the least recently used way.
    fn access(&mut self, k: u32) -> bool {
        let addr = if k.is_multiple_of(4) {
            self.stream += 1;
            (1 << 40) + self.stream
        } else {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng % (4 * (SETS * WAYS) as u64)
        };
        let set = (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % SETS;
        let base = set * WAYS;
        self.clock = self.clock.wrapping_add(1);
        if let Some(w) = self.tags[base..base + WAYS].iter().position(|&t| t == addr) {
            self.stamps[base + w] = self.clock;
            return true;
        }
        let victim = self.stamps[base..base + WAYS]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .map_or(0, |(w, _)| w);
        self.tags[base + victim] = addr;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Host ns per access over one burst.
    pub fn sample(&mut self) -> f64 {
        for k in 0..BURST / 5 {
            black_box(self.access(k));
        }
        let start = Instant::now();
        for k in 0..BURST {
            black_box(self.access(k));
        }
        start.elapsed().as_nanos() as f64 / f64::from(BURST)
    }
}

/// `wall_s` host seconds measured while the probe ran at `probe_ns` per
/// access, as seconds of a host running it at [`REFERENCE_NS`].
pub fn normalized(wall_s: f64, probe_ns: f64) -> f64 {
    wall_s * REFERENCE_NS / probe_ns
}
