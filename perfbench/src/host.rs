//! The host side of a run: pinned environment, resource usage, the closed
//! measurement loop, and the facts recorded with every result.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mss_exec::ParallelConfig;
use mss_obs::Mode;

/// `MSS_*` knobs that change what a run does or how fast it goes; every run
/// starts with them cleared so the caller's shell cannot skew a result.
const CLEARED_ENV: [&str; 10] = [
    "MSS_METRICS",
    "MSS_TRACE",
    "MSS_EVENTS",
    "MSS_EVENTS_PATH",
    "MSS_WATCHDOG",
    "MSS_DEADLINE_MS",
    "MSS_RETRY_MAX",
    "MSS_CACHE",
    "MSS_CACHE_DIR",
    "MSS_OBS_OUT",
];

/// The pinned environment of one run.
#[derive(Debug, Clone)]
pub struct Env {
    /// `MSS_THREADS` as pinned: `nproc` for a timed run, 1 for a traced one.
    pub threads: usize,
    /// Available parallelism of the host.
    pub nproc: usize,
    /// Root of the repository checkout.
    pub root: PathBuf,
}

impl Env {
    /// The parallel policy of timed runs, and of the untraced pass a traced
    /// run compares with: `nproc` threads.
    pub fn parallel(&self) -> ParallelConfig {
        ParallelConfig::serial().with_threads(self.nproc)
    }

    /// JSON fields recorded with every result.
    pub fn fields(&self) -> Vec<String> {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        vec![
            format!("\"threads\": {}", self.threads),
            format!("\"nproc\": {}", self.nproc),
            format!("\"profile\": \"{profile}\""),
            format!("\"commit\": \"{}\"", commit(&self.root)),
            format!("\"source_digest\": \"{:016x}\"", source_digest(&self.root)),
        ]
    }
}

/// Pins the environment before any layer runs: clears [`CLEARED_ENV`],
/// sets `MSS_THREADS` to `nproc` (to 1 for a traced run, which is serial),
/// switches the `mss_obs` registry off for a timed run and to metrics for a
/// traced one, and installs a memory-only global stage cache that holds a
/// single entry, so `MSS_CACHE` cannot turn a run into a disk-hit run and
/// every context built through the global cache is built cold, as in a
/// fresh artifact process. Flow workloads use fresh caches of their own.
pub fn pin_environment(trace: bool) -> Env {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Single-threaded here: nothing has spawned yet.
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let threads = if trace { 1 } else { nproc };
    std::env::set_var("MSS_THREADS", threads.to_string());
    let mode = if trace { Mode::Metrics } else { Mode::Off };
    assert!(
        mss_obs::init_with_mode(mode),
        "obs registry initialised before the environment was pinned"
    );
    let fresh = mss_pipe::init_global_with(mss_pipe::PipeCache::memory_only().with_capacity(1));
    assert!(
        fresh,
        "global stage cache initialised before the environment was pinned"
    );
    Env {
        threads,
        nproc,
        root: Path::new(env!("CARGO_MANIFEST_DIR")).join(".."),
    }
}

/// `struct timeval` / `struct rusage` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: std::os::raw::c_long,
    usec: std::os::raw::c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss` and the thirteen counters after it.
    rest: [std::os::raw::c_long; 14],
}

extern "C" {
    fn getrusage(who: std::os::raw::c_int, usage: *mut Rusage) -> std::os::raw::c_int;
}

/// User + system CPU time of the whole process (all threads), seconds.
pub fn cpu_seconds() -> f64 {
    let mut u = Rusage::default();
    // SAFETY: `u` is a valid, writable `struct rusage` for the target (two
    // timevals and fourteen longs), and RUSAGE_SELF (0) is a valid `who`;
    // getrusage writes only inside the struct.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&u.utime) + t(&u.stime)
}

/// Peak resident set size of this program image so far, MiB: `VmHWM` of
/// `/proc/self/status`. (`ru_maxrss` would not do: Linux carries it over
/// `execve`, so under `cargo run` it reports cargo's own peak.)
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Per-iteration samples of a timed run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Mean set-up time of each sampled burst of set-ups.
    pub setup_s: Vec<f64>,
    /// Timed-region wall time per iteration.
    pub wall_s: Vec<f64>,
    /// Timed-region process CPU time per iteration.
    pub cpu_s: Vec<f64>,
    /// Peak RSS at the end of the loop, before any check ran.
    pub peak_rss_mib: f64,
}

/// Wall time of a burst of set-ups, as a share of the iteration before it.
const SETUP_SHARE: f64 = 0.1;
/// Shortest burst of set-ups, seconds.
const MIN_BURST_S: f64 = 0.25;

/// Runs `setup` again and again for `seconds`, dropping each result, and
/// returns the mean time of one set-up.
fn setup_burst<S>(setup: &mut impl FnMut() -> S, seconds: f64) -> f64 {
    let burst = Instant::now();
    let mut n = 0;
    while burst.elapsed().as_secs_f64() < seconds {
        drop(std::hint::black_box(setup()));
        n += 1;
    }
    burst.elapsed().as_secs_f64() / f64::from(n)
}

/// The closed loop of a timed run: set up, then run, again and again, until
/// the budget is spent to the nearest iteration (at least one).
///
/// A set-up takes milliseconds and an iteration seconds, so set-up time is
/// sampled in a burst after each iteration that lasts [`SETUP_SHARE`] of
/// it: `setup_s` is the median of the bursts' mean set-up times, taken
/// over the whole run like the iterations, and sampling costs every
/// workload the same share of its run. A burst's mean, not the median of
/// its single set-ups, is the sample because a single-threaded set-up on a
/// shared host flips between a fast and a slow speed: a mean moves smoothly
/// with the share of slow time in the burst where a median jumps between
/// the two. No burst comes before the first iteration: set-ups in a fresh
/// process page in code and grow the heap, and read up to twice as slow.
pub fn measure<S, O>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> O,
) -> (Samples, Vec<O>) {
    let mut samples = Samples::default();
    let mut outputs = Vec::new();
    let start = Instant::now();
    loop {
        let s = setup();
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        outputs.push(std::hint::black_box(run(s)));
        let wall = t.elapsed().as_secs_f64();
        samples.cpu_s.push(cpu_seconds() - cpu0);
        samples.wall_s.push(wall);
        let burst = MIN_BURST_S.max(SETUP_SHARE * wall);
        samples.setup_s.push(setup_burst(&mut setup, burst));
        if start.elapsed().as_secs_f64() + 0.5 * (wall + burst) >= seconds {
            break;
        }
    }
    samples.peak_rss_mib = peak_rss_mib();
    (samples, outputs)
}

/// Span aggregates of the `mss_obs` registry, which a traced run switches
/// on: the program's own `flow.*`, `gemsim.run`, `pipe.*` and `vaet.mc.*`
/// spans.
pub struct Spans(mss_prof::Report);

impl Spans {
    /// The registry's spans as of now.
    pub fn snapshot() -> Result<Self, String> {
        mss_prof::Report::parse_ndjson(&mss_obs::report_ndjson())
            .map(Spans)
            .map_err(|e| format!("obs report: {e}"))
    }

    /// Count, total seconds and longest single span of every span called
    /// `name`, wherever it is nested.
    pub fn get(&self, name: &str) -> (u64, f64, f64) {
        self.0
            .spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .fold((0, 0.0, 0.0), |(n, total, max), (_, s)| {
                (n + s.count, total + s.total_seconds, s.max_seconds.max(max))
            })
    }

    /// Total seconds of every span called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.get(name).1
    }
}

/// Records the end-to-end metrics of a timed run.
pub fn record_timed(out: &mut crate::Outcome, samples: &Samples) {
    use crate::median;
    out.set("wall_s", median(&samples.wall_s));
    out.set("setup_s", median(&samples.setup_s));
    out.set("cpu_s", median(&samples.cpu_s));
    out.set("peak_rss_mib", samples.peak_rss_mib);
    let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
    out.set("ops_ok_frac", ok);
    out.note("iterations", samples.wall_s.len());
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("wall_samples_s", list(&samples.wall_s));
    out.note("cpu_samples_s", list(&samples.cpu_s));
    out.note("setup_samples_s", list(&samples.setup_s));
}

/// The checked-out commit when the checkout is a git work tree.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(git.join(reference)) {
        return id.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest over the program's sources (workspace manifests, every
/// file under `crates/` and the benchmark's own sources): identifies the
/// code a result was measured on where no git metadata exists.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        if let (Ok(rel), Ok(bytes)) = (file.strip_prefix(root), std::fs::read(file)) {
            eat(rel.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    h
}
