//! Host-side instruments: the process CPU clock, host-time spans, peak
//! resident set, and the fingerprint that keeps numbers from different
//! hosts apart.

use std::time::Instant;

use faaspipe_json::Json;

/// Process CPU seconds so far, summed over every thread (the kernel's
/// `CLOCK_PROCESS_CPUTIME_ID`, which on a guest with paravirtual steal
/// accounting leaves out time the hypervisor ran other guests).
///
/// Every host time the benchmark reports is a difference of this clock,
/// not of the wall clock: on a small shared host the wall time of the
/// same run also moves with where the scheduler puts the simulator's
/// threads and with how long other guests hold the host's cores. How
/// fast a running core goes moves both clocks; [`Calibration`] takes
/// that out.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(sys::CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(sys::CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = sys::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through a
    // pointer to a live, properly aligned value and reads nothing else.
    let rc = unsafe { sys::clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The few C library calls the benchmark makes (64-bit Linux, glibc).
mod sys {
    #[cfg(not(target_os = "linux"))]
    compile_error!("hostbench reads Linux CPU clocks and CPU affinity");

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    /// Bytes of a CPU mask: room for 1024 CPUs.
    pub const CPU_SET_BYTES: usize = 128;

    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
}

/// The CPUs this process may run on (empty if the kernel will not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; sys::CPU_SET_BYTES];
    // SAFETY: the kernel writes at most `mask.len()` bytes into `mask`.
    let rc = unsafe { sys::sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 8)
        .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Pins the calling thread to `cpu`, where the kernel allows it; the
/// thread stays where it was otherwise.
fn pin_current_thread(cpu: usize) {
    let mut mask = [0u8; sys::CPU_SET_BYTES];
    if cpu < mask.len() * 8 {
        mask[cpu / 8] |= 1 << (cpu % 8);
        // SAFETY: the kernel reads `mask.len()` bytes of `mask`; pid 0
        // names the calling thread only.
        unsafe {
            sys::sched_setaffinity(0, mask.len(), mask.as_ptr());
        }
    }
}

/// Host time of one measured call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTime {
    /// Process CPU seconds, every thread: what the benchmark reports.
    pub cpu_s: f64,
    /// Wall seconds, kept beside it in the raw output.
    pub wall_s: f64,
}

/// A running measurement of both clocks.
#[derive(Debug, Clone, Copy)]
struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks now.
    fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Host time since [`Stopwatch::start`].
    fn elapsed(&self) -> HostTime {
        HostTime {
            cpu_s: process_cpu_s() - self.cpu_s,
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Host time spent in `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, HostTime) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.elapsed())
}

/// Keys the calibration kernel sorts.
const CAL_KEYS: usize = 1 << 17;

/// Sorts per CPU in one calibration reading; the reading takes their
/// median, so one preempted sort does not skew it.
const CAL_SORTS: usize = 5;

/// A fixed unit of host work, timed next to each measured call so that
/// the call's CPU time can be expressed in it and the host's speed of
/// the moment cancels out.
///
/// The kernel is the benchmark's own code, not the program's: sorting
/// the same 2^17 pseudo-random `u64` keys (1 MiB) with the standard
/// library's unstable sort. A change to the program never changes it.
/// The simulator's threads run on every CPU the process may use, and on
/// a shared host those CPUs need not run at the same speed, so a reading
/// times the kernel on each of them in turn and averages.
#[derive(Debug)]
pub struct Calibration {
    keys: Vec<u64>,
    cpus: Vec<usize>,
}

impl Calibration {
    /// Builds the fixed key set and finds the CPUs to time it on.
    pub fn new() -> Calibration {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let keys = (0..CAL_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibration {
            keys,
            cpus: allowed_cpus(),
        }
    }

    /// CPU seconds one calibration sort takes now, averaged over the
    /// process's CPUs.
    pub fn measure(&self) -> f64 {
        if self.cpus.len() < 2 {
            return self.sort_median();
        }
        let per_cpu: Vec<f64> = std::thread::scope(|scope| {
            self.cpus
                .iter()
                .map(|&cpu| {
                    // One CPU at a time, so the readings do not compete.
                    scope
                        .spawn(move || {
                            pin_current_thread(cpu);
                            self.sort_median()
                        })
                        .join()
                        .expect("calibration thread panicked")
                })
                .collect()
        });
        per_cpu.iter().sum::<f64>() / per_cpu.len() as f64
    }

    /// Median thread CPU seconds of [`CAL_SORTS`] sorts on this thread.
    fn sort_median(&self) -> f64 {
        let mut work = Vec::with_capacity(self.keys.len());
        let mut took = [0.0; CAL_SORTS];
        for slot in &mut took {
            work.clear();
            work.extend_from_slice(&self.keys);
            let start = thread_cpu_s();
            work.sort_unstable();
            std::hint::black_box(&work);
            *slot = thread_cpu_s() - start;
        }
        took.sort_by(f64::total_cmp);
        took[CAL_SORTS / 2]
    }
}

/// CPU seconds one calibration sort takes at the reference speed.
///
/// A fixed constant, about what the development VM measures (2.4 to
/// 3.4 ms as its host's load moves). It only sets the scale of the
/// reported times and must never change, or old and new numbers stop
/// being comparable.
pub const CALIBRATION_REFERENCE_S: f64 = 3e-3;

/// `cpu_s` of host CPU time expressed at the reference speed: scaled by
/// how much faster or slower than [`CALIBRATION_REFERENCE_S`] the host
/// ran the calibration kernel in `readings`, taken just before and just
/// after the measured block.
pub fn at_reference_speed(cpu_s: f64, readings: (f64, f64)) -> f64 {
    let (before, after) = readings;
    cpu_s * CALIBRATION_REFERENCE_S / ((before + after) / 2.0)
}

/// One closed host-time span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    run: u64,
    start_us: f64,
    end_us: f64,
    cpu_s: f64,
}

/// Host-time spans around the benchmark's calls into each layer, kept in
/// memory and written once at exit as Chrome trace-event JSON (which
/// Perfetto and `chrome://tracing` load).
#[derive(Debug)]
pub struct HostSpans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Stopwatch)>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl HostSpans {
    /// An empty recorder; timestamps count from now.
    pub fn new() -> HostSpans {
        HostSpans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens span `name` under `parent`, tagged with run id `run`.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, run: u64) -> SpanId {
        let watch = Stopwatch::start();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            run,
            start_us: watch.wall.duration_since(self.epoch).as_secs_f64() * 1e6,
            end_us: 0.0,
            cpu_s: 0.0,
        });
        self.open.push((id, watch));
        SpanId(id)
    }

    /// Closes `id` and returns its host time.
    ///
    /// # Panics
    /// Panics if `id` is not open: spans close in the order the
    /// benchmark's own code opened them.
    pub fn end(&mut self, id: SpanId) -> HostTime {
        let pos = self
            .open
            .iter()
            .rposition(|(i, _)| *i == id.0)
            .expect("span closed twice or never opened");
        let (_, watch) = self.open.remove(pos);
        let took = watch.elapsed();
        let span = &mut self.spans[id.0];
        span.end_us = span.start_us + took.wall_s * 1e6;
        span.cpu_s = took.cpu_s;
        took
    }

    /// Times `f` as span `name`, returning its result and host time.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> (T, HostTime) {
        let id = self.begin(name, parent, run);
        let out = f();
        let took = self.end(id);
        (out, took)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span on the
    /// thread of its run id, placed by wall time, with span and parent
    /// ids and the span's process CPU seconds in `args`.
    pub fn chrome_json(&self, labels: &[(u64, String)]) -> String {
        let mut events: Vec<Json> = labels
            .iter()
            .map(|(run, label)| {
                Json::Object(vec![
                    ("name".into(), Json::Str("thread_name".into())),
                    ("ph".into(), Json::Str("M".into())),
                    ("pid".into(), Json::UInt(1)),
                    ("tid".into(), Json::UInt(*run)),
                    (
                        "args".into(),
                        Json::Object(vec![("name".into(), Json::Str(label.clone()))]),
                    ),
                ])
            })
            .collect();
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("span".into(), Json::UInt(id as u64)),
                ("run".into(), Json::UInt(s.run)),
                ("cpu_s".into(), Json::Float(s.cpu_s)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::UInt(p as u64)));
            }
            events.push(Json::Object(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("cat".into(), Json::Str("host".into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Float(s.start_us)),
                ("dur".into(), Json::Float((s.end_us - s.start_us).max(0.0))),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(s.run)),
                ("args".into(), Json::Object(args)),
            ]));
        }
        Json::Object(vec![
            ("traceEvents".into(), Json::Array(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
        .to_compact()
    }
}

/// Returns freed heap memory to the kernel, so the resident set before a
/// run holds only live data and a run's peak does not depend on what
/// earlier runs left in the allocator's free lists.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain byte count, only
        // releases memory the allocator holds free, and locks each arena
        // it walks, so it is sound to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) so the next
/// [`peak_rss_mib`] reading covers only the work since. Quietly a no-op
/// where `/proc/self/clear_refs` is not writable; the reading is then a
/// whole-process peak, still an upper bound.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set in MiB (`VmHWM`), or 0 where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a number was measured on: cores, CPU model, compiler, profile.
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Object(vec![
        ("nproc".into(), Json::UInt(nproc as u64)),
        ("cpu_model".into(), Json::Str(cpu)),
        ("rustc".into(), Json::Str(rustc)),
        ("profile".into(), Json::Str(profile.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_chrome_json() {
        let mut spans = HostSpans::new();
        let root = spans.begin("run", None, 3);
        let ((), child) = spans.time("child", Some(root), 3, || {});
        let total = spans.end(root);
        assert!(child.wall_s <= total.wall_s);
        assert!(child.cpu_s <= total.cpu_s);
        assert_eq!(spans.len(), 2);
        let text = spans.chrome_json(&[(3, "fanout#3".into())]);
        let json: Json = text.parse().expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("name").and_then(Json::as_str), Some("child"));
        let args = events[2].get("args").expect("args");
        assert_eq!(args.get("parent"), Some(&Json::UInt(0)));
        assert_eq!(args.get("run"), Some(&Json::UInt(3)));
        assert!(args.get("cpu_s").is_some());
    }

    #[test]
    fn times_scale_to_the_reference_speed() {
        let at_ref = CALIBRATION_REFERENCE_S;
        assert_eq!(at_reference_speed(0.6, (at_ref, at_ref)), 0.6);
        // A host running the kernel at half speed took twice the time.
        let half = 2.0 * at_ref;
        assert!((at_reference_speed(1.2, (half, half)) - 0.6).abs() < 1e-12);
        assert!((at_reference_speed(0.9, (at_ref, half)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn a_calibration_reading_covers_every_allowed_cpu() {
        let cal = Calibration::new();
        assert!(!cal.cpus.is_empty());
        assert_eq!(cal.cpus, allowed_cpus());
        let reading = cal.measure();
        assert!(reading > 0.0 && reading < 1.0, "{reading}");
        // The keys are fixed, so every reading sorts the same data.
        assert_eq!(cal.keys, Calibration::new().keys);
    }

    #[test]
    fn the_cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let (sum, busy) = timed(|| {
            (0..20_000_000u64).fold(0u64, |a, x| a ^ std::hint::black_box(x).wrapping_mul(x))
        });
        std::hint::black_box(sum);
        assert!(busy.cpu_s > 0.0 && busy.wall_s > 0.0, "{busy:?}");
        assert!(process_cpu_s() >= before + busy.cpu_s);
    }

    #[test]
    #[should_panic(expected = "closed twice")]
    fn closing_a_span_twice_is_a_bug() {
        let mut spans = HostSpans::new();
        let id = spans.begin("x", None, 0);
        spans.end(id);
        spans.end(id);
    }

    #[test]
    fn fingerprint_names_the_build() {
        let fp = fingerprint();
        for key in ["nproc", "cpu_model", "rustc", "profile"] {
            assert!(fp.get(key).is_some(), "{key}");
        }
    }
}
