//! What the harness asks of the host: CPU affinity, peak memory and the
//! facts recorded beside every result.

use crate::json::Json;

/// A Linux `cpu_set_t`: 1024 bits.
pub type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    // std links libc already; declaring the two calls avoids a dependency.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, or `None` where the host has
/// no affinity call.
pub fn allowed_cpus() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the
        // `size_of::<CpuSet>()` bytes passed as its length; pid 0 names
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to `set`. Returns whether the host accepted it.
pub fn set_affinity(set: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `set` is a live buffer of exactly the length passed;
        // the kernel only reads it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = set;
        false
    }
}

/// Pins the calling thread to the highest-numbered CPU it is allowed on
/// (CPU 0 takes most interrupts) and returns that CPU's id.
pub fn pin_to_one_cpu() -> Option<usize> {
    let allowed = allowed_cpus()?;
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one).then_some(cpu)
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(
        line[key.len()..]
            .trim_start_matches([':', ' ', '\t'])
            .trim()
            .to_string(),
    )
}

/// CPUs available to this process as of the first call; `main` makes it
/// before any thread is pinned, since a pin lowers the count.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The host facts every result file carries.
pub fn facts() -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let or_unknown = |v: Option<String>| Json::str(v.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "cpu_model",
            or_unknown(proc_field("/proc/cpuinfo", "model name")),
        ),
        ("kernel", or_unknown(read("/proc/sys/kernel/osrelease"))),
        ("rustc", or_unknown(rustc_version())),
    ])
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
