//! What the kernel knows about this process: CPU time, peak RSS, and
//! per-thread run and run-queue-wait time from `schedstat`. Linux only,
//! like the pipeline's own poll(2) reactor.

use std::collections::BTreeMap;
use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a constant
    // the kernel defines; the call writes only through that pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// `VmHWM` (peak resident set) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One class of pipeline threads: the prefix of the name the product
/// gives them (`comm` keeps the first 15 bytes) and the two per-layer
/// metrics the class reports.
pub struct ThreadClass {
    comm_prefix: &'static str,
    pub busy_metric: &'static str,
    pub wait_metric: &'static str,
}

const fn class(
    comm_prefix: &'static str,
    busy_metric: &'static str,
    wait_metric: &'static str,
) -> ThreadClass {
    ThreadClass {
        comm_prefix,
        busy_metric,
        wait_metric,
    }
}

pub static THREAD_CLASSES: [ThreadClass; 5] = [
    class(
        "bench-sensor",
        "thread.sensor.busy_share",
        "thread.sensor.runq_wait_share",
    ),
    class(
        "brisk-exs-",
        "thread.exs.busy_share",
        "thread.exs.runq_wait_share",
    ),
    class(
        "brisk-reactor-",
        "thread.reactor.busy_share",
        "thread.reactor.runq_wait_share",
    ),
    class(
        "brisk-ism-manag",
        "thread.manager.busy_share",
        "thread.manager.runq_wait_share",
    ),
    class(
        "brisk-store-wri",
        "thread.store_write.busy_share",
        "thread.store_write.runq_wait_share",
    ),
];

/// (class, run ns, run-queue wait ns) per live thread id.
pub type SchedSnapshot = BTreeMap<u32, (&'static ThreadClass, u64, u64)>;

pub fn sched_snapshot() -> SchedSnapshot {
    let mut out = SchedSnapshot::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let path = task.path();
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
        let Some(class) = THREAD_CLASSES
            .iter()
            .find(|c| comm.trim_end().starts_with(c.comm_prefix))
        else {
            continue;
        };
        let stat = fs::read_to_string(path.join("schedstat")).unwrap_or_default();
        let mut it = stat
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        let (run, wait) = (it.next().unwrap_or(0), it.next().unwrap_or(0));
        out.insert(tid, (class, run, wait));
    }
    out
}

/// Per class, the busiest thread's busy share and run-queue wait share
/// of `wall_ns` between two snapshots, under the class's metric names.
/// A thread must be in both snapshots.
pub fn thread_shares(
    before: &SchedSnapshot,
    after: &SchedSnapshot,
    wall_ns: u64,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (tid, (class, run1, wait1)) in after {
        let Some((_, run0, wait0)) = before.get(tid) else {
            continue;
        };
        let busy = run1.saturating_sub(*run0) as f64 / wall_ns as f64;
        let wait = wait1.saturating_sub(*wait0) as f64 / wall_ns as f64;
        if out.get(class.busy_metric).is_none_or(|&b| busy >= b) {
            out.insert(class.busy_metric, busy);
            out.insert(class.wait_metric, wait);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_positive() {
        let c0 = process_cpu_ns();
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > c0);
        assert!(thread_cpu_ns() > t0);
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn named_thread_shows_up_in_its_class() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("bench-sensor-9".into())
            .spawn(move || {
                ready_tx.send(()).unwrap();
                rx.recv().ok();
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let snap = sched_snapshot();
        assert!(snap
            .values()
            .any(|(class, _, _)| class.busy_metric == "thread.sensor.busy_share"));
        tx.send(()).unwrap();
        h.join().unwrap();
    }
}
