//! The clock `setup_s` and `run_s` are read on: the on-CPU time of the
//! calling thread.
//!
//! The benchmark is single-threaded, so this is its host time minus the
//! time its thread waited for a CPU: behind other processes in the run
//! queue, or (with the kernel's paravirtual steal accounting) while the
//! hypervisor ran another guest on the core. Those waits come and go
//! with the load of other processes and guests; a build running beside
//! a run made its wall time 1.7 times the run before. Wall time is still
//! measured and printed beside it. `reference` scales these times for
//! the slowdown the clock cannot see.

use std::time::Instant;

#[allow(unsafe_code)]
mod sys {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// Nanoseconds the calling thread has run, or `None` if the clock
    /// cannot be read.
    pub fn thread_cpu_ns() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable timespec with the C layout of
        // 64-bit Linux, and `clock_gettime` writes only through it.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return None;
        }
        let secs = u64::try_from(ts.tv_sec).ok()?;
        let nanos = u64::try_from(ts.tv_nsec).ok()?;
        Some(secs * 1_000_000_000 + nanos)
    }
}

/// A started measurement: on-CPU and wall time from [`Stopwatch::start`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    cpu_ns: u64,
    wall: Instant,
}

/// What a [`Stopwatch`] measured, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Elapsed {
    /// On-CPU time of the calling thread.
    pub cpu_s: f64,
    /// Wall time.
    pub wall_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    ///
    /// # Panics
    ///
    /// If the thread CPU clock cannot be read (not Linux).
    pub fn start() -> Self {
        Stopwatch {
            cpu_ns: now_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Elapsed {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_ns = now_cpu_ns().saturating_sub(self.cpu_ns);
        Elapsed {
            cpu_s: cpu_ns as f64 / 1e9,
            wall_s,
        }
    }
}

fn now_cpu_ns() -> u64 {
    sys::thread_cpu_ns().expect("the thread CPU clock (CLOCK_THREAD_CPUTIME_ID) is readable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_follows_work_and_not_sleep() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = watch.elapsed();
        assert!(busy.cpu_s > 0.0 && busy.cpu_s <= busy.wall_s + 1e-3);

        let watch = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = watch.elapsed();
        assert!(slept.wall_s >= 0.05);
        assert!(
            slept.cpu_s < 0.025,
            "sleeping used {} s of CPU",
            slept.cpu_s
        );
    }
}
