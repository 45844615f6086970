//! CPU-time clocks.
//!
//! On a shared host a thread's wall time counts every moment it waits for
//! a core; its CPU time counts only the moments it runs. The kernel keeps
//! time stolen by the hypervisor out of both clocks here, so they measure
//! the program's own work.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux CPU-time clocks");

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, now: *mut Timespec) -> c_int;
}

fn read(clock: c_int) -> Duration {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut now) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

/// CPU time the calling thread has run so far.
pub fn thread_cpu() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has run so far.
pub fn process_cpu() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_not_with_sleep() {
        let t = thread_cpu();
        let p = process_cpu();
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread_cpu() - t < Duration::from_millis(25));
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let thread = thread_cpu() - t;
        let process = process_cpu() - p;
        assert!(thread >= Duration::from_millis(10));
        assert!(process + Duration::from_millis(1) >= thread);
    }
}
