//! Peak resident set size of this process, from `getrusage(2)`: the
//! standard library has no call for it.

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set size of this process so far, in MiB (0 if the
/// call fails).
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of 64-bit Linux, and `getrusage` writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        #[allow(clippy::cast_precision_loss)]
        let kib = usage.maxrss as f64;
        kib / 1024.0
    } else {
        0.0
    }
}
