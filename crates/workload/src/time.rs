//! Simulated time.
//!
//! The whole reproduction runs on integer microseconds. Integer time keeps
//! the discrete-event simulator deterministic (no float drift in event
//! ordering) and makes durations hashable, which the grouping cache relies
//! on.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in microseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the simulation epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`; saturates at zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked duration between two instants; `None` if `earlier > self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration (used as "infinity" sentinels).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * 1_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e6).round().min(u64::MAX as f64) as u64)
    }

    /// Microseconds in this duration.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero duration.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative float factor, rounding to the nearest
    /// microsecond.
    pub fn scale(self, factor: f64) -> Self {
        debug_assert!(factor >= 0.0, "negative scale factor {factor}");
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Integer division rounding up: how many whole `step`s cover `self`.
    /// Returns 0 when `step` is zero.
    pub fn div_ceil(self, step: SimDuration) -> u64 {
        if step.0 == 0 {
            0
        } else {
            self.0.div_ceil(step.0)
        }
    }
}

/// Saturates at the end of time, as `Mul` and `Sub` saturate: a job of
/// `u64::MAX` iterations finishes "never", not in a wrapped past.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

/// Saturating, like `SimTime + SimDuration`.
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "duration underflow: {self} - {rhs}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us == u64::MAX {
            write!(f, "inf")
        } else if us >= 3_600_000_000 {
            write!(f, "{:.2}h", us as f64 / 3_600e6)
        } else if us >= 60_000_000 {
            write!(f, "{:.2}m", us as f64 / 60e6)
        } else if us >= 1_000_000 {
            write!(f, "{:.2}s", us as f64 / 1e6)
        } else if us >= 1_000 {
            write!(f, "{:.2}ms", us as f64 / 1e3)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_micros(5).as_micros(), 5);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!((t + d).as_secs_f64(), 13.0);
        assert_eq!((t - d).as_secs_f64(), 7.0);
        assert_eq!(t.since(SimTime::from_secs(4)), SimDuration::from_secs(6));
        // `since` saturates when earlier is in the future.
        assert_eq!(SimTime::from_secs(1).since(t), SimDuration::ZERO);
        assert_eq!(SimTime::from_secs(1).checked_since(t), None);
    }

    #[test]
    fn duration_scale_rounds() {
        let d = SimDuration::from_micros(1_000_000);
        assert_eq!(d.scale(0.5), SimDuration::from_micros(500_000));
        assert_eq!(d.scale(1.5), SimDuration::from_micros(1_500_000));
        assert_eq!(d.scale(0.0), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_clamps_garbage() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn div_ceil_covers() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d.div_ceil(SimDuration::from_micros(3)), 4);
        assert_eq!(d.div_ceil(SimDuration::from_micros(5)), 2);
        assert_eq!(d.div_ceil(SimDuration::ZERO), 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(90)), "1.50m");
        assert_eq!(format!("{}", SimDuration::from_hours(2)), "2.00h");
        assert_eq!(format!("{}", SimDuration::MAX), "inf");
    }

    #[test]
    fn addition_saturates_at_the_end_of_time() {
        let far = SimTime::ZERO + SimDuration::from_micros(u64::MAX - 1);
        assert_eq!((far + SimDuration::from_secs(1)).as_micros(), u64::MAX);
        let mut t = far;
        t += SimDuration::MAX;
        assert_eq!(t.as_micros(), u64::MAX);
        let mut d = SimDuration::MAX;
        assert_eq!(d + SimDuration::from_secs(1), SimDuration::MAX);
        d += SimDuration::from_secs(1);
        assert_eq!(d, SimDuration::MAX);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
