//! Simulated time.
//!
//! The simulator uses a fixed-point virtual clock measured in integer
//! nanoseconds. Points in time ([`SimTime`]) and durations ([`SimDur`])
//! are distinct newtypes so that the type system rules out the classic
//! "added two timestamps" bug. All cost-model arithmetic is done in
//! `f64` nanoseconds and rounded once at the boundary.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute point on a rank's virtual clock, in nanoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize)]
pub struct SimDur(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from fractional seconds.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(ns_from_secs(s))
    }

    /// This instant expressed as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`; saturates at zero rather than
    /// underflowing (virtual clocks never run backwards, but callers may
    /// compare clocks from different ranks).
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// Later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDur {
    /// The zero-length duration.
    pub const ZERO: SimDur = SimDur(0);

    /// Construct from fractional seconds.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDur(ns_from_secs(s))
    }

    /// Construct from fractional microseconds.
    #[must_use]
    pub fn from_micros_f64(us: f64) -> Self {
        SimDur(ns_from_secs(us * 1e-6))
    }

    /// Construct from fractional milliseconds.
    #[must_use]
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDur(ns_from_secs(ms * 1e-3))
    }

    /// Construct from integer nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }

    /// Construct from fractional nanoseconds, rounding to the nearest
    /// representable value and clamping negatives to zero.
    #[must_use]
    pub fn from_nanos_f64(ns: f64) -> Self {
        if ns <= 0.0 || !ns.is_finite() {
            SimDur(0)
        } else {
            SimDur(ns.round() as u64)
        }
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional nanoseconds.
    #[must_use]
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64
    }

    /// Integer nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating difference of two durations.
    #[must_use]
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }

    /// Longer of two durations.
    #[must_use]
    pub fn max(self, other: SimDur) -> SimDur {
        SimDur(self.0.max(other.0))
    }

    /// Shorter of two durations.
    #[must_use]
    pub fn min(self, other: SimDur) -> SimDur {
        SimDur(self.0.min(other.0))
    }
}

fn ns_from_secs(s: f64) -> u64 {
    if s <= 0.0 || !s.is_finite() {
        0
    } else {
        (s * 1e9).round() as u64
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDur) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, d: SimDur) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    /// Exact difference; panics in debug builds on underflow.
    fn sub(self, other: SimTime) -> SimDur {
        debug_assert!(self >= other, "SimTime subtraction underflow");
        SimDur(self.0 - other.0)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, d: SimDur) -> SimDur {
        SimDur(self.0 + d.0)
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, d: SimDur) {
        self.0 += d.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, other: SimDur) -> SimDur {
        debug_assert!(self >= other, "SimDur subtraction underflow");
        SimDur(self.0 - other.0)
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, k: u64) -> SimDur {
        SimDur(self.0 * k)
    }
}

impl Mul<f64> for SimDur {
    type Output = SimDur;
    fn mul(self, k: f64) -> SimDur {
        SimDur::from_nanos_f64(self.0 as f64 * k)
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, k: u64) -> SimDur {
        SimDur(self.0 / k)
    }
}

impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        iter.fold(SimDur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_secs_f64(1.0);
        let d = SimDur::from_millis_f64(250.0);
        assert_eq!((t + d).as_secs_f64(), 1.25);
    }

    #[test]
    fn duration_roundtrip_seconds() {
        let d = SimDur::from_secs_f64(3.5);
        assert!((d.as_secs_f64() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimDur::from_secs_f64(-1.0), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(f64::NAN), SimDur::ZERO);
        assert_eq!(SimDur::from_nanos_f64(-5.0), SimDur::ZERO);
        assert_eq!(SimTime::from_secs_f64(-2.0), SimTime::ZERO);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert_eq!(a.saturating_since(b), SimDur::ZERO);
        assert_eq!(b.saturating_since(a), SimDur(4));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDur::from_nanos(100);
        assert_eq!(d * 3u64, SimDur(300));
        assert_eq!(d * 0.5f64, SimDur(50));
        assert_eq!(d / 4, SimDur(25));
    }

    #[test]
    fn duration_sum() {
        let total: SimDur = (1..=4).map(SimDur::from_nanos).sum();
        assert_eq!(total, SimDur(10));
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(format!("{}", SimDur::from_secs_f64(1.5)), "1.500000s");
    }

    #[test]
    fn micros_and_millis_constructors() {
        assert_eq!(SimDur::from_micros_f64(1.0), SimDur(1_000));
        assert_eq!(SimDur::from_millis_f64(1.0), SimDur(1_000_000));
    }
}
