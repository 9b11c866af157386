//! Simulation time.
//!
//! The paper's feasibility study (Fig. 5) reports event gaps spanning five
//! orders of magnitude — 0.1 ms FIB installs up to a 25 s TTY-to-soft-
//! reconfiguration delay — so the clock needs both range and resolution.
//! [`SimTime`] is a nanosecond counter in a `u64`, good for ~584 years of
//! simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in nanoseconds from simulation start.
///
/// `SimTime` is totally ordered and supports the arithmetic the event loop
/// needs. Display picks a human unit automatically, matching the style of
/// the paper's Fig. 5 annotations (`25s`, `4ms`, `0.1ms`).
///
/// ```
/// use cpvr_types::SimTime;
/// let t = SimTime::from_millis(4);
/// assert_eq!((t + SimTime::from_millis(8)).to_string(), "12ms");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time — useful as an "infinite" horizon
    /// or watermark.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Builds a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The time as fractional milliseconds (for reporting).
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The time as fractional seconds (for reporting).
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; the result is zero if `other` is later.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ms")
        } else if ns >= 1_000_000_000 && ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns >= 100_000 {
            write!(f, "{:.1}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", ns as f64 / 1e3)
        }
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn display_matches_figure_style() {
        assert_eq!(SimTime::from_secs(25).to_string(), "25s");
        assert_eq!(SimTime::from_millis(4).to_string(), "4ms");
        assert_eq!(SimTime::from_micros(100).to_string(), "0.1ms");
        assert_eq!(SimTime::ZERO.to_string(), "0ms");
        assert_eq!(SimTime::from_micros(50).to_string(), "50us");
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a + b, SimTime::from_millis(14));
        assert_eq!(a - b, SimTime::from_millis(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(14));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(1),
            SimTime::ZERO,
            SimTime::from_millis(5),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(1));
    }

    #[test]
    fn float_conversions() {
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((SimTime::from_micros(2500).as_millis_f64() - 2.5).abs() < 1e-12);
    }
}
