//! Unit newtypes shared across the simulated cloud: virtual time, byte
//! sizes, bandwidth, and money.
//!
//! All quantities that participate in event ordering or billing are stored
//! as integers (nanoseconds, bytes, micro-dollars) so that simulations are
//! exactly reproducible and billing never drifts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since the start of the
/// simulation.
///
/// ```
/// use faaspipe_des::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
///
/// ```
/// use faaspipe_des::SimDuration;
/// let d = SimDuration::from_secs(2) + SimDuration::from_millis(500);
/// assert_eq!(d.as_secs_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier time is later than self"),
        )
    }

    /// Like [`SimTime::duration_since`] but clamps to zero instead of
    /// panicking.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Addition that clamps at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    /// Panics, in every build profile, if the duration does not fit in
    /// `u64` nanoseconds (about 584 years).
    pub const fn from_micros(us: u64) -> Self {
        match us.checked_mul(1_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_micros: duration overflows u64 nanoseconds"),
        }
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    /// Panics, in every build profile, if the duration does not fit in
    /// `u64` nanoseconds (about 584 years).
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_millis: duration overflows u64 nanoseconds"),
        }
    }

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    /// Panics, in every build profile, if the duration does not fit in
    /// `u64` nanoseconds (about 584 years).
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_secs: duration overflows u64 nanoseconds"),
        }
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond and clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() {
            return SimDuration::MAX;
        }
        let ns = (s * 1e9).round();
        if ns <= 0.0 {
            SimDuration::ZERO
        } else if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Addition that clamps at [`SimDuration::MAX`].
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Multiplies by an integer factor, clamping at [`SimDuration::MAX`].
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scales by a float factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
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
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// A number of bytes.
///
/// ```
/// use faaspipe_des::ByteSize;
/// assert_eq!(ByteSize::mib(2).as_u64(), 2 * 1024 * 1024);
/// assert_eq!(format!("{}", ByteSize::gib(3)), "3.00 GiB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from raw bytes.
    pub const fn new(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// `n` kibibytes.
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// `n` mebibytes.
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64` (for rate computations).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Addition that clamps at `u64::MAX`.
    pub fn saturating_add(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_add(rhs.0).expect("ByteSize overflow"))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_sub(rhs.0).expect("ByteSize underflow"))
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl From<u64> for ByteSize {
    fn from(bytes: u64) -> Self {
        ByteSize(bytes)
    }
}

impl From<usize> for ByteSize {
    fn from(bytes: usize) -> Self {
        ByteSize(bytes as u64)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: f64 = 1024.0;
        let b = self.0 as f64;
        if b < KIB {
            write!(f, "{} B", self.0)
        } else if b < KIB * KIB {
            write!(f, "{:.2} KiB", b / KIB)
        } else if b < KIB * KIB * KIB {
            write!(f, "{:.2} MiB", b / (KIB * KIB))
        } else {
            write!(f, "{:.2} GiB", b / (KIB * KIB * KIB))
        }
    }
}

/// A transfer rate in bytes per second.
///
/// ```
/// use faaspipe_des::{Bandwidth, ByteSize};
/// let bw = Bandwidth::mib_per_sec(100.0);
/// let d = bw.transfer_time(ByteSize::mib(200));
/// assert!((d.as_secs_f64() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// An effectively unlimited bandwidth (used for un-modelled links).
    pub const UNLIMITED: Bandwidth = Bandwidth(f64::INFINITY);

    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is negative or NaN.
    pub fn bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec >= 0.0 && !bytes_per_sec.is_nan(),
            "bandwidth must be non-negative"
        );
        Bandwidth(bytes_per_sec)
    }

    /// `n` MiB/s.
    pub fn mib_per_sec(n: f64) -> Self {
        Bandwidth::bytes_per_sec(n * 1024.0 * 1024.0)
    }

    /// `n` Gbit/s (network-style decimal gigabits).
    pub fn gbit_per_sec(n: f64) -> Self {
        Bandwidth::bytes_per_sec(n * 1e9 / 8.0)
    }

    /// Rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Time to move `size` bytes at this rate.
    pub fn transfer_time(self, size: ByteSize) -> SimDuration {
        if self.0.is_infinite() {
            SimDuration::ZERO
        } else if self.0 <= 0.0 {
            SimDuration::MAX
        } else {
            SimDuration::from_secs_f64(size.as_f64() / self.0)
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "unlimited")
        } else {
            write!(f, "{:.1} MiB/s", self.0 / (1024.0 * 1024.0))
        }
    }
}

/// An amount of money in integer micro-dollars.
///
/// Billing maths stays exact: one micro-dollar is USD 1e-6, fine enough for
/// per-request object-storage pricing (tens of nano-dollars per request are
/// accumulated through [`Money::from_dollars`] on aggregated counts, not per
/// request).
///
/// ```
/// use faaspipe_des::Money;
/// let a = Money::from_dollars(0.008);
/// let b = Money::from_micros(2_000);
/// assert_eq!((a + b).as_dollars(), 0.01);
/// assert_eq!(format!("{}", a), "$0.008000");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Money(i64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// Creates an amount from integer micro-dollars.
    pub const fn from_micros(micros: i64) -> Self {
        Money(micros)
    }

    /// Creates an amount from a dollar figure, rounding to the nearest
    /// micro-dollar.
    pub fn from_dollars(dollars: f64) -> Self {
        Money((dollars * 1e6).round() as i64)
    }

    /// The amount in micro-dollars.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// The amount in dollars, for reporting.
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scales by a non-negative integer count (e.g. per-request pricing).
    pub fn scale(self, count: u64) -> Money {
        Money(self.0.checked_mul(count as i64).expect("Money overflow"))
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0.checked_add(rhs.0).expect("Money overflow"))
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0.checked_sub(rhs.0).expect("Money underflow"))
    }
}

impl Mul<u64> for Money {
    type Output = Money;
    fn mul(self, rhs: u64) -> Money {
        self.scale(rhs)
    }
}

impl Div<u64> for Money {
    type Output = Money;
    fn div(self, rhs: u64) -> Money {
        Money(self.0 / rhs as i64)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 0 {
            write!(f, "-${:.6}", -self.as_dollars())
        } else {
            write!(f, "${:.6}", self.as_dollars())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        assert_eq!(t.as_nanos(), 5_000_000_000);
        assert_eq!(
            t - SimTime::from_nanos(1_000_000_000),
            SimDuration::from_secs(4)
        );
        assert_eq!(t.duration_since(t), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier time is later")]
    fn duration_since_panics_when_reversed() {
        SimTime::ZERO.duration_since(SimTime::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "from_secs: duration overflows u64 nanoseconds")]
    fn duration_from_secs_panics_past_u64_nanoseconds() {
        // The largest whole second that fits, then one more: a release
        // build must not wrap it to a fraction of a second.
        let last = std::hint::black_box(18_446_744_073);
        assert_eq!(
            SimDuration::from_secs(last).as_nanos(),
            18_446_744_073_000_000_000
        );
        SimDuration::from_secs(last + 1);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let d = SimTime::ZERO.saturating_duration_since(SimTime::from_nanos(10));
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn duration_from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.0us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.0ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
    }

    #[test]
    fn byte_size_units_and_display() {
        assert_eq!(ByteSize::kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::gib(1).as_u64(), 1 << 30);
        assert_eq!(format!("{}", ByteSize::new(17)), "17 B");
        assert_eq!(format!("{}", ByteSize::kib(2)), "2.00 KiB");
        assert_eq!(format!("{}", ByteSize::mib(3)), "3.00 MiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::mib_per_sec(10.0);
        let t = bw.transfer_time(ByteSize::mib(30));
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-9);
        assert_eq!(
            Bandwidth::UNLIMITED.transfer_time(ByteSize::gib(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            Bandwidth::bytes_per_sec(0.0).transfer_time(ByteSize::new(1)),
            SimDuration::MAX
        );
    }

    #[test]
    fn bandwidth_gbit_conversion() {
        let bw = Bandwidth::gbit_per_sec(8.0);
        assert!((bw.as_bytes_per_sec() - 1e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn bandwidth_rejects_negative() {
        Bandwidth::bytes_per_sec(-1.0);
    }

    #[test]
    fn money_round_trip_and_ops() {
        let m = Money::from_dollars(1.25);
        assert_eq!(m.as_micros(), 1_250_000);
        assert_eq!(m.as_dollars(), 1.25);
        assert_eq!((m + m).as_dollars(), 2.5);
        assert_eq!((m - Money::from_dollars(0.25)).as_dollars(), 1.0);
        assert_eq!(m.scale(4).as_dollars(), 5.0);
        assert_eq!((m / 5).as_dollars(), 0.25);
    }

    #[test]
    fn money_sum_and_display() {
        let total: Money = [Money::from_dollars(0.004), Money::from_dollars(0.004)]
            .into_iter()
            .sum();
        assert_eq!(total.as_dollars(), 0.008);
        assert_eq!(format!("{}", total), "$0.008000");
        assert_eq!(format!("{}", Money::from_dollars(-0.5)), "-$0.500000");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn duration_mul_f64() {
        let d = SimDuration::from_secs(2).mul_f64(1.5);
        assert_eq!(d, SimDuration::from_secs(3));
    }
}
