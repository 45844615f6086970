//! Unit newtypes for energy, power, time and temperature.
//!
//! The paper's metrics section (III-A) distinguishes energy (J), power (W),
//! peak power, and the energy-delay product (J·s); the newtypes keep these
//! statically distinct through the analysis pipeline.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $unit:literal, $accessor:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, PartialOrd, Default,
        )]
        pub struct $name(f64);

        impl $name {
            /// Wrap a raw value.
            pub const fn new(v: f64) -> Self {
                Self(v)
            }

            /// The raw value in base units.
            pub const fn $accessor(&self) -> f64 {
                self.0
            }

            /// Zero.
            pub const ZERO: Self = Self(0.0);

            /// Largest of two values.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(p) = f.precision() {
                    write!(f, "{:.*} {}", p, self.0, $unit)
                } else {
                    write!(f, "{:.4} {}", self.0, $unit)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit!(
    /// Energy in joules.
    Joules,
    "J",
    joules
);
unit!(
    /// Power in watts.
    Watts,
    "W",
    watts
);
unit!(
    /// Time in seconds.
    Seconds,
    "s",
    seconds
);
unit!(
    /// Temperature in degrees Celsius.
    Celsius,
    "°C",
    celsius
);
unit!(
    /// Energy-delay product in joule-seconds (the paper's EDP metric,
    /// Section III-A: total energy × execution time).
    EnergyDelay,
    "J·s",
    joule_seconds
);

impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.watts() * rhs.seconds())
    }
}

impl Mul<Seconds> for Joules {
    type Output = EnergyDelay;
    fn mul(self, rhs: Seconds) -> EnergyDelay {
        EnergyDelay::new(self.joules() * rhs.seconds())
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.joules() / rhs.seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensional_algebra() {
        let p = Watts::new(10.0);
        let t = Seconds::new(2.0);
        let e: Joules = p * t;
        assert_eq!(e.joules(), 20.0);
        let edp: EnergyDelay = e * t;
        assert_eq!(edp.joule_seconds(), 40.0);
        let back: Watts = e / t;
        assert_eq!(back.watts(), 10.0);
    }

    #[test]
    fn arithmetic_and_sum() {
        let a = Joules::new(1.0) + Joules::new(2.0);
        assert_eq!(a.joules(), 3.0);
        let s: Joules = [Joules::new(1.0), Joules::new(2.5)].into_iter().sum();
        assert_eq!(s.joules(), 3.5);
        let mut acc = Watts::ZERO;
        acc += Watts::new(4.0);
        assert_eq!((acc - Watts::new(1.0)).watts(), 3.0);
        assert_eq!((acc * 2.0).watts(), 8.0);
        assert_eq!((acc / 2.0).watts(), 2.0);
        assert_eq!(Watts::new(3.0).max(Watts::new(5.0)).watts(), 5.0);
    }

    #[test]
    fn display_formats_with_units() {
        assert_eq!(format!("{:.1}", Watts::new(12.75)), "12.8 W");
        assert_eq!(format!("{}", Seconds::new(1.0)), "1.0000 s");
        assert!(format!("{}", Celsius::new(99.0)).contains("°C"));
    }
}
