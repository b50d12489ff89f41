//! Exact arbitrary-precision arithmetic for the Bayonet reproduction.
//!
//! The Bayonet semantics (PLDI'18, Figure 4) takes its value domain to be the
//! rationals, and the exact inference engine must track trace probabilities
//! whose denominators grow like `(#actions)^(#steps)` — far beyond machine
//! integers. This crate provides the three numeric types everything else is
//! built on:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers,
//! * [`BigInt`] — arbitrary-precision signed integers,
//! * [`Rat`] — exact rationals in lowest terms (values, probabilities,
//!   expectations).
//!
//! It also holds [`FastMap`], the FxHash-keyed map both exact engines use
//! for their hot intern and memo tables.
//!
//! # Examples
//!
//! ```
//! use bayonet_num::Rat;
//!
//! // A probability computed over 40 uniform scheduler steps stays exact.
//! let p = Rat::ratio(1, 7).pow(40);
//! assert_eq!(p.numer().to_string(), "1");
//! assert!(p.is_positive());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod biguint;
mod fx;
mod rat;

pub use bigint::{BigInt, Sign};
pub use biguint::{BigUint, ParseNumError};
pub use fx::{FastMap, FastSet, FxHasher};
pub use rat::Rat;
