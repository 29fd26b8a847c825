//! Complex arithmetic and dense complex linear algebra.
//!
//! This crate is the numerical substrate of the QAEC workspace. It provides
//! a small, self-contained implementation of
//!
//! * [`C64`] — a double-precision complex number with the full set of
//!   arithmetic operators,
//! * [`Matrix`] — a dense, row-major complex matrix with the operations the
//!   quantum-circuit layers need (Kronecker products, adjoints, traces,
//!   unitarity checks, ...), and
//! * tolerance-based approximate comparison helpers in [`approx`].
//!
//! External numeric crates (`num-complex`, `ndarray`) are deliberately not
//! used: the decision-diagram engine upstream needs precise control over
//! tolerance-canonical hashing of complex values, and the matrix workloads
//! here are small and dense.
//!
//! # Example
//!
//! ```
//! use qaec_math::{C64, Matrix};
//!
//! let h = Matrix::from_rows(&[
//!     vec![C64::new(1.0, 0.0), C64::new(1.0, 0.0)],
//!     vec![C64::new(1.0, 0.0), C64::new(-1.0, 0.0)],
//! ]).scale(C64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0));
//! assert!(h.is_unitary(1e-12));
//! assert!((h.mul(&h).trace().re - 2.0).abs() < 1e-12);
//! ```

pub mod approx;
pub mod complex;
pub mod eigen;
pub mod matrix;

pub use approx::{approx_eq_c64, approx_eq_f64, DEFAULT_TOLERANCE};
pub use complex::C64;
pub use matrix::Matrix;
