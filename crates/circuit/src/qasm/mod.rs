//! OpenQASM 2 subset reader and writer.
//!
//! Supports the statements the benchmark suite needs: `OPENQASM 2.0`,
//! `include`, `qreg`/`creg`, applications of the built-in gate set (with
//! parameter expressions over `pi`, `+ - * /` and parentheses), `barrier`
//! and `measure` (both ignored), and whole-register broadcast of
//! single-qubit gates.
//!
//! Noisy circuits round-trip through a comment directive extension:
//!
//! ```text
//! // qaec.noise: depolarizing(0.999) q[2];
//! ```
//!
//! which standard OpenQASM tools simply ignore.
//!
//! # Example
//!
//! ```
//! use qaec_circuit::qasm;
//!
//! let src = r#"
//! OPENQASM 2.0;
//! include "qelib1.inc";
//! qreg q[2];
//! h q[0];
//! // qaec.noise: bit_flip(0.999) q[1];
//! cp(pi/2) q[1], q[0];
//! "#;
//! let circuit = qasm::parse(src)?;
//! assert_eq!(circuit.gate_count(), 2);
//! assert_eq!(circuit.noise_count(), 1);
//! let text = qasm::write(&circuit);
//! assert_eq!(qasm::parse(&text)?, circuit);
//! # Ok::<(), qaec_circuit::CircuitError>(())
//! ```

mod lexer;
mod parser;
mod writer;

pub use parser::{parse, MAX_EXPR_DEPTH};
pub use writer::write;
