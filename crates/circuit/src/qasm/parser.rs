//! Recursive-descent parser for the OpenQASM 2 subset.

use super::lexer::{tokenize, Token, TokenKind};
use crate::{error::CircuitError, Circuit, Gate, NoiseChannel};
use std::collections::HashMap;
use std::f64::consts::PI;

/// The deepest nesting of parentheses and unary minus a parameter
/// expression may use. The expression parser recurses once per level;
/// the cap turns a hostile input (say `rz(((…pi…)))` nested 100k deep)
/// into a parse error instead of a stack overflow, far above anything a
/// real program writes.
pub const MAX_EXPR_DEPTH: usize = 128;

/// Parses OpenQASM 2 source into a [`Circuit`].
///
/// Multiple quantum registers are flattened into one qubit index space in
/// declaration order. Classical registers, `measure` and `barrier` are
/// accepted and ignored. `// qaec.noise:` directives become noise
/// instructions (see the [module docs](super)).
///
/// # Errors
///
/// [`CircuitError::Parse`] with a line number on any lexical or syntactic
/// problem, unknown gate, undeclared register or out-of-range index —
/// including a parameter expression nested deeper than
/// [`MAX_EXPR_DEPTH`].
pub fn parse(src: &str) -> Result<Circuit, CircuitError> {
    let tokens = tokenize(src)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
        regs: HashMap::new(),
        n_qubits: 0,
        circuit: None,
    }
    .run()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current parameter-expression nesting (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
    /// quantum register name → (offset, size)
    regs: HashMap<String, (usize, usize)>,
    n_qubits: usize,
    circuit: Option<Circuit>,
}

impl Parser {
    fn run(mut self) -> Result<Circuit, CircuitError> {
        // Optional OPENQASM header.
        if self.peek_ident() == Some("OPENQASM") {
            self.next();
            self.expect_number()?;
            self.expect_sym(';')?;
        }
        while self.pos < self.tokens.len() {
            self.statement()?;
        }
        Ok(self.circuit.unwrap_or_else(|| Circuit::new(self.n_qubits)))
    }

    fn error(&self, message: impl Into<String>) -> CircuitError {
        let line = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |t| t.line);
        CircuitError::Parse {
            line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn next(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        self.pos += 1;
        t
    }

    fn expect_sym(&mut self, c: char) -> Result<(), CircuitError> {
        match self.next() {
            Some(TokenKind::Sym(s)) if s == c => Ok(()),
            other => Err(self.error(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn expect_number(&mut self) -> Result<f64, CircuitError> {
        match self.next() {
            Some(TokenKind::Number(v)) => Ok(v),
            other => Err(self.error(format!("expected a number, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, CircuitError> {
        match self.next() {
            Some(TokenKind::Ident(s)) => Ok(s),
            other => Err(self.error(format!("expected an identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<(), CircuitError> {
        if let Some(TokenKind::NoiseDirective(body)) = self.peek() {
            let body = body.clone();
            self.next();
            return self.noise_directive(&body);
        }
        let name = self.expect_ident()?;
        match name.as_str() {
            "include" => {
                match self.next() {
                    Some(TokenKind::Str(_)) => {}
                    other => {
                        return Err(self.error(format!("expected include path, found {other:?}")))
                    }
                }
                self.expect_sym(';')
            }
            "qreg" => {
                let reg = self.expect_ident()?;
                self.expect_sym('[')?;
                let size = self.expect_number()? as usize;
                self.expect_sym(']')?;
                self.expect_sym(';')?;
                if self.circuit.is_some() {
                    return Err(self.error("qreg must precede gate applications"));
                }
                self.regs.insert(reg, (self.n_qubits, size));
                self.n_qubits += size;
                Ok(())
            }
            "creg" => {
                self.expect_ident()?;
                self.expect_sym('[')?;
                self.expect_number()?;
                self.expect_sym(']')?;
                self.expect_sym(';')
            }
            "barrier" => {
                // Skip to the terminating semicolon.
                while !matches!(self.peek(), Some(TokenKind::Sym(';')) | None) {
                    self.next();
                }
                self.expect_sym(';')
            }
            "measure" => {
                self.argument()?; // quantum
                match self.next() {
                    Some(TokenKind::Arrow) => {}
                    other => return Err(self.error(format!("expected `->`, found {other:?}"))),
                }
                // Classical target: ident[idx] — parse loosely.
                self.expect_ident()?;
                if matches!(self.peek(), Some(TokenKind::Sym('['))) {
                    self.next();
                    self.expect_number()?;
                    self.expect_sym(']')?;
                }
                self.expect_sym(';')
            }
            gate_name => self.gate_call(gate_name),
        }
    }

    /// `name [ (params) ] arg {, arg} ;`
    fn gate_call(&mut self, name: &str) -> Result<(), CircuitError> {
        let params = if matches!(self.peek(), Some(TokenKind::Sym('('))) {
            self.next();
            let p = self.expr_list()?;
            self.expect_sym(')')?;
            p
        } else {
            Vec::new()
        };
        let gate = Gate::from_name(name, &params).ok_or_else(|| {
            self.error(format!(
                "unknown gate `{name}` with {} parameter(s)",
                params.len()
            ))
        })?;
        let args = self.argument_list()?;
        self.expect_sym(';')?;
        let circuit = self.circuit_mut()?;

        // Whole-register broadcast for single-qubit gates.
        if gate.arity() == 1 && args.len() == 1 {
            match args[0] {
                Arg::Single(q) => {
                    circuit.try_gate(gate, &[q])?;
                }
                Arg::Register(offset, size) => {
                    for q in offset..offset + size {
                        circuit.try_gate(gate, &[q])?;
                    }
                }
            }
            return Ok(());
        }

        let mut qs = Vec::with_capacity(args.len());
        for a in &args {
            match *a {
                Arg::Single(q) => qs.push(q),
                Arg::Register(..) => {
                    return Err(self.error("register broadcast only supported for 1-qubit gates"))
                }
            }
        }
        if qs.len() != gate.arity() {
            return Err(self.error(format!(
                "gate `{name}` expects {} qubit(s), got {}",
                gate.arity(),
                qs.len()
            )));
        }
        circuit.try_gate(gate, &qs)?;
        Ok(())
    }

    fn circuit_mut(&mut self) -> Result<&mut Circuit, CircuitError> {
        if self.circuit.is_none() {
            if self.n_qubits == 0 {
                return Err(self.error("gate application before any qreg declaration"));
            }
            self.circuit = Some(Circuit::new(self.n_qubits));
        }
        Ok(self.circuit.as_mut().expect("just created"))
    }

    fn argument_list(&mut self) -> Result<Vec<Arg>, CircuitError> {
        let mut args = vec![self.argument()?];
        while matches!(self.peek(), Some(TokenKind::Sym(','))) {
            self.next();
            args.push(self.argument()?);
        }
        Ok(args)
    }

    fn argument(&mut self) -> Result<Arg, CircuitError> {
        let reg = self.expect_ident()?;
        let &(offset, size) = self
            .regs
            .get(&reg)
            .ok_or_else(|| self.error(format!("undeclared register `{reg}`")))?;
        if matches!(self.peek(), Some(TokenKind::Sym('['))) {
            self.next();
            let idx = self.expect_number()? as usize;
            self.expect_sym(']')?;
            if idx >= size {
                return Err(self.error(format!("index {idx} out of range for `{reg}[{size}]`")));
            }
            Ok(Arg::Single(offset + idx))
        } else {
            Ok(Arg::Register(offset, size))
        }
    }

    fn expr_list(&mut self) -> Result<Vec<f64>, CircuitError> {
        let mut out = vec![self.expr()?];
        while matches!(self.peek(), Some(TokenKind::Sym(','))) {
            self.next();
            out.push(self.expr()?);
        }
        Ok(out)
    }

    /// expr := term { (+|-) term }
    fn expr(&mut self) -> Result<f64, CircuitError> {
        let mut value = self.term()?;
        loop {
            match self.peek() {
                Some(TokenKind::Sym('+')) => {
                    self.next();
                    value += self.term()?;
                }
                Some(TokenKind::Sym('-')) => {
                    self.next();
                    value -= self.term()?;
                }
                _ => return Ok(value),
            }
        }
    }

    /// term := factor { (*|/) factor }
    fn term(&mut self) -> Result<f64, CircuitError> {
        let mut value = self.factor()?;
        loop {
            match self.peek() {
                Some(TokenKind::Sym('*')) => {
                    self.next();
                    value *= self.factor()?;
                }
                Some(TokenKind::Sym('/')) => {
                    self.next();
                    value /= self.factor()?;
                }
                _ => return Ok(value),
            }
        }
    }

    /// factor := number | pi | -factor | ( expr )
    fn factor(&mut self) -> Result<f64, CircuitError> {
        match self.next() {
            Some(TokenKind::Number(v)) => Ok(v),
            Some(TokenKind::Ident(s)) if s == "pi" => Ok(PI),
            Some(TokenKind::Sym('-')) => self.nested(|p| Ok(-p.factor()?)),
            Some(TokenKind::Sym('(')) => self.nested(|p| {
                let v = p.expr()?;
                p.expect_sym(')')?;
                Ok(v)
            }),
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }

    /// Parses one nesting level with `inner`, refusing to go deeper than
    /// [`MAX_EXPR_DEPTH`].
    fn nested(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<f64, CircuitError>,
    ) -> Result<f64, CircuitError> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(self.error(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    /// `channel(params) q[i];` re-lexed from a directive comment body.
    fn noise_directive(&mut self, body: &str) -> Result<(), CircuitError> {
        let inner_tokens = tokenize(body)?;
        let saved = std::mem::replace(&mut self.tokens, inner_tokens);
        let saved_pos = std::mem::replace(&mut self.pos, 0);

        let result = (|| {
            let name = self.expect_ident()?;
            let params = if matches!(self.peek(), Some(TokenKind::Sym('('))) {
                self.next();
                let p = self.expr_list()?;
                self.expect_sym(')')?;
                p
            } else {
                Vec::new()
            };
            let channel = NoiseChannel::from_name(&name, &params)
                .ok_or_else(|| self.error(format!("unknown noise channel `{name}`")))?;
            let args = self.argument_list()?;
            if matches!(self.peek(), Some(TokenKind::Sym(';'))) {
                self.next();
            }
            let mut qs = Vec::new();
            for a in &args {
                match *a {
                    Arg::Single(q) => qs.push(q),
                    Arg::Register(..) => {
                        return Err(self.error("noise directives need indexed qubits"))
                    }
                }
            }
            Ok((channel, qs))
        })();

        self.tokens = saved;
        self.pos = saved_pos;
        let (channel, qs) = result?;
        let circuit = self.circuit_mut()?;
        circuit
            .try_noise(channel, &qs)
            .map_err(|e| CircuitError::Parse {
                line: 0,
                message: format!("invalid noise directive: {e}"),
            })?;
        Ok(())
    }
}

enum Arg {
    Single(usize),
    Register(usize, usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_program() {
        let c = parse("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];").unwrap();
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.instructions()[1].as_gate(), Some(&Gate::Cx));
    }

    #[test]
    fn parameter_expressions() {
        let c = parse("qreg q[1]; u1(pi/2) q[0]; rz(-pi) q[0]; u3(pi/4, 0.5*2, (1+1)/4) q[0];")
            .unwrap();
        let g0 = c.instructions()[0].as_gate().unwrap();
        assert!((g0.params()[0] - PI / 2.0).abs() < 1e-12);
        let g1 = c.instructions()[1].as_gate().unwrap();
        assert!((g1.params()[0] + PI).abs() < 1e-12);
        let g2 = c.instructions()[2].as_gate().unwrap();
        assert!((g2.params()[1] - 1.0).abs() < 1e-12);
        assert!((g2.params()[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn register_broadcast() {
        let c = parse("qreg q[3]; h q;").unwrap();
        assert_eq!(c.gate_count(), 3);
        assert!(c.iter().all(|i| i.as_gate() == Some(&Gate::H)));
    }

    #[test]
    fn multiple_registers_flatten() {
        let c = parse("qreg a[2]; qreg b[1]; cx a[1], b[0];").unwrap();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.instructions()[0].qubits, vec![1, 2]);
    }

    #[test]
    fn measure_and_barrier_ignored() {
        let c = parse(
            "qreg q[2]; creg c[2]; h q[0]; barrier q[0], q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];",
        )
        .unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn noise_directive_parses() {
        let c = parse("qreg q[2];\nh q[0];\n// qaec.noise: depolarizing(0.999) q[1];\nx q[1];")
            .unwrap();
        assert_eq!(c.noise_count(), 1);
        assert_eq!(
            c.instructions()[1].as_noise(),
            Some(&NoiseChannel::Depolarizing { p: 0.999 })
        );
        // Order preserved: h, noise, x.
        assert!(c.instructions()[2].is_gate());
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_crash() {
        let program = |open: &str, close: &str, depth: usize| {
            format!(
                "OPENQASM 2.0;\nqreg q[1];\nrz({}pi{}) q[0];\n",
                open.repeat(depth),
                close.repeat(depth)
            )
        };
        // At the cap the expression still parses.
        assert!(parse(&program("(", ")", MAX_EXPR_DEPTH)).is_ok());
        assert!(parse(&program("-", "", MAX_EXPR_DEPTH)).is_ok());
        for (open, close) in [("(", ")"), ("-", ""), ("-(", ")")] {
            for depth in [MAX_EXPR_DEPTH + 1, 100_000] {
                match parse(&program(open, close, depth)) {
                    Err(CircuitError::Parse { line, message }) => {
                        assert_eq!(line, 3);
                        assert!(message.contains("nested deeper"), "{message}");
                    }
                    other => panic!("{open:?} × {depth}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("qreg q[1];\nbogus q[0];").unwrap_err();
        match err {
            CircuitError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("bogus"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn out_of_range_and_undeclared() {
        assert!(parse("qreg q[1]; h q[3];").is_err());
        assert!(parse("qreg q[1]; h r[0];").is_err());
        assert!(parse("h q[0];").is_err()); // gate before qreg
    }

    #[test]
    fn arity_mismatch_detected() {
        assert!(parse("qreg q[2]; cx q[0];").is_err());
        assert!(parse("qreg q[2]; cx q;").is_err());
    }

    #[test]
    fn bad_noise_directives_rejected() {
        // Unknown channel name.
        assert!(parse("qreg q[1];\n// qaec.noise: gamma_ray(0.5) q[0];").is_err());
        // Register broadcast is not allowed in directives.
        assert!(parse("qreg q[2];\n// qaec.noise: bit_flip(0.9) q;").is_err());
        // Invalid probability is caught by channel validation.
        assert!(parse("qreg q[1];\n// qaec.noise: bit_flip(1.5) q[0];").is_err());
        // Out-of-range qubit.
        assert!(parse("qreg q[1];\n// qaec.noise: bit_flip(0.9) q[4];").is_err());
    }

    #[test]
    fn two_qubit_noise_directive() {
        let c =
            parse("qreg q[2];\nh q[0];\n// qaec.noise: two_qubit_depolarizing(0.99) q[0], q[1];")
                .unwrap();
        assert_eq!(c.noise_count(), 1);
        let instr = &c.instructions()[1];
        assert_eq!(instr.qubits, vec![0, 1]);
    }
}
