//! A small textual language for program models.
//!
//! Hand-building [`Program`] trees is fine for library code but clumsy for
//! experiments; this module provides a tiny DSL so benchmark models can be
//! written as text (and checked in as fixtures):
//!
//! ```text
//! # image kernel
//! block init 120;
//! loop rows 4 bound=64 min=64 avg=64 {
//!     if check 2 p=0.8 {
//!         block filter 180;
//!     } else {
//!         block copy 12;
//!     }
//! }
//! block commit 40;
//! ```
//!
//! * `block NAME COST;` — a basic block costing `COST` cycles;
//! * `loop NAME HEADER_COST bound=N [min=N] [avg=X] { … }` — a bounded
//!   loop (`min` defaults to 0, `avg` to `(min+bound)/2`);
//! * `if NAME COND_COST p=X { … } else { … }` — a two-way branch taken
//!   with probability `X`;
//! * `#` starts a comment to end of line.
//!
//! [`to_source`] pretty-prints a `Program` back; parse ∘ print is the
//! identity (tested).

use crate::program::{BasicBlock, Program};
use crate::ExecError;
use std::fmt::Write as _;

/// Parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for ExecError {
    fn from(e: ParseError) -> Self {
        ExecError::Serialization {
            detail: e.to_string(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Semi,
    LBrace,
    RBrace,
    Eq,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    column: usize,
}

fn tokenize(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut column = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        let (tl, tc) = (line, column);
        let mut advance = |chars: &mut std::iter::Peekable<std::str::Chars>| {
            let c = chars.next().expect("peeked");
            if c == '\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
            c
        };
        if c.is_whitespace() {
            advance(&mut chars);
            continue;
        }
        if c == '#' {
            while let Some(&c) = chars.peek() {
                advance(&mut chars);
                if c == '\n' {
                    break;
                }
            }
            continue;
        }
        let tok = match c {
            ';' => {
                advance(&mut chars);
                Tok::Semi
            }
            '{' => {
                advance(&mut chars);
                Tok::LBrace
            }
            '}' => {
                advance(&mut chars);
                Tok::RBrace
            }
            '=' => {
                advance(&mut chars);
                Tok::Eq
            }
            c if c.is_ascii_digit() || c == '.' => {
                let mut text = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '_' {
                        text.push(advance(&mut chars));
                    } else {
                        break;
                    }
                }
                let cleaned = text.replace('_', "");
                let value = cleaned.parse::<f64>().map_err(|_| ParseError {
                    line: tl,
                    column: tc,
                    message: format!("invalid number `{text}`"),
                })?;
                Tok::Number(value)
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut text = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        text.push(advance(&mut chars));
                    } else {
                        break;
                    }
                }
                Tok::Ident(text)
            }
            other => {
                return Err(ParseError {
                    line: tl,
                    column: tc,
                    message: format!("unexpected character `{other}`"),
                })
            }
        };
        out.push(Spanned {
            tok,
            line: tl,
            column: tc,
        });
    }
    Ok(out)
}

/// How deeply loop bodies and branch arms may nest. Parsing recurses once
/// per level, so without a cap the input would choose the stack depth;
/// 128 is `serde_json`'s default limit for the workspace's other input
/// format.
const MAX_DEPTH: usize = 128;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Bodies entered and not yet closed.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.toks.get(self.pos)
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        let (line, column) = self.peek().map(|s| (s.line, s.column)).unwrap_or_else(|| {
            self.toks
                .last()
                .map(|s| (s.line, s.column + 1))
                .unwrap_or((1, 1))
        });
        ParseError {
            line,
            column,
            message: message.into(),
        }
    }

    fn next(&mut self, what: &str) -> Result<Spanned, ParseError> {
        let s = self
            .peek()
            .cloned()
            .ok_or_else(|| self.err_here(format!("expected {what}, found end of input")))?;
        self.pos += 1;
        Ok(s)
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        let s = self.next(what)?;
        if s.tok != tok {
            return Err(ParseError {
                line: s.line,
                column: s.column,
                message: format!("expected {what}, found {:?}", s.tok),
            });
        }
        Ok(())
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        let s = self.next(what)?;
        match s.tok {
            Tok::Ident(name) => Ok(name),
            other => Err(ParseError {
                line: s.line,
                column: s.column,
                message: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn number(&mut self, what: &str) -> Result<f64, ParseError> {
        let s = self.next(what)?;
        match s.tok {
            Tok::Number(v) => Ok(v),
            other => Err(ParseError {
                line: s.line,
                column: s.column,
                message: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn cost(&mut self, what: &str) -> Result<u64, ParseError> {
        let v = self.number(what)?;
        self.integer(v, what)
    }

    /// `v` as a `u64`, refusing fractions and anything outside `[0, 2⁶⁴)`
    /// (which a cast would saturate).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the range and fraction checks above make the cast exact"
    )]
    fn integer(&self, v: f64, what: &str) -> Result<u64, ParseError> {
        if v < 0.0 || v.fract() != 0.0 || v >= u64::MAX as f64 {
            return Err(self.err_here(format!("{what} must be a non-negative integer")));
        }
        Ok(v as u64)
    }

    /// `key=NUMBER`, where the key ident was already consumed.
    fn keyed_number(&mut self, key: &str) -> Result<f64, ParseError> {
        self.expect(Tok::Eq, &format!("`=` after `{key}`"))?;
        self.number(&format!("value for `{key}`"))
    }

    /// `key=INTEGER`, where the key ident was already consumed.
    fn keyed_integer(&mut self, key: &str) -> Result<u64, ParseError> {
        let v = self.keyed_number(key)?;
        self.integer(v, &format!("`{key}`"))
    }

    /// `{ STATEMENTS }`, one nesting level deeper; `what` names the body
    /// in error messages.
    fn body(&mut self, what: &str) -> Result<Vec<Program>, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err_here(format!("{what} nests more than {MAX_DEPTH} levels deep")));
        }
        self.expect(Tok::LBrace, &format!("`{{` opening the {what}"))?;
        self.depth += 1;
        let items = self.sequence(true)?;
        self.depth -= 1;
        self.expect(Tok::RBrace, &format!("`}}` closing the {what}"))?;
        Ok(items)
    }

    fn sequence(&mut self, stop_at_rbrace: bool) -> Result<Vec<Program>, ParseError> {
        let mut items = Vec::new();
        loop {
            match self.peek().map(|s| s.tok.clone()) {
                None => {
                    if stop_at_rbrace {
                        return Err(self.err_here("expected `}`"));
                    }
                    return Ok(items);
                }
                Some(Tok::RBrace) if stop_at_rbrace => return Ok(items),
                Some(Tok::Ident(word)) => match word.as_str() {
                    "block" => {
                        self.pos += 1;
                        let name = self.ident("block name")?;
                        let cost = self.cost("block cost")?;
                        self.expect(Tok::Semi, "`;` after block")?;
                        items.push(Program::Block(BasicBlock::new(name, cost)));
                    }
                    "loop" => {
                        self.pos += 1;
                        let name = self.ident("loop name")?;
                        let header_cost = self.cost("loop header cost")?;
                        let mut bound: Option<u64> = None;
                        let mut min: Option<u64> = None;
                        let mut avg: Option<f64> = None;
                        while let Some(Tok::Ident(key)) = self.peek().map(|s| s.tok.clone()) {
                            match key.as_str() {
                                "bound" => {
                                    self.pos += 1;
                                    bound = Some(self.keyed_integer("bound")?);
                                }
                                "min" => {
                                    self.pos += 1;
                                    min = Some(self.keyed_integer("min")?);
                                }
                                "avg" => {
                                    self.pos += 1;
                                    avg = Some(self.keyed_number("avg")?);
                                }
                                _ => break,
                            }
                        }
                        let bound =
                            bound.ok_or_else(|| self.err_here("loop requires `bound=N`"))?;
                        let min = min.unwrap_or(0);
                        let avg = match avg {
                            Some(avg) => avg,
                            None => {
                                let sum = min.checked_add(bound).ok_or_else(|| {
                                    self.err_here("loop `min + bound` overflows 64 bits")
                                })?;
                                sum as f64 / 2.0
                            }
                        };
                        let body = self.body("loop body")?;
                        items.push(Program::variable_loop(
                            BasicBlock::new(name, header_cost),
                            bound,
                            min,
                            avg,
                            Program::Seq(body),
                        ));
                    }
                    "if" => {
                        self.pos += 1;
                        let name = self.ident("branch name")?;
                        let cond_cost = self.cost("branch condition cost")?;
                        let p_key = self.ident("`p=PROB`")?;
                        if p_key != "p" {
                            return Err(self.err_here("expected `p=PROB` after branch cost"));
                        }
                        let p = self.keyed_number("p")?;
                        let then_branch = self.body("then-arm")?;
                        let else_kw = self.ident("`else`")?;
                        if else_kw != "else" {
                            return Err(self.err_here("expected `else`"));
                        }
                        let else_branch = self.body("else-arm")?;
                        items.push(Program::branch(
                            BasicBlock::new(name, cond_cost),
                            Program::Seq(then_branch),
                            Program::Seq(else_branch),
                            p,
                        ));
                    }
                    other => {
                        return Err(self.err_here(format!(
                            "expected `block`, `loop` or `if`, found `{other}`"
                        )))
                    }
                },
                Some(other) => {
                    return Err(self.err_here(format!("expected a statement, found {other:?}")))
                }
            }
        }
    }
}

/// Parses DSL source into a validated [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] with line/column on syntax errors, including
/// bodies nested more than 128 levels deep; semantic
/// violations (probabilities out of range, `min > bound`) surface through
/// [`Program::validate`] as [`ExecError::InvalidProgram`].
///
/// # Example
///
/// ```
/// use mc_exec::parse::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program("block a 3; loop l 1 bound=4 { block b 2; }")?;
/// assert_eq!(p.wcet()?, 3 + 5 * 1 + 4 * 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_program(src: &str) -> Result<Program, ExecError> {
    let toks = tokenize(src)?;
    let mut parser = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let items = parser.sequence(false)?;
    let program = Program::Seq(items);
    program.validate()?;
    Ok(program)
}

/// Pretty-prints a [`Program`] in the DSL syntax; `parse_program` of the
/// result reproduces the tree (modulo `Seq` nesting, which is flattened).
pub fn to_source(program: &Program) -> String {
    let mut out = String::new();
    emit(program, 0, &mut out);
    out
}

fn emit(program: &Program, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    match program {
        Program::Block(b) => {
            let _ = writeln!(out, "{pad}block {} {};", b.name, b.cost);
        }
        Program::Seq(parts) => {
            for p in parts {
                emit(p, indent, out);
            }
        }
        Program::Branch {
            cond,
            then_branch,
            else_branch,
            taken_probability,
        } => {
            let _ = writeln!(
                out,
                "{pad}if {} {} p={} {{",
                cond.name, cond.cost, taken_probability
            );
            emit(then_branch, indent + 1, out);
            let _ = writeln!(out, "{pad}}} else {{");
            emit(else_branch, indent + 1, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Program::Loop {
            header,
            bound,
            min_iterations,
            avg_iterations,
            body,
        } => {
            let _ = writeln!(
                out,
                "{pad}loop {} {} bound={} min={} avg={} {{",
                header.name, header.cost, bound, min_iterations, avg_iterations
            );
            emit(body, indent + 1, out);
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcet::analyze;

    #[test]
    fn parses_single_block() {
        let p = parse_program("block setup 42;").unwrap();
        assert_eq!(p.wcet().unwrap(), 42);
    }

    #[test]
    fn parses_loop_with_defaults() {
        let p = parse_program("loop l 2 bound=10 { block b 7; }").unwrap();
        assert_eq!(p.wcet().unwrap(), 11 * 2 + 10 * 7);
        assert_eq!(p.bcet().unwrap(), 2); // min defaults to 0
        assert!((p.acet_estimate() - (6.0 * 2.0 + 5.0 * 7.0)).abs() < 1e-9);
    }

    #[test]
    fn parses_branch() {
        let p = parse_program("if cond 1 p=0.25 { block t 10; } else { block e 4; }").unwrap();
        assert_eq!(p.wcet().unwrap(), 11);
        assert_eq!(p.bcet().unwrap(), 5);
        assert!((p.acet_estimate() - (1.0 + 0.25 * 10.0 + 0.75 * 4.0)).abs() < 1e-9);
    }

    #[test]
    fn parses_nested_structure_with_comments() {
        let src = "
            # image kernel
            block init 120;
            loop rows 4 bound=64 min=64 avg=64 {
                if check 2 p=0.8 {
                    block filter 180; # expensive path
                } else {
                    block copy 12;
                }
            }
            block commit 40;
        ";
        let p = parse_program(src).unwrap();
        // Matches the hand-built program in examples/wcet_analysis.rs.
        assert_eq!(p.wcet().unwrap(), 120 + 65 * 4 + 64 * (2 + 180) + 40);
        // The full analyser accepts it (tree and CFG agree).
        assert!(analyze(&p).is_ok());
    }

    #[test]
    fn underscores_in_numbers_are_allowed() {
        let p = parse_program("block big 1_000_000;").unwrap();
        assert_eq!(p.wcet().unwrap(), 1_000_000);
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let err = parse_program("block a 1;\nblock b ;").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("2:"), "position missing: {text}");

        let err = parse_program("loop l 1 { block b 2; }").unwrap_err();
        assert!(err.to_string().contains("bound"), "{err}");

        let err = parse_program("if c 1 p=0.5 { block t 1; }").unwrap_err();
        assert!(err.to_string().contains("else"), "{err}");

        let err = parse_program("widget w 3;").unwrap_err();
        assert!(err.to_string().contains("block"), "{err}");

        let err = parse_program("block a 1; }").unwrap_err();
        assert!(err.to_string().contains("statement"), "{err}");

        let err = parse_program("block a 1.5;").unwrap_err();
        assert!(err.to_string().contains("integer"), "{err}");

        let err = parse_program("block a @;").unwrap_err();
        assert!(err.to_string().contains("unexpected character"), "{err}");
    }

    #[test]
    fn loop_counts_must_be_64_bit_integers() {
        for src in [
            "loop l 1 bound=1e30 { block b 2; }",
            "loop l 1 bound=2.5 { block b 2; }",
            "loop l 1 bound=4 min=0.5 { block b 2; }",
            "loop l 1 bound=4 min=1e20 { block b 2; }",
        ] {
            let err = parse_program(src).unwrap_err();
            assert!(err.to_string().contains("integer"), "{src}: {err}");
        }
        // Both counts fit 64 bits, but the default average's sum does not.
        let src = "loop l 1 bound=1.8e19 min=1.8e19 { block b 2; }";
        let err = parse_program(src).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn costs_past_64_bits_are_an_error() {
        let p = parse_program("loop l 1 bound=1e19 { block b 2; }").unwrap();
        assert_eq!(p.wcet(), Err(ExecError::CostOverflow));
        assert_eq!(p.bcet(), Ok(1));
        let p = parse_program("loop l 1 bound=1e19 min=1e19 avg=1e19 { block b 2; }").unwrap();
        assert_eq!(p.bcet(), Err(ExecError::CostOverflow));
        assert_eq!(
            crate::wcet::analyze(&p).unwrap_err(),
            ExecError::CostOverflow
        );
    }

    #[test]
    fn semantic_errors_come_from_validate() {
        let err = parse_program("if c 1 p=1.5 { block t 1; } else { block e 1; }").unwrap_err();
        assert!(matches!(err, ExecError::InvalidProgram { .. }));

        let err = parse_program("loop l 1 bound=3 min=5 { block b 1; }").unwrap_err();
        assert!(matches!(err, ExecError::InvalidProgram { .. }));
    }

    #[test]
    fn print_parse_round_trip() {
        let src = "
            block init 5;
            loop outer 2 bound=10 min=1 avg=4 {
                if c 1 p=0.5 {
                    loop inner 1 bound=3 min=3 avg=3 { block ib 4; }
                } else {
                    block fast 2;
                }
                block tail 1;
            }
        ";
        let p1 = parse_program(src).unwrap();
        let printed = to_source(&p1);
        let p2 = parse_program(&printed).unwrap();
        // Round trip preserves all three analyses.
        assert_eq!(p1.wcet(), p2.wcet());
        assert_eq!(p1.bcet(), p2.bcet());
        assert!((p1.acet_estimate() - p2.acet_estimate()).abs() < 1e-9);
        // And printing again is a fixpoint.
        assert_eq!(printed, to_source(&p2));
    }

    #[test]
    fn nesting_is_capped_at_128_levels() {
        let nested = |levels: usize| {
            let open = "loop l 1 bound=1 {\n".repeat(levels);
            format!("{open}block b 1;{}", "}".repeat(levels))
        };
        assert!(parse_program(&nested(MAX_DEPTH)).is_ok());
        // The error points at the opening `{` of level 129.
        let err = parse_program(&nested(MAX_DEPTH + 1))
            .unwrap_err()
            .to_string();
        assert!(err.contains("at 129:18"), "{err}");
        assert!(err.contains("more than 128 levels"), "{err}");
        assert!(parse_program(&nested(50_000)).is_err());
    }

    #[test]
    fn empty_source_is_an_empty_program() {
        let p = parse_program("  # nothing but a comment\n").unwrap();
        assert_eq!(p.wcet().unwrap(), 0);
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, FaultRng, PropConfig};

        /// A random program nesting `depth` levels of sequences,
        /// branches and loops over single blocks.
        fn arb_program(rng: &mut FaultRng, depth: usize) -> Program {
            if depth == 0 {
                return Program::block("b", rng.below(100));
            }
            match rng.below(3) {
                0 => {
                    let n = rng.range_u64(1, 2);
                    Program::seq((0..n).map(|_| arb_program(rng, depth - 1)))
                }
                1 => {
                    let (t, e) = (arb_program(rng, depth - 1), arb_program(rng, depth - 1));
                    Program::branch(BasicBlock::new("c", rng.below(20)), t, e, 0.5)
                }
                _ => {
                    let b = arb_program(rng, depth - 1);
                    let (bound, c) = (rng.below(8), rng.below(20));
                    Program::variable_loop(BasicBlock::new("h", c), bound, 0, bound as f64 / 2.0, b)
                }
            }
        }

        #[test]
        fn print_then_parse_preserves_analyses() {
            assert_prop(
                &PropConfig::named("print_then_parse_preserves_analyses"),
                // A program seed and its depth, which shrinks toward a
                // single block.
                |rng| (rng.next_u64(), 3usize),
                |&(seed, depth)| {
                    let p = arb_program(&mut FaultRng::new(seed), depth);
                    let src = to_source(&p);
                    let back = parse_program(&src).unwrap();
                    assert_eq!(back.wcet(), p.wcet());
                    assert_eq!(back.bcet(), p.bcet());
                    assert!((back.acet_estimate() - p.acet_estimate()).abs() < 1e-9);
                    Ok(())
                },
            );
        }
    }
}
