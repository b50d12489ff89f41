//! Recursive-descent parser for the Bayonet language.

use bayonet_num::{BigInt, Rat};

use crate::ast::*;
use crate::error::LangError;
use crate::lexer::lex;
use crate::token::{Keyword as Kw, Span, Tok, Token};

/// Parses a complete Bayonet source file.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its source position.
///
/// # Examples
///
/// ```
/// use bayonet_lang::parse;
///
/// let program = parse(r#"
///     packet_fields { dst }
///     topology {
///         nodes { H0, H1 }
///         links { (H0, pt1) <-> (H1, pt1) }
///     }
///     programs { H0 -> h0, H1 -> h1 }
///     init { packet -> (H0, pt1); }
///     query probability(got@H1 == 1);
///     def h0(pkt, pt) { fwd(1); }
///     def h1(pkt, pt) state got(0) { got = 1; drop; }
/// "#)?;
/// assert_eq!(program.topology.nodes.len(), 2);
/// # Ok::<(), bayonet_lang::LangError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, LangError> {
    let tokens = lex(src)?;
    Parser::new(tokens).program()
}

/// Parses a single expression (useful for tests and query strings).
pub fn parse_expr(src: &str) -> Result<Expr, LangError> {
    let mut p = Parser::new(lex(src)?);
    let e = p.expr()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

/// Deepest nesting the parser accepts. Parenthesized and call-argument
/// expressions, `not` and unary `-` operators, and statement blocks
/// (`else if` links included) each add a level while they are open. The
/// parser and every later stage walk these recursively, so the bound keeps
/// any source, however hostile, from overflowing the stack of the thread
/// that handles it; past it, parsing fails with an ordinary parse error.
pub const MAX_NESTING: usize = 64;

/// Most binary operators one complete expression (a statement operand,
/// initializer, condition or query) may hold, counting those inside its
/// parentheses. The parser reads operator chains in a loop, but a chain
/// nests the syntax tree as deeply as it is long and later stages walk the
/// tree recursively, so chains get this bound of their own. On a 2 MiB
/// thread, a debug build ran 256 `and`s under 62 nested `if`s through
/// every engine but SMC, which overflowed; release builds first overflow
/// between 2,560 and 3,072 operators. The bound is half the smallest chain
/// that overflowed.
pub const MAX_OPERATORS: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
    /// Binary operators so far in the current expression (see
    /// [`MAX_OPERATORS`]).
    operators: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            operators: 0,
        }
    }

    /// Enters one more nesting level, failing past [`MAX_NESTING`].
    fn deepen(&mut self) -> Result<(), LangError> {
        if self.depth == MAX_NESTING {
            return Err(LangError::parse(
                format!("nesting deeper than {MAX_NESTING} levels"),
                self.span(),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        self.deepen()?;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Counts one more binary operator in the current expression, failing
    /// past [`MAX_OPERATORS`].
    fn operator(&mut self) -> Result<(), LangError> {
        if self.operators == MAX_OPERATORS {
            return Err(LangError::parse(
                format!("more than {MAX_OPERATORS} binary operators in one expression"),
                self.span(),
            ));
        }
        self.operators += 1;
        Ok(())
    }

    /// An expression inside parentheses or call arguments: one level
    /// deeper, and its binary operators count for the enclosing expression.
    fn inner_expr(&mut self) -> Result<Expr, LangError> {
        self.nested(Parser::or_expr)
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Token, LangError> {
        if *self.peek() == tok {
            Ok(self.bump())
        } else {
            Err(LangError::parse(
                format!("expected {tok}, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    fn ident(&mut self) -> Result<Ident, LangError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                let span = self.span();
                self.bump();
                Ok(Ident { name, span })
            }
            other => Err(LangError::parse(
                format!("expected an identifier, found {other}"),
                self.span(),
            )),
        }
    }

    fn int(&mut self) -> Result<u64, LangError> {
        match self.peek().clone() {
            Tok::Int(digits) => {
                let span = self.span();
                self.bump();
                digits
                    .parse::<u64>()
                    .map_err(|_| LangError::parse("integer literal too large", span))
            }
            other => Err(LangError::parse(
                format!("expected an integer, found {other}"),
                self.span(),
            )),
        }
    }

    /// A port written either as a bare integer or as `pt<N>`.
    fn port(&mut self) -> Result<u32, LangError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Int(_) => Ok(self.int()? as u32),
            Tok::Ident(name) if name.starts_with("pt") => {
                let digits = &name[2..];
                let n: u32 = digits
                    .parse()
                    .map_err(|_| LangError::parse(format!("invalid port `{name}`"), span))?;
                self.bump();
                Ok(n)
            }
            other => Err(LangError::parse(
                format!("expected a port (`ptN` or integer), found {other}"),
                span,
            )),
        }
    }

    fn program(&mut self) -> Result<Program, LangError> {
        let mut packet_fields = Vec::new();
        let mut parameters = Vec::new();
        let mut topology = None;
        let mut programs = Vec::new();
        let mut queue_capacity = None;
        let mut num_steps = None;
        let mut scheduler = None;
        let mut init = Vec::new();
        let mut queries = Vec::new();
        let mut defs = Vec::new();

        loop {
            let span = self.span();
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Kw(Kw::PacketFields) => {
                    self.bump();
                    packet_fields.extend(self.ident_block()?);
                }
                Tok::Kw(Kw::Parameters) => {
                    self.bump();
                    parameters.extend(self.ident_block()?);
                }
                Tok::Kw(Kw::Topology) => {
                    if topology.is_some() {
                        return Err(LangError::parse("duplicate topology block", span));
                    }
                    topology = Some(self.topology()?);
                }
                Tok::Kw(Kw::Programs) => {
                    self.bump();
                    self.expect(Tok::LBrace)?;
                    while !self.eat(Tok::RBrace) {
                        let node = self.ident()?;
                        self.expect(Tok::Arrow)?;
                        let prog = self.ident()?;
                        programs.push((node, prog));
                        if !self.eat(Tok::Comma) {
                            self.expect(Tok::RBrace)?;
                            break;
                        }
                    }
                }
                Tok::Kw(Kw::QueueCapacity) => {
                    self.bump();
                    if queue_capacity.is_some() {
                        return Err(LangError::parse("queue_capacity specified twice", span));
                    }
                    queue_capacity = Some(self.int()?);
                    self.expect(Tok::Semi)?;
                }
                Tok::Kw(Kw::NumSteps) => {
                    self.bump();
                    if num_steps.is_some() {
                        return Err(LangError::parse("num_steps specified twice", span));
                    }
                    num_steps = Some(self.int()?);
                    self.expect(Tok::Semi)?;
                }
                Tok::Kw(Kw::Scheduler) => {
                    self.bump();
                    if scheduler.is_some() {
                        return Err(LangError::parse("scheduler specified twice", span));
                    }
                    scheduler = Some(self.scheduler_spec()?);
                    self.expect(Tok::Semi)?;
                }
                Tok::Kw(Kw::Init) => {
                    self.bump();
                    self.expect(Tok::LBrace)?;
                    while !self.eat(Tok::RBrace) {
                        init.push(self.init_packet()?);
                    }
                }
                Tok::Kw(Kw::Query) => {
                    self.bump();
                    queries.push(self.query()?);
                    self.expect(Tok::Semi)?;
                }
                Tok::Kw(Kw::Def) => {
                    self.bump();
                    defs.push(self.node_def()?);
                }
                other => {
                    return Err(LangError::parse(
                        format!("expected a top-level declaration, found {other}"),
                        span,
                    ));
                }
            }
        }

        let topology =
            topology.ok_or_else(|| LangError::parse("missing topology block", self.span()))?;
        Ok(Program {
            packet_fields,
            parameters,
            topology,
            programs,
            queue_capacity,
            num_steps,
            scheduler: scheduler.unwrap_or(SchedulerSpec::Uniform),
            init,
            queries,
            defs,
        })
    }

    fn ident_block(&mut self) -> Result<Vec<Ident>, LangError> {
        self.expect(Tok::LBrace)?;
        let mut out = Vec::new();
        while !self.eat(Tok::RBrace) {
            out.push(self.ident()?);
            if !self.eat(Tok::Comma) {
                self.expect(Tok::RBrace)?;
                break;
            }
        }
        Ok(out)
    }

    fn topology(&mut self) -> Result<Topology, LangError> {
        self.expect(Tok::Kw(Kw::Topology))?;
        self.expect(Tok::LBrace)?;
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        while !self.eat(Tok::RBrace) {
            match self.peek().clone() {
                Tok::Kw(Kw::Nodes) => {
                    self.bump();
                    nodes.extend(self.ident_block()?);
                }
                Tok::Kw(Kw::Links) => {
                    self.bump();
                    self.expect(Tok::LBrace)?;
                    while !self.eat(Tok::RBrace) {
                        let a = self.endpoint()?;
                        self.expect(Tok::BiArrow)?;
                        let b = self.endpoint()?;
                        links.push(Link { a, b });
                        if !self.eat(Tok::Comma) {
                            self.expect(Tok::RBrace)?;
                            break;
                        }
                    }
                }
                other => {
                    return Err(LangError::parse(
                        format!("expected `nodes` or `links`, found {other}"),
                        self.span(),
                    ));
                }
            }
        }
        Ok(Topology { nodes, links })
    }

    fn endpoint(&mut self) -> Result<Endpoint, LangError> {
        self.expect(Tok::LParen)?;
        let node = self.ident()?;
        self.expect(Tok::Comma)?;
        let port = self.port()?;
        self.expect(Tok::RParen)?;
        Ok(Endpoint { node, port })
    }

    fn scheduler_spec(&mut self) -> Result<SchedulerSpec, LangError> {
        match self.peek().clone() {
            Tok::Kw(Kw::Uniform) => {
                self.bump();
                Ok(SchedulerSpec::Uniform)
            }
            Tok::Kw(Kw::RoundRobin) => {
                self.bump();
                Ok(SchedulerSpec::RoundRobin)
            }
            Tok::Kw(Kw::Rotor) => {
                self.bump();
                Ok(SchedulerSpec::Rotor)
            }
            Tok::Kw(Kw::Weighted) => {
                self.bump();
                self.expect(Tok::LBrace)?;
                let mut weights = Vec::new();
                while !self.eat(Tok::RBrace) {
                    let node = self.ident()?;
                    self.expect(Tok::Arrow)?;
                    let w = self.int()?;
                    weights.push((node, w));
                    if !self.eat(Tok::Comma) {
                        self.expect(Tok::RBrace)?;
                        break;
                    }
                }
                Ok(SchedulerSpec::Weighted(weights))
            }
            other => Err(LangError::parse(
                format!("expected `uniform`, `roundrobin`, `rotor`, or `weighted`, found {other}"),
                self.span(),
            )),
        }
    }

    fn init_packet(&mut self) -> Result<InitPacket, LangError> {
        self.expect(Tok::Kw(Kw::Packet))?;
        self.expect(Tok::Arrow)?;
        let ep = self.endpoint()?;
        let mut fields = Vec::new();
        if self.eat(Tok::LBrace) {
            while !self.eat(Tok::RBrace) {
                let field = self.ident()?;
                self.expect(Tok::Assign)?;
                let value = self.expr()?;
                fields.push((field, value));
                if !self.eat(Tok::Comma) {
                    self.expect(Tok::RBrace)?;
                    break;
                }
            }
        }
        self.expect(Tok::Semi)?;
        Ok(InitPacket {
            node: ep.node,
            port: ep.port,
            fields,
        })
    }

    fn query(&mut self) -> Result<Query, LangError> {
        match self.peek().clone() {
            Tok::Kw(Kw::Probability) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(Query::Probability(e))
            }
            Tok::Kw(Kw::Expectation) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(Query::Expectation(e))
            }
            other => Err(LangError::parse(
                format!("expected `probability` or `expectation`, found {other}"),
                self.span(),
            )),
        }
    }

    fn node_def(&mut self) -> Result<NodeDef, LangError> {
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let has_params = if self.eat(Tok::RParen) {
            false
        } else {
            self.expect(Tok::Kw(Kw::Pkt))?;
            self.expect(Tok::Comma)?;
            self.expect(Tok::Kw(Kw::Pt))?;
            self.expect(Tok::RParen)?;
            true
        };
        let mut state = Vec::new();
        if self.eat(Tok::Kw(Kw::State)) {
            loop {
                let var = self.ident()?;
                self.expect(Tok::LParen)?;
                let init = self.expr()?;
                self.expect(Tok::RParen)?;
                state.push((var, init));
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        let body = self.block()?;
        Ok(NodeDef {
            name,
            has_params,
            state,
            body,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect(Tok::LBrace)?;
        self.nested(|p| {
            let mut out = Vec::new();
            while !p.eat(Tok::RBrace) {
                out.push(p.stmt()?);
            }
            Ok(out)
        })
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Kw(Kw::New) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::New(span))
            }
            Tok::Kw(Kw::Drop) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Drop(span))
            }
            Tok::Kw(Kw::Dup) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Dup(span))
            }
            Tok::Kw(Kw::Skip) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Skip(span))
            }
            Tok::Kw(Kw::Fwd) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Fwd(e, span))
            }
            Tok::Kw(Kw::Assert) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Assert(e, span))
            }
            Tok::Kw(Kw::Observe) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Observe(e, span))
            }
            Tok::Kw(Kw::Pkt) => {
                self.bump();
                self.expect(Tok::Dot)?;
                let field = self.ident()?;
                self.expect(Tok::Assign)?;
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::FieldAssign(field, e))
            }
            Tok::Kw(Kw::If) => {
                self.bump();
                let cond = self.expr()?;
                let then_body = self.block()?;
                let else_body = if self.eat(Tok::Kw(Kw::Else)) {
                    if *self.peek() == Tok::Kw(Kw::If) {
                        vec![self.nested(Parser::stmt)?] // `else if` chain
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then_body, else_body))
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::While(cond, body))
            }
            Tok::Ident(_) => {
                let var = self.ident()?;
                self.expect(Tok::Assign)?;
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Assign(var, e))
            }
            other => Err(LangError::parse(
                format!("expected a statement, found {other}"),
                span,
            )),
        }
    }

    // ---- expressions (precedence climbing) ----

    /// A complete expression: a statement operand, query or initializer.
    fn expr(&mut self) -> Result<Expr, LangError> {
        self.operators = 0;
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.and_expr()?;
        while self.eat(Tok::Kw(Kw::Or)) {
            self.operator()?;
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.not_expr()?;
        while self.eat(Tok::Kw(Kw::And)) {
            self.operator()?;
            let rhs = self.not_expr()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, LangError> {
        let span = self.span();
        if self.eat(Tok::Kw(Kw::Not)) {
            let e = self.nested(Parser::not_expr)?;
            Ok(Expr::Not(Box::new(e), span))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr, LangError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        self.operator()?;
        let rhs = self.add_expr()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            self.operator()?;
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            self.operator()?;
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        let span = self.span();
        if self.eat(Tok::Minus) {
            let e = self.nested(Parser::unary_expr)?;
            Ok(Expr::Neg(Box::new(e), span))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Int(digits) => {
                self.bump();
                let n: BigInt = digits
                    .parse()
                    .map_err(|_| LangError::parse("invalid integer literal", span))?;
                Ok(Expr::Num(Rat::from(n), span))
            }
            Tok::LParen => {
                self.bump();
                let e = self.inner_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Kw(Kw::Flip) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let p = self.inner_expr()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::Flip(Box::new(p), span))
            }
            Tok::Kw(Kw::UniformInt) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let lo = self.inner_expr()?;
                self.expect(Tok::Comma)?;
                let hi = self.inner_expr()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::UniformInt(Box::new(lo), Box::new(hi), span))
            }
            Tok::Kw(Kw::Pkt) => {
                self.bump();
                self.expect(Tok::Dot)?;
                let field = self.ident()?;
                Ok(Expr::Field(field))
            }
            Tok::Kw(Kw::Pt) => {
                self.bump();
                Ok(Expr::Port(span))
            }
            Tok::Ident(_) => {
                let id = self.ident()?;
                if self.eat(Tok::At) {
                    let node = self.ident()?;
                    Ok(Expr::At(id, node))
                } else {
                    Ok(Expr::Name(id))
                }
            }
            other => Err(LangError::parse(
                format!("expected an expression, found {other}"),
                span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        let Expr::Binary(BinOp::Add, _, rhs) = e else {
            panic!("expected + at top")
        };
        assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));

        let e = parse_expr("a < b or a == b and flip(1/2)").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Or, _, _)));
    }

    #[test]
    fn comparison_binds_tighter_than_and() {
        let e = parse_expr("x == 1 and y == 2").unwrap();
        let Expr::Binary(BinOp::And, lhs, rhs) = e else {
            panic!()
        };
        assert!(matches!(*lhs, Expr::Binary(BinOp::Eq, _, _)));
        assert!(matches!(*rhs, Expr::Binary(BinOp::Eq, _, _)));
    }

    #[test]
    fn not_and_unary_minus() {
        assert!(matches!(parse_expr("not x").unwrap(), Expr::Not(_, _)));
        assert!(matches!(
            parse_expr("-x + 1").unwrap(),
            Expr::Binary(BinOp::Add, _, _)
        ));
        assert!(matches!(parse_expr("not not x").unwrap(), Expr::Not(_, _)));
    }

    #[test]
    fn at_expressions() {
        let e = parse_expr("pkt_cnt@H1 < 3").unwrap();
        let Expr::Binary(BinOp::Lt, lhs, _) = e else {
            panic!()
        };
        assert!(matches!(*lhs, Expr::At(_, _)));
    }

    #[test]
    fn fraction_literal_is_division() {
        let e = parse_expr("1/2").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Div, _, _)));
    }

    #[test]
    fn else_if_chain_desugars_to_nested_if() {
        let src = r#"
            topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
            programs { A -> a, B -> a }
            query probability(1 == 1);
            def a(pkt, pt) {
                if pt == 1 { fwd(3); }
                else if pt == 2 { fwd(1); }
                else { drop; }
            }
        "#;
        let p = parse(src).unwrap();
        let Stmt::If(_, _, else_body) = &p.defs[0].body[0] else {
            panic!()
        };
        assert_eq!(else_body.len(), 1);
        let Stmt::If(_, _, inner_else) = &else_body[0] else {
            panic!("else-if should nest")
        };
        assert_eq!(inner_else.len(), 1);
    }

    #[test]
    fn full_paper_example_parses() {
        let src = r#"
            packet_fields { dst }
            parameters { COST_01, COST_02, COST_21 }
            topology {
                nodes { H0, H1, S0, S1, S2 }
                links {
                    (H0, pt1) <-> (S0, pt3),
                    (S0, pt1) <-> (S1, pt1), (S0, pt2) <-> (S2, pt1),
                    (S1, pt2) <-> (S2, pt2), (S1, pt3) <-> (H1, pt1)
                }
            }
            programs { H0 -> h0, H1 -> h1, S0 -> s0, S1 -> s1, S2 -> s2 }
            queue_capacity 2;
            scheduler uniform;
            init { packet -> (H0, pt1); }
            query probability(pkt_cnt@H1 < 3);

            def h0(pkt, pt) state pkt_cnt(0) {
                if pkt_cnt < 3 {
                    new;
                    pkt.dst = H1;
                    fwd(1);
                    pkt_cnt = pkt_cnt + 1;
                } else { drop; }
            }
            def h1(pkt, pt) state pkt_cnt(0) {
                pkt_cnt = pkt_cnt + 1;
                drop;
            }
            def s2(pkt, pt) {
                if pt == 1 { fwd(2); } else { fwd(1); }
            }
            def s0(pkt, pt) state route1(0), route2(0) {
                if pt == 1 { fwd(3); }
                else if pt == 2 {
                    if pkt.dst == H0 { fwd(3); } else { fwd(1); }
                } else if pt == 3 {
                    route1 = COST_01;
                    route2 = COST_02 + COST_21;
                    if route1 < route2 or (route1 == route2 and flip(1/2)) {
                        fwd(1);
                    } else { fwd(2); }
                }
            }
            def s1(pkt, pt) state route1(0), route2(0) {
                if pt == 1 { fwd(3); }
                else if pt == 2 {
                    if pkt.dst == H1 { fwd(3); } else { fwd(1); }
                } else if pt == 3 {
                    route1 = COST_01;
                    route2 = COST_02 + COST_21;
                    if route1 < route2 or (route1 == route2 and flip(1/2)) {
                        fwd(1);
                    } else { fwd(2); }
                }
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.topology.nodes.len(), 5);
        assert_eq!(p.topology.links.len(), 5);
        assert_eq!(p.defs.len(), 5);
        assert_eq!(p.parameters.len(), 3);
        assert_eq!(p.queue_capacity, Some(2));
        assert_eq!(p.queries.len(), 1);
        assert_eq!(p.init.len(), 1);
    }

    #[test]
    fn init_with_field_values() {
        let src = r#"
            packet_fields { dst, id }
            topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
            programs { A -> a, B -> a }
            init {
                packet -> (A, pt1) { dst = B, id = 3 };
                packet -> (B, 1);
            }
            query expectation(x@A);
            def a(pkt, pt) state x(0) { drop; }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.init.len(), 2);
        assert_eq!(p.init[0].fields.len(), 2);
        assert_eq!(p.init[1].port, 1);
    }

    #[test]
    fn weighted_scheduler_spec() {
        let src = r#"
            topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
            programs { A -> a, B -> a }
            scheduler weighted { A -> 3, B -> 1 };
            query probability(1 == 1);
            def a(pkt, pt) { drop; }
        "#;
        let p = parse(src).unwrap();
        let SchedulerSpec::Weighted(w) = &p.scheduler else {
            panic!()
        };
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].1, 3);
    }

    #[test]
    fn duplicate_singletons_rejected() {
        let base = r#"
            topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
            programs { A -> a, B -> a }
            query probability(1 == 1);
            def a(pkt, pt) { drop; }
        "#;
        assert!(parse(&format!("queue_capacity 2; queue_capacity 3; {base}")).is_err());
        assert!(parse(&format!("num_steps 5; num_steps 6; {base}")).is_err());
        assert!(parse(&format!("scheduler uniform; scheduler uniform; {base}")).is_err());
    }

    #[test]
    fn missing_topology_is_an_error() {
        assert!(parse("query probability(1 == 1);").is_err());
    }

    #[test]
    fn def_without_params() {
        let src = r#"
            topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
            programs { A -> a, B -> a }
            query probability(1 == 1);
            def a() state n(0) { n = n + 1; drop; }
        "#;
        let p = parse(src).unwrap();
        assert!(!p.defs[0].has_params);
        assert_eq!(p.defs[0].state.len(), 1);
    }

    /// Asserts that `construct` repeated `bound` times parses and once more
    /// is a parse error with `message`.
    fn assert_bound(
        construct: &str,
        bound: usize,
        message: &str,
        parse_at: impl Fn(usize) -> Result<(), LangError>,
    ) {
        parse_at(bound).unwrap_or_else(|e| panic!("{construct} at the bound: {e}"));
        let err = parse_at(bound + 1).expect_err(construct);
        assert_eq!(err.phase(), crate::Phase::Parse, "{construct}: {err}");
        assert!(err.to_string().contains(message), "{construct}: {err}");
    }

    #[test]
    fn nesting_is_bounded_for_every_recursive_construct() {
        let nesting = format!("nesting deeper than {MAX_NESTING} levels");
        let bound = |construct: &str, parse_at: &dyn Fn(usize) -> Result<(), LangError>| {
            assert_bound(construct, MAX_NESTING, &nesting, parse_at)
        };
        let expr = |src: String| parse_expr(&src).map(drop);
        bound("(", &|n| {
            expr(format!("{}x{}", "(".repeat(n), ")".repeat(n)))
        });
        bound("not", &|n| expr(format!("{}x", "not ".repeat(n))));
        bound("unary -", &|n| expr(format!("{}x", "-".repeat(n))));
        // The handler body is the first level, each `if` block one more.
        bound("if", &|n| {
            let body = format!("{}drop;{}", "if x { ".repeat(n - 1), " }".repeat(n - 1));
            parse(&format!(
                "topology {{ nodes {{ A, B }} links {{ (A, pt1) <-> (B, pt1) }} }}
                 programs {{ A -> a, B -> a }}
                 query probability(1 == 1);
                 def a(pkt, pt) {{ {body} }}"
            ))
            .map(drop)
        });
    }

    #[test]
    fn binary_operators_per_expression_are_bounded() {
        let operators = format!("more than {MAX_OPERATORS} binary operators");
        let expr = |src: String| parse_expr(&src).map(drop);
        let chain = |n: usize, op: &str| vec!["x"; n + 1].join(op);
        for op in [" + ", " * ", " and ", " or "] {
            assert_bound(op, MAX_OPERATORS, &operators, |n| expr(chain(n, op)));
        }
        // Operators inside parentheses count for the enclosing expression.
        assert_bound("(+) +", MAX_OPERATORS, &operators, |n| {
            expr(format!("({}) + x", chain(n - 1, " + ")))
        });
        // Each statement is an expression of its own.
        let body = format!(
            "x = {}; x = {};",
            chain(MAX_OPERATORS, " + "),
            chain(MAX_OPERATORS, " - ")
        );
        parse(&format!(
            "topology {{ nodes {{ A, B }} links {{ (A, pt1) <-> (B, pt1) }} }}
             programs {{ A -> a, B -> a }}
             query probability(1 == 1);
             def a(pkt, pt) state x(0) {{ {body} drop; }}"
        ))
        .unwrap_or_else(|e| panic!("two chains at the bound: {e}"));
    }

    #[test]
    fn a_body_of_open_parens_is_a_parse_error_not_a_stack_overflow() {
        let err = parse_expr(&"(".repeat(1 << 16)).expect_err("unbalanced");
        assert!(err.to_string().contains("nesting deeper"), "{err}");
    }
}
