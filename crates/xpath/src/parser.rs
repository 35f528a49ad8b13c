//! Recursive-descent parser for the XPath subset.

use std::fmt;

use crate::ast::{Axis, CmpOp, Expr, LocationPath, NodeTest, Step, Value};
use crate::lexer::{tokenize, LexError, Token};

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.to_string() }
    }
}

/// How deep an expression may nest. Each predicate, parenthesis,
/// function argument and `not(…)` is one level, and so is every operand
/// of an `or`/`and` chain after the first (a chain is left-nested in the
/// AST). The parser and every later walk of the AST recurse once per
/// level, so the bound is what keeps a hostile query line from
/// overflowing a thread's stack.
pub const MAX_DEPTH: usize = 64;

/// Parses an XPath location path.
pub fn parse(input: &str) -> Result<LocationPath, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0, depth: 0 };
    let path = parser.location_path()?;
    if parser.pos != parser.tokens.len() {
        return Err(ParseError {
            message: format!("trailing tokens starting at {}", parser.tokens[parser.pos]),
        });
    }
    if path.steps.is_empty() && !path.absolute {
        return Err(ParseError { message: "empty expression".into() });
    }
    Ok(path)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at `pos` (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(ParseError {
                message: match self.peek() {
                    Some(found) => format!("expected {t}, found {found}"),
                    None => format!("expected {t}, found end of input"),
                },
            })
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { message: message.into() })
    }

    /// Opens one more nesting level; refuses one past [`MAX_DEPTH`].
    fn deeper(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(format!("expression nested deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn location_path(&mut self) -> Result<LocationPath, ParseError> {
        let mut steps = Vec::new();
        let absolute = match self.peek() {
            Some(Token::Slash) => {
                self.pos += 1;
                true
            }
            Some(Token::DoubleSlash) => {
                self.pos += 1;
                steps.push(descendant_or_self_node());
                true
            }
            _ => false,
        };
        // `/` on its own selects the root.
        if absolute && !self.starts_step() {
            return Ok(LocationPath { absolute, steps });
        }
        steps.push(self.step()?);
        loop {
            match self.peek() {
                Some(Token::Slash) => {
                    self.pos += 1;
                    steps.push(self.step()?);
                }
                Some(Token::DoubleSlash) => {
                    self.pos += 1;
                    steps.push(descendant_or_self_node());
                    steps.push(self.step()?);
                }
                _ => break,
            }
        }
        Ok(LocationPath { absolute, steps })
    }

    fn starts_step(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Token::Name(_) | Token::Star | Token::At | Token::Dot | Token::DotDot
            )
        )
    }

    fn step(&mut self) -> Result<Step, ParseError> {
        // Abbreviations first.
        if self.eat(&Token::Dot) {
            return Ok(Step { axis: Axis::SelfAxis, test: NodeTest::AnyNode, predicates: vec![] });
        }
        if self.eat(&Token::DotDot) {
            return Ok(Step { axis: Axis::Parent, test: NodeTest::AnyNode, predicates: vec![] });
        }
        let axis = if self.eat(&Token::At) {
            Axis::Attribute
        } else if let Some(Token::Name(name)) = self.peek() {
            // Look ahead for `axis::`.
            if self.tokens.get(self.pos + 1) == Some(&Token::DoubleColon) {
                let axis = Axis::from_name(name)
                    .ok_or_else(|| ParseError { message: format!("unknown axis {name:?}") })?;
                self.pos += 2;
                axis
            } else {
                Axis::Child
            }
        } else {
            Axis::Child
        };
        let test = self.node_test()?;
        let mut predicates = Vec::new();
        while self.eat(&Token::LBracket) {
            predicates.push(self.expr()?);
            self.expect(&Token::RBracket)?;
        }
        Ok(Step { axis, test, predicates })
    }

    fn node_test(&mut self) -> Result<NodeTest, ParseError> {
        match self.bump() {
            Some(Token::Star) => Ok(NodeTest::Wildcard),
            Some(Token::Name(name)) => {
                // Node-type tests are names followed by `(`.
                if self.peek() == Some(&Token::LParen) {
                    match name.as_str() {
                        "text" => {
                            self.pos += 1;
                            self.expect(&Token::RParen)?;
                            Ok(NodeTest::Text)
                        }
                        "node" => {
                            self.pos += 1;
                            self.expect(&Token::RParen)?;
                            Ok(NodeTest::AnyNode)
                        }
                        "comment" => {
                            self.pos += 1;
                            self.expect(&Token::RParen)?;
                            Ok(NodeTest::Comment)
                        }
                        "processing-instruction" => {
                            self.pos += 1;
                            let target = if let Some(Token::Literal(t)) = self.peek() {
                                let t = t.clone();
                                self.pos += 1;
                                Some(t)
                            } else {
                                None
                            };
                            self.expect(&Token::RParen)?;
                            Ok(NodeTest::ProcessingInstruction(target))
                        }
                        other => self.err(format!("unknown node test {other}()")),
                    }
                } else {
                    Ok(NodeTest::Name(name))
                }
            }
            Some(t) => self.err(format!("expected a node test, found {t}")),
            None => self.err("expected a node test, found end of input"),
        }
    }

    // Expr ::= AndExpr ('or' AndExpr)*
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.depth;
        self.deeper()?;
        let mut left = self.and_expr()?;
        while self.peek() == Some(&Token::Name("or".into())) {
            self.pos += 1;
            self.deeper()?;
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        self.depth = outer;
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.depth;
        let mut left = self.unary_expr()?;
        while self.peek() == Some(&Token::Name("and".into())) {
            self.pos += 1;
            self.deeper()?;
            let right = self.unary_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        self.depth = outer;
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(&Token::Name("not".into()))
            && self.tokens.get(self.pos + 1) == Some(&Token::LParen)
        {
            self.pos += 2;
            let inner = self.expr()?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        // Two-argument boolean string functions.
        for (fn_name, make) in [
            ("contains", Expr::Contains as fn(Value, Value) -> Expr),
            ("starts-with", Expr::StartsWith as fn(Value, Value) -> Expr),
        ] {
            if self.peek() == Some(&Token::Name(fn_name.into()))
                && self.tokens.get(self.pos + 1) == Some(&Token::LParen)
            {
                self.pos += 2;
                let a = self.value()?;
                self.expect(&Token::Comma)?;
                let b = self.value()?;
                self.expect(&Token::RParen)?;
                return Ok(make(a, b));
            }
        }
        if self.eat(&Token::LParen) {
            let inner = self.expr()?;
            self.expect(&Token::RParen)?;
            return Ok(inner);
        }
        let left = self.value()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let right = self.value()?;
                Ok(Expr::Comparison { left, op, right })
            }
            None => Ok(Expr::Exists(left)),
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        let outer = self.depth;
        self.deeper()?;
        let value = match self.peek().cloned() {
            Some(Token::Literal(s)) => {
                self.pos += 1;
                Ok(Value::Literal(s))
            }
            Some(Token::Number(n)) => {
                self.pos += 1;
                Ok(Value::Number(n))
            }
            Some(Token::At) => {
                self.pos += 1;
                match self.bump() {
                    Some(Token::Name(name)) => Ok(Value::Attribute(name)),
                    Some(t) => self.err(format!("expected an attribute name, found {t}")),
                    None => self.err("expected an attribute name"),
                }
            }
            Some(Token::Name(name)) if name == "position" => {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2;
                    self.expect(&Token::RParen)?;
                    Ok(Value::Position)
                } else {
                    self.path_value()
                }
            }
            Some(Token::Name(name)) if name == "last" => {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2;
                    self.expect(&Token::RParen)?;
                    Ok(Value::Last)
                } else {
                    self.path_value()
                }
            }
            Some(Token::Name(name)) if name == "string-length" => {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2;
                    let inner = self.value()?;
                    self.expect(&Token::RParen)?;
                    Ok(Value::StringLength(Box::new(inner)))
                } else {
                    self.path_value()
                }
            }
            Some(Token::Name(name)) if name == "name" => {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2;
                    self.expect(&Token::RParen)?;
                    Ok(Value::Name)
                } else {
                    self.path_value()
                }
            }
            Some(Token::Name(name)) if name == "count" => {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2;
                    let path = self.location_path()?;
                    self.expect(&Token::RParen)?;
                    Ok(Value::Count(path))
                } else {
                    self.path_value()
                }
            }
            Some(
                Token::Name(_) | Token::Star | Token::Dot | Token::DotDot | Token::Slash
                | Token::DoubleSlash,
            ) => self.path_value(),
            Some(t) => self.err(format!("expected a value, found {t}")),
            None => self.err("expected a value, found end of input"),
        };
        self.depth = outer;
        value
    }

    fn path_value(&mut self) -> Result<Value, ParseError> {
        Ok(Value::Path(self.location_path()?))
    }
}

fn descendant_or_self_node() -> Step {
    Step { axis: Axis::DescendantOrSelf, test: NodeTest::AnyNode, predicates: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_absolute_path() {
        let p = parse("/site/open_auctions/open_auction").unwrap();
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[0].axis, Axis::Child);
        assert_eq!(p.steps[0].test, NodeTest::Name("site".into()));
    }

    #[test]
    fn parse_double_slash_expands() {
        let p = parse("//item").unwrap();
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::AnyNode);
        assert_eq!(p.steps[1].axis, Axis::Child);
    }

    #[test]
    fn parse_inner_double_slash() {
        let p = parse("site//name").unwrap();
        assert!(!p.absolute);
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[1].axis, Axis::DescendantOrSelf);
    }

    #[test]
    fn parse_verbose_axes() {
        for (src, axis) in [
            ("ancestor::a", Axis::Ancestor),
            ("ancestor-or-self::a", Axis::AncestorOrSelf),
            ("descendant::a", Axis::Descendant),
            ("following-sibling::a", Axis::FollowingSibling),
            ("preceding-sibling::a", Axis::PrecedingSibling),
            ("following::a", Axis::Following),
            ("preceding::a", Axis::Preceding),
            ("self::a", Axis::SelfAxis),
            ("parent::a", Axis::Parent),
            ("child::a", Axis::Child),
        ] {
            let p = parse(src).unwrap();
            assert_eq!(p.steps[0].axis, axis, "{src}");
        }
    }

    #[test]
    fn parse_abbreviations() {
        let p = parse("../child/.").unwrap();
        assert_eq!(p.steps[0].axis, Axis::Parent);
        assert_eq!(p.steps[2].axis, Axis::SelfAxis);
        let p = parse("@id").unwrap();
        assert_eq!(p.steps[0].axis, Axis::Attribute);
        assert_eq!(p.steps[0].test, NodeTest::Name("id".into()));
    }

    #[test]
    fn parse_node_tests() {
        assert_eq!(parse("text()").unwrap().steps[0].test, NodeTest::Text);
        assert_eq!(parse("node()").unwrap().steps[0].test, NodeTest::AnyNode);
        assert_eq!(parse("comment()").unwrap().steps[0].test, NodeTest::Comment);
        assert_eq!(
            parse("processing-instruction('x')").unwrap().steps[0].test,
            NodeTest::ProcessingInstruction(Some("x".into()))
        );
        assert_eq!(parse("*").unwrap().steps[0].test, NodeTest::Wildcard);
    }

    #[test]
    fn parse_positional_predicate() {
        let p = parse("item[3]").unwrap();
        assert_eq!(p.steps[0].predicates, vec![Expr::Exists(Value::Number(3.0))]);
    }

    #[test]
    fn parse_attribute_comparison() {
        let p = parse("item[@id='item5']").unwrap();
        assert_eq!(
            p.steps[0].predicates[0],
            Expr::Comparison {
                left: Value::Attribute("id".into()),
                op: CmpOp::Eq,
                right: Value::Literal("item5".into()),
            }
        );
    }

    #[test]
    fn parse_boolean_connectives() {
        let p = parse("a[b and not(c) or d]").unwrap();
        match &p.steps[0].predicates[0] {
            Expr::Or(left, _) => match left.as_ref() {
                Expr::And(_, r) => assert!(matches!(r.as_ref(), Expr::Not(_))),
                other => panic!("expected And, got {other:?}"),
            },
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn parse_path_comparison() {
        let p = parse("open_auction[bidder/increase > 15]").unwrap();
        match &p.steps[0].predicates[0] {
            Expr::Comparison { left: Value::Path(path), op: CmpOp::Gt, .. } => {
                assert_eq!(path.steps.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_functions() {
        let p = parse("a[position() = 2]").unwrap();
        assert!(matches!(
            p.steps[0].predicates[0],
            Expr::Comparison { left: Value::Position, .. }
        ));
        let p = parse("a[last()]").unwrap();
        assert!(matches!(p.steps[0].predicates[0], Expr::Exists(Value::Last)));
        let p = parse("a[count(b) >= 2]").unwrap();
        assert!(matches!(
            p.steps[0].predicates[0],
            Expr::Comparison { left: Value::Count(_), .. }
        ));
    }

    #[test]
    fn parse_root_only() {
        let p = parse("/").unwrap();
        assert!(p.absolute);
        assert!(p.steps.is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(parse("").is_err());
        assert!(parse("a[").is_err());
        assert!(parse("a]").is_err());
        assert!(parse("unknown-axis::a").is_err());
        assert!(parse("a[blah()]").is_err());
        assert!(parse("a b").is_err());
    }

    /// `//a[` + `open` × n + `b` + `close` × n + `]`.
    fn nested(n: usize, open: &str, close: &str) -> String {
        format!("//a[{}b{}]", open.repeat(n), close.repeat(n))
    }

    /// `//a[b op b op …]` with `terms` operands.
    fn chain(terms: usize, op: &str) -> String {
        format!("//a[{}]", vec!["b"; terms].join(op))
    }

    /// `query(at_bound)` parses and `query(at_bound + 1)` is refused.
    fn assert_bound(shape: &str, query: impl Fn(usize) -> String, at_bound: usize) {
        let at = query(at_bound);
        assert!(parse(&at).is_ok(), "{shape} at the bound: {:?}", parse(&at));
        let err = parse(&query(at_bound + 1)).expect_err(shape);
        assert!(err.message.contains("nested deeper than 64"), "{shape}: {err}");
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        // A predicate level opens an expression and a path value: two
        // levels each. The innermost `b` is the last value.
        assert_bound("predicates", |n| nested(n - 1, "b[", "]"), MAX_DEPTH / 2);
        assert_bound("parens", |n| nested(n, "(", ")"), MAX_DEPTH - 2);
        assert_bound("not", |n| nested(n, "not(", ")"), MAX_DEPTH - 2);
        assert_bound("or", |n| chain(n, " or "), MAX_DEPTH - 1);
        assert_bound("and", |n| chain(n, " and "), MAX_DEPTH - 1);
    }

    #[test]
    fn siblings_do_not_add_up() {
        // Depth is what is open at once: many shallow predicates, steps
        // and comparisons parse however many there are.
        let steps = vec!["b[c][d = 1][not(e)]"; 200].join("/");
        assert!(parse(&format!("/a/{steps}")).is_ok());
        let wide = vec!["(b and c)"; 40].join(" or ");
        assert!(parse(&format!("//a[{wide}]")).is_ok());
    }

    #[test]
    fn element_named_like_keyword() {
        // `position`, `not` etc. without parens are element names.
        let p = parse("not/position/last").unwrap();
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[0].test, NodeTest::Name("not".into()));
    }
}
