//! Abstract syntax for the supported XPath subset.

use std::fmt;

/// A location path: `steps` applied left to right; `absolute` paths start at
/// the document root rather than the context node.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationPath {
    /// Leading `/` or `//`.
    pub absolute: bool,
    /// The steps, in order.
    pub steps: Vec<Step>,
}

/// One location step: `axis::test[predicate]*`.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis the step walks.
    pub axis: Axis,
    /// The node test filtering the axis.
    pub test: NodeTest,
    /// Zero or more predicates, applied in order.
    pub predicates: Vec<Expr>,
}

/// The positional XPath axes (Section 3.5 scope: "-or-self" variants are
/// included because `//` abbreviates through `descendant-or-self`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Direct children.
    Child,
    /// All strict descendants.
    Descendant,
    /// The node plus all strict descendants.
    DescendantOrSelf,
    /// The parent.
    Parent,
    /// All strict ancestors.
    Ancestor,
    /// The node plus all strict ancestors.
    AncestorOrSelf,
    /// Nodes after the context node in document order, minus descendants.
    Following,
    /// Nodes before the context node in document order, minus ancestors.
    Preceding,
    /// Later siblings.
    FollowingSibling,
    /// Earlier siblings.
    PrecedingSibling,
    /// The context node itself.
    SelfAxis,
    /// Attributes (usable inside predicates via `@name`).
    Attribute,
}

impl Axis {
    /// Number of axes (the size of per-axis counter arrays).
    pub const COUNT: usize = 12;

    /// Every axis, indexed by [`Axis::index`].
    pub const ALL: [Axis; Axis::COUNT] = [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Parent,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::Following,
        Axis::Preceding,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::SelfAxis,
        Axis::Attribute,
    ];

    /// A dense index in `0..Axis::COUNT`, aligned with [`Axis::ALL`].
    pub fn index(self) -> usize {
        match self {
            Axis::Child => 0,
            Axis::Descendant => 1,
            Axis::DescendantOrSelf => 2,
            Axis::Parent => 3,
            Axis::Ancestor => 4,
            Axis::AncestorOrSelf => 5,
            Axis::Following => 6,
            Axis::Preceding => 7,
            Axis::FollowingSibling => 8,
            Axis::PrecedingSibling => 9,
            Axis::SelfAxis => 10,
            Axis::Attribute => 11,
        }
    }

    /// The axis name as written in verbose syntax.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::SelfAxis => "self",
            Axis::Attribute => "attribute",
        }
    }

    /// Parses a verbose axis name.
    pub fn from_name(name: &str) -> Option<Axis> {
        Some(match name {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "self" => Axis::SelfAxis,
            "attribute" => Axis::Attribute,
            _ => return None,
        })
    }

    /// Whether results of this axis arrive in reverse document order (XPath
    /// proximity order for ancestor/preceding axes).
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf
                | Axis::Preceding | Axis::PrecedingSibling
        )
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A node test.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// `name` — elements (or attributes) with this name.
    Name(String),
    /// `*` — any element (or any attribute).
    Wildcard,
    /// `text()`.
    Text,
    /// `node()` — any node.
    AnyNode,
    /// `comment()`.
    Comment,
    /// `processing-instruction()` / `processing-instruction('target')`.
    ProcessingInstruction(Option<String>),
}

/// A predicate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `a or b`.
    Or(Box<Expr>, Box<Expr>),
    /// `a and b`.
    And(Box<Expr>, Box<Expr>),
    /// `not(e)`.
    Not(Box<Expr>),
    /// `contains(a, b)` — substring test on string values.
    Contains(Value, Value),
    /// `starts-with(a, b)` — prefix test on string values.
    StartsWith(Value, Value),
    /// `left op right`.
    Comparison {
        /// Left operand.
        left: Value,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Value,
    },
    /// Bare value: a number means a position test, a path/attribute means an
    /// existence test.
    Exists(Value),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether `a op b` holds for two numbers (IEEE semantics: every
    /// operator but `!=` is false when either side is NaN).
    pub fn holds(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// An operand inside a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A relative path, evaluated from the predicate's context node.
    Path(LocationPath),
    /// `@name` — an attribute of the context node.
    Attribute(String),
    /// A quoted string.
    Literal(String),
    /// A number; bare numbers in predicates are position tests.
    Number(f64),
    /// `position()`.
    Position,
    /// `last()`.
    Last,
    /// `count(path)`.
    Count(LocationPath),
    /// `string-length(v)` — character count of the string value.
    StringLength(Box<Value>),
    /// `name()` — the context node's tag name.
    Name,
}
