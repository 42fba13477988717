//! Recursive-descent parser for the DL frame syntax.
//!
//! The grammar follows the declarations shown in Figures 1, 3 and 5:
//!
//! ```text
//! model       ::= { class | attribute | queryclass }
//! class       ::= "Class" NAME [ "isA" names ] "with" class_body "end" NAME
//! class_body  ::= { attr_section | constraint_section }
//! attr_section ::= "attribute" { "," ("necessary" | "single") } { NAME ":" NAME }
//! constraint_section ::= "constraint" ":" expr
//! attribute   ::= "Attribute" NAME "with" { ("domain"|"range"|"inverse") ":" NAME } "end" NAME
//! queryclass  ::= "QueryClass" NAME [ "isA" names ] "with"
//!                 [ "derived" { path } ] [ "where" { NAME "=" NAME } ]
//!                 [ constraint_section ] "end" NAME
//! path        ::= [ NAME ":" ] step { "." step }
//! step        ::= NAME | "(" NAME ":" filter ")"
//! filter      ::= NAME | "{" NAME "}"
//! expr        ::= ("forall"|"exists") NAME "/" NAME expr | or_expr
//! or_expr     ::= and_expr { "or" and_expr }
//! and_expr    ::= unary { "and" unary }
//! unary       ::= "not" unary | "(" (atom | expr) ")"
//! atom        ::= term "in" NAME | term "=" term | term NAME term
//! term        ::= "this" | NAME
//! ```

use crate::ast::{
    AttrDecl, AttrSpec, ClassDecl, ConstraintExpr, DlModel, LabeledPath, PathFilter, PathStep,
    QueryClassDecl, Term,
};
use crate::lexer::{tokenize, LexError, Token, TokenKind};
use std::fmt;

/// A parse error with a human-readable message and source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line (0 when at end of input).
    pub line: u32,
    /// 1-based column (0 when at end of input).
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "parse error at end of input: {}", self.message)
        } else {
            write!(
                f,
                "parse error at line {}, column {}: {}",
                self.line, self.col, self.message
            )
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(err: LexError) -> Self {
        ParseError {
            message: err.to_string(),
            line: err.line,
            col: err.col,
        }
    }
}

/// How deep a constraint may nest: the height of the tree the parser
/// builds, where an atom is one level and every `not`, quantifier and
/// `and`/`or` node one more (a left-deep chain of `n` atoms is `n` levels
/// high), and separately how deep parentheses around sub-expressions may
/// nest. The parser, the renderer and every pass over the tree recurse
/// once per level, so this bound is what keeps one frame from
/// overflowing a default-size thread's stack; deeper input is a
/// [`ParseError`]. Every tree within the bound renders
/// ([`crate::pretty`]) to text within it.
pub const MAX_NESTING: usize = 64;

/// A parsed constraint and its height.
type Nested = (ConstraintExpr, usize);

/// Words that head sections or declarations and therefore terminate
/// identifier lists.
const SECTION_WORDS: &[&str] = &[
    "attribute",
    "constraint",
    "derived",
    "where",
    "end",
    "domain",
    "range",
    "inverse",
];

/// Parses a complete DL model (schema and query classes) from source text.
pub fn parse_model(source: &str) -> Result<DlModel, ParseError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser::new(tokens);
    parser.model()
}

/// Parses source text that must contain exactly one query-class
/// declaration and nothing else — the shape a query or view definition
/// takes when it travels alone over a wire protocol.
pub fn parse_query(source: &str) -> Result<QueryClassDecl, ParseError> {
    let model = parse_model(source)?;
    if !model.classes.is_empty() || !model.attributes.is_empty() {
        return Err(ParseError {
            message: "expected a single query class, found schema declarations".to_owned(),
            line: 0,
            col: 0,
        });
    }
    let mut queries = model.queries;
    match (queries.pop(), queries.is_empty()) {
        (Some(query), true) => Ok(query),
        (Some(_), false) => Err(ParseError {
            message: "expected a single query class, found several".to_owned(),
            line: 0,
            col: 0,
        }),
        (None, _) => Err(ParseError {
            message: "expected a query class, found none".to_owned(),
            line: 0,
            col: 0,
        }),
    }
}

/// Parses a single constraint expression (used by tests and by tools that
/// store constraints separately).
pub fn parse_constraint(source: &str) -> Result<ConstraintExpr, ParseError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.constraint()?;
    parser.expect_eof()?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parenthesized sub-expressions open around the current token.
    groups: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            groups: 0,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset)
    }

    fn peek_word(&self) -> Option<&str> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Word(w)) => Some(w.as_str()),
            _ => None,
        }
    }

    fn advance(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.pos).cloned();
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    fn error_here(&self, message: impl Into<String>) -> ParseError {
        match self.peek() {
            Some(token) => ParseError {
                message: message.into(),
                line: token.line,
                col: token.col,
            },
            None => ParseError {
                message: message.into(),
                line: 0,
                col: 0,
            },
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        match self.peek() {
            Some(token) if &token.kind == kind => {
                self.pos += 1;
                Ok(())
            }
            Some(token) => Err(self.error_here(format!("expected {kind}, found {}", token.kind))),
            None => Err(self.error_here(format!("expected {kind}, found end of input"))),
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), ParseError> {
        match self.peek_word() {
            Some(w) if w == word => {
                self.pos += 1;
                Ok(())
            }
            Some(w) => Err(self.error_here(format!("expected `{word}`, found `{w}`"))),
            None => Err(self.error_here(format!("expected `{word}`"))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().cloned() {
            Some(Token {
                kind: TokenKind::Word(w),
                ..
            }) => {
                self.pos += 1;
                Ok(w)
            }
            Some(token) => Err(self.error_here(format!("expected {what}, found {}", token.kind))),
            None => Err(self.error_here(format!("expected {what}, found end of input"))),
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error_here("expected end of input"))
        }
    }

    fn model(&mut self) -> Result<DlModel, ParseError> {
        let mut model = DlModel::new();
        while let Some(word) = self.peek_word() {
            match word {
                "Class" => model.classes.push(self.class_decl()?),
                "Attribute" => model.attributes.push(self.attr_decl()?),
                "QueryClass" => model.queries.push(self.query_decl()?),
                other => {
                    return Err(self.error_here(format!(
                        "expected `Class`, `Attribute`, or `QueryClass`, found `{other}`"
                    )))
                }
            }
        }
        self.expect_eof()?;
        Ok(model)
    }

    fn name_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut names = vec![self.ident("a class name")?];
        while self.peek().map(|t| &t.kind) == Some(&TokenKind::Comma) {
            self.advance();
            names.push(self.ident("a class name")?);
        }
        Ok(names)
    }

    fn class_decl(&mut self) -> Result<ClassDecl, ParseError> {
        self.expect_word("Class")?;
        let name = self.ident("a class name")?;
        let is_a = if self.peek_word() == Some("isA") {
            self.advance();
            self.name_list()?
        } else {
            Vec::new()
        };
        self.expect_word("with")?;

        let mut attributes = Vec::new();
        let mut constraint = None;
        loop {
            match self.peek_word() {
                Some("attribute") => {
                    self.advance();
                    let (necessary, single) = self.attribute_flags()?;
                    while self.at_attr_spec() {
                        let attr_name = self.ident("an attribute name")?;
                        self.expect_kind(&TokenKind::Colon)?;
                        let range = self.ident("a class name")?;
                        attributes.push(AttrSpec {
                            name: attr_name,
                            range,
                            necessary,
                            single,
                        });
                    }
                }
                Some("constraint") => {
                    self.advance();
                    self.expect_kind(&TokenKind::Colon)?;
                    constraint = Some(self.constraint()?);
                }
                Some("end") => break,
                Some(other) => {
                    return Err(self.error_here(format!(
                        "expected `attribute`, `constraint`, or `end`, found `{other}`"
                    )))
                }
                None => return Err(self.error_here("unterminated class declaration")),
            }
        }
        self.expect_word("end")?;
        let end_name = self.ident("the class name after `end`")?;
        if end_name != name {
            return Err(self.error_here(format!(
                "declaration of `{name}` terminated by `end {end_name}`"
            )));
        }
        Ok(ClassDecl {
            name,
            is_a,
            attributes,
            constraint,
        })
    }

    fn attribute_flags(&mut self) -> Result<(bool, bool), ParseError> {
        let mut necessary = false;
        let mut single = false;
        while self.peek().map(|t| &t.kind) == Some(&TokenKind::Comma) {
            self.advance();
            match self.peek_word() {
                Some("necessary") => {
                    necessary = true;
                    self.advance();
                }
                Some("single") => {
                    single = true;
                    self.advance();
                }
                _ => return Err(self.error_here("expected `necessary` or `single`")),
            }
        }
        Ok((necessary, single))
    }

    /// Whether the next tokens look like an attribute specification line
    /// `name : Class` rather than a new section.
    fn at_attr_spec(&self) -> bool {
        match (self.peek_word(), self.peek_at(1).map(|t| &t.kind)) {
            (Some(word), Some(TokenKind::Colon)) => !SECTION_WORDS.contains(&word),
            _ => false,
        }
    }

    fn attr_decl(&mut self) -> Result<AttrDecl, ParseError> {
        self.expect_word("Attribute")?;
        let name = self.ident("an attribute name")?;
        self.expect_word("with")?;
        let mut domain = None;
        let mut range = None;
        let mut inverse = None;
        loop {
            match self.peek_word() {
                Some("domain") => {
                    self.advance();
                    self.expect_kind(&TokenKind::Colon)?;
                    domain = Some(self.ident("a class name")?);
                }
                Some("range") => {
                    self.advance();
                    self.expect_kind(&TokenKind::Colon)?;
                    range = Some(self.ident("a class name")?);
                }
                Some("inverse") => {
                    self.advance();
                    self.expect_kind(&TokenKind::Colon)?;
                    inverse = Some(self.ident("an attribute name")?);
                }
                Some("end") => break,
                _ => return Err(self.error_here("expected `domain`, `range`, `inverse`, or `end`")),
            }
        }
        self.expect_word("end")?;
        let end_name = self.ident("the attribute name after `end`")?;
        if end_name != name {
            return Err(self.error_here(format!(
                "declaration of `{name}` terminated by `end {end_name}`"
            )));
        }
        let domain =
            domain.ok_or_else(|| self.error_here(format!("attribute `{name}` lacks a domain")))?;
        let range =
            range.ok_or_else(|| self.error_here(format!("attribute `{name}` lacks a range")))?;
        Ok(AttrDecl {
            name,
            domain,
            range,
            inverse,
        })
    }

    fn query_decl(&mut self) -> Result<QueryClassDecl, ParseError> {
        self.expect_word("QueryClass")?;
        let name = self.ident("a query class name")?;
        let is_a = if self.peek_word() == Some("isA") {
            self.advance();
            self.name_list()?
        } else {
            Vec::new()
        };
        self.expect_word("with")?;

        let mut derived = Vec::new();
        let mut where_eqs = Vec::new();
        let mut constraint = None;
        loop {
            match self.peek_word() {
                Some("derived") => {
                    self.advance();
                    while self.at_path_start() {
                        derived.push(self.labeled_path()?);
                    }
                }
                Some("where") => {
                    self.advance();
                    while self.at_where_eq() {
                        let left = self.ident("a label")?;
                        self.expect_kind(&TokenKind::Equals)?;
                        let right = self.ident("a label")?;
                        where_eqs.push((left, right));
                    }
                }
                Some("constraint") => {
                    self.advance();
                    self.expect_kind(&TokenKind::Colon)?;
                    constraint = Some(self.constraint()?);
                }
                Some("end") => break,
                Some(other) => {
                    return Err(self.error_here(format!(
                        "expected `derived`, `where`, `constraint`, or `end`, found `{other}`"
                    )))
                }
                None => return Err(self.error_here("unterminated query class declaration")),
            }
        }
        self.expect_word("end")?;
        let end_name = self.ident("the query class name after `end`")?;
        if end_name != name {
            return Err(self.error_here(format!(
                "declaration of `{name}` terminated by `end {end_name}`"
            )));
        }
        Ok(QueryClassDecl {
            name,
            is_a,
            derived,
            where_eqs,
            constraint,
        })
    }

    fn at_path_start(&self) -> bool {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::LParen) => true,
            Some(TokenKind::Word(w)) => !SECTION_WORDS.contains(&w.as_str()),
            _ => false,
        }
    }

    fn at_where_eq(&self) -> bool {
        matches!(
            (self.peek_word(), self.peek_at(1).map(|t| &t.kind)),
            (Some(w), Some(TokenKind::Equals)) if !SECTION_WORDS.contains(&w)
        )
    }

    fn labeled_path(&mut self) -> Result<LabeledPath, ParseError> {
        // A label is an identifier directly followed by `:` — path steps
        // with filters are always parenthesized, so this is unambiguous.
        let label = match (self.peek_word(), self.peek_at(1).map(|t| &t.kind)) {
            (Some(w), Some(TokenKind::Colon)) if !SECTION_WORDS.contains(&w) => {
                let label = w.to_owned();
                self.advance();
                self.advance();
                Some(label)
            }
            _ => None,
        };
        let mut steps = vec![self.path_step()?];
        while self.peek().map(|t| &t.kind) == Some(&TokenKind::Dot) {
            self.advance();
            steps.push(self.path_step()?);
        }
        Ok(LabeledPath { label, steps })
    }

    fn path_step(&mut self) -> Result<PathStep, ParseError> {
        if self.peek().map(|t| &t.kind) == Some(&TokenKind::LParen) {
            self.advance();
            let attr = self.ident("an attribute name")?;
            self.expect_kind(&TokenKind::Colon)?;
            let filter = if self.peek().map(|t| &t.kind) == Some(&TokenKind::LBrace) {
                self.advance();
                let object = self.ident("an object name")?;
                self.expect_kind(&TokenKind::RBrace)?;
                PathFilter::Singleton(object)
            } else {
                PathFilter::Class(self.ident("a class name")?)
            };
            self.expect_kind(&TokenKind::RParen)?;
            Ok(PathStep { attr, filter })
        } else {
            let attr = self.ident("an attribute name")?;
            Ok(PathStep {
                attr,
                filter: PathFilter::Any,
            })
        }
    }

    // ----- constraint expressions ------------------------------------------

    fn constraint(&mut self) -> Result<ConstraintExpr, ParseError> {
        Ok(self.expr(1)?.0)
    }

    /// Parses a child of a node at `level`, refusing to descend past
    /// [`MAX_NESTING`] — the check that bounds the parser's own
    /// recursion.
    fn child(
        &mut self,
        level: usize,
        parse: impl FnOnce(&mut Self, usize) -> Result<Nested, ParseError>,
    ) -> Result<Nested, ParseError> {
        if level >= MAX_NESTING {
            return Err(self.too_deep());
        }
        parse(self, level + 1)
    }

    fn too_deep(&self) -> ParseError {
        self.error_here(format!("constraint nests deeper than {MAX_NESTING} levels"))
    }

    /// An expression whose root sits at `level` (the constraint's root
    /// is level 1), with its height.
    fn expr(&mut self, level: usize) -> Result<Nested, ParseError> {
        match self.peek_word() {
            Some("forall") | Some("exists") => {
                let quantifier = self.ident("a quantifier")?;
                let var = self.ident("a variable")?;
                self.expect_kind(&TokenKind::Slash)?;
                let class = self.ident("a class name")?;
                let (body, height) = self.child(level, Self::expr)?;
                let body = Box::new(body);
                Ok((
                    if quantifier == "forall" {
                        ConstraintExpr::Forall(var, class, body)
                    } else {
                        ConstraintExpr::Exists(var, class, body)
                    },
                    height + 1,
                ))
            }
            _ => self.chain(level, "or", Self::and_expr, ConstraintExpr::Or),
        }
    }

    fn and_expr(&mut self, level: usize) -> Result<Nested, ParseError> {
        self.chain(level, "and", Self::unary_expr, ConstraintExpr::And)
    }

    /// A left-deep chain of `operand`s joined by `word`. It is built in
    /// a loop, but every link pushes the operands before it one level
    /// down, so its height is checked link by link.
    fn chain(
        &mut self,
        level: usize,
        word: &str,
        operand: fn(&mut Self, usize) -> Result<Nested, ParseError>,
        join: fn(Box<ConstraintExpr>, Box<ConstraintExpr>) -> ConstraintExpr,
    ) -> Result<Nested, ParseError> {
        let (mut left, mut height) = operand(self, level)?;
        while self.peek_word() == Some(word) {
            self.advance();
            let (right, right_height) = self.child(level, operand)?;
            height = height.max(right_height) + 1;
            if level - 1 + height > MAX_NESTING {
                return Err(self.too_deep());
            }
            left = join(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn unary_expr(&mut self, level: usize) -> Result<Nested, ParseError> {
        if self.peek_word() == Some("not") {
            self.advance();
            let (inner, height) = self.child(level, Self::unary_expr)?;
            return Ok((ConstraintExpr::Not(Box::new(inner)), height + 1));
        }
        if self.peek().map(|t| &t.kind) == Some(&TokenKind::LParen) {
            self.advance();
            let nested = if self.at_atom() {
                (self.atom()?, 1)
            } else {
                // A group builds no node of its own, but it is a
                // recursion the levels do not see.
                self.groups += 1;
                if self.groups > MAX_NESTING {
                    return Err(self.too_deep());
                }
                let nested = self.expr(level)?;
                self.groups -= 1;
                nested
            };
            self.expect_kind(&TokenKind::RParen)?;
            return Ok(nested);
        }
        Err(self.error_here("expected `not`, `(`, `forall`, or `exists` in constraint"))
    }

    /// Whether the tokens after an opening parenthesis form an atom
    /// (`term in C`, `term = term`, or `term attr term`) rather than a
    /// nested expression.
    fn at_atom(&self) -> bool {
        let first_is_term = matches!(
            self.peek_word(),
            Some(w) if !matches!(w, "not" | "forall" | "exists")
        );
        if !first_is_term {
            return false;
        }
        matches!(
            self.peek_at(1).map(|t| &t.kind),
            Some(TokenKind::Word(_)) | Some(TokenKind::Equals)
        )
    }

    fn atom(&mut self) -> Result<ConstraintExpr, ParseError> {
        let subject = self.term()?;
        match self.peek().cloned().map(|t| t.kind) {
            Some(TokenKind::Equals) => {
                self.advance();
                let object = self.term()?;
                Ok(ConstraintExpr::Eq(subject, object))
            }
            Some(TokenKind::Word(w)) if w == "in" => {
                self.advance();
                let class = self.ident("a class name")?;
                Ok(ConstraintExpr::In(subject, class))
            }
            Some(TokenKind::Word(attr)) => {
                self.advance();
                let object = self.term()?;
                Ok(ConstraintExpr::HasAttr(subject, attr, object))
            }
            _ => Err(self.error_here("expected `in`, `=`, or an attribute name in atom")),
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let word = self.ident("a term")?;
        Ok(if word == "this" {
            Term::This
        } else {
            Term::Ident(word)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_patient_class() {
        let source = "
            Class Patient isA Person with
              attribute
                takes: Drug
                consults: Doctor
              attribute, necessary
                suffers: Disease
              constraint:
                not (this in Doctor)
            end Patient
        ";
        let model = parse_model(source).expect("parses");
        let patient = model.class("Patient").expect("declared");
        assert_eq!(patient.is_a, vec!["Person"]);
        assert_eq!(patient.attributes.len(), 3);
        assert!(!patient.attributes[0].necessary);
        assert!(patient.attributes[2].necessary);
        assert!(!patient.attributes[2].single);
        assert_eq!(patient.attributes[2].name, "suffers");
        let constraint = patient.constraint.as_ref().expect("constraint clause");
        assert_eq!(
            *constraint,
            ConstraintExpr::Not(Box::new(ConstraintExpr::In(Term::This, "Doctor".into())))
        );
    }

    #[test]
    fn parses_necessary_single_flags() {
        let source = "
            Class Person with
              attribute, necessary, single
                name: String
            end Person
        ";
        let model = parse_model(source).expect("parses");
        let person = model.class("Person").expect("declared");
        assert!(person.attributes[0].necessary);
        assert!(person.attributes[0].single);
    }

    #[test]
    fn parses_attribute_declarations() {
        let source = "
            Attribute skilled_in with
              domain: Person
              range: Topic
              inverse: specialist
            end skilled_in
        ";
        let model = parse_model(source).expect("parses");
        let attr = model.attribute("skilled_in").expect("declared");
        assert_eq!(attr.domain, "Person");
        assert_eq!(attr.range, "Topic");
        assert_eq!(attr.inverse.as_deref(), Some("specialist"));
    }

    #[test]
    fn parses_the_query_patient_example() {
        let source = "
            QueryClass QueryPatient isA Male, Patient with
              derived
                l_1: (consults: Female)
                l_2: suffers.(specialist: Doctor)
              where
                l_1 = l_2
              constraint:
                forall d/Drug not (this takes d) or (d = Aspirin)
            end QueryPatient
        ";
        let model = parse_model(source).expect("parses");
        let query = model.query_class("QueryPatient").expect("declared");
        assert_eq!(query.is_a, vec!["Male", "Patient"]);
        assert_eq!(query.derived.len(), 2);
        assert_eq!(query.derived[0].label.as_deref(), Some("l_1"));
        assert_eq!(query.derived[1].steps.len(), 2);
        assert_eq!(query.derived[1].steps[0].filter, PathFilter::Any);
        assert_eq!(
            query.derived[1].steps[1].filter,
            PathFilter::Class("Doctor".into())
        );
        assert_eq!(query.where_eqs, vec![("l_1".into(), "l_2".into())]);
        assert!(!query.is_view());
        // The quantifier scopes over the whole disjunction.
        match query.constraint.as_ref().expect("constraint") {
            ConstraintExpr::Forall(var, class, body) => {
                assert_eq!(var, "d");
                assert_eq!(class, "Drug");
                assert!(matches!(**body, ConstraintExpr::Or(..)));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn parses_unlabeled_paths_and_views() {
        let source = "
            QueryClass ViewPatient isA Patient with
              derived
                (name: String)
                l_1: (consults: Doctor).(skilled_in: Disease)
                l_2: (suffers: Disease)
              where
                l_1 = l_2
            end ViewPatient
        ";
        let model = parse_model(source).expect("parses");
        let view = model.query_class("ViewPatient").expect("declared");
        assert!(view.is_view());
        assert_eq!(view.derived.len(), 3);
        assert_eq!(view.derived[0].label, None);
        assert_eq!(view.labels(), vec!["l_1", "l_2"]);
    }

    #[test]
    fn parses_singleton_filters() {
        let source = "
            QueryClass AspirinTaker isA Patient with
              derived
                (takes: {Aspirin})
            end AspirinTaker
        ";
        let model = parse_model(source).expect("parses");
        let query = model.query_class("AspirinTaker").expect("declared");
        assert_eq!(
            query.derived[0].steps[0].filter,
            PathFilter::Singleton("Aspirin".into())
        );
    }

    #[test]
    fn mismatched_end_is_rejected() {
        let err = parse_model("Class A with end B").expect_err("must fail");
        assert!(err.to_string().contains("terminated by"));
    }

    #[test]
    fn missing_domain_is_rejected() {
        let err = parse_model("Attribute a with range: B end a").expect_err("must fail");
        assert!(err.to_string().contains("lacks a domain"));
    }

    #[test]
    fn unexpected_toplevel_word_is_rejected() {
        let err = parse_model("Klass A with end A").expect_err("must fail");
        assert!(err.to_string().contains("Klass"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn parse_constraint_round_trips_nested_expressions() {
        let expr =
            parse_constraint("(not ((this in Doctor) and (this in Patient)))").expect("parses");
        assert!(matches!(expr, ConstraintExpr::Not(_)));
        let expr = parse_constraint("exists d/Disease (this suffers d)").expect("parses");
        assert!(matches!(expr, ConstraintExpr::Exists(..)));
    }

    /// `not` nesting and an `and` chain parse at exactly the budget and
    /// fail one level past it, on a default-size thread, where an
    /// unbounded descent over a ~1 MB constraint overflows the stack.
    #[test]
    fn nesting_is_bounded_at_the_budget() {
        std::thread::spawn(|| {
            let nots = |n: usize| format!("{}(this in Doctor)", "not ".repeat(n));
            let chain = |n: usize| vec!["(this in Doctor)"; n].join(" and ");
            for at_budget in [nots(MAX_NESTING - 1), chain(MAX_NESTING)] {
                let expr = parse_constraint(&at_budget).expect("at the budget");
                let rendered = crate::pretty::render_constraint(&expr);
                assert_eq!(parse_constraint(&rendered), Ok(expr), "re-parses");
            }
            for past in [
                nots(MAX_NESTING),
                chain(MAX_NESTING + 1),
                format!(
                    "{}(this in Doctor){}",
                    "(".repeat(MAX_NESTING + 1),
                    ")".repeat(MAX_NESTING + 1)
                ),
                nots(50_000),
                chain(50_000),
            ] {
                let err = parse_constraint(&past).expect_err("past the budget");
                assert!(err.message.contains("nests deeper than"), "{err}");
            }
        })
        .join()
        .expect("no stack overflow");
    }

    #[test]
    fn constraint_with_trailing_garbage_is_rejected() {
        assert!(parse_constraint("(this in Doctor) extra").is_err());
    }
}
