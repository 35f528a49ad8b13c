//! A recursive-descent parser for the XML 1.0 subset the workspace needs.
//!
//! Supported: elements, attributes (single- or double-quoted), character
//! data, CDATA sections, comments, processing instructions, the five
//! predefined entities, decimal/hex character references, the XML
//! declaration, and DOCTYPE declarations (skipped, including internal
//! subsets). Not supported: external entities, custom internal entities,
//! namespaces-as-semantics (prefixed names parse as plain names).

use crate::error::{ParseError, ParseErrorKind, TextPos};
use crate::tree::{AttributeOwners, Document, NodeId};

/// Knobs for [`Document::parse_with`].
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Keep text nodes that consist only of whitespace. Off by default:
    /// pretty-printing whitespace is noise for numbering experiments.
    pub keep_whitespace_text: bool,
    /// Keep comment nodes. On by default.
    pub keep_comments: bool,
    /// Keep processing-instruction nodes. On by default.
    pub keep_pis: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions { keep_whitespace_text: false, keep_comments: true, keep_pis: true }
    }
}

impl Document {
    /// Parses an XML string with default [`ParseOptions`].
    pub fn parse(input: &str) -> Result<Document, ParseError> {
        Self::parse_with(input, ParseOptions::default())
    }

    /// Parses an XML string with explicit options.
    pub fn parse_with(input: &str, options: ParseOptions) -> Result<Document, ParseError> {
        let mut parser = Parser {
            input: input.as_bytes(),
            pos: 0,
            doc: Document::new(),
            options,
            text_buf: String::new(),
            attribute_owners: AttributeOwners::default(),
        };
        parser.parse_document()?;
        Ok(parser.doc)
    }
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    doc: Document,
    options: ParseOptions,
    /// Workhorse buffer for decoding text runs (reused across nodes).
    text_buf: String,
    /// Rules out a repeated attribute name without scanning the element.
    attribute_owners: AttributeOwners,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, kind: ParseErrorKind) -> Result<T, ParseError> {
        Err(ParseError { kind, pos: self.text_pos() })
    }

    fn text_pos(&self) -> TextPos {
        let mut line = 1u32;
        let mut col = 1u32;
        for &b in &self.input[..self.pos] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else if b & 0xC0 != 0x80 {
                // Count characters, not UTF-8 continuation bytes.
                col += 1;
            }
        }
        TextPos { line, col }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &'static str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else if self.pos >= self.input.len() {
            self.err(ParseErrorKind::UnexpectedEof)
        } else {
            self.err(ParseErrorKind::Expected(s))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn parse_document(&mut self) -> Result<(), ParseError> {
        // Optional XML declaration.
        if self.starts_with("<?xml") {
            self.skip_until("?>", "XML declaration")?;
        }
        let root = self.doc.root();
        let mut seen_root_element = false;
        loop {
            self.skip_ws();
            let Some(b) = self.peek() else { break };
            if b != b'<' {
                return self.err(ParseErrorKind::JunkAfterRoot);
            }
            if self.starts_with("<!--") {
                self.parse_comment(root)?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                self.parse_pi(root)?;
            } else if self.starts_with("</") {
                return self.err(ParseErrorKind::Expected("element"));
            } else {
                if seen_root_element {
                    return self.err(ParseErrorKind::MultipleRootElements);
                }
                seen_root_element = true;
                self.parse_element(root)?;
            }
        }
        if !seen_root_element {
            return self.err(ParseErrorKind::NoRootElement);
        }
        Ok(())
    }

    fn skip_until(&mut self, end: &'static str, what: &'static str) -> Result<(), ParseError> {
        let bytes = end.as_bytes();
        while self.pos < self.input.len() {
            if self.input[self.pos..].starts_with(bytes) {
                self.pos += bytes.len();
                return Ok(());
            }
            self.pos += 1;
        }
        let _ = what;
        self.err(ParseErrorKind::UnexpectedEof)
    }

    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        self.eat("<!DOCTYPE")?;
        let mut bracket_depth = 0usize;
        loop {
            match self.bump() {
                None => return self.err(ParseErrorKind::UnexpectedEof),
                Some(b'[') => bracket_depth += 1,
                Some(b']') => bracket_depth = bracket_depth.saturating_sub(1),
                Some(b'>') if bracket_depth == 0 => return Ok(()),
                Some(_) => {}
            }
        }
    }

    fn parse_comment(&mut self, parent: NodeId) -> Result<(), ParseError> {
        self.eat("<!--")?;
        let start = self.pos;
        self.skip_until("-->", "comment")?;
        if self.options.keep_comments {
            let text = std::str::from_utf8(&self.input[start..self.pos - 3])
                .expect("input is valid UTF-8");
            let node = self.doc.create_comment(text);
            self.doc.append_child(parent, node);
        }
        Ok(())
    }

    fn parse_pi(&mut self, parent: NodeId) -> Result<(), ParseError> {
        self.eat("<?")?;
        let target = self.parse_name()?;
        self.skip_ws();
        let start = self.pos;
        self.skip_until("?>", "processing instruction")?;
        if self.options.keep_pis {
            let data = std::str::from_utf8(&self.input[start..self.pos - 2])
                .expect("input is valid UTF-8");
            let node = self.doc.create_pi(&target, data.trim_end());
            self.doc.append_child(parent, node);
        }
        Ok(())
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => self.pos += 1,
            Some(b) if b >= 0x80 => self.pos += 1,
            _ => return self.err(ParseErrorKind::InvalidName),
        }
        while let Some(b) = self.peek() {
            if is_name_char(b) || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .expect("input is valid UTF-8")
            .to_owned())
    }

    /// Parses one element and its entire subtree. Iterative (explicit
    /// open-element stack), so document depth is bounded by the heap, not
    /// the call stack — arbitrarily deep input cannot crash the parser.
    fn parse_element(&mut self, parent: NodeId) -> Result<(), ParseError> {
        let mut open: Vec<(NodeId, String)> = Vec::new();
        if let Some(entry) = self.open_tag(parent)? {
            open.push(entry);
        }
        while !open.is_empty() {
            let cur = open.last().expect("loop guard").0;
            match self.peek() {
                None => return self.err(ParseErrorKind::UnexpectedEof),
                Some(b'<') if self.starts_with("</") => {
                    self.eat("</")?;
                    let close = self.parse_name()?;
                    let (_, name) = open.pop().expect("loop guard");
                    if close != name {
                        return self
                            .err(ParseErrorKind::MismatchedTag { expected: name, found: close });
                    }
                    self.skip_ws();
                    self.eat(">")?;
                }
                Some(b'<') if self.starts_with("<!--") => self.parse_comment(cur)?,
                Some(b'<') if self.starts_with("<![CDATA[") => self.parse_cdata(cur)?,
                Some(b'<') if self.starts_with("<?") => self.parse_pi(cur)?,
                Some(b'<') => {
                    if let Some(entry) = self.open_tag(cur)? {
                        open.push(entry);
                    }
                }
                Some(_) => self.parse_text(cur)?,
            }
        }
        Ok(())
    }

    /// Parses `<name attr="v"...` up to `>` (returns the open element) or
    /// `/>` (element complete, returns `None`).
    fn open_tag(&mut self, parent: NodeId) -> Result<Option<(NodeId, String)>, ParseError> {
        self.eat("<")?;
        let name = self.parse_name()?;
        let elem = self.doc.create_element(&name);
        self.doc.append_child(parent, elem);
        loop {
            let before = self.pos;
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.eat("/>")?;
                    return Ok(None);
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Some((elem, name)));
                }
                Some(_) => {
                    if before == self.pos {
                        // No whitespace between attributes / after the name.
                        return self.err(ParseErrorKind::Expected("whitespace, '>' or '/>'"));
                    }
                    self.parse_attribute(elem)?;
                }
                None => return self.err(ParseErrorKind::UnexpectedEof),
            }
        }
    }

    fn parse_attribute(&mut self, elem: NodeId) -> Result<(), ParseError> {
        let name = self.parse_name()?;
        self.skip_ws();
        self.eat("=")?;
        self.skip_ws();
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(_) => return self.err(ParseErrorKind::Expected("quoted attribute value")),
            None => return self.err(ParseErrorKind::UnexpectedEof),
        };
        self.text_buf.clear();
        loop {
            match self.peek() {
                None => return self.err(ParseErrorKind::UnexpectedEof),
                Some(q) if q == quote => {
                    self.pos += 1;
                    break;
                }
                Some(b'<') => return self.err(ParseErrorKind::ForbiddenChar('<')),
                Some(b'&') => {
                    let decoded = self.parse_reference()?;
                    self.text_buf.push(decoded);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote || b == b'&' || b == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    self.text_buf.push_str(
                        std::str::from_utf8(&self.input[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
        let name_id = self.doc.intern(&name);
        if !self.attribute_owners.claim(elem, name_id) {
            return self.err(ParseErrorKind::DuplicateAttribute(name));
        }
        self.doc.push_attribute(elem, name_id, &self.text_buf);
        Ok(())
    }

    fn parse_cdata(&mut self, parent: NodeId) -> Result<(), ParseError> {
        self.eat("<![CDATA[")?;
        let start = self.pos;
        self.skip_until("]]>", "CDATA section")?;
        let text =
            std::str::from_utf8(&self.input[start..self.pos - 3]).expect("input is valid UTF-8");
        self.append_character_data(parent, text);
        Ok(())
    }

    /// Appends character data, coalescing with a preceding text sibling so
    /// adjacent runs (text / CDATA in any order) form one node — required
    /// for serialize/parse round-trip fidelity.
    fn append_character_data(&mut self, parent: NodeId, text: &str) {
        if let Some(last) = self.doc.last_child(parent) {
            if self.doc.text(last).is_some() {
                self.doc.append_text(last, text);
                return;
            }
        }
        let node = self.doc.create_text(text);
        self.doc.append_child(parent, node);
    }

    fn parse_text(&mut self, parent: NodeId) -> Result<(), ParseError> {
        self.text_buf.clear();
        let mut all_ws = true;
        loop {
            match self.peek() {
                None | Some(b'<') => break,
                Some(b'&') => {
                    let decoded = self.parse_reference()?;
                    all_ws &= decoded.is_whitespace();
                    self.text_buf.push(decoded);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'<' || b == b'&' {
                            break;
                        }
                        all_ws &= matches!(b, b' ' | b'\t' | b'\r' | b'\n');
                        self.pos += 1;
                    }
                    self.text_buf.push_str(
                        std::str::from_utf8(&self.input[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
        // Whitespace-only runs are dropped unless requested — except when
        // they continue an existing text node (e.g. after CDATA), where
        // dropping would corrupt the character data.
        let continues_text = self
            .doc
            .last_child(parent)
            .is_some_and(|last| self.doc.text(last).is_some());
        if !self.text_buf.is_empty()
            && (!all_ws || self.options.keep_whitespace_text || continues_text)
        {
            let text = self.text_buf.clone();
            self.append_character_data(parent, &text);
        }
        Ok(())
    }

    /// Parses `&...;` at the cursor and returns the decoded character.
    fn parse_reference(&mut self) -> Result<char, ParseError> {
        self.eat("&")?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                break;
            }
            if b == b'<' || b == b'&' || self.pos - start > 10 {
                break;
            }
            self.pos += 1;
        }
        let body = std::str::from_utf8(&self.input[start..self.pos])
            .expect("input is valid UTF-8")
            .to_owned();
        if self.peek() != Some(b';') {
            return self.err(ParseErrorKind::InvalidReference(body));
        }
        self.pos += 1;
        match body.as_str() {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ => {
                if let Some(hex) = body.strip_prefix("#x") {
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| ParseError {
                            kind: ParseErrorKind::InvalidReference(body.clone()),
                            pos: self.text_pos(),
                        })?;
                    char::from_u32(code).ok_or(ParseError {
                        kind: ParseErrorKind::InvalidCharRef(code),
                        pos: self.text_pos(),
                    })
                } else if let Some(dec) = body.strip_prefix('#') {
                    let code = dec.parse::<u32>().map_err(|_| ParseError {
                        kind: ParseErrorKind::InvalidReference(body.clone()),
                        pos: self.text_pos(),
                    })?;
                    char::from_u32(code).ok_or(ParseError {
                        kind: ParseErrorKind::InvalidCharRef(code),
                        pos: self.text_pos(),
                    })
                } else {
                    self.err(ParseErrorKind::InvalidReference(body))
                }
            }
        }
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}
