//! Parser and serializer tests, including property-based round trips.

use xmldom::{Document, NodeKind, ParseErrorKind, ParseOptions, SerializeOptions};

#[test]
fn parse_minimal() {
    let doc = Document::parse("<a/>").unwrap();
    let a = doc.root_element().unwrap();
    assert_eq!(doc.tag_name(a), Some("a"));
    assert_eq!(doc.children(a).count(), 0);
}

#[test]
fn parse_nested_elements() {
    let doc = Document::parse("<a><b><c/></b><d/></a>").unwrap();
    let a = doc.root_element().unwrap();
    let names: Vec<_> = doc
        .descendants(a)
        .map(|n| doc.tag_name(n).unwrap().to_owned())
        .collect();
    assert_eq!(names, vec!["a", "b", "c", "d"]);
}

#[test]
fn parse_attributes_both_quotes() {
    let doc = Document::parse(r#"<a x="1" y='two' z="a&amp;b"/>"#).unwrap();
    let a = doc.root_element().unwrap();
    assert_eq!(doc.attribute(a, "x"), Some("1"));
    assert_eq!(doc.attribute(a, "y"), Some("two"));
    assert_eq!(doc.attribute(a, "z"), Some("a&b"));
}

#[test]
fn parse_text_with_entities() {
    let doc = Document::parse("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2; &quot;q&quot; &apos;a&apos;</a>")
        .unwrap();
    let a = doc.root_element().unwrap();
    assert_eq!(doc.string_value(a), "1 < 2 && 3 > 2; \"q\" 'a'");
}

#[test]
fn parse_char_references() {
    let doc = Document::parse("<a>&#65;&#x42;&#x3b1;</a>").unwrap();
    assert_eq!(doc.string_value(doc.root_element().unwrap()), "ABα");
}

#[test]
fn parse_cdata() {
    let doc = Document::parse("<a><![CDATA[<not><parsed> & raw]]></a>").unwrap();
    assert_eq!(doc.string_value(doc.root_element().unwrap()), "<not><parsed> & raw");
}

#[test]
fn parse_comments_and_pis() {
    let doc = Document::parse("<a><!-- c --><?target data here?></a>").unwrap();
    let a = doc.root_element().unwrap();
    let kids: Vec<_> = doc.children(a).collect();
    assert_eq!(kids.len(), 2);
    assert_eq!(doc.kind(kids[0]), &NodeKind::Comment(" c ".into()));
    assert_eq!(
        doc.kind(kids[1]),
        &NodeKind::ProcessingInstruction { target: "target".into(), data: "data here".into() }
    );
}

#[test]
fn parse_options_drop_comments_and_pis() {
    let opts = ParseOptions { keep_comments: false, keep_pis: false, ..Default::default() };
    let doc = Document::parse_with("<a><!-- c --><?t d?><b/></a>", opts).unwrap();
    let a = doc.root_element().unwrap();
    assert_eq!(doc.children(a).count(), 1);
}

#[test]
fn whitespace_text_dropped_by_default_kept_on_request() {
    let src = "<a>\n  <b/>\n</a>";
    let doc = Document::parse(src).unwrap();
    assert_eq!(doc.children(doc.root_element().unwrap()).count(), 1);

    let opts = ParseOptions { keep_whitespace_text: true, ..Default::default() };
    let doc = Document::parse_with(src, opts).unwrap();
    assert_eq!(doc.children(doc.root_element().unwrap()).count(), 3);
}

#[test]
fn parse_declaration_and_doctype() {
    let src = r#"<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE note [ <!ELEMENT note (#PCDATA)> ]>
<note>hi</note>"#;
    let doc = Document::parse(src).unwrap();
    assert_eq!(doc.string_value(doc.root_element().unwrap()), "hi");
}

#[test]
fn parse_mixed_content() {
    let doc = Document::parse("<p>one <b>two</b> three</p>").unwrap();
    let p = doc.root_element().unwrap();
    assert_eq!(doc.children(p).count(), 3);
    assert_eq!(doc.string_value(p), "one two three");
}

#[test]
fn error_mismatched_tag() {
    let err = Document::parse("<a><b></a></b>").unwrap_err();
    assert!(matches!(err.kind, ParseErrorKind::MismatchedTag { .. }), "{err}");
}

#[test]
fn error_unexpected_eof() {
    let err = Document::parse("<a><b>").unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
}

#[test]
fn error_positions_are_reported() {
    let err = Document::parse("<a>\n  <b x=1/>\n</a>").unwrap_err();
    assert_eq!(err.pos.line, 2);
    assert!(err.pos.col > 1);
}

#[test]
fn error_multiple_roots() {
    let err = Document::parse("<a/><b/>").unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::MultipleRootElements);
}

#[test]
fn error_no_root() {
    let err = Document::parse("<!-- only a comment -->").unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::NoRootElement);
}

#[test]
fn error_junk_after_root() {
    let err = Document::parse("<a/>junk").unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::JunkAfterRoot);
}

#[test]
fn error_duplicate_attribute() {
    let err = Document::parse(r#"<a x="1" x="2"/>"#).unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::DuplicateAttribute("x".into()));
}

#[test]
fn error_bad_reference() {
    let err = Document::parse("<a>&nosuch;</a>").unwrap_err();
    assert!(matches!(err.kind, ParseErrorKind::InvalidReference(_)));
    let err = Document::parse("<a>&#xD800;</a>").unwrap_err();
    assert!(matches!(err.kind, ParseErrorKind::InvalidCharRef(_)));
}

#[test]
fn error_lt_in_attribute() {
    let err = Document::parse(r#"<a x="a<b"/>"#).unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::ForbiddenChar('<'));
}

#[test]
fn error_invalid_name() {
    assert!(Document::parse("<1a/>").is_err());
    assert!(Document::parse("< a/>").is_err());
}

#[test]
fn unicode_names_and_text() {
    let doc = Document::parse("<日本語 属性=\"値\">テキスト</日本語>").unwrap();
    let e = doc.root_element().unwrap();
    assert_eq!(doc.tag_name(e), Some("日本語"));
    assert_eq!(doc.attribute(e, "属性"), Some("値"));
    assert_eq!(doc.string_value(e), "テキスト");
}

#[test]
fn serialize_compact_round_trip() {
    let src = r#"<catalog n="1"><book id="b&amp;1"><title>A &lt; B</title><price>9</price></book><empty/></catalog>"#;
    let doc = Document::parse(src).unwrap();
    let out = doc.to_xml_string();
    assert_eq!(out, src);
}

#[test]
fn serialize_pretty_reparses_equal() {
    let src = "<a x=\"1\"><b><c/></b><d/></a>";
    let doc = Document::parse(src).unwrap();
    let pretty =
        doc.to_xml_string_with(SerializeOptions { indent: Some(2), declaration: true });
    assert!(pretty.starts_with("<?xml"));
    assert!(pretty.contains("\n  <b>"));
    let doc2 = Document::parse(&pretty).unwrap();
    assert!(doc.subtree_eq(doc.root_element().unwrap(), &doc2, doc2.root_element().unwrap()));
}

#[test]
fn serialize_escapes_attr_specials() {
    let mut doc = Document::new();
    let root = doc.root();
    let e = doc.create_element("e");
    doc.append_child(root, e);
    doc.set_attribute(e, "v", "a\"b<c>&\n\t");
    let s = doc.to_xml_string();
    assert_eq!(s, "<e v=\"a&quot;b&lt;c&gt;&amp;&#10;&#9;\"/>");
    let back = Document::parse(&s).unwrap();
    assert_eq!(back.attribute(back.root_element().unwrap(), "v"), Some("a\"b<c>&\n\t"));
}

// --- property tests ------------------------------------------------------

/// Over a fixed ladder of SplitMix64 seeds: every run checks the same
/// documents, and a failure names the seed that replays it.
mod props {
    use super::*;
    use xmlgen::SplitMix64;

    const CASES: u64 = 256;

    /// Names the case's seed when the property panics.
    struct SeedOnPanic(u64);

    impl Drop for SeedOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing seed: {:#x}", self.0);
            }
        }
    }

    /// Runs `property` on one random document per seed `base..base + CASES`.
    fn for_each_tree(base: u64, property: impl Fn(&str)) {
        for seed in base..base + CASES {
            let _named = SeedOnPanic(seed);
            let mut src = String::new();
            tree(&mut SplitMix64::seed_from_u64(seed), 4, &mut src);
            property(&src);
        }
    }

    /// A random document as a nested element structure: up to `depth`
    /// levels of `r`/`s`/`t` elements with up to four children each, over
    /// leaves holding up to twelve printable ASCII characters.
    fn tree(rng: &mut SplitMix64, depth: usize, out: &mut String) {
        if depth == 0 || rng.gen_bool(0.3) {
            let n = ["a", "b", "c", "item", "x-y", "n_1"][rng.gen_range(0..6usize)];
            let text: String =
                (0..rng.gen_range(0..=12usize)).map(|_| rng.gen_range(b' '..=b'~') as char).collect();
            let escaped = text.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;");
            if escaped.trim().is_empty() {
                out.push_str(&format!("<{n}/>"));
            } else {
                out.push_str(&format!("<{n}>{escaped}</{n}>"));
            }
            return;
        }
        let n = ["r", "s", "t"][rng.gen_range(0..3usize)];
        let kids = rng.gen_range(0..5usize);
        if kids == 0 {
            out.push_str(&format!("<{n}/>"));
            return;
        }
        out.push_str(&format!("<{n}>"));
        for _ in 0..kids {
            tree(rng, depth - 1, out);
        }
        out.push_str(&format!("</{n}>"));
    }

    #[test]
    fn parse_serialize_round_trip() {
        for_each_tree(0x1000, |src| {
            let doc = Document::parse(src).unwrap();
            let out = doc.to_xml_string();
            let doc2 = Document::parse(&out).unwrap();
            assert!(
                doc.subtree_eq(doc.root(), &doc2, doc2.root()),
                "round trip changed the tree: {src} -> {out}"
            );
            // Serialization is a fixed point after one round.
            assert_eq!(doc2.to_xml_string(), out);
        });
    }

    #[test]
    fn descendant_count_matches_node_count() {
        for_each_tree(0x2000, |src| {
            let doc = Document::parse(src).unwrap();
            assert_eq!(doc.descendants(doc.root()).count(), doc.node_count());
        });
    }

    #[test]
    fn document_order_total() {
        for_each_tree(0x3000, |src| {
            let doc = Document::parse(src).unwrap();
            let nodes: Vec<_> = doc.descendants(doc.root()).collect();
            // cmp_document_order must agree with preorder position.
            for (i, &x) in nodes.iter().enumerate().step_by(3) {
                for (j, &y) in nodes.iter().enumerate().step_by(5) {
                    assert_eq!(doc.cmp_document_order(x, y), i.cmp(&j));
                }
            }
        });
    }
}
