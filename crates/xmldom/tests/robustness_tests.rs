//! Parser robustness: arbitrary input must never panic — it either parses
//! or returns a positioned error. Plus targeted pathological inputs. The
//! arbitrary inputs come from a fixed ladder of SplitMix64 seeds, so every
//! run checks the same cases and a failure names the seed that replays it.

use xmldom::{Document, ParseOptions};
use xmlgen::SplitMix64;

const CASES: u64 = 512;

/// Names the case's seed when the property panics.
struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing seed: {:#x}", self.0);
        }
    }
}

/// Runs `property` once per seed `base..base + CASES`.
fn for_each_seed(base: u64, property: impl Fn(&mut SplitMix64)) {
    for seed in base..base + CASES {
        let _named = SeedOnPanic(seed);
        property(&mut SplitMix64::seed_from_u64(seed));
    }
}

/// Fewer than `max` of `parts`, drawn with repetition and concatenated.
fn soup(rng: &mut SplitMix64, parts: &[&str], max: usize) -> String {
    (0..rng.gen_range(0..max)).map(|_| parts[rng.gen_range(0..parts.len())]).collect()
}

/// Totally arbitrary strings: no panics, ever.
#[test]
fn never_panics_on_arbitrary_input() {
    for_each_seed(0x1000, |rng| {
        // Half ASCII (control characters included), half any scalar value.
        let input: String = (0..rng.gen_range(0..=300usize))
            .map(|_| {
                let limit: u32 = if rng.gen_bool(0.5) { 0x80 } else { 0x11_0000 };
                char::from_u32(rng.gen_range(0..limit)).unwrap_or('\u{FFFD}')
            })
            .collect();
        let _ = Document::parse(&input);
    });
}

/// XML-flavoured soup: strings biased toward markup characters hit the
/// parser's interesting branches far more often.
#[test]
fn never_panics_on_markup_soup() {
    const PARTS: &[&str] = &[
        "<", ">", "</", "/>", "<a", "<a>", "</a>", "a", "=", "\"", "'", "<!--", "-->",
        "<![CDATA[", "]]>", "<?", "?>", "&", ";", "&lt;", "&#65;", "&#x41;", "&#xD800;", " ",
        "\n", "<!DOCTYPE", "[", "]", "x=\"1\"", "日本",
    ];
    for_each_seed(0x2000, |rng| {
        let input = soup(rng, PARTS, 40);
        let _ = Document::parse(&input);
        let _ = Document::parse_with(&input, ParseOptions {
            keep_whitespace_text: true,
            keep_comments: false,
            keep_pis: false,
        });
    });
}

/// Whatever parses must serialize and re-parse to an equal tree.
#[test]
fn accepted_input_round_trips() {
    const PARTS: &[&str] = &[
        "<a>", "</a>", "<b/>", "text", "&amp;", "<c x=\"1\">", "</c>", "<!--n-->",
        "<![CDATA[raw]]>",
    ];
    let accepted = std::cell::Cell::new(0);
    for_each_seed(0x3000, |rng| {
        // Bare soup rarely has exactly one root element; wrapped, it parses
        // whenever its tags balance.
        let mut input = soup(rng, PARTS, 20);
        if rng.gen_bool(0.75) {
            input = format!("<r>{input}</r>");
        }
        if let Ok(doc) = Document::parse(&input) {
            accepted.set(accepted.get() + 1);
            let out = doc.to_xml_string();
            let doc2 = Document::parse(&out).expect("serializer output must parse");
            assert!(doc.subtree_eq(doc.root(), &doc2, doc2.root()), "{input:?} -> {out:?}");
        }
    });
    assert!(accepted.get() >= 32, "only {} inputs parsed: the property is vacuous", accepted.get());
}

#[test]
fn pathological_nesting_depth() {
    // 20k-deep nesting: the parser recurses per element, so this both
    // checks correctness and documents the practical depth budget.
    let depth = 20_000;
    let mut src = String::with_capacity(depth * 7);
    for _ in 0..depth {
        src.push_str("<d>");
    }
    for _ in 0..depth {
        src.push_str("</d>");
    }
    let doc = Document::parse(&src).unwrap();
    assert_eq!(doc.node_count(), depth + 1);
}

#[test]
fn huge_attribute_and_text() {
    let big = "x".repeat(1 << 20);
    let src = format!("<a v=\"{big}\">{big}</a>");
    let doc = Document::parse(&src).unwrap();
    let a = doc.root_element().unwrap();
    assert_eq!(doc.attribute(a, "v").unwrap().len(), 1 << 20);
    assert_eq!(doc.string_value(a).len(), 1 << 20);
}

#[test]
fn many_attributes() {
    let mut src = String::from("<a");
    for i in 0..1_000 {
        src.push_str(&format!(" a{i}=\"{i}\""));
    }
    src.push_str("/>");
    let doc = Document::parse(&src).unwrap();
    let a = doc.root_element().unwrap();
    assert_eq!(doc.attributes(a).len(), 1_000);
    assert_eq!(doc.attribute(a, "a999"), Some("999"));
}

#[test]
fn deeply_broken_inputs_error_cleanly() {
    for src in [
        "<", "<a", "<a ", "<a x", "<a x=", "<a x=\"", "<a x=\"1\"", "<a>",
        "</a>", "<a></b>", "<a><![CDATA[", "<a><!--", "<a>&", "<a>&#;</a>",
        "<a>&#xFFFFFFFF;</a>", "<?", "<!DOCTYPE", "\u{0}", "<\u{0}>",
    ] {
        assert!(Document::parse(src).is_err(), "{src:?} should not parse");
    }
}

#[test]
fn crlf_and_tabs_in_content() {
    let doc = Document::parse("<a>line1\r\nline2\tend</a>").unwrap();
    assert_eq!(doc.string_value(doc.root_element().unwrap()), "line1\r\nline2\tend");
}

#[test]
fn deep_document_serializes_iteratively() {
    // The serializer, like the parser, must survive pathological depth.
    let depth = 20_000;
    let mut src = String::with_capacity(depth * 7);
    for _ in 0..depth {
        src.push_str("<d>");
    }
    for _ in 0..depth {
        src.push_str("</d>");
    }
    let doc = Document::parse(&src).unwrap();
    let out = doc.to_xml_string();
    // The innermost (empty) element serializes self-closing.
    let expected =
        format!("{}<d/>{}", "<d>".repeat(depth - 1), "</d>".repeat(depth - 1));
    assert_eq!(out, expected);
    // Pretty-printing the same document also survives. Zero-width
    // indentation: one space per level would be 400 MB of spaces here.
    let pretty = doc.to_xml_string_with(xmldom::SerializeOptions {
        indent: Some(0),
        declaration: false,
    });
    assert!(pretty.lines().count() > depth);
}

#[test]
fn cdata_coalesces_with_adjacent_text() {
    // Regression caught by the round-trip property: adjacent character
    // data (CDATA/text in any order) must form one text node.
    let doc = Document::parse("<c>pre<![CDATA[raw]]>post</c>").unwrap();
    let c = doc.root_element().unwrap();
    assert_eq!(doc.children(c).count(), 1);
    assert_eq!(doc.string_value(c), "prerawpost");
    let doc = Document::parse("<c><![CDATA[a]]> <![CDATA[b]]></c>").unwrap();
    let c = doc.root_element().unwrap();
    assert_eq!(doc.children(c).count(), 1);
    assert_eq!(doc.string_value(c), "a b");
}
