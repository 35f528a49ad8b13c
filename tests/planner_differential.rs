//! Differential correctness for the query planner (`crates/plan`).
//!
//! The planner must be an invisible optimisation: for every query it
//! accepts, planned execution returns exactly the node set the step-by-step
//! evaluator returns — same nodes, same document order — across every axis
//! engine in the workspace. Two sweeps enforce that:
//!
//! 1. **Exhaustive**: every ordered tree shape with up to seven nodes
//!    (197 Catalan shapes), tags cycled by depth so the path summary has
//!    several distinct paths, against a corpus mixing `/`, `//`,
//!    wildcards, structural and positional predicates.
//! 2. **XMark**: a generated auction document with the E4 benchmark corpus
//!    (value predicates, `count()`, attribute tests), planner on vs. off.
//! 3. **Value semantics**: a hand-written document of the values a posting
//!    list can get wrong — `2` / `2.0` / ` 2 `, empty elements, `NaN`,
//!    `inf`, `-0`, mixed content, repeated children — against every
//!    predicate shape a value-probe takes and the shapes it must leave.

use ruid::prelude::*;
use ruid::{
    planned_query, xmark, AncestryScheme, DocOrder, IntervalScheme, NameIndex, NameIndexed,
    NodeId, PartitionConfig as Pc, PathSummary, SpanAxes, SplitMix64, UidScheme,
};
use testkit::{shapes, trees, Tags, ABC_QUERIES};

/// Runs one query through the planner and through every engine, asserting
/// byte-identical (node-for-node) answers with the plain tree walk as the
/// oracle. Queries the evaluator itself rejects must be rejected by the
/// planner path too. Takes the path summary and rUID numbering from the
/// caller so the update sweep can hand in *incrementally maintained*
/// instances rather than from-scratch rebuilds; `ctx` names the document
/// (shape index, seed, source XML) in every failure message.
fn assert_engines_agree(
    doc: &Document,
    summary: &PathSummary,
    ruid2: &Ruid2Scheme,
    interval: &IntervalScheme,
    ancestry: &AncestryScheme,
    ctx: &str,
    queries: &[&str],
) {
    let order = DocOrder::build(doc);
    let index = NameIndex::build(doc);
    let uid = UidScheme::build(doc);

    let tree_eval = Evaluator::new(doc, TreeAxes::with_order(doc, &order));
    let uid_eval = Evaluator::new(doc, UidAxes::with_order(&uid, &order));
    let ruid_eval = Evaluator::new(doc, RuidAxes::with_order(ruid2, &order));
    let span_eval =
        Evaluator::new(doc, SpanAxes::with_order(interval.span_index(), "interval", &order));
    let anc_eval =
        Evaluator::new(doc, SpanAxes::with_order(ancestry.span_index(), "ancestry", &order));
    let idx_eval = Evaluator::new(
        doc,
        NameIndexed::new(TreeAxes::with_order(doc, &order), doc, &index),
    );

    for q in queries {
        let oracle: Result<Vec<NodeId>, String> =
            tree_eval.query(q).map_err(|e| e.to_string());
        let planned = planned_query(q, doc, summary, &order, &idx_eval);
        match (&oracle, &planned) {
            (Ok(expect), Ok((got, _, _))) => {
                assert_eq!(
                    got, expect,
                    "planned vs tree walk for query {q} {ctx}\n  planned: {got:?}\n  tree:    {expect:?}"
                );
                let uid_got = uid_eval.query(q).unwrap();
                assert_eq!(
                    &uid_got, expect,
                    "uid engine drifted for query {q} {ctx}\n  uid:  {uid_got:?}\n  tree: {expect:?}"
                );
                let ruid_got = ruid_eval.query(q).unwrap();
                assert_eq!(
                    &ruid_got, expect,
                    "ruid engine drifted for query {q} {ctx}\n  ruid: {ruid_got:?}\n  tree: {expect:?}"
                );
                let idx_got = idx_eval.query(q).unwrap();
                assert_eq!(
                    &idx_got, expect,
                    "indexed engine drifted for query {q} {ctx}\n  indexed: {idx_got:?}\n  tree:    {expect:?}"
                );
                let span_got = span_eval.query(q).unwrap();
                assert_eq!(
                    &span_got, expect,
                    "interval engine drifted for query {q} {ctx}\n  interval: {span_got:?}\n  tree:     {expect:?}"
                );
                let anc_got = anc_eval.query(q).unwrap();
                assert_eq!(
                    &anc_got, expect,
                    "ancestry engine drifted for query {q} {ctx}\n  ancestry: {anc_got:?}\n  tree:     {expect:?}"
                );
            }
            (Err(_), Err(_)) => {} // both reject — fine, as long as they agree
            (Ok(_), Err(e)) => panic!("planner rejected {q} the evaluator accepts ({ctx}): {e}"),
            (Err(e), Ok(_)) => panic!("planner accepted {q} the evaluator rejects ({ctx}): {e}"),
        }
    }
}

/// [`assert_engines_agree`] with a from-scratch summary and numbering —
/// the static (no-update) sweeps.
fn assert_planner_agrees(doc: &Document, xml: &str, queries: &[&str]) {
    let summary = PathSummary::build(doc);
    let ruid2 = Ruid2Scheme::build(doc, &Pc::by_depth(2));
    let interval = IntervalScheme::build(doc);
    let ancestry = AncestryScheme::build(doc);
    assert_engines_agree(
        doc,
        &summary,
        &ruid2,
        &interval,
        &ancestry,
        &format!("on {xml}"),
        queries,
    );
}

/// The depth-cycled enumeration still follows the Catalan numbers, so the
/// sweep below covers every shape.
#[test]
fn tagged_enumeration_matches_catalan_numbers() {
    let expected = [1usize, 1, 2, 5, 14, 42, 132];
    for (n, &count) in (1..=7).zip(expected.iter()) {
        assert_eq!(trees(n, Tags::ByDepth).len(), count, "ordered trees with {n} nodes");
    }
}

/// Planned execution equals every engine on all 197 tree shapes × the
/// query corpus.
#[test]
fn planner_agrees_with_every_engine_on_every_small_tree() {
    let mut total = 0usize;
    for n in 1..=7 {
        for xml in trees(n, Tags::ByDepth) {
            let doc = Document::parse(&xml)
                .unwrap_or_else(|e| panic!("generated XML {xml} must parse: {e}"));
            assert_planner_agrees(&doc, &xml, ABC_QUERIES);
            total += 1;
        }
    }
    assert_eq!(total, 197, "full Catalan sweep: 1+1+2+5+14+42+132 shapes");
}

/// Asserts the incrementally maintained interval + ancestry numberings
/// are **byte-identical** to from-scratch rebuilds: same label for every
/// node and the same encoded bytes — the property that makes their
/// `on_insert`/`on_delete` hooks trustworthy inside the MVCC commit path.
fn assert_span_schemes_match_rebuild(
    doc: &Document,
    interval: &IntervalScheme,
    ancestry: &AncestryScheme,
    ctx: &str,
) {
    let fresh_interval = IntervalScheme::build(doc);
    let fresh_ancestry = AncestryScheme::build(doc);
    let root = doc.root_element().expect("document has a root element");
    let (mut live_bytes, mut fresh_bytes) = (0usize, 0usize);
    for node in doc.descendants(root) {
        let (live, fresh) = (interval.label_of(node), fresh_interval.label_of(node));
        assert_eq!(live, fresh, "incremental interval label drifted from rebuild {ctx}");
        live_bytes += interval.encoded_bytes(&live);
        fresh_bytes += fresh_interval.encoded_bytes(&fresh);
        let (live, fresh) = (ancestry.label_of(node), fresh_ancestry.label_of(node));
        assert_eq!(live, fresh, "incremental ancestry label drifted from rebuild {ctx}");
        live_bytes += ancestry.encoded_bytes(&live);
        fresh_bytes += fresh_ancestry.encoded_bytes(&fresh);
    }
    assert_eq!(live_bytes, fresh_bytes, "encoded sizes diverged from rebuild {ctx}");
}

/// The update dimension over the same 197 shapes: a seeded insert then
/// (where a non-root victim exists) a seeded delete, renumbering
/// incrementally through the scheme's own `on_insert`/`on_delete` and
/// patching the path summary in place exactly as the serving catalog's
/// copy-on-write commit path does (with the same rebuild fallback). After
/// each mutation the patched summary must canonically equal a from-scratch
/// rebuild, every engine must stay node-identical on the corpus, and the
/// incrementally maintained interval/ancestry labels must be byte-identical
/// to rebuilds.
#[test]
fn updates_preserve_engine_agreement_on_every_small_tree() {
    const SEED: u64 = 0x5EED_2026;
    let mut shape = 0usize;
    let mut deletes = 0usize;
    for n in 1..=7 {
        for xml in trees(n, Tags::ByDepth) {
            let mut doc = Document::parse(&xml)
                .unwrap_or_else(|e| panic!("generated XML {xml} must parse: {e}"));
            let mut scheme = Ruid2Scheme::build(&doc, &Pc::by_depth(2));
            let mut interval = IntervalScheme::build(&doc);
            let mut ancestry = AncestryScheme::build(&doc);
            let mut summary = PathSummary::build(&doc);
            let mut rng = SplitMix64::seed_from_u64(SEED ^ shape as u64);
            let root = doc.root_element().expect("generated trees have a root element");

            // Seeded insert: a fresh element (or, one time in four, a text
            // node) at a random position under a random existing element.
            let parents: Vec<NodeId> =
                doc.descendants(root).filter(|&d| doc.element_name(d).is_some()).collect();
            let parent = parents[rng.gen_range(0..parents.len())];
            let slots = doc.children(parent).count() + 1;
            let position = rng.gen_range(0..slots);
            let new_node = if rng.gen_bool(0.25) {
                doc.create_text("t")
            } else {
                let tag = ["a", "b", "c"][rng.gen_range(0..3usize)];
                doc.create_element(tag)
            };
            match doc.children(parent).nth(position) {
                Some(anchor) => doc.insert_before(anchor, new_node),
                None => doc.append_child(parent, new_node),
            }
            scheme.on_insert(&doc, new_node);
            interval.on_insert(&doc, new_node);
            ancestry.on_insert(&doc, new_node);
            let order = DocOrder::build(&doc);
            summary.patch_insert(&doc, &order, new_node);
            assert_eq!(
                summary.canonical(&doc),
                PathSummary::build(&doc).canonical(&doc),
                "patched summary drifted from a rebuild after insert: \
                 shape #{shape} seed {SEED:#x} on {xml}"
            );
            let ctx = format!("shape #{shape} seed {SEED:#x} after insert (from {xml})");
            assert_span_schemes_match_rebuild(&doc, &interval, &ancestry, &ctx);
            assert_engines_agree(
                &doc, &summary, &scheme, &interval, &ancestry, &ctx, ABC_QUERIES,
            );

            // Seeded delete of a random non-root subtree, when one exists.
            let victims: Vec<NodeId> = doc
                .descendants(root)
                .skip(1)
                .filter(|&d| doc.element_name(d).is_some())
                .collect();
            if !victims.is_empty() {
                let victim = victims[rng.gen_range(0..victims.len())];
                let removed: Vec<NodeId> = doc
                    .descendants(victim)
                    .filter(|&d| doc.element_name(d).is_some())
                    .collect();
                let parent = doc.parent(victim).expect("non-root victim has a parent");
                doc.detach(victim);
                scheme.on_delete(&doc, parent, victim);
                interval.on_delete(&doc, parent, victim);
                ancestry.on_delete(&doc, parent, victim);
                summary.patch_delete(&removed);
                // Ranks are stale but survivors keep their relative order,
                // which is all the re-filing compares.
                summary.refresh_text(&doc, &order, parent);
                assert_eq!(
                    summary.canonical(&doc),
                    PathSummary::build(&doc).canonical(&doc),
                    "patched summary drifted from a rebuild after delete: \
                     shape #{shape} seed {SEED:#x} on {xml}"
                );
                let ctx =
                    format!("shape #{shape} seed {SEED:#x} after insert+delete (from {xml})");
                assert_span_schemes_match_rebuild(&doc, &interval, &ancestry, &ctx);
                assert_engines_agree(
                    &doc, &summary, &scheme, &interval, &ancestry, &ctx, ABC_QUERIES,
                );
                deletes += 1;
            }
            shape += 1;
        }
    }
    assert_eq!(shape, 197, "full Catalan sweep: 1+1+2+5+14+42+132 shapes");
    assert!(deletes >= 150, "most shapes must exercise the delete path, got {deletes}");
}

/// The three holders of the shared pre-order span table, maintained by
/// splices through a seeded chain of inserts and deletes and held to
/// from-scratch rebuilds after every step.
struct SplicedSpans {
    order: DocOrder,
    interval: IntervalScheme,
    ancestry: AncestryScheme,
    /// Whether the ancestry allocation changed mode along the way.
    mode_flips: usize,
}

/// Labels a rebuild gives the `survivors` before and after an edit, counted
/// where they differ: the recompute-and-diff the schemes' `on_insert` /
/// `on_delete` used to run, kept as the oracle for their `RelabelStats`.
fn relabeled_by_rebuild<S: NumberingScheme>(before: &S, after: &S, survivors: &[NodeId]) -> usize
where
    S::Label: PartialEq,
{
    survivors.iter().filter(|&&n| before.label_of(n) != after.label_of(n)).count()
}

impl SplicedSpans {
    fn build(doc: &Document) -> SplicedSpans {
        SplicedSpans {
            order: DocOrder::build(doc),
            interval: IntervalScheme::build(doc),
            ancestry: AncestryScheme::build(doc),
            mode_flips: 0,
        }
    }

    /// One seeded edit of `doc` — an insert (a leaf, or one time in four a
    /// three-node subtree) or the delete of a non-root subtree — spliced
    /// into all three holders and checked against rebuilds.
    fn step(&mut self, doc: &mut Document, rng: &mut SplitMix64, ctx: &str) {
        let root = doc.root_element().expect("root element");
        let before: Vec<NodeId> = doc.descendants(root).collect();
        let (old_interval, old_ancestry) = (IntervalScheme::build(doc), AncestryScheme::build(doc));
        let old_mode = self.ancestry.mode();
        let victims = &before[1..];
        let (stats, what) = if victims.is_empty() || rng.gen_bool(0.6) {
            let parents: Vec<NodeId> =
                before.iter().copied().filter(|&n| doc.element_name(n).is_some()).collect();
            let parent = parents[rng.gen_range(0..parents.len())];
            let position = rng.gen_range(0..doc.children(parent).count() + 1);
            let new = if rng.gen_bool(0.25) { doc.create_text("t") } else { doc.create_element("x") };
            if doc.element_name(new).is_some() && rng.gen_bool(0.25) {
                let child = doc.create_element("y");
                doc.append_child(new, child);
                let leaf = doc.create_text("z");
                doc.append_child(child, leaf);
            }
            match doc.children(parent).nth(position) {
                Some(anchor) => doc.insert_before(anchor, new),
                None => doc.append_child(parent, new),
            }
            self.order.insert_subtree(doc, new);
            ((self.interval.on_insert(doc, new), self.ancestry.on_insert(doc, new)), "insert")
        } else {
            let victim = victims[rng.gen_range(0..victims.len())];
            let parent = doc.parent(victim).expect("non-root victim");
            doc.detach(victim);
            self.order.remove_subtree(victim);
            let stats = (
                self.interval.on_delete(doc, parent, victim),
                self.ancestry.on_delete(doc, parent, victim),
            );
            (stats, "delete")
        };
        let ctx = format!("{ctx} after {what}");
        self.mode_flips += usize::from(self.ancestry.mode() != old_mode);

        // The spliced table is the rebuilt one, column by column.
        let rebuilt = DocOrder::build(doc);
        assert_eq!(self.order, rebuilt, "spliced span table drifted from a rebuild {ctx}");
        for i in 0..doc.arena_len() {
            let node = NodeId::from_index(i);
            assert_eq!(self.order.rank(node), rebuilt.rank(node), "rank {ctx}");
            assert_eq!(self.order.end_rank(node), rebuilt.end_rank(node), "end rank {ctx}");
        }
        // So are both encodings of it, in both directions.
        assert_span_schemes_match_rebuild(doc, &self.interval, &self.ancestry, &ctx);
        assert_eq!(self.ancestry.mode(), AncestryScheme::build(doc).mode(), "mode {ctx}");
        let after: Vec<NodeId> = doc.descendants(root).collect();
        for &node in &after {
            let label = self.interval.label_of(node);
            assert_eq!(self.interval.node_of(&label), Some(node), "interval node_of {ctx}");
            let label = self.ancestry.label_of(node);
            assert_eq!(self.ancestry.node_of(&label), Some(node), "ancestry node_of {ctx}");
        }
        // And the relabel counts are what recompute-and-diff reports.
        let survivors: Vec<NodeId> =
            before.iter().copied().filter(|n| self.order.contains(*n)).collect();
        let dropped = before.len() - survivors.len();
        let want = relabeled_by_rebuild(&old_interval, &IntervalScheme::build(doc), &survivors);
        assert_eq!((stats.0.relabeled, stats.0.dropped), (want, dropped), "interval stats {ctx}");
        let want = relabeled_by_rebuild(&old_ancestry, &AncestryScheme::build(doc), &survivors);
        assert_eq!((stats.1.relabeled, stats.1.dropped), (want, dropped), "ancestry stats {ctx}");
    }
}

/// Splices against rebuilds over all 197 shapes (a short seeded chain
/// each) and one long chain on an XMark document; somewhere along the way
/// the ancestry allocation must cross its small-depth / compact boundary.
#[test]
fn spliced_span_table_equals_a_rebuild_after_every_edit() {
    const SEED: u64 = 0x5EED_2B24;
    let mut mode_flips = 0usize;
    let mut shape = 0usize;
    for n in 1..=7 {
        for xml in trees(n, Tags::ByDepth) {
            let mut doc = Document::parse(&xml).expect("generated XML parses");
            let mut spans = SplicedSpans::build(&doc);
            let mut rng = SplitMix64::seed_from_u64(SEED ^ shape as u64);
            for step in 0..6 {
                let ctx = format!(
                    "(shape #{shape}, failing seed: {:#x}, step {step}, from {xml})",
                    SEED ^ shape as u64
                );
                spans.step(&mut doc, &mut rng, &ctx);
            }
            mode_flips += spans.mode_flips;
            shape += 1;
        }
    }
    assert_eq!(shape, 197, "full Catalan sweep: 1+1+2+5+14+42+132 shapes");

    let mut doc = xmark::generate(&xmark::XmarkConfig::scaled_to(1_200, 42));
    let mut spans = SplicedSpans::build(&doc);
    let mut rng = SplitMix64::seed_from_u64(SEED);
    for step in 0..520 {
        let ctx = format!("(xmark 1200, failing seed: {SEED:#x}, step {step})");
        spans.step(&mut doc, &mut rng, &ctx);
    }
    mode_flips += spans.mode_flips;
    assert!(mode_flips >= 1, "no chain crossed the ancestry mode boundary");
}

/// The E4/E14 benchmark corpus (plus the two historically slow queries) on
/// a generated XMark document: planner on vs. off, every engine.
#[test]
fn planner_agrees_on_xmark_corpus() {
    const XMARK_QUERIES: &[&str] = &[
        "/regions/europe/item",
        "//item/name",
        "//item//text",
        "//item[@id='item7']",
        "//person[address]/name",
        "//open_auction[bidder/increase > 10]",
        "//item[location = 'asia']",
        "//open_auction[count(bidder) >= 2]/current",
        "//person[profile/@income > 50000]/emailaddress",
        "//keyword",
        "//listitem//keyword",
    ];
    let doc = xmark::generate(&xmark::XmarkConfig::scaled_to(6_000, 42));
    assert_planner_agrees(&doc, "<xmark scaled_to=6000 seed=42>", XMARK_QUERIES);
}

/// A document of awkward values: numerically equal but textually different
/// quantities, empty elements, `NaN` / `inf` / `-0` text, a string-value
/// split over two text nodes and one in mixed content (both unindexed), a
/// repeated child, an id shared by items on two summary paths, several
/// bidders per auction, attributes that need trimming to parse.
const VALUE_DOC: &str = "<site><regions>\
    <africa>\
      <item id=\"i1\" k=\"x\"><quantity>2</quantity><x></x><name>gold ring</name></item>\
      <item id=\"i2\"><quantity>2.0</quantity><x>v</x><name>old map</name></item>\
      <item id=\"i3\"><quantity> 2 </quantity><name>golden</name></item>\
    </africa>\
    <asia>\
      <item id=\"i4\"><quantity>NaN</quantity><x/></item>\
      <item id=\"i5\"><quantity>inf</quantity></item>\
      <item id=\"i6\"><quantity>-0</quantity></item>\
      <item id=\"i1\"><quantity>1e1</quantity><quantity>3</quantity></item>\
      <item id=\"i8\"><quantity>2<!--c-->.5</quantity></item>\
      <item id=\"i9\"><quantity>1<b>2</b></quantity></item>\
    </asia>\
  </regions>\
  <open_auctions>\
    <open_auction id=\"o1\"><bidder><increase>3</increase></bidder>\
      <bidder><increase>12.5</increase></bidder></open_auction>\
    <open_auction id=\"o2\"><bidder><increase>1</increase></bidder></open_auction>\
    <open_auction id=\"o3\"/>\
    <open_auction id=\"o4\"><bidder><increase>x</increase></bidder><bidder/></open_auction>\
  </open_auctions>\
  <people><person id=\"p1\"><profile income=\"50000.5\"/></person>\
    <person id=\"p2\"><profile income=\" 7 \"/><profile income=\"90000\"/></person>\
    <person id=\"p3\"/></people></site>";

const VALUE_QUERIES: &[&str] = &[
    // String vs numeric equality.
    "//item[quantity = 2]",
    "//item[quantity = '2']",
    "//item[quantity = '2.0']",
    "//item[quantity = ' 2 ']",
    // Empty elements and missing operands.
    "//item[x = '']",
    "//item[x]",
    "//item[nosuch = 'a']",
    "//item[@nosuch = 'a']",
    "//item[@k = 'x']",
    "//open_auction[bidder/increase = '']",
    // NaN, inf, -0.
    "//item[quantity = 'NaN']",
    "//item[quantity >= 0]",
    "//item[quantity = 0]",
    "//item[quantity < 1]",
    "//item[quantity > 1000000]",
    "//item[quantity <= 2]",
    // Relational operators against a literal compare numbers.
    "//item[quantity > '2']",
    "//item[quantity < 'abc']",
    // Existential semantics over repeated children.
    "//item[quantity = 3]",
    "//item[quantity > 9]",
    "//open_auction[bidder/increase > 10]",
    "//open_auction[bidder/increase > 2]",
    "//open_auction[bidder/increase < 2]",
    "//open_auction[bidder/increase = 'x']",
    "//person[profile/@income > 50000]",
    "//person[profile/@income = 7]",
    "//person[profile/@income = ' 7 ']",
    // Unindexed members: two text nodes, mixed content.
    "//item[quantity = 2.5]",
    "//item[quantity = '2.5']",
    "//item[quantity = 12]",
    "//item[quantity > 11]",
    // Shapes that are never probed.
    "//item[quantity != 2]",
    "//item[@id != 'i1']",
    "//item[@id = 'i1' or quantity = 3]",
    "//item[not(quantity = 2)]",
    "//item[contains(name, 'gold')]",
    "//item[starts-with(name, 'gold')]",
    "//item['i1' = @id]",
    "//item[2 = quantity]",
    "//item[quantity = quantity]",
    "//item[quantity//b = 2]",
    "//item[attribute::* = 'x']",
    "//item[count(quantity) = 2]",
    "//item[string-length(name) > 6]",
    "//item[/site/regions/africa/item/quantity = 2]",
    // Positional predicates before and after a probe-able one.
    "//item[1][@id = 'i1']",
    "//item[@id = 'i1'][1]",
    "//africa/item[quantity = 2][2]",
    "//item[quantity = 2][last()]",
    // One attribute name on several summary paths.
    "//item[@id = 'i1']",
    "//*[@id = 'i1']",
    "//*[@id = 'p1']",
    "/regions/*/item[@id = 'i1']",
    // Probes feeding joins, probes on joins, several probes on one step.
    "//item[quantity = 2]/name",
    "//regions//item[@id = 'i1']/quantity",
    "//item[@id = 'i1'][quantity = 2]/name",
    "//item[quantity = 2][x = 'v']",
    "//item[quantity >= 2][@id = 'i1']",
    "//item[quantity = 2][contains(name, 'gold')]/name",
    "//open_auction[@id = 'o1']/bidder[increase > 10]",
    "//open_auction[bidder]/bidder[increase > 2]/increase",
    "//site//open_auction[@id = 'o1']//increase",
    "//regions[africa]//item[quantity = 2]",
];

/// Planned vs `tree` (and every other engine) on the value-semantics
/// corpus.
#[test]
fn planner_agrees_on_value_semantics() {
    let doc = Document::parse(VALUE_DOC).unwrap();
    assert_planner_agrees(&doc, "<value semantics document>", VALUE_QUERIES);
    // The corpus is only a test of the probes if it reaches them — and of
    // the unindexed list if something sits on it.
    let summary = PathSummary::build(&doc);
    let probed = VALUE_QUERIES
        .iter()
        .filter(|q| {
            let path = ruid::parse_xpath(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            ruid::plan_query(&path, &summary, &doc).ops.iter().any(|op| !op.probes.is_empty())
        })
        .count();
    assert!(probed >= 40, "only {probed} corpus queries plan a value-probe");
    assert!(summary.canonical(&doc).iter().any(|(row, _)| row.ends_with("/quantity unindexed")));
}

/// The borrowed string-value is the built one, on every node: of all 197
/// shapes (elements only), and of a document with every kind of content.
#[test]
fn borrowed_string_value_equals_the_built_one() {
    let mixed = "<a>t<b>u<!--c-->v</b><c/><d>w</d><?p q?><e><f>x</f>y</e>\
                 <g><![CDATA[z]]>z</g><h><!--only--></h></a>";
    let corpus =
        shapes(Tags::ByDepth).chain([mixed.to_string(), VALUE_DOC.to_string()]);
    let mut lent = 0usize;
    for xml in corpus {
        let doc = Document::parse(&xml).unwrap();
        for node in doc.descendants(doc.root()) {
            let borrowed = doc.string_value_cow(node);
            assert_eq!(borrowed, doc.string_value(node), "node {node:?} of {xml}");
            lent += usize::from(matches!(borrowed, std::borrow::Cow::Borrowed(_)));
        }
    }
    assert!(lent > 197, "leaves and single-text elements must be lent, not built: {lent}");
}
