//! Copy-on-write generations of a numbered document, staged the way a
//! commit stages them (`LoadedDoc::apply_update`): clone the pinned
//! `Document` + `Ruid2Scheme`, apply one op through `DocState`. Over the
//! 197 small tree shapes × seeded INSERT/DELETE/RELABEL chains and a
//! 520-op XMark chain (SplitMix64; every message names the seed):
//!
//! 1. **isolation** — a generation pinned before an edit reads exactly as
//!    it did (fingerprint, every arena slot's links and `kind()`,
//!    `label_of`, `node_of`), after that edit and after every later one;
//! 2. **equivalence** — the newest generation equals a from-scratch serial
//!    replay of the same ops, its per-area reverse map equals one rebuilt
//!    from its labels, and a label the edit retired resolves to nothing;
//! 3. **sharing** — one INSERT (or DELETE) into a ≥ 5k-node document
//!    copies the payload tail and the touched area's reverse map, and
//!    shares everything else by pointer.

use std::collections::BTreeSet;

use durable::{doc_fingerprint, DocState, NodeContent, WalOp};
use ruid_core::{PartitionConfig, Ruid2, Ruid2Scheme};
use schemes::NumberingScheme;
use testkit::{trees, Tags};
use xmldom::{NodeId, NodeKind, CHUNK};
use xmlgen::SplitMix64;

/// What a commit stages: the pinned generation, cloned.
fn stage(base: &DocState) -> DocState {
    DocState {
        id: base.id,
        path: base.path.clone(),
        config: base.config,
        with_store: base.with_store,
        doc: base.doc.clone(),
        scheme: base.scheme.clone(),
    }
}

/// One arena slot as readers see it.
#[derive(Debug, PartialEq)]
struct Slot {
    links: [Option<NodeId>; 5],
    kind: NodeKind,
    label: Option<Ruid2>,
    node_of_label: Option<NodeId>,
}

fn slot(state: &DocState, n: NodeId) -> Slot {
    let (d, s) = (&state.doc, &state.scheme);
    let label = s.try_label_of(n);
    Slot {
        links: [d.parent(n), d.prev_sibling(n), d.next_sibling(n), d.first_child(n), d.last_child(n)],
        kind: d.kind(n).clone(),
        label,
        node_of_label: label.and_then(|l| s.node_of(&l)),
    }
}

/// A generation pinned by a reader, with what it read when pinned.
struct Pinned {
    state: DocState,
    step: usize,
    fingerprint: u64,
    slots: Vec<Slot>,
}

impl Pinned {
    fn new(state: DocState, step: usize) -> Pinned {
        let fingerprint = doc_fingerprint(&state.doc, &state.scheme);
        let slots =
            (0..state.doc.arena_len()).map(|i| slot(&state, NodeId::from_index(i))).collect();
        Pinned { state, step, fingerprint, slots }
    }

    fn assert_unchanged(&self, ctx: &str) {
        self.assert_read_by(&self.state, ctx);
    }

    /// `s` reads exactly as this generation did when it was pinned.
    fn assert_read_by(&self, s: &DocState, ctx: &str) {
        assert_eq!(s.doc.arena_len(), self.slots.len(), "{ctx}: generation {} grew", self.step);
        for (i, want) in self.slots.iter().enumerate() {
            let n = NodeId::from_index(i);
            let (d, l) = (&s.doc, s.scheme.try_label_of(n));
            let links = [d.parent(n), d.prev_sibling(n), d.next_sibling(n), d.first_child(n), d.last_child(n)];
            if links != want.links
                || d.kind(n) != &want.kind
                || l != want.label
                || l.and_then(|l| s.scheme.node_of(&l)) != want.node_of_label
            {
                let got = slot(s, n);
                panic!("{ctx}: generation {} changed at slot {i}: {got:?} != {want:?}", self.step);
            }
        }
        let fingerprint = doc_fingerprint(&s.doc, &s.scheme);
        assert_eq!(fingerprint, self.fingerprint, "{ctx}: generation {} fingerprint", self.step);
    }
}

/// Every label of the numbering subtree.
fn labels(state: &DocState) -> Vec<(NodeId, Ruid2)> {
    let s = &state.scheme;
    state.doc.descendants(s.numbering_root()).map(|n| (n, s.label_of(n))).collect()
}

/// The reverse map is the inverse of the labels, equal to one rebuilt
/// from them, and `retired` labels resolve to nothing and take no edit.
fn assert_reverse_map_equivalent(state: &DocState, retired: &[Ruid2], ctx: &str) {
    let s = &state.scheme;
    let all = labels(state);
    for &(n, label) in &all {
        assert_eq!(s.node_of(&label), Some(n), "{ctx}: node_of(label_of({n:?}))");
    }
    let rebuilt = Ruid2Scheme::from_parts(
        &state.doc,
        s.numbering_root(),
        s.kappa(),
        s.ktable().clone(),
        *s.config(),
        &all,
    )
    .unwrap_or_else(|e| panic!("{ctx}: labels no longer restore: {e}"));
    assert_eq!(s.len(), rebuilt.len(), "{ctx}: len");
    assert_eq!(s.area_count(), rebuilt.area_count(), "{ctx}: area_count");
    assert_eq!(s.label_width_bits(), rebuilt.label_width_bits(), "{ctx}: label_width_bits");
    for (i, dead) in retired.iter().enumerate() {
        assert_eq!(s.node_of(dead), None, "{ctx}: retired {dead} still resolves");
        if i >= 2 {
            continue; // an edit stages a whole clone: two per op are plenty
        }
        let content = NodeContent::Text("x".into());
        let insert = WalOp::Insert { doc_id: 1, parent: *dead, position: 0, content };
        assert!(stage(state).apply(&insert).is_err(), "{ctx}: INSERT under retired {dead}");
        let delete = WalOp::Delete { doc_id: 1, label: *dead };
        assert!(stage(state).apply(&delete).is_err(), "{ctx}: DELETE of retired {dead}");
        // PARENT is κ/K arithmetic: a retired area answers ERR.
        if !dead.is_root && s.ktable().get(dead.global).is_none() {
            assert!(s.rparent_checked(dead).is_err(), "{ctx}: PARENT of retired {dead}");
        }
    }
}

/// Labels of `before` that label nothing in `after`.
fn retired(before: &DocState, after: &DocState) -> Vec<Ruid2> {
    let live: BTreeSet<Ruid2> = labels(after).into_iter().map(|(_, l)| l).collect();
    labels(before).into_iter().map(|(_, l)| l).filter(|l| !live.contains(l)).collect()
}

/// What the chains exercised, so a test can demand every case occurred.
#[derive(Default, Debug)]
struct Seen {
    overflows: usize,
    root_deletes: usize,
    contents: BTreeSet<&'static str>,
    relabels: usize,
}

/// One seeded op against `cur`: inserts of every content kind (elements
/// with attributes among them, sometimes under the widest element so an
/// area's fan-out overflows), deletes (sometimes of an area root's
/// subtree), and RELABEL.
fn next_op(cur: &DocState, rng: &mut SplitMix64, seen: &mut Seen) -> WalOp {
    let (doc, scheme) = (&cur.doc, &cur.scheme);
    let root = scheme.numbering_root();
    let elements: Vec<NodeId> = doc.descendants(root).filter(|&n| doc.is_element(n)).collect();
    let others: Vec<NodeId> = doc.descendants(root).filter(|&n| n != root).collect();
    let roll = rng.gen_range(0..100);
    if roll < 3 {
        seen.relabels += 1;
        return WalOp::Repartition { doc_id: 1 };
    }
    if roll < 35 && !others.is_empty() {
        let roots: Vec<NodeId> = others.iter().copied().filter(|&n| scheme.is_area_root(n)).collect();
        let victim = if !roots.is_empty() && rng.gen_bool(0.3) {
            roots[rng.gen_range(0..roots.len())]
        } else {
            others[rng.gen_range(0..others.len())]
        };
        if doc.descendants(victim).any(|n| scheme.is_area_root(n)) {
            seen.root_deletes += 1;
        }
        return WalOp::Delete { doc_id: 1, label: scheme.label_of(victim) };
    }
    let parent = if rng.gen_range(0..8) == 0 {
        // The widest element is the widest of its area: one more child
        // overflows the area's fan-out (`enlarge_area`).
        *elements.iter().max_by_key(|&&n| (doc.children(n).count(), n)).unwrap()
    } else {
        elements[rng.gen_range(0..elements.len())]
    };
    let position = rng.gen_range(0..4) as u32;
    let (name, content) = match rng.gen_range(0..5) {
        0 => ("element", NodeContent::Element { name: "ins".into(), attributes: vec![] }),
        1 => (
            "attributes",
            NodeContent::Element {
                name: "att".into(),
                attributes: vec![("k".into(), "v1".into()), ("id".into(), "n7".into())],
            },
        ),
        2 => ("text", NodeContent::Text("inserted text".into())),
        3 => ("comment", NodeContent::Comment("note".into())),
        _ => ("pi", NodeContent::Pi { target: "tgt".into(), data: "d".into() }),
    };
    seen.contents.insert(name);
    let parent_label = scheme.label_of(parent);
    let area = parent_label.global;
    if doc.children(parent).count() as u64 >= scheme.ktable().fanout(area) {
        seen.overflows += 1;
    }
    WalOp::Insert { doc_id: 1, parent: parent_label, position, content }
}

/// Runs `steps` seeded ops as copy-on-write commits from `xml`, checking
/// all three properties after every one. Generations stay pinned while
/// `keep(step, newest_step)` says so.
fn run_chain(
    xml: &str,
    config: PartitionConfig,
    seed: u64,
    steps: usize,
    keep: impl Fn(usize, usize) -> bool,
    seen: &mut Seen,
) {
    let build = || DocState::build(1, "chain.xml".into(), xml, config, false).unwrap();
    let mut serial = build();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pinned = vec![Pinned::new(build(), 0)];
    for step in 1..=steps {
        let ctx = format!("failing seed: {seed:#x}, step {step}");
        let base = &pinned.last().expect("newest generation").state;
        let op = next_op(base, &mut rng, seen);
        let mut next = stage(base);
        next.apply(&op).unwrap_or_else(|e| panic!("{ctx}: {op:?}: {e}"));
        serial.apply(&op).unwrap_or_else(|e| panic!("{ctx}: serial {op:?}: {e}"));

        let ctx = format!("{ctx} ({op:?})");
        for p in &pinned {
            p.assert_unchanged(&ctx);
        }
        assert_reverse_map_equivalent(&next, &retired(base, &next), &ctx);
        let newest = Pinned::new(next, step);
        newest.assert_read_by(&serial, &format!("{ctx}: serial replay"));
        pinned.push(newest);
        pinned.retain(|p| keep(p.step, step));
    }
}

#[test]
fn pinned_generations_are_isolated_on_every_small_tree() {
    let mut seen = Seen::default();
    let mut shapes = 0u64;
    for n in 1..=7 {
        for xml in trees(n, Tags::ByDepth) {
            let config = PartitionConfig::by_depth(1 + (shapes as usize % 2));
            // Every generation of the chain stays pinned to its end.
            run_chain(&xml, config, 0xC0_0000 + shapes, 8, |_, _| true, &mut seen);
            shapes += 1;
        }
    }
    assert_eq!(shapes, 197, "full Catalan sweep: 1+1+2+5+14+42+132 shapes");
    assert!(seen.overflows > 0 && seen.root_deletes > 0 && seen.relabels > 0, "{seen:?}");
    assert_eq!(seen.contents.len(), 5, "{seen:?}");
}

#[test]
fn pinned_generations_are_isolated_on_a_long_xmark_chain() {
    let xml = xmlgen::xmark::generate(&xmlgen::xmark::XmarkConfig::scaled_to(500, 11))
        .to_xml_string();
    let mut seen = Seen::default();
    // Pinned: the four newest generations and every 40th, to the end.
    let keep = |step: usize, newest: usize| step.is_multiple_of(40) || newest - step < 4;
    run_chain(&xml, PartitionConfig::by_depth(3), 0x5EED_C0DE, 520, keep, &mut seen);
    assert!(seen.overflows >= 5, "fan-out overflows (enlarge_area): {seen:?}");
    assert!(seen.root_deletes >= 5, "deletes of subtrees holding area roots: {seen:?}");
    assert!(seen.relabels >= 5, "RELABELs: {seen:?}");
    assert_eq!(seen.contents.len(), 5, "element, attributes, text, comment, PI: {seen:?}");
}

/// Sealed chunks of the labels column that hold a node whose label
/// `after` no longer shares with `before`.
fn relabeled_chunks(before: &DocState, after: &DocState) -> usize {
    let sealed = before.scheme.shared_label_chunks(&before.scheme).1;
    (0..before.doc.arena_len())
        .map(NodeId::from_index)
        .filter(|&n| before.scheme.try_label_of(n) != after.scheme.try_label_of(n))
        .map(|n| n.index() / CHUNK)
        .filter(|&chunk| chunk < sealed)
        .collect::<BTreeSet<_>>()
        .len()
}

/// The copy-on-write is real: a commit shares every payload chunk and
/// every untouched area's reverse map with the generation it came from,
/// by pointer — a field that deep-copies per commit fails here.
#[test]
fn a_commit_shares_all_it_does_not_write() {
    let xml = xmlgen::xmark::generate(&xmlgen::xmark::XmarkConfig::scaled_to(6_000, 3))
        .to_xml_string();
    let base = DocState::build(1, "big.xml".into(), &xml, PartitionConfig::by_depth(3), false)
        .unwrap();
    assert!(base.doc.arena_len() >= 5_000, "premise: {} nodes", base.doc.arena_len());
    let (payload_chunks, label_chunks) =
        (base.doc.shared_payload_chunks(&base.doc).1, base.scheme.shared_label_chunks(&base.scheme).1);
    assert!(payload_chunks >= 4 && label_chunks >= 4, "premise: several sealed chunks");

    // INSERT under an element deep enough to sit outside the root area.
    let root = base.scheme.numbering_root();
    let parent = base
        .doc
        .descendants(root)
        .filter(|&n| base.doc.is_element(n) && base.scheme.label_of(n).global != 1)
        .nth(1_000)
        .unwrap();
    let op = WalOp::Insert {
        doc_id: 1,
        parent: base.scheme.label_of(parent),
        position: 0,
        content: NodeContent::Element { name: "fresh".into(), attributes: vec![] },
    };
    let mut next = stage(&base);
    next.apply(&op).unwrap();
    assert_shares(&base, &next, "INSERT");

    // DELETE of an interior leaf further on.
    let leaves: Vec<NodeId> = next
        .doc
        .descendants(root)
        .filter(|&n| next.doc.first_child(n).is_none() && !next.scheme.label_of(n).is_root)
        .collect();
    let victim = leaves[leaves.len() * 3 / 4];
    let op = WalOp::Delete { doc_id: 1, label: next.scheme.label_of(victim) };
    let mut after = stage(&next);
    after.apply(&op).unwrap();
    assert_shares(&next, &after, "DELETE");
}

fn assert_shares(before: &DocState, after: &DocState, what: &str) {
    // Payload: every sealed chunk of `before` (only its tail is copied).
    let (shared, _) = after.doc.shared_payload_chunks(&before.doc);
    assert_eq!(shared, before.doc.shared_payload_chunks(&before.doc).1, "{what}: payload chunks");
    // Reverse maps: all but the one area the op renumbered.
    let (shared, areas) = after.scheme.shared_area_maps(&before.scheme);
    assert_eq!(areas - shared, 1, "{what}: area maps copied ({shared} of {areas} shared)");
    // Labels: only the chunks holding a relabeled node.
    let (shared, _) = after.scheme.shared_label_chunks(&before.scheme);
    let sealed = before.scheme.shared_label_chunks(&before.scheme).1;
    assert_eq!(sealed - shared, relabeled_chunks(before, after), "{what}: label chunks copied");
    assert!(sealed - shared <= 2, "{what}: one area's labels sit in one or two chunks");
}
