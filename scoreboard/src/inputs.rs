//! Workload inputs, all generated from `--seed`: the two documents, the
//! query pool, the write script and the restart fixture. The program
//! under test receives only these generated inputs, never the seed.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

use durable::{DocState, FsyncPolicy, NodeContent, WalOp, WalWriter};
use ruid::prelude::*;
use ruid::xmark::XmarkConfig;
use ruid::{Ruid2, SplitMix64};

/// The planner differential corpus (`tests/planner_differential.rs`,
/// E16's query set): every axis and predicate family over a/b/c trees.
pub const CORPUS: [&str; 23] = [
    "/a",
    "/a/b",
    "/a/b/c",
    "//b",
    "//c",
    "//b/c",
    "//b//a",
    "/a//c",
    "//*",
    "/a/*",
    "//b/*",
    "/a/b[c]",
    "//b[c]/c",
    "//b[c]//a",
    "//b[not(c)]",
    "//b[c][a]",
    "//b[1]",
    "//b[last()]",
    "//b[c][1]",
    "//b/c/..",
    "//c/parent::b",
    "//b[count(c) >= 1]",
    "//a[b or c]",
];

/// E16's small a/b/c document (fanout 3, four levels below the root).
/// Small on purpose: replies stay a few hundred bytes, so `read_hot`
/// measures the protocol path, not reply copying.
pub fn corpus_xml() -> String {
    fn node(depth: usize, out: &mut String) {
        let tag = ["a", "b", "c"][depth % 3];
        if depth == 4 {
            let _ = write!(out, "<{tag}/>");
            return;
        }
        let _ = write!(out, "<{tag}>");
        for _ in 0..3 {
            node(depth + 1, out);
        }
        let _ = write!(out, "</{tag}>");
    }
    let mut xml = String::new();
    node(0, &mut xml);
    xml
}

/// The XMark document of roughly `nodes` nodes as XML text.
pub fn xmark_xml(nodes: usize, seed: u64) -> String {
    ruid::xmark::generate(&XmarkConfig::scaled_to(nodes, seed)).to_xml_string()
}

/// What kind of work a pool query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// `//item[@id='item7']` — the ROADMAP "known defect" shape.
    PointItem,
    /// `//person[@id='person7']/name`.
    PointPerson,
    /// `//item[location = 'asia'][quantity = 2]/name` and
    /// `//item[location = 'asia'][contains(name, 'gold')]/name`.
    Text,
    /// `//open_auction[bidder/increase > 7.5]` and income comparisons.
    Numeric,
    /// `/site/regions/asia/item[17]/name`.
    Positional,
    /// `//item/name`-class: thousands of hits, replies up to ~130 KB.
    Large,
}

impl QueryClass {
    /// True for the classes whose cost is a value predicate evaluated
    /// node at a time after a structural scan.
    pub fn is_value_predicate(self) -> bool {
        !matches!(self, QueryClass::Positional | QueryClass::Large)
    }
}

/// One query of the pool.
#[derive(Debug, Clone)]
pub struct Query {
    /// The XPath text sent to the server.
    pub xpath: String,
    /// Its template class.
    pub class: QueryClass,
}

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];
const ITEM_CHILDREN: [&str; 7] = [
    "location",
    "quantity",
    "name",
    "payment",
    "description",
    "incategory",
    "description/text",
];
/// The generator's vocabulary for item names (`xmlgen::xmark`).
const NAME_WORDS: [&str; 16] = [
    "gold", "vintage", "rare", "mint", "boxed", "signed", "classic", "limited", "original",
    "antique", "restored", "premium", "sealed", "graded", "curious", "heavy",
];
/// The large-result templates: every one returns a whole element class.
const LARGE_PARENTS: [(&str, &[&str]); 4] = [
    ("//item", &ITEM_CHILDREN),
    (
        "//open_auction",
        &["initial", "current", "itemref", "bidder", "bidder/increase"],
    ),
    ("//person", &["name", "emailaddress"]),
    ("//closed_auction", &["seller", "buyer", "price", "date"]),
];

/// Queries per [`BLOCK`], by class. The pool is a sequence of blocks of
/// exactly this mix, each shuffled on its own, so any whole number of
/// blocks is the same work and slices of a run can be compared.
///
/// Fixed quotas, not random draws: one `Text` query costs twenty
/// `Positional` ones, so letting the counts vary with the seed would
/// move every metric by the luck of the draw. And `PointItem` — the
/// ROADMAP "known defect" shape — holds the 38th to the 92nd percentile
/// of cost and `Text` everything above, so the median read sits well
/// inside one class and p95 well inside another, neither on the gap
/// between two.
const BLOCK_MIX: [(QueryClass, usize); 6] = [
    (QueryClass::PointItem, 275),
    (QueryClass::Positional, 82),
    (QueryClass::PointPerson, 72),
    (QueryClass::Numeric, 40),
    (QueryClass::Text, 41),
    (QueryClass::Large, 2),
];

/// Queries per block of the pool; `read_cold`'s unit of identical work.
pub const BLOCK: usize = 512;

/// One query string of `class`, parameters drawn from `rng`; `nth`
/// alternates between the templates of a class that has two.
fn draw(class: QueryClass, nth: usize, shape: &XmarkConfig, rng: &mut SplitMix64) -> String {
    let region = REGIONS[rng.gen_range(0..REGIONS.len())];
    match class {
        QueryClass::PointItem => {
            let items = (shape.items_per_region * REGIONS.len()) as u64;
            format!("//item[@id='item{}']", rng.gen_range(0..items))
        }
        QueryClass::PointPerson => {
            format!(
                "//person[@id='person{}']/name",
                rng.gen_range(0..shape.people as u64)
            )
        }
        QueryClass::Text if nth.is_multiple_of(2) => format!(
            "//item[location = '{region}'][quantity = {}]/{}",
            rng.gen_range(1..5u32),
            ITEM_CHILDREN[rng.gen_range(0..ITEM_CHILDREN.len())]
        ),
        QueryClass::Text => format!(
            "//item[location = '{region}'][contains(name, '{}')]/{}",
            NAME_WORDS[rng.gen_range(0..NAME_WORDS.len())],
            ITEM_CHILDREN[rng.gen_range(0..ITEM_CHILDREN.len())]
        ),
        QueryClass::Numeric if nth.is_multiple_of(2) => format!(
            "//open_auction[bidder/increase > {}.{:02}]",
            rng.gen_range(1..20u32),
            rng.gen_range(0..100u32)
        ),
        QueryClass::Numeric => {
            format!(
                "//person[profile/@income > {}]/emailaddress",
                rng.gen_range(20_000..90_000u32)
            )
        }
        QueryClass::Positional => format!(
            "/site/regions/{region}/item[{}]/name",
            rng.gen_range(1..=shape.items_per_region as u64)
        ),
        QueryClass::Large => {
            let (parent, children) = LARGE_PARENTS[rng.gen_range(0..LARGE_PARENTS.len())];
            format!("{parent}/{}", children[rng.gen_range(0..children.len())])
        }
    }
}

/// About `count` distinct query strings from the seeded templates:
/// `count / BLOCK` blocks of [`BLOCK_MIX`] (one block scaled down when
/// `count` is smaller than a block), each block shuffled. Cycling
/// through the pool in order is the permutation `read_cold` replays.
/// Distinct strings matter, not distinct answers: the result cache is
/// keyed by query text.
pub fn query_pool(nodes: usize, seed: u64, count: usize) -> Vec<Query> {
    let shape = XmarkConfig::scaled_to(nodes, seed);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5c0e_b0a2_d000_0001);
    let mut seen = BTreeSet::new();
    let mut pool = Vec::with_capacity(count);
    let (blocks, block_len) = if count >= BLOCK {
        (count / BLOCK, BLOCK)
    } else {
        (1, count)
    };
    for _ in 0..blocks {
        let start = pool.len();
        for (class, quota) in BLOCK_MIX {
            let quota = (quota * block_len).div_ceil(BLOCK);
            // A small document cannot supply every quota from its
            // bounded templates; the attempt cap keeps generation finite.
            let (mut drawn, mut attempts) = (0, 0);
            while drawn < quota && attempts < quota * 64 {
                attempts += 1;
                let xpath = draw(class, drawn, &shape, &mut rng);
                if seen.insert(xpath.clone()) {
                    pool.push(Query { xpath, class });
                    drawn += 1;
                }
            }
        }
        for i in (start + 1..pool.len()).rev() {
            pool.swap(i, rng.gen_range(start..=i));
        }
    }
    pool
}

/// The rUID labels the text protocol spells as `<g> <l> <true|false>`.
fn label_args(label: &Ruid2) -> String {
    format!("{} {} {}", label.global, label.local, label.is_root)
}

/// One `write_mixed` round: an insert, the delete that undoes it, and
/// which pool queries are read after either commit.
#[derive(Debug, Clone)]
pub struct Round {
    /// The `INSERT` request line.
    pub insert_line: String,
    /// The same insert as the WAL records it.
    pub insert: WalOp,
    /// The `DELETE` request line of the inserted node.
    pub delete_line: String,
    /// The same delete as the WAL records it.
    pub delete: WalOp,
    /// Pool indices read after each of the two commits.
    pub reads: Vec<usize>,
}

/// The distinct queries read after each commit, by class: the same mix
/// every round, so the reads of one round cost what the reads of the
/// next do. Ordered by cost, `PointItem` holds the 25th to the 87th
/// percentile of these misses and `Text` the top eighth.
pub const READ_MIX: [QueryClass; 16] = {
    use QueryClass::{PointItem, PointPerson, Positional, Text};
    [
        PointItem,
        PointPerson,
        PointItem,
        Positional,
        PointItem,
        Text,
        PointItem,
        PointItem,
        PointItem,
        PointPerson,
        PointItem,
        Positional,
        PointItem,
        Text,
        PointItem,
        PointItem,
    ]
};

/// How many of them are issued a second time within the generation: the
/// first issue misses the result cache, the second can hit. A fifth of
/// the reads, not half: with an even split the median read sits on the
/// gap between the hit and the miss mode and cannot repeat, and the hit
/// path of the text front end (two thread wake-ups, ≈ 15 µs) is the
/// noisiest thing on a shared machine. At one in five the median read is
/// a first-after-commit point query and p95 a text predicate.
pub const REISSUED: usize = 4;

impl Round {
    /// The pool indices read after each commit, in order: the mix, then
    /// its first [`REISSUED`] queries again.
    pub fn read_sequence(&self) -> impl Iterator<Item = usize> + '_ {
        self.reads
            .iter()
            .chain(&self.reads[..REISSUED.min(self.reads.len())])
            .copied()
    }
}

/// The seeded write script. It carries its own serial [`DocState`]
/// replay of every op it hands out: labels in the request lines are the
/// labels the server will hold at that point, and
/// [`WriteScript::fingerprint`] is the oracle for the served document.
pub struct WriteScript {
    state: DocState,
    parents: Vec<NodeId>,
    rng: SplitMix64,
}

impl WriteScript {
    /// Parses and numbers `xml` exactly as `LOAD` does by default
    /// (by-depth 3 partition, node store on) and seeds the script.
    pub fn new(xml: &str, seed: u64, doc_id: u64) -> Result<WriteScript, String> {
        let config = PartitionConfig::by_depth(3);
        let state = DocState::build(doc_id, "xmark.xml".into(), xml, config, true)?;
        let root = state
            .doc
            .root_element()
            .ok_or("document has no root element")?;
        let parents: Vec<NodeId> = state
            .doc
            .descendants(root)
            .filter(|&n| matches!(state.doc.tag_name(n), Some("item" | "open_auction")))
            .collect();
        if parents.is_empty() {
            return Err("document has no <item> or <open_auction> to write under".into());
        }
        Ok(WriteScript {
            state,
            parents,
            rng: SplitMix64::seed_from_u64(seed ^ 0x3217_e5c2_1f70_0002),
        })
    }

    /// The serial replay's document state.
    pub fn state(&self) -> &DocState {
        &self.state
    }

    /// Fingerprint of the serial replay of every op handed out so far.
    pub fn fingerprint(&self) -> u64 {
        durable::doc_fingerprint(&self.state.doc, &self.state.scheme)
    }

    /// One childless element at a seeded position under a seeded
    /// `<item>` / `<open_auction>`. Three names in four already have a
    /// path in the summary under that parent (patched in place); `promo`
    /// opens a new path and forces the summary rebuild.
    fn next_insert(&mut self) -> (WalOp, NodeId) {
        let parent = self.parents[self.rng.gen_range(0..self.parents.len())];
        let name = match (self.rng.gen_range(0..4u32), self.state.doc.tag_name(parent)) {
            (0, _) => "promo",
            (_, Some("item")) => "incategory",
            _ => "bidder",
        };
        let children = self.state.doc.children(parent).count() as u32;
        let op = WalOp::Insert {
            doc_id: self.state.id,
            parent: self.state.scheme.label_of(parent),
            position: self.rng.gen_range(0..=children),
            content: NodeContent::Element {
                name: name.into(),
                attributes: vec![],
            },
        };
        let node = match self.state.apply_detailed(&op) {
            Ok(durable::Applied::Inserted { node, .. }) => node,
            other => panic!("scripted insert failed: {other:?}"),
        };
        (op, node)
    }

    fn delete_of(&mut self, node: NodeId) -> WalOp {
        let op = WalOp::Delete {
            doc_id: self.state.id,
            label: self.state.scheme.label_of(node),
        };
        self.state.apply(&op).expect("scripted delete applies");
        op
    }

    /// The next round; its reads are [`READ_MIX`] drawn from `pool`.
    pub fn next_round(&mut self, pool: &[Query]) -> Round {
        let (insert, node) = self.next_insert();
        let delete = self.delete_of(node);
        let (
            WalOp::Insert {
                doc_id,
                parent,
                position,
                content,
            },
            WalOp::Delete { label, .. },
        ) = (&insert, &delete)
        else {
            unreachable!("next_insert and delete_of build exactly these ops");
        };
        let NodeContent::Element { name, .. } = content else {
            unreachable!()
        };
        let mut reads: Vec<usize> = Vec::with_capacity(READ_MIX.len());
        for class in READ_MIX {
            // Rejection sampling; the attempt cap covers a pool too small
            // to hold another distinct query of the class.
            let pick = (0..pool.len() * 8)
                .map(|_| self.rng.gen_range(0..pool.len()))
                .find(|&i| pool[i].class == class && !reads.contains(&i));
            reads.extend(pick);
        }
        Round {
            insert_line: format!(
                "INSERT {doc_id} {} {position} <{name}/>",
                label_args(parent)
            ),
            delete_line: format!("DELETE {doc_id} {}", label_args(label)),
            insert,
            delete,
            reads,
        }
    }

    /// A WAL tail of `records` ops that does not cancel out: three
    /// inserts, then a delete of the middle one, repeated — so a replica
    /// that applied nothing cannot pass the fingerprint check.
    pub fn tail(&mut self, records: usize) -> Vec<WalOp> {
        let mut ops = Vec::with_capacity(records);
        let mut inserted = Vec::new();
        for i in 0..records {
            if i % 4 == 3 {
                let node: NodeId = inserted[inserted.len() - 2];
                ops.push(self.delete_of(node));
            } else {
                let (op, node) = self.next_insert();
                inserted.push(node);
                ops.push(op);
            }
        }
        ops
    }
}

/// What [`write_fixture`] left on disk.
pub struct Fixture {
    /// Bytes of the snapshot file.
    pub snapshot_bytes: u64,
    /// Records in the WAL tail.
    pub tail: usize,
    /// Fingerprint of snapshot + tail, replayed serially.
    pub fingerprint: u64,
    /// Milliseconds `write_snapshot` took.
    pub snapshot_write_ms: f64,
}

/// Writes the restart fixture into `dir` through `durable`'s public API,
/// as `report_e12` does: a generation-1 snapshot of the document and a
/// generation-1 WAL segment holding a seeded `tail`-record
/// `INSERT`/`DELETE` tail (fsync `always`, the server's default).
pub fn write_fixture(dir: &Path, xml: &str, seed: u64, tail: usize) -> Result<Fixture, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut script = WriteScript::new(xml, seed, 1)?;
    let started = std::time::Instant::now();
    let snapshot = durable::write_snapshot(dir, 1, &[script.state().view()])
        .map_err(|e| format!("write snapshot: {e}"))?;
    let snapshot_write_ms = started.elapsed().as_secs_f64() * 1e3;
    let snapshot_bytes = std::fs::metadata(&snapshot)
        .map_err(|e| format!("stat snapshot: {e}"))?
        .len();
    let mut wal =
        WalWriter::create(dir, 1, FsyncPolicy::Always).map_err(|e| format!("create wal: {e}"))?;
    for op in script.tail(tail) {
        wal.append(&op).map_err(|e| format!("append wal: {e}"))?;
    }
    wal.sync().map_err(|e| format!("sync wal: {e}"))?;
    Ok(Fixture {
        snapshot_bytes,
        tail,
        fingerprint: script.fingerprint(),
        snapshot_write_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = query_pool(3_000, 9, 64);
        let b = query_pool(3_000, 9, 64);
        assert!((64..72).contains(&a.len()), "{}", a.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.xpath == y.xpath));
        let c = query_pool(3_000, 10, 64);
        assert!(a.iter().zip(&c).any(|(x, y)| x.xpath != y.xpath));
        let distinct: BTreeSet<&str> = a.iter().map(|q| q.xpath.as_str()).collect();
        assert_eq!(distinct.len(), a.len());
        assert_eq!(xmark_xml(1_000, 3), xmark_xml(1_000, 3));
    }

    #[test]
    fn every_block_of_every_seed_is_the_same_class_mix() {
        let count = |block: &[Query], class| block.iter().filter(|q| q.class == class).count();
        for seed in [1, 2] {
            let pool = query_pool(150_000, seed, 4096);
            assert_eq!(pool.len(), 4096);
            for block in pool.chunks(BLOCK) {
                for (class, quota) in BLOCK_MIX {
                    assert_eq!(count(block, class), quota, "{class:?}");
                }
                // Shuffled: the block does not open with its 275 point queries.
                assert!(block[..100]
                    .iter()
                    .any(|q| q.class != QueryClass::PointItem));
            }
        }
        // A burst-sized pool is one scaled-down block with every class in it.
        let burst = query_pool(150_000, 1, 256);
        assert!((256..264).contains(&burst.len()), "{}", burst.len());
        assert!(BLOCK_MIX.iter().all(|&(class, _)| count(&burst, class) > 0));
    }

    #[test]
    fn rounds_return_the_tree_to_its_start_shape() {
        let xml = xmark_xml(1_500, 5);
        let mut script = WriteScript::new(&xml, 5, 1).unwrap();
        let mut twin = WriteScript::new(&xml, 5, 1).unwrap();
        let nodes = script.state().doc.node_count();
        let pool = query_pool(1_500, 5, 96);
        for _ in 0..12 {
            let round = script.next_round(&pool);
            assert!(
                round.insert_line.starts_with("INSERT 1 "),
                "{}",
                round.insert_line
            );
            assert!(
                round.delete_line.starts_with("DELETE 1 "),
                "{}",
                round.delete_line
            );
            let classes: Vec<QueryClass> = round.reads.iter().map(|&i| pool[i].class).collect();
            assert_eq!(classes, READ_MIX);
            assert_eq!(script.state().doc.to_xml_string(), xml);
            assert_eq!(script.state().doc.node_count(), nodes);
            // Same seed, same script, same serial replay.
            assert_eq!(twin.next_round(&pool).insert_line, round.insert_line);
            assert_eq!(twin.fingerprint(), script.fingerprint());
        }
    }

    #[test]
    fn tail_does_not_cancel_out() {
        let xml = xmark_xml(1_500, 5);
        let mut script = WriteScript::new(&xml, 5, 1).unwrap();
        let start = script.fingerprint();
        let ops = script.tail(8);
        assert_eq!(ops.len(), 8);
        assert_eq!(
            ops.iter()
                .filter(|op| matches!(op, WalOp::Delete { .. }))
                .count(),
            2
        );
        assert_ne!(script.fingerprint(), start);
    }
}
