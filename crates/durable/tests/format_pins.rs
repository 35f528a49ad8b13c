//! Pins the on-disk format byte for byte, so a faster codec can be
//! checked against the one it replaces:
//!
//! * the CRC-32 known answers, and the sliced checksum against a bitwise
//!   reference at every short length, start offset and streaming split;
//! * golden digests of whole snapshot images, recorded with the original
//!   per-node codec, for a fixed set of documents;
//! * round-trip identity — decoding an image and encoding the result
//!   gives the same bytes — over every ordered tree shape with up to seven
//!   nodes and over an XMark document after seeded inserts and deletes.

use durable::{
    crc32, read_snapshot_bytes, write_snapshot, Crc32, DocState, DocView, NodeContent, WalOp,
};
use ruid_core::{PartitionConfig, Ruid2Scheme};
use testkit::{trees, Scratch, Tags};
use xmldom::{Document, NodeId};
use xmlgen::prng::SplitMix64;
use xmlgen::xmark::{generate, XmarkConfig};

/// FNV-1a over the image: a digest that shares no code with the CRC
/// under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CRC-32/IEEE one bit at a time, straight from the reflected polynomial.
fn bitwise_crc(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The image `write_snapshot` installs for `docs` as generation 1.
fn image(name: &str, docs: &[DocState]) -> Vec<u8> {
    let dir = Scratch::new(name);
    let views: Vec<DocView<'_>> = docs.iter().map(DocState::view).collect();
    std::fs::read(write_snapshot(&dir, 1, &views).unwrap()).unwrap()
}

/// Decodes `bytes` and encodes what came out under the same generation.
fn reencode(name: &str, bytes: &[u8]) -> Vec<u8> {
    let load = read_snapshot_bytes(bytes).unwrap();
    assert!(
        load.quarantined.is_empty(),
        "{name}: {:?}",
        load.quarantined
    );
    image(&format!("{name}-again"), &load.docs)
}

fn state_of(id: u64, doc: Document, config: PartitionConfig, with_store: bool) -> DocState {
    let scheme = Ruid2Scheme::try_build(&doc, &config).unwrap();
    DocState {
        id,
        path: format!("pinned-{id}.xml"),
        config,
        with_store,
        doc,
        scheme,
    }
}

fn xmark_state(id: u64, nodes: usize, seed: u64) -> DocState {
    let doc = generate(&XmarkConfig::scaled_to(nodes, seed));
    state_of(id, doc, PartitionConfig::by_depth(3), true)
}

/// Prolog comment and PI, mixed content, attributes (one with escapes),
/// a CDATA run, and text outside ASCII.
const MIXED: &str = "<?xml version=\"1.0\"?><!--prolog note--><?render mode=\"fast\"?>\
    <catálogo xml:lang=\"ja\" id=\"c&amp;1\">前書き<libro año=\"1999\" título='Äpfel &lt;&gt;'>\
    texto <b>negrita</b> y <i>cursiva</i>, 東京<!--inner--><?pi data?></libro>\
    <![CDATA[<raw> & more]]><vacío/>tail ☃</catálogo>";

fn mixed_state(id: u64) -> DocState {
    state_of(
        id,
        Document::parse(MIXED).unwrap(),
        PartitionConfig::by_area_size(3),
        false,
    )
}

#[test]
fn crc_known_answers() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(Crc32::new().finish(), 0);
}

#[test]
fn sliced_crc_equals_the_bitwise_reference() {
    let data = random_bytes(128, 0x5EED);
    for start in 0..64 {
        for len in 0..=64 {
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), bitwise_crc(slice), "start {start} len {len}");
        }
    }
    let long = random_bytes(5_000, 0xC0FFEE);
    let want = bitwise_crc(&long);
    for seed in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut crc = Crc32::new();
        let mut at = 0;
        while at < long.len() {
            let step = (rng.next_u64() % 40) as usize;
            let end = (at + step).min(long.len());
            crc.update(&long[at..end]);
            at = end;
        }
        assert_eq!(crc.finish(), want, "failing seed: {seed:#x}");
    }
}

#[test]
fn snapshot_images_match_their_golden_digests() {
    let xmark = image("golden-xmark", &[xmark_state(1, 2_000, 11)]);
    let mixed = image("golden-mixed", &[mixed_state(4)]);

    // A catalog that lost its middle document to a corrupt body: the image
    // written after recovery holds the two survivors only.
    let three = image(
        "golden-three",
        &[
            xmark_state(1, 300, 5),
            mixed_state(2),
            xmark_state(3, 300, 6),
        ],
    );
    let mut damaged = three.clone();
    let header = 8 + 4 + 8 + 4 + 3 * 24 + 4;
    let body0 = u64::from_le_bytes(damaged[8 + 4 + 8 + 4 + 16..][..8].try_into().unwrap());
    damaged[header + body0 as usize + 40] ^= 0xFF;
    let load = read_snapshot_bytes(&damaged).unwrap();
    assert_eq!(
        load.quarantined
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<_>>(),
        vec![2]
    );
    let survivors = image("golden-survivors", &load.docs);

    let digests: Vec<(usize, u64)> = [&xmark, &mixed, &survivors]
        .iter()
        .map(|b| (b.len(), fnv1a(b)))
        .collect();
    assert_eq!(
        digests,
        vec![
            (102_841, 3_666_685_794_542_797_893),
            (1_001, 4_857_012_506_630_653_316),
            (28_149, 9_250_389_340_800_167_273),
        ],
    );
}

#[test]
fn every_small_shape_round_trips_byte_for_byte() {
    let configs = [
        PartitionConfig::by_depth(1),
        PartitionConfig::by_depth(2),
        PartitionConfig::by_area_size(2),
    ];
    let mut docs = Vec::new();
    for n in 1..=7 {
        for xml in trees(n, Tags::Plain) {
            let id = docs.len() as u64 + 1;
            let config = configs[docs.len() % configs.len()];
            docs.push(state_of(
                id,
                Document::parse(&xml).unwrap(),
                config,
                id.is_multiple_of(2),
            ));
        }
    }
    assert_eq!(docs.len(), 197);
    let bytes = image("shapes", &docs);
    assert_eq!(reencode("shapes", &bytes), bytes);
}

/// An element of `state` picked by `rng`, with its label.
fn pick_element(state: &DocState, rng: &mut SplitMix64) -> (NodeId, ruid_core::Ruid2) {
    let root = state.doc.root_element().unwrap();
    let elements: Vec<NodeId> = state
        .doc
        .descendants(root)
        .filter(|&n| state.doc.is_element(n))
        .collect();
    let node = elements[(rng.next_u64() % elements.len() as u64) as usize];
    (node, state.scheme.try_label_of(node).unwrap())
}

#[test]
fn an_edited_xmark_round_trips_byte_for_byte() {
    let mut state = xmark_state(9, 20_000, 3);
    let mut rng = SplitMix64::seed_from_u64(0xED17);
    for step in 0..120 {
        let (node, label) = pick_element(&state, &mut rng);
        let op = if step % 3 == 2 && Some(node) != state.doc.root_element() {
            WalOp::Delete { doc_id: 9, label }
        } else {
            let content = match rng.next_u64() % 3 {
                0 => NodeContent::Element {
                    name: format!("added{}", rng.next_u64() % 5),
                    attributes: vec![("seq".into(), step.to_string())],
                },
                1 => NodeContent::Text(format!("inserted text {step} — ü")),
                _ => NodeContent::Comment(format!("note {step}")),
            };
            let children = state.doc.children(node).count() as u64;
            WalOp::Insert {
                doc_id: 9,
                parent: label,
                position: (rng.next_u64() % (children + 1)) as u32,
                content,
            }
        };
        state.apply(&op).unwrap();
    }
    let bytes = image("edited", std::slice::from_ref(&state));
    assert_eq!(reencode("edited", &bytes), bytes);
}
