//! The parallel build must be **byte-identical** to the sequential build.
//!
//! The rUID construction fans per-area local enumerations out across
//! threads (sound because areas are disjoint induced subtrees, Definition
//! 2 of the paper); nothing about the observable numbering may depend on
//! the thread count. This suite drives SplitMix64-seeded random trees and
//! XMark documents through several `PartitionConfig`s and asserts that
//! labels, the table K, κ, the area-root sets, the name index, and the
//! serialized storage rows all come out identical for 1 vs N threads.

use ruid::prelude::*;
use ruid::{
    xmark, Executor, FanoutDist, NameIndex, Partition, PartitionConfig as Pc, SplitMix64,
    TreeGenConfig, XmlStore,
};

/// The partition policies under test: depth-based (several granularities)
/// and size-capped areas.
fn configs() -> Vec<Pc> {
    vec![Pc::by_depth(1), Pc::by_depth(2), Pc::by_depth(3), Pc::by_depth(4), Pc::by_area_size(8)]
}

/// Serializes every observable of a built scheme + its storage rows into
/// one byte string, so "byte-identical" is literal.
fn fingerprint(doc: &Document, scheme: &Ruid2Scheme) -> Vec<u8> {
    let root = scheme.numbering_root();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&scheme.kappa().to_le_bytes());
    for row in scheme.ktable().rows() {
        bytes.extend_from_slice(&row.global.to_le_bytes());
        bytes.extend_from_slice(&row.local.to_le_bytes());
        bytes.extend_from_slice(&row.fanout.to_le_bytes());
    }
    for node in doc.descendants(root) {
        let label = scheme.label_of(node);
        bytes.extend_from_slice(&(node.index() as u64).to_le_bytes());
        bytes.extend_from_slice(&label.global.to_le_bytes());
        bytes.extend_from_slice(&label.local.to_le_bytes());
        bytes.push(u8::from(label.is_root));
        bytes.push(u8::from(scheme.is_area_root(node)));
        // Reverse lookup agrees.
        assert_eq!(scheme.node_of(&label), Some(node));
    }
    let mut store = XmlStore::in_memory();
    store.load_document(doc, scheme);
    for row in store.scan_all() {
        bytes.extend_from_slice(&row.encode());
    }
    bytes
}

fn assert_parallel_identical(doc: &Document, config: &Pc) {
    let sequential = match Ruid2Scheme::try_build_with(doc, config, &Executor::new(1)) {
        Ok(scheme) => scheme,
        // Legitimate overflow (e.g. a by-depth(1) frame deeper than u64
        // κ-ary indices allow): every thread count must report the same
        // error, not just the same success.
        Err(e) => {
            for threads in [2, 4, 8] {
                let par = Ruid2Scheme::try_build_with(doc, config, &Executor::new(threads));
                assert_eq!(par.err(), Some(e), "error diverged (threads={threads})");
            }
            return;
        }
    };
    let expected = fingerprint(doc, &sequential);
    let seq_index = NameIndex::build(doc);
    for threads in [2, 3, 4, 8] {
        let exec = Executor::new(threads);
        let parallel =
            Ruid2Scheme::try_build_with(doc, config, &exec).expect("parallel build must succeed");
        assert_eq!(
            fingerprint(doc, &parallel),
            expected,
            "parallel build diverged (threads={threads}, config={config:?})"
        );
        assert_eq!(parallel.area_count(), sequential.area_count());
        // The name index fans out too; per-name lists must stay in document
        // order, identical to the sequential pass.
        let par_index = NameIndex::build_with(doc, &exec);
        assert_eq!(par_index.name_count(), seq_index.name_count());
        for (id, name) in doc.names().iter() {
            assert_eq!(
                par_index.nodes_with_id(id),
                seq_index.nodes_with_id(id),
                "name index diverged for {name:?} (threads={threads})"
            );
        }
    }
}

#[test]
fn random_trees_build_identically_in_parallel() {
    let mut rng = SplitMix64::seed_from_u64(0xE11_BA5E);
    for _ in 0..6 {
        let seed = rng.next_u64();
        let doc = ruid::random_tree(&TreeGenConfig {
            nodes: 800,
            max_fanout: 8,
            fanout: FanoutDist::Geometric(0.35),
            depth_bias: 0.15,
            seed,
            ..Default::default()
        });
        for config in configs() {
            assert_parallel_identical(&doc, &config);
        }
    }
}

#[test]
fn xmark_builds_identically_in_parallel() {
    let mut rng = SplitMix64::seed_from_u64(0x1234_5678);
    for _ in 0..2 {
        let seed = rng.next_u64();
        let doc = xmark::generate(&xmark::XmarkConfig::scaled_to(3_000, seed));
        for config in configs() {
            assert_parallel_identical(&doc, &config);
        }
    }
}

#[test]
fn explicit_partition_parallel_matches_sequential() {
    // Exercise the from-partition entry point directly (it is the layer the
    // fan-out lives in) on a deep skewed tree.
    let doc = ruid::deep_tree(12, 3);
    let root = doc.root_element().unwrap();
    for config in configs() {
        let partition = Partition::compute(&doc, root, &config);
        let seq = Ruid2Scheme::try_from_partition(&doc, &partition, &config).unwrap();
        for threads in [2, 8] {
            let par = Ruid2Scheme::try_from_partition_with(
                &doc,
                &partition,
                &config,
                &Executor::new(threads),
            )
            .unwrap();
            assert_eq!(fingerprint(&doc, &par), fingerprint(&doc, &seq));
        }
    }
}

#[test]
fn overflow_error_is_deterministic_across_thread_counts() {
    // A pathologically deep single area overflows the u64 local index; the
    // reported error must not depend on the thread count.
    let doc = ruid::deep_tree(70, 2);
    let config = Pc::by_depth(100); // one giant area
    let seq_err = Ruid2Scheme::try_build_with(&doc, &config, &Executor::new(1))
        .expect_err("expected LocalOverflow on a 70-deep single area");
    for threads in [2, 4, 8] {
        let par = Ruid2Scheme::try_build_with(&doc, &config, &Executor::new(threads));
        assert_eq!(par.err(), Some(seq_err), "threads={threads}");
    }
}
