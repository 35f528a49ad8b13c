//! MVCC linearizability: interleaved readers and writers against one
//! document, checked by a differential oracle.
//!
//! The catalog's claim is that a committed structural update never blocks
//! or corrupts a reader: every reader pins an immutable `Arc` snapshot
//! stamped with the generation of the commit that produced it, and the
//! answer it computes must be **byte-identical** to a single-threaded
//! replay of exactly the committed prefix of operations up to that
//! generation. The replay goes through `durable::DocState::apply` — the
//! same code the live copy-on-write commit and WAL recovery run — while
//! the live bundle's name index and path summary are patched
//! incrementally, so the comparison also catches any drift between the
//! patched and rebuilt derivations. The final committed bundle must also
//! answer, on every engine, like a bundle reloaded from its own text —
//! which racing writers used to break by landing a child under a text or
//! comment node their stale label had come to name.
//!
//! The second half sweeps a torn WAL write through the commit critical
//! section (the established crash-sweep idiom): after the injected
//! mid-commit "power cut" and a restart, recovery must land on exactly a
//! committed generation — the acked prefix, or the acked prefix plus the
//! interrupted op when its record reached the disk in full — never on a
//! third state.

use std::sync::{Arc, Mutex};
use std::thread;

use durable::{doc_fingerprint, DocState, IoFault, IoFaultPlan, NodeContent, WalOp};
use ruid_core::{PartitionConfig, Ruid2};
use ruid_service::proto::{fmt_label, Engine};
use ruid_service::{run_query, Catalog, Client, LoadedDoc};
use testkit::{elements, load, metrics_field, start_durable, Scratch};
use schemes::NumberingScheme;
use xmlgen::SplitMix64;

const SEED_XML: &str =
    "<r><a><b><c/></b><c/></a><b><a/><c/><c/></b><a><c/></a><c/></r>";

const QUERIES: [&str; 8] =
    ["//a", "//b", "//c", "//x", "/r/a", "//a/c", "//b//c", "//y"];

const ENGINES: [Engine; 4] = [Engine::Tree, Engine::Ruid, Engine::Indexed, Engine::Planned];

/// Depth must match `ServerConfig::default().depth` — the replay numbers
/// the document with the same partition policy the server used.
const DEPTH: usize = 3;

/// Pulls `generation=<n>` out of an update response.
fn generation_of(resp: &str) -> u64 {
    metrics_field(resp, "generation")
        .unwrap_or_else(|| panic!("no generation in {resp:?}"))
        .parse()
        .unwrap()
}

/// One writer-generated structural op: the wire line that was sent and
/// the equivalent [`WalOp`] the serial replay applies.
#[derive(Clone)]
struct GenOp {
    line: String,
    op: WalOp,
}

/// Draws a random op against the *currently committed* snapshot. The pick
/// may race a concurrent writer and fail server-side (its target label
/// vanishes); that's fine — only acknowledged ops enter the log.
fn draw_op(rng: &mut SplitMix64, snapshot: &LoadedDoc, doc_id: u64) -> Option<GenOp> {
    let elems = elements(snapshot);
    let kind = rng.gen_range(0..100);
    if kind < 55 {
        // INSERT under a random element.
        let parent_node = elems[rng.gen_range(0..elems.len())];
        let parent = snapshot.scheme.label_of(parent_node);
        let position = rng.gen_range(0..4) as u32;
        let (fragment, content) = match rng.gen_range(0..4) {
            0 => ("<x/>".to_string(), NodeContent::Element { name: "x".into(), attributes: vec![] }),
            1 => (
                "<y k=\"1\"/>".to_string(),
                NodeContent::Element { name: "y".into(), attributes: vec![("k".into(), "1".into())] },
            ),
            2 => ("t0".to_string(), NodeContent::Text("t0".into())),
            _ => ("<!--c-->".to_string(), NodeContent::Comment("c".into())),
        };
        let Ruid2 { global, local, is_root } = parent;
        Some(GenOp {
            line: format!("INSERT {doc_id} {global} {local} {is_root} {position} {fragment}"),
            op: WalOp::Insert { doc_id, parent, position, content },
        })
    } else if kind < 85 {
        // DELETE a random non-root element.
        if elems.len() < 2 {
            return None;
        }
        let node = elems[1 + rng.gen_range(0..elems.len() - 1)];
        let label = snapshot.scheme.label_of(node);
        let Ruid2 { global, local, is_root } = label;
        Some(GenOp {
            line: format!("DELETE {doc_id} {global} {local} {is_root}"),
            op: WalOp::Delete { doc_id, label },
        })
    } else {
        Some(GenOp { line: format!("RELABEL {doc_id}"), op: WalOp::Repartition { doc_id } })
    }
}

/// Renders query hits exactly like the wire does: count + labels.
fn render_answer(loaded: &LoadedDoc, hits: &[xmldom::NodeId]) -> String {
    let mut out = format!("{}", hits.len());
    for &node in hits {
        out.push(' ');
        out.push_str(&fmt_label(&loaded.scheme.label_of(node)));
    }
    out
}

/// What one reader observed: the snapshot's generation and the answer it
/// computed from that pinned snapshot.
struct Observation {
    generation: u64,
    query: usize,
    engine: usize,
    answer: String,
}

fn run_oracle(seed: u64, writers: usize, readers: usize) {
    let dir = Scratch::new(format!("oracle-{seed}-{writers}x{readers}"));
    let path = dir.file("doc.xml", SEED_XML).display().to_string();
    let (handle, mut client) = start_durable(&dir.join("data"));
    let doc_id = load(&mut client, &path);
    let catalog: Arc<Catalog> = Arc::clone(handle.catalog());
    let load_generation = catalog.get(doc_id).unwrap().generation;

    // (generation, op) of every *acknowledged* update, any order.
    let committed: Arc<Mutex<Vec<(u64, WalOp)>>> = Arc::new(Mutex::new(Vec::new()));
    let addr = handle.addr();

    let observations: Vec<Observation> = thread::scope(|s| {
        let mut writer_handles = Vec::new();
        for w in 0..writers {
            let catalog = Arc::clone(&catalog);
            let committed = Arc::clone(&committed);
            writer_handles.push(s.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(seed ^ (0xA0 + w as u64));
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..25 {
                    let snapshot = catalog.get(doc_id).unwrap();
                    let Some(gen_op) = draw_op(&mut rng, &snapshot, doc_id) else { continue };
                    let resp = client.request(&gen_op.line).unwrap();
                    if resp.starts_with("OK") {
                        committed.lock().unwrap().push((generation_of(&resp), gen_op.op));
                    } else {
                        assert!(resp.starts_with("ERR"), "{resp}");
                    }
                }
            }));
        }
        let mut reader_handles = Vec::new();
        for r in 0..readers {
            let catalog = Arc::clone(&catalog);
            reader_handles.push(s.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(seed ^ (0xBEAD + r as u64));
                let mut observations = Vec::new();
                for _ in 0..40 {
                    // Pinning the Arc *is* the snapshot: everything below
                    // runs without locks against immutable state.
                    let snapshot = catalog.get(doc_id).unwrap();
                    let query = rng.gen_range(0..QUERIES.len());
                    let engine = rng.gen_range(0..ENGINES.len());
                    let (hits, _) =
                        run_query(&snapshot, QUERIES[query], ENGINES[engine]).unwrap();
                    observations.push(Observation {
                        generation: snapshot.generation,
                        query,
                        engine,
                        answer: render_answer(&snapshot, &hits),
                    });
                }
                observations
            }));
        }
        for h in writer_handles {
            h.join().unwrap();
        }
        reader_handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    let final_snapshot = catalog.get(doc_id).unwrap();
    handle.stop();

    // Serial replay oracle: apply the committed ops in generation order
    // (generations are drawn inside the writer critical section, so that
    // order *is* the commit order) and check every reader observation
    // against the state at its pinned generation.
    let mut committed = Arc::try_unwrap(committed).unwrap().into_inner().unwrap();
    committed.sort_by_key(|&(generation, _)| generation);
    assert!(
        !committed.is_empty(),
        "seed {seed}: no update committed — the schedule exercised nothing"
    );
    let mut observations = observations;
    observations.sort_by_key(|o| o.generation);

    let mut state = DocState::build(
        doc_id,
        path.clone(),
        SEED_XML,
        PartitionConfig::by_depth(DEPTH),
        false,
    )
    .unwrap();
    let mut next_op = 0usize;
    let mut bundle: Option<LoadedDoc> = None;
    for obs in &observations {
        assert!(
            obs.generation >= load_generation,
            "seed {seed}: reader pinned generation {} below the load generation \
             {load_generation}",
            obs.generation
        );
        while next_op < committed.len() && committed[next_op].0 <= obs.generation {
            state.apply(&committed[next_op].1).unwrap();
            next_op += 1;
            bundle = None;
        }
        let replayed = bundle.get_or_insert_with(|| {
            LoadedDoc::from_recovered(path.clone(), state.doc.clone(), state.scheme.clone(), false)
        });
        let (hits, _) = run_query(replayed, QUERIES[obs.query], ENGINES[obs.engine]).unwrap();
        let expected = render_answer(replayed, &hits);
        assert_eq!(
            obs.answer, expected,
            "seed {seed}: reader at generation {} disagrees with the serialized replay \
             of its committed prefix\n  query: {}\n  engine: {:?}\n  pinned snapshot answered: {}\n  \
             serial replay answered:  {}",
            obs.generation, QUERIES[obs.query], ENGINES[obs.engine], obs.answer, expected
        );
    }

    // After replaying *everything*, the oracle and the final catalog
    // state must be indistinguishable (content and labels).
    while next_op < committed.len() {
        state.apply(&committed[next_op].1).unwrap();
        next_op += 1;
    }
    assert_eq!(
        doc_fingerprint(&state.doc, &state.scheme),
        doc_fingerprint(&final_snapshot.doc, &final_snapshot.scheme),
        "seed {seed}: final catalog state diverged from the serial replay of all \
         {} committed ops",
        committed.len()
    );
    assert_answers_like_a_reload(&final_snapshot, &format!("seed {seed} {writers}x{readers}"));
}

/// The end of a copy-on-write commit chain answers like a bundle reloaded
/// from the committed document's text (UNLOAD + LOAD, what a commit
/// replaces): the same subtrees in the same order on every engine. Labels
/// are not compared — an incremental renumbering need not equal a fresh
/// one.
fn assert_answers_like_a_reload(loaded: &LoadedDoc, ctx: &str) {
    let text = loaded.doc.to_xml_string();
    let reloaded = LoadedDoc::build("reload.xml", &text, DEPTH, false).unwrap();
    let subtrees = |bundle: &LoadedDoc, query: &str, engine: Engine| -> Vec<String> {
        let (hits, _) = run_query(bundle, query, engine).unwrap();
        hits.iter().map(|&node| bundle.doc.subtree_to_xml_string(node)).collect()
    };
    for query in ["//x", "//y[@k]", "//c", "//b//c", "/*/*"] {
        for engine in [
            Engine::Tree,
            Engine::Ruid,
            Engine::Indexed,
            Engine::Interval,
            Engine::Ancestry,
            Engine::Planned,
        ] {
            assert_eq!(
                subtrees(loaded, query, engine),
                subtrees(&reloaded, query, engine),
                "{ctx}: commit chain and reload from text disagree on {query} ({engine:?})"
            );
        }
    }
}

#[test]
fn interleaved_readers_match_serialized_replay() {
    for seed in [11, 42, 4242] {
        for (writers, readers) in [(2, 2), (4, 4)] {
            run_oracle(seed, writers, readers);
        }
    }
}

// ------------------------------------------------------------ crash sweep

/// Replays `ops` over the seed document, single-threaded.
fn replay(ops: &[WalOp]) -> DocState {
    let mut state = DocState::build(
        1,
        "doc.xml".into(),
        SEED_XML,
        PartitionConfig::by_depth(DEPTH),
        false,
    )
    .unwrap();
    for op in ops {
        state.apply(op).unwrap();
    }
    state
}

/// Torn WAL write mid-commit, then restart: recovery must land on exactly
/// a committed generation. "Committed" here is what the WAL made durable:
/// the acked prefix, plus the interrupted op *only* when its record
/// reached the disk in full (the crash-after-write, before-ack window) —
/// never a third state, and never a state the readers could distinguish
/// from those.
#[test]
fn crash_mid_commit_recovers_to_a_committed_generation() {
    // Byte offsets swept across the torn record: inside the length
    // prefix, inside the header, inside the payload, and past the end
    // (= the record is fully durable but the commit never acked).
    let cuts = [0usize, 1, 3, 4, 8, 12, 15, 16, 17, 21, 27, 33, 48, 64, 96, 1 << 16];
    let mut recovered_pre = 0usize;
    let mut recovered_post = 0usize;
    for (case, &at) in cuts.iter().enumerate() {
        let dir = Scratch::new(format!("crash-{case}"));
        let data_dir = dir.join("data");
        let (handle, mut client) = start_durable(&data_dir);
        let doc_id = load(&mut client, dir.file("doc.xml", SEED_XML));
        assert_eq!(doc_id, 1);

        // Two acked commits before the crash window.
        let mut acked: Vec<WalOp> = Vec::new();
        for fragment in ["<x/>", "<y k=\"1\"/>"] {
            let snapshot = handle.catalog().get(doc_id).unwrap();
            let root = snapshot.doc.root_element().unwrap();
            let Ruid2 { global, local, is_root } = snapshot.scheme.label_of(root);
            let resp = client
                .request(&format!("INSERT {doc_id} {global} {local} {is_root} 0 {fragment}"))
                .unwrap();
            assert!(resp.starts_with("OK"), "{resp}");
            let content = if fragment == "<x/>" {
                NodeContent::Element { name: "x".into(), attributes: vec![] }
            } else {
                NodeContent::Element { name: "y".into(), attributes: vec![("k".into(), "1".into())] }
            };
            acked.push(WalOp::Insert {
                doc_id,
                parent: snapshot.scheme.label_of(root),
                position: 0,
                content,
            });
        }

        // The interrupted commit: tear its WAL append at byte `at`. The
        // writer has appended 3 records so far (LOAD + 2 inserts), so the
        // next append is I/O op index 3.
        handle
            .durability()
            .unwrap()
            .arm_wal_faults(IoFaultPlan::new().inject(3, IoFault::TornWrite { at }));
        let snapshot = handle.catalog().get(doc_id).unwrap();
        let root = snapshot.doc.root_element().unwrap();
        let Ruid2 { global, local, is_root } = snapshot.scheme.label_of(root);
        let resp = client
            .request(&format!("INSERT {doc_id} {global} {local} {is_root} 1 <z/>"))
            .unwrap();
        assert!(resp.starts_with("ERR"), "torn append must fail the commit: {resp}");
        let torn_op = WalOp::Insert {
            doc_id,
            parent: snapshot.scheme.label_of(root),
            position: 1,
            content: NodeContent::Element { name: "z".into(), attributes: vec![] },
        };
        // The failed commit must not have been installed: readers still
        // see the acked state.
        let after_err = handle.catalog().get(doc_id).unwrap();
        assert_eq!(
            doc_fingerprint(&after_err.doc, &after_err.scheme),
            {
                let s = replay(&acked);
                doc_fingerprint(&s.doc, &s.scheme)
            },
            "cut at {at}: a failed commit leaked into the catalog"
        );
        // "kill -9": drop the server without a clean SHUTDOWN. The torn
        // writer is never appended to again.
        handle.stop();

        let (handle, mut client) = start_durable(&data_dir);
        let recovered = handle.catalog().get(doc_id).unwrap_or_else(|| {
            panic!("cut at {at}: document lost across the crash")
        });
        let fp = doc_fingerprint(&recovered.doc, &recovered.scheme);
        let pre = replay(&acked);
        let pre_fp = doc_fingerprint(&pre.doc, &pre.scheme);
        let post = {
            let mut ops = acked.clone();
            ops.push(torn_op);
            replay(&ops)
        };
        let post_fp = doc_fingerprint(&post.doc, &post.scheme);
        assert!(
            fp == pre_fp || fp == post_fp,
            "cut at {at}: recovery produced a state that is neither the acked prefix \
             nor the fully-durable interrupted op"
        );
        if fp == pre_fp {
            recovered_pre += 1;
        } else {
            recovered_post += 1;
        }
        // The recovered catalog serves, with a fresh committed generation.
        assert!(recovered.generation >= 1);
        let resp = client.request(&format!("QUERY {doc_id} //x")).unwrap();
        assert!(resp.starts_with("OK 1 "), "cut at {at}: {resp}");
        handle.stop();
    }
    // The sweep must actually exercise both recovery outcomes: small cuts
    // lose the record, a past-the-end cut persists it whole.
    assert!(recovered_pre > 0, "no cut recovered to the acked prefix");
    assert!(recovered_post > 0, "no cut recovered past the interrupted op");
}
