//! Planner subsystem over the wire: the EXPLAIN verb, byte-identical
//! planned answers, and result-cache lifecycle (hits, generation keying,
//! UNLOAD purge).

use ruid_service::ServerConfig;
use schemes::NumberingScheme;
use testkit::{load, load_xml, metrics_field, start, Scratch};

const SAMPLE: &str = "<catalog><book id=\"b1\"><title>A</title><price>35</price></book>\
     <book id=\"b2\"><title>B</title><price>20</price></book>\
     <journal><title>J</title></journal></catalog>";

#[test]
fn explain_reports_plan_shape_and_cache_status() {
    let (handle, mut client) = start(ServerConfig::default());
    let id = load_xml(&mut client, SAMPLE);

    // Cold EXPLAIN: a miss, rendering the chosen operators with estimated
    // and actual cardinalities. (EXPLAIN itself never populates the cache.)
    let resp = client.request(&format!("EXPLAIN {id} //book/title")).unwrap();
    assert!(resp.starts_with("OK cache=miss"), "{resp}");
    assert!(resp.contains("fully planned"), "{resp}");
    assert!(resp.contains("scan"), "{resp}");
    assert!(resp.contains("est="), "{resp}");
    assert!(resp.contains("actual="), "{resp}");
    assert!(resp.contains("rows=2"), "{resp}");
    assert!(
        client.request(&format!("EXPLAIN {id} //book/title")).unwrap().contains("cache=miss"),
        "EXPLAIN must not warm the cache"
    );

    // A planned QUERY caches the answer; EXPLAIN now reports a hit.
    let answer = client.request(&format!("QUERY {id} //book/title")).unwrap();
    assert!(answer.starts_with("OK 2 "), "{answer}");
    let resp = client.request(&format!("EXPLAIN {id} //book/title")).unwrap();
    assert!(resp.starts_with("OK cache=hit"), "{resp}");

    // A predicate query shows selectivity-ordered predicates and a
    // containment join for the descendant step after the filter.
    let resp =
        client.request(&format!("EXPLAIN {id} //book[price > 25]//title")).unwrap();
    assert!(resp.contains("predicates"), "{resp}");
    assert!(resp.contains("containment-join"), "{resp}");

    // A positional predicate cannot be planned structurally: the plan falls
    // back to the step-by-step evaluator and says so.
    let resp = client.request(&format!("EXPLAIN {id} //book[1]")).unwrap();
    assert!(resp.contains("fallback"), "{resp}");

    // Errors: usage and unknown document.
    assert!(client.request("EXPLAIN").unwrap().starts_with("ERR usage:"));
    assert!(client.request(&format!("EXPLAIN {id}")).unwrap().starts_with("ERR usage:"));
    assert!(client.request("EXPLAIN 9999 //book").unwrap().starts_with("ERR no document"));
    handle.stop();
}

#[test]
fn planned_answers_are_byte_identical_to_every_engine() {
    let (handle, mut client) = start(ServerConfig::default());
    let id = load_xml(&mut client, SAMPLE);

    for q in [
        "//book",
        "//book/title",
        "//title",
        "/catalog/*",
        "//book[price > 25]/title",
        "//book[@id='b2']",
        "//book[1]",
        "//catalog//title",
    ] {
        let mut answers = Vec::new();
        for engine in ["tree", "ruid", "indexed", "planned", "planned"] {
            answers.push(client.request(&format!("QUERY {id} {q} {engine}")).unwrap());
        }
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "engines disagree on {q}: {answers:?}"
        );
        // The bare default engine is the planner.
        assert_eq!(
            client.request(&format!("QUERY {id} {q}")).unwrap(),
            answers[0],
            "default engine drifted on {q}"
        );
    }
    handle.stop();
}

#[test]
fn cache_serves_repeats_and_unload_purges() {
    let dir = Scratch::new("cache");
    let sample = dir.file("sample.xml", SAMPLE);
    let (handle, mut client) = start(ServerConfig::default());
    let id = load(&mut client, &sample);
    let cache = handle.plan_cache().clone();

    // First planned query misses and fills; the repeat hits. LABEL shares
    // the entry because it renders the identical response.
    assert!(client.request(&format!("QUERY {id} //book")).unwrap().starts_with("OK 2 "));
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1), "{s:?}");
    assert!(client.request(&format!("QUERY {id} //book")).unwrap().starts_with("OK 2 "));
    assert!(client.request(&format!("LABEL {id} //book")).unwrap().starts_with("OK 2 "));
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1), "{s:?}");

    // A different document id never aliases: loading the same file again
    // gets a fresh generation, so its first query is a miss.
    let id2 = load(&mut client, &sample);
    assert_ne!(id, id2);
    assert!(client.request(&format!("QUERY {id2} //book")).unwrap().starts_with("OK 2 "));
    let s = cache.stats();
    assert_eq!((s.misses, s.entries), (2, 2), "{s:?}");

    // UNLOAD drops exactly that document's entries and counts them as
    // invalidations; the survivor still hits.
    assert!(client.request(&format!("UNLOAD {id}")).unwrap().starts_with("OK unloaded"));
    let s = cache.stats();
    assert_eq!((s.invalidations, s.entries), (1, 1), "{s:?}");
    assert!(client.request(&format!("QUERY {id2} //book")).unwrap().starts_with("OK 2 "));
    assert_eq!(cache.stats().hits, 3, "{:?}", cache.stats());
    handle.stop();
}

/// A committed INSERT bumps the document's generation, so the very next
/// repeat of an already-cached query is a *miss* that recomputes against
/// the new tree — the cache can never serve the pre-update answer.
#[test]
fn insert_invalidates_cached_answers_with_a_new_generation() {
    let (handle, mut client) = start(ServerConfig::default());
    let id = load_xml(&mut client, SAMPLE);
    let cache = handle.plan_cache().clone();

    // Cache the answer and prove the repeat hits.
    let before = client.request(&format!("QUERY {id} //book")).unwrap();
    assert!(before.starts_with("OK 2 "), "{before}");
    assert_eq!(client.request(&format!("QUERY {id} //book")).unwrap(), before);
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 1), "{s:?}");

    // Commit an INSERT of a third <book/> under the catalog root.
    let gen_before = handle.catalog().get(id).unwrap().generation;
    let root = {
        let doc = handle.catalog().get(id).unwrap();
        doc.scheme.label_of(doc.doc.root_element().unwrap())
    };
    let resp = client
        .request(&format!(
            "INSERT {id} {} {} {} 0 <book id=\"b3\"/>",
            root.global, root.local, root.is_root
        ))
        .unwrap();
    assert!(resp.starts_with("OK label="), "{resp}");
    let generation: u64 =
        metrics_field(&resp, "generation").expect("INSERT reports its generation").parse().unwrap();
    assert!(generation > gen_before, "generation must advance: {gen_before} -> {generation}");
    assert_eq!(handle.catalog().get(id).unwrap().generation, generation);

    // Same query again: a miss (new generation keys a new entry) with the
    // post-insert answer; only then does it hit again.
    let after = client.request(&format!("QUERY {id} //book")).unwrap();
    assert!(after.starts_with("OK 3 "), "stale answer served after INSERT: {after}");
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 2), "{s:?}");
    assert_eq!(client.request(&format!("QUERY {id} //book")).unwrap(), after);
    assert_eq!(cache.stats().hits, 2, "{:?}", cache.stats());
    handle.stop();
}

/// UNLOAD purges the dead document's entries, and a *different* document
/// installed under the reused id (fresh generation) never aliases into
/// the old entry — the first query against it recomputes.
#[test]
fn reused_doc_id_never_serves_a_stale_entry() {
    let (handle, mut client) = start(ServerConfig::default());
    let id = load_xml(&mut client, SAMPLE);
    let cache = handle.plan_cache().clone();

    let before = client.request(&format!("QUERY {id} //book")).unwrap();
    assert!(before.starts_with("OK 2 "), "{before}");
    assert!(client.request(&format!("UNLOAD {id}")).unwrap().starts_with("OK unloaded"));
    let s = cache.stats();
    assert_eq!((s.invalidations, s.entries), (1, 0), "{s:?}");

    // Install a different document under the same id, the way recovery
    // or an embedder would: fresh bundle, fresh generation.
    let mut swapped = ruid_service::LoadedDoc::build(
        "swapped.xml",
        "<catalog><book/><book/><book/></catalog>",
        3,
        true,
    )
    .unwrap();
    swapped.generation = handle.catalog().next_generation();
    handle.catalog().insert_with_id(id, swapped);

    let after = client.request(&format!("QUERY {id} //book")).unwrap();
    assert!(
        after.starts_with("OK 3 "),
        "stale entry served for reused doc id {id}: {after} (old answer was {before})"
    );
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (0, 2), "{s:?}");
    handle.stop();
}
