//! `write_mixed` — commits beside reads, through the same catalog, cache
//! and plan layers.
//!
//! XMark at about 150k nodes, durable (`data_dir`, fsync `always`), one
//! text connection running the seeded script: `INSERT` one childless
//! element, 16 queries (a fixed class mix) and the first 4 of them again,
//! `DELETE` that element, the same 20 reads. Fragment parse,
//! copy-on-write clone, relabel, index patch, store reload, WAL append,
//! fsync and the Arc swap dominate; every commit invalidates the result
//! cache, and within a generation a re-issued query can hit. The tree
//! returns to its start shape every round, so a run neither grows nor
//! drifts (an area an insert widened keeps its wider fan-out in table K,
//! which is why the oracle is the serial replay, not the start state).
//! This is E15's question (what does a commit cost next to readers) with
//! the server's default `with_store = true`.

use std::time::{Duration, Instant};

use ruid::service::proto;
use ruid::{Catalog, Client, Durability, FsyncPolicy, LoadedDoc, ResultCache};

use crate::harness::{Kind, Recorder, Scratch, Unit};
use crate::inputs::{self, Query, Round, WriteScript, READ_MIX, REISSUED};
use crate::layers::{self, ApplyParts, Arrival, Layers, ReadPath, ServerCounters};
use crate::trace::Tracer;
use crate::workloads::read_cold::{serve_xmark, Served};
use crate::workloads::{repeat_setups, setup_seconds, Outcome, Scale};

/// One round: two commits, each followed by the read mix and its
/// re-issued head.
const ROUND: Unit = Unit {
    reads: 2 * (READ_MIX.len() + REISSUED),
    commits: 2,
};

/// The label an `INSERT` reply reports (`label=(g,l,r)`).
fn reply_field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|token| token.strip_prefix(key))
}

/// Sends `xpath` with engine `tree` (untimed) and holds `planned` to it.
fn probe_tree(
    client: &mut Client,
    doc: u64,
    xpath: &str,
    planned: &str,
    when: &str,
    out: &mut Outcome,
) {
    let line = format!("QUERY {doc} {xpath} tree");
    if let Some(tree) = out.check.expect_ok(&line, client.request(&line)) {
        out.check.expect_eq(
            &format!("planned vs tree {when}: {xpath}"),
            &planned,
            &tree.as_str(),
        );
    }
}

/// The read mix, then its first `REISSUED` queries again, all timed. A
/// re-issued query may come from the result cache and must say the same
/// as its first issue. No reference reply can exist for a generation
/// that lives one commit, so one reply per generation is held to the
/// DOM-walk oracle (an untimed probe); the probed slot moves on with
/// every commit, so every class of the mix is checked in turn.
fn reads(
    client: &mut Client,
    doc: u64,
    pool: &[Query],
    round: &Round,
    when: &str,
    recorder: &mut Recorder,
    out: &mut Outcome,
) {
    let probed = recorder.commits() % round.reads.len().max(1);
    let mut first_issue: Vec<Option<String>> = Vec::with_capacity(round.reads.len());
    for (slot, index) in round.read_sequence().enumerate() {
        let line = format!("QUERY {doc} {}", pool[index].xpath);
        let reply = recorder.time(Kind::Read, || client.request(&line));
        let reply = out.check.expect_ok(&line, reply);
        match slot.checked_sub(round.reads.len()) {
            None => first_issue.push(reply),
            Some(reissued) => {
                if let (Some(again), Some(first)) = (&reply, &first_issue[reissued]) {
                    out.check
                        .expect_eq(&format!("re-issue of {line}"), again, first);
                }
            }
        }
    }
    if let (Some(&index), Some(Some(planned))) = (round.reads.get(probed), first_issue.get(probed))
    {
        recorder.untimed(|| probe_tree(client, doc, &pool[index].xpath, planned, when, out));
    }
}

/// One script round over the text connection, every request timed.
fn run_round(
    client: &mut Client,
    doc: u64,
    pool: &[Query],
    round: &Round,
    recorder: &mut Recorder,
    out: &mut Outcome,
) {
    // INSERT: the reply must carry the label the serial replay predicts.
    let reply = recorder.time(Kind::Commit, || client.request(&round.insert_line));
    if let (Some(reply), durable::WalOp::Delete { label, .. }) = (
        out.check.expect_ok(&round.insert_line, reply),
        &round.delete,
    ) {
        out.check.expect_eq(
            "label of the inserted node",
            &reply_field(&reply, "label=").unwrap_or(""),
            &proto::fmt_label(label).as_str(),
        );
    }
    reads(client, doc, pool, round, "after insert", recorder, out);
    // DELETE of exactly that node.
    let reply = recorder.time(Kind::Commit, || client.request(&round.delete_line));
    if let Some(reply) = out.check.expect_ok(&round.delete_line, reply) {
        out.check.expect_eq(
            "nodes removed",
            &reply_field(&reply, "removed=").unwrap_or(""),
            &"1",
        );
    }
    reads(client, doc, pool, round, "after delete", recorder, out);
}

/// After the script: the served document must fingerprint equal to the
/// serial `DocState` replay of the same ops.
fn check_fingerprint(out: &mut Outcome, served: &Served, script: &WriteScript) {
    match served.handle.catalog().get(served.doc) {
        Some(loaded) => out.check.expect_eq(
            "fingerprint of the served document vs serial replay",
            &durable::doc_fingerprint(&loaded.doc, &loaded.scheme),
            &script.fingerprint(),
        ),
        None => out.check.fail(|| "served document vanished".into()),
    }
}

/// The end-to-end run.
pub fn run(scale: &Scale, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::new("write_mixed");
    let pool = inputs::query_pool(scale.nodes, seed, scale.pool);

    let set_up = || -> Result<((Served, WriteScript, Scratch), f64), String> {
        let scratch = Scratch::new("write_mixed").map_err(|e| e.to_string())?;
        let started = Instant::now();
        let (mut served, xml) = serve_xmark(&scratch, scale, seed, true)?;
        let loaded_s = started.elapsed().as_secs_f64();
        // The script's serial replay is the bench's oracle, not part of
        // what a user sets up: untimed.
        let mut script = WriteScript::new(&xml, seed, served.doc)?;
        let started = Instant::now();
        let round = script.next_round(&pool);
        let mut warm = Outcome::new("warm-up");
        run_round(
            &mut served.text,
            served.doc,
            &pool,
            &round,
            &mut Recorder::start(ROUND),
            &mut warm,
        );
        if warm.check.failed > 0 {
            return Err(format!(
                "warm-up round failed: {:?}",
                warm.check.first_failures
            ));
        }
        Ok((
            (served, script, scratch),
            loaded_s + started.elapsed().as_secs_f64(),
        ))
    };
    let ((mut served, mut script, scratch), first_setup) = set_up()?;
    let mut setups = vec![first_setup];

    let durability = served
        .handle
        .durability()
        .ok_or("server started without durability")?
        .clone();
    let wal_before = durability.stats();
    let mut recorder = Recorder::start(ROUND);
    let limit = Duration::from_secs_f64(scale.seconds);
    let mut rounds = 0usize;
    while !recorder.expired(limit) {
        let round = recorder.untimed(|| script.next_round(&pool));
        run_round(
            &mut served.text,
            served.doc,
            &pool,
            &round,
            &mut recorder,
            &mut out,
        );
        rounds += 1;
    }
    let wal = durability.stats();

    check_fingerprint(&mut out, &served, &script);
    let peak_rss_mb = recorder.peak_rss_mb();
    served.handle.stop();
    drop((script, scratch));
    repeat_setups(
        scale.setup_repeats,
        &mut setups,
        set_up,
        |(served, _script, _scratch)| {
            served.handle.stop();
        },
    )?;

    out.set("setup_s", setup_seconds(&setups));
    out.set("req_per_s", recorder.req_per_s());
    out.set("read_p50_us", recorder.latency_us(Kind::Read, 0.50));
    out.set("read_p95_us", recorder.latency_us(Kind::Read, 0.95));
    out.set_plain("peak_rss_mb", peak_rss_mb);
    out.op_counts = vec![
        ("rounds", rounds as f64),
        ("commits", recorder.commits() as f64),
        ("reads", recorder.reads() as f64),
        ("wal_bytes", (wal.wal_bytes - wal_before.wal_bytes) as f64),
    ];
    Ok(out)
}

/// A start-state bundle, built the way `LOAD` builds it.
fn fresh_bundle(xml: &str) -> Result<LoadedDoc, String> {
    let exec = ruid::Executor::new(ruid::available_threads());
    LoadedDoc::build_with("xmark.xml", xml, 3, true, &exec)
}

/// What the server holds around one document, for one in-process pass:
/// a catalog, a WAL with the server's fsync policy, a result cache.
struct Replay {
    catalog: Catalog,
    wal: Durability,
    cache: ResultCache,
    doc: u64,
}

impl Replay {
    fn new(mut loaded: LoadedDoc, doc: u64, wal_dir: &std::path::Path) -> Result<Replay, String> {
        let defaults = ruid::ServerConfig::default();
        let catalog = Catalog::new(defaults.shards);
        loaded.generation = catalog.next_generation();
        catalog.insert_with_id(doc, loaded);
        let (wal, _, _) = Durability::open(wal_dir, FsyncPolicy::Always)
            .map_err(|e| format!("open replay wal: {e}"))?;
        Ok(Replay {
            catalog,
            wal,
            cache: ResultCache::new(defaults.plan_cache_cap),
            doc,
        })
    }

    fn path(&self) -> ReadPath<'_> {
        ReadPath::new(&self.catalog, &self.cache)
    }

    /// Replays `rounds` as the text front end receives them. Returns the
    /// commits' statistics and the time spent inside requests.
    fn run(
        &self,
        tr: &mut Tracer,
        path: &ReadPath<'_>,
        rounds: &[Round],
        pool: &[Query],
        mut parts: Option<&mut ApplyParts>,
        out: &mut Outcome,
    ) -> Result<(Vec<layers::CommitStats>, Duration), String> {
        let mut stats = Vec::new();
        let mut busy = Duration::ZERO;
        for round in rounds {
            for (line, op) in [
                (&round.insert_line, &round.insert),
                (&round.delete_line, &round.delete),
            ] {
                if let Some(parts) = parts.as_deref_mut() {
                    let base = self
                        .catalog
                        .get(self.doc)
                        .ok_or("replay document vanished")?;
                    parts.measure(&base, op)?;
                }
                let started = Instant::now();
                stats.push(layers::replay_commit(tr, &self.catalog, &self.wal, line)?);
                busy += started.elapsed();
                for index in round.read_sequence() {
                    let arrival = Arrival::line(self.doc, &pool[index].xpath);
                    let started = Instant::now();
                    let reply = layers::replay_read(tr, path, &arrival)?;
                    busy += started.elapsed();
                    if !reply.starts_with("OK") {
                        out.check
                            .fail(|| format!("replay of {}: {reply}", pool[index].xpath));
                    }
                }
            }
        }
        Ok((stats, busy))
    }

    /// The replayed document went through the script's ops: same oracle
    /// as the served one.
    fn check_fingerprint(&self, script: &WriteScript, out: &mut Outcome) {
        match self.catalog.get(self.doc) {
            Some(loaded) => out.check.expect_eq(
                "fingerprint of the replayed document vs serial replay",
                &durable::doc_fingerprint(&loaded.doc, &loaded.scheme),
                &script.fingerprint(),
            ),
            None => out.check.fail(|| "replayed document vanished".into()),
        }
    }
}

/// The traced run: `replay_rounds` rounds on the wire for the commit
/// round trip and the production counters, the build taken apart, then
/// the same rounds in-process — each commit through the real
/// `apply_update` with its named parts timed beside it — untraced and
/// traced.
pub fn trace(scale: &Scale, seed: u64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new("write_mixed");
    let mut layers = Layers::default();
    let pool = inputs::query_pool(scale.nodes, seed, scale.pool);

    // Wire pass.
    let scratch = Scratch::new("write_mixed-trace").map_err(|e| e.to_string())?;
    let (mut served, xml) = serve_xmark(&scratch, scale, seed, true)?;
    let mut script = WriteScript::new(&xml, seed, served.doc)?;
    let durability = served
        .handle
        .durability()
        .ok_or("server started without durability")?
        .clone();
    let (wal_before, counters) = (durability.stats(), ServerCounters::read(&served.handle));
    let mut recorder = Recorder::start(ROUND);
    let rounds: Vec<Round> = (0..scale.replay_rounds)
        .map(|_| script.next_round(&pool))
        .collect();
    for round in &rounds {
        run_round(
            &mut served.text,
            served.doc,
            &pool,
            round,
            &mut recorder,
            &mut out,
        );
    }
    let wal = durability.stats();
    let commits = (wal.wal_records - wal_before.wal_records).max(1) as f64;
    layers.set(
        "wire.commit_p50_ms",
        recorder.latency_us(Kind::Commit, 0.50).value / 1e3,
    );
    layers.set(
        "wire.commit_p90_ms",
        recorder.latency_us(Kind::Commit, 0.90).value / 1e3,
    );
    layers.set(
        "wire.read_p50_us",
        recorder.latency_us(Kind::Read, 0.50).value,
    );
    layers.set(
        "wire.wal_bytes_per_commit",
        (wal.wal_bytes - wal_before.wal_bytes) as f64 / commits,
    );
    layers.set(
        "durable.wal.append_us",
        (wal.wal_append_ns - wal_before.wal_append_ns) as f64 / commits / 1e3,
    );
    let fsyncs = (wal.wal_fsyncs - wal_before.wal_fsyncs) as f64;
    layers.set(
        "durable.wal.fsync_us",
        (wal.wal_fsync_ns - wal_before.wal_fsync_ns) as f64 / fsyncs.max(1.0) / 1e3,
    );
    layers.set("durable.wal.fsyncs_per_commit", fsyncs / commits);
    let invalidated = counters.report_since(&served.handle, recorder.requests(), &mut layers);
    layers.set(
        "plan.cache.invalidations_per_commit",
        invalidated as f64 / commits,
    );
    check_fingerprint(&mut out, &served, &script);
    served.handle.stop();

    // The build, part by part; then the same rounds in-process, each
    // pass on a bundle of its own in the start state (a round leaves
    // table K changed, so a second pass over one bundle would replay
    // stale labels). The named parts ride the traced pass, between
    // requests; both passes are timed request by request, so the parts
    // count as neither tracing overhead nor request time.
    let loaded = layers::build_layers(tracer, &xml, &mut layers)?;
    let untraced = Replay::new(
        fresh_bundle(&xml)?,
        served.doc,
        &scratch.path().join("wal-untraced"),
    )?;
    let (_, untraced_busy) = untraced.run(
        &mut Tracer::new(false),
        &untraced.path(),
        &rounds,
        &pool,
        None,
        &mut out,
    )?;
    untraced.check_fingerprint(&script, &mut out);
    drop(untraced);
    let traced = Replay::new(loaded, served.doc, &scratch.path().join("wal-traced"))?;
    let path = traced.path();
    let mut parts = ApplyParts::default();
    let first_request = tracer.next_request() + 1;
    let (commit_stats, traced_busy) =
        traced.run(tracer, &path, &rounds, &pool, Some(&mut parts), &mut out)?;
    traced.check_fingerprint(&script, &mut out);

    let parts_ms = parts.report(&mut layers);
    // Reads first: the two names both paths share (`proto.parse`,
    // `catalog.get`) end up holding the commit's view.
    layers::read_metrics(tracer, &path, first_request, &[], &mut layers);
    layers::commit_metrics(tracer, first_request, &commit_stats, parts_ms, &mut layers);
    layers.set(
        "bench.trace_overhead_ratio",
        layers::overhead_ratio(untraced_busy, traced_busy),
    );
    let commit_ms = layers.get("wire.commit_p50_ms");
    if commit_ms > 0.0 {
        layers.set(
            "bench.apply_update_share",
            layers.get("service.catalog.apply_update_ms") / commit_ms,
        );
    }
    layers.set(
        "service.rest_us",
        commit_ms * 1e3 - layers.get("bench.commit_us"),
    );
    layers.set("bench.spans", tracer.spans().len() as f64);

    out.metrics = layers.into_metrics();
    out.op_counts = vec![
        ("wire_rounds", rounds.len() as f64),
        ("wire_commits", commits),
        ("replayed_commits", commit_stats.len() as f64),
    ];
    Ok(out)
}
