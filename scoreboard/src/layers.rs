//! Per-layer measurement shared by the traced runs: the document build
//! taken apart, the read path and the commit path replayed in-process
//! with a span around every call into a layer's public function, and the
//! reduction of spans to per-layer metrics.
//!
//! The replay functions mirror `server.rs` (`planned_cached`,
//! `commit_update`) and `LoadedDoc::apply_update` call for call; the
//! real functions are timed whole beside them, and what the named parts
//! do not explain is reported as `*_unattributed_ms` rather than hidden.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use durable::{Applied, DocState, WalOp};
use ruid::prelude::*;
use ruid::service::proto::{self, Request};
use ruid::service::wire::{self, Decoded, WireRequest, WireResponse};
use ruid::{
    AncestryScheme, Catalog, DocOrder, Durability, Evaluator, Executor, IntervalScheme, LoadedDoc,
    NameIndex, NameIndexed, PathSummary, ResultCache, TreeAxes, XmlStore,
};

use crate::inputs::QueryClass;
use crate::stats;
use crate::trace::{bytes_held, Tracer};
use crate::workloads::Measured;

/// Per-layer metric values by name; what a workload never touches stays
/// absent and is reported as 0.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, Measured>,
}

impl Layers {
    /// Sets a counter, ratio or sum.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, Measured::plain(value));
    }

    /// Sets the median of `samples` (given in nanoseconds) divided by
    /// `per_unit` (1 for ns, 1e3 for us, 1e6 for ms). No samples, no entry.
    pub fn set_median(&mut self, name: &'static str, samples_ns: &[f64], per_unit: f64) {
        if !samples_ns.is_empty() {
            let value = stats::median(samples_ns) / per_unit;
            self.values.insert(
                name,
                Measured {
                    value,
                    spread: Some(stats::spread(samples_ns)),
                    samples: samples_ns.len(),
                },
            );
        }
    }

    /// The value of `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |m| m.value)
    }

    /// Every per-layer metric `BENCHMARK.json` names, zeros included. A
    /// value set under a name the file does not hold is a bug here, not
    /// a number to drop silently.
    pub fn into_metrics(self) -> Vec<(&'static str, Measured)> {
        let spec = crate::spec::spec();
        if let Some(unknown) = self
            .values
            .keys()
            .find(|name| spec.metric(name).is_none_or(|m| m.bound.is_some()))
        {
            panic!("{unknown} is no per-layer metric of BENCHMARK.json");
        }
        spec.per_layer
            .iter()
            .map(|m| {
                let value = self.values.get(m.name.as_str()).copied();
                (m.name.as_str(), value.unwrap_or(Measured::plain(0.0)))
            })
            .collect()
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Builds one structure on its own inside a span, recording its time
/// and the bytes it holds; adds the time to `parts_ms`.
fn build_part<T>(
    tr: &mut Tracer,
    layers: &mut Layers,
    parts_ms: &mut f64,
    names: (&'static str, &'static str, &'static str),
    build: impl FnOnce() -> T,
) -> T {
    let (span, ms_name, bytes_name) = names;
    let started = Instant::now();
    let (value, bytes) = tr.span(span, |_| bytes_held(build));
    let ms = ms_since(started);
    layers.set(ms_name, ms);
    layers.set(bytes_name, bytes);
    *parts_ms += ms;
    value
}

/// The build group: every structure `LoadedDoc::build_with` builds,
/// built once on its own for its time and the bytes it holds, then the
/// real call timed whole. Returns the real bundle.
pub fn build_layers(tr: &mut Tracer, xml: &str, layers: &mut Layers) -> Result<LoadedDoc, String> {
    // The server's defaults: by-depth 3 partition, `build_threads` from
    // the machine, node store on.
    let exec = Executor::new(ruid::available_threads());
    let config = PartitionConfig::by_depth(3);
    let mut parts_ms = 0.0;
    let doc = build_part(
        tr,
        layers,
        &mut parts_ms,
        ("xmldom.parse", "xmldom.parse_ms", "xmldom.doc_bytes"),
        || Document::parse(xml).map_err(|e| format!("parse: {e}")),
    )?;
    let scheme = build_part(
        tr,
        layers,
        &mut parts_ms,
        (
            "core.scheme_build",
            "core.scheme_build_ms",
            "core.scheme_bytes",
        ),
        || ruid::Ruid2Scheme::try_build_with(&doc, &config, &exec).map_err(|e| e.to_string()),
    )?;
    let interval = build_part(
        tr,
        layers,
        &mut parts_ms,
        (
            "schemes.interval_build",
            "schemes.interval_build_ms",
            "schemes.interval_bytes",
        ),
        || IntervalScheme::build(&doc),
    );
    let ancestry = build_part(
        tr,
        layers,
        &mut parts_ms,
        (
            "schemes.ancestry_build",
            "schemes.ancestry_build_ms",
            "schemes.ancestry_bytes",
        ),
        || AncestryScheme::build(&doc),
    );
    let index = build_part(
        tr,
        layers,
        &mut parts_ms,
        (
            "xpath.nameindex_build",
            "xpath.nameindex_build_ms",
            "xpath.nameindex_bytes",
        ),
        || NameIndex::build_with(&doc, &exec),
    );
    let order = build_part(
        tr,
        layers,
        &mut parts_ms,
        (
            "xmldom.order_build",
            "xmldom.order_build_ms",
            "xmldom.order_bytes",
        ),
        || DocOrder::build(&doc),
    );
    let summary = build_part(
        tr,
        layers,
        &mut parts_ms,
        (
            "plan.summary_build",
            "plan.summary_build_ms",
            "plan.summary_bytes",
        ),
        || PathSummary::build(&doc),
    );
    let store = build_part(
        tr,
        layers,
        &mut parts_ms,
        ("xmlstore.load", "xmlstore.load_ms", "xmlstore.store_bytes"),
        || {
            let mut store = XmlStore::in_memory();
            store.load_document(&doc, &scheme);
            store
        },
    );
    drop((
        doc, scheme, interval, ancestry, index, order, summary, store,
    ));

    let started = Instant::now();
    let loaded = tr.span("service.catalog.build", |_| {
        LoadedDoc::build_with("xmark.xml", xml, 3, true, &exec)
    })?;
    let whole_ms = ms_since(started);
    layers.set("service.catalog.build_ms", whole_ms);
    layers.set("service.catalog.build_unattributed_ms", whole_ms - parts_ms);
    Ok(loaded)
}

/// A request as it arrives at a front end.
pub enum Arrival {
    /// One encoded binary `QUERY` frame.
    Frame(Vec<u8>),
    /// One text-protocol request line.
    Line(String),
}

impl Arrival {
    /// The binary front end's arrival for a planned `QUERY`.
    pub fn frame(id: u64, doc: u64, xpath: &str) -> Arrival {
        let mut bytes = Vec::new();
        let request = WireRequest::Query {
            doc,
            engine: proto::Engine::Planned,
            xpath: xpath.to_owned(),
        };
        wire::encode_request(id, &request, &mut bytes);
        Arrival::Frame(bytes)
    }

    /// The text front end's arrival for a planned `QUERY`.
    pub fn line(doc: u64, xpath: &str) -> Arrival {
        Arrival::Line(format!("QUERY {doc} {xpath}"))
    }
}

/// What the in-process read path runs against, plus the `ExecStats`
/// totals it gathers on the way.
pub struct ReadPath<'a> {
    /// The catalog the document is pinned from.
    pub catalog: &'a Catalog,
    /// The result cache probed and filled.
    pub cache: &'a ResultCache,
    /// Rows the plan operators produced, all requests together.
    pub rows_examined: Cell<u64>,
    /// Hits returned, all requests together.
    pub hits: Cell<u64>,
}

impl<'a> ReadPath<'a> {
    /// A read path over `catalog` and `cache`.
    pub fn new(catalog: &'a Catalog, cache: &'a ResultCache) -> ReadPath<'a> {
        ReadPath {
            catalog,
            cache,
            rows_examined: Cell::new(0),
            hits: Cell::new(0),
        }
    }
}

/// `server.rs::format_hits`, which the bench cannot reach: the reply has
/// to exist for the cache insert and the response encode, so it is
/// rebuilt here and timed as `bench.format`, outside the layer sums.
fn format_hits(loaded: &LoadedDoc, hits: &[NodeId]) -> String {
    let mut out = format!("OK {}", hits.len());
    for &node in hits {
        out.push(' ');
        out.push_str(&proto::fmt_label(&loaded.scheme.label_of(node)));
    }
    out
}

/// One planned `QUERY` through the layers the server's read path
/// crosses, in its order: decode, pin, cache probe, then on a miss
/// parse, plan, execute, format and cache insert, then encode.
pub fn replay_read(
    tr: &mut Tracer,
    path: &ReadPath<'_>,
    arrival: &Arrival,
) -> Result<String, String> {
    tr.next_request();
    tr.span("bench.request", |tr| {
        let (id, doc, xpath) = match arrival {
            Arrival::Frame(bytes) => {
                let cap = ruid::ServerConfig::default().max_line_bytes;
                match tr.span("service.wire.decode_request", |_| {
                    wire::decode_request(bytes, cap)
                }) {
                    Decoded::Frame { frame, .. } => match frame.request {
                        WireRequest::Query { doc, xpath, .. } => (Some(frame.id), doc, xpath),
                        other => return Err(format!("replay expects QUERY frames, got {other:?}")),
                    },
                    other => return Err(format!("frame did not decode: {other:?}")),
                }
            }
            Arrival::Line(line) => match tr.span("service.proto.parse", |_| proto::parse(line))? {
                Request::Query { doc, xpath, .. } => (None, doc, xpath),
                other => return Err(format!("replay expects QUERY lines, got {other:?}")),
            },
        };
        let loaded = tr
            .span("service.catalog.get", |_| path.catalog.get(doc))
            .ok_or_else(|| format!("no document {doc}"))?;
        let cached = tr.span("plan.cache.lookup", |_| {
            path.cache.lookup(doc, &xpath, loaded.generation)
        });
        let reply = match cached {
            Some(hit) => (*hit).clone(),
            None => {
                let parsed = tr
                    .span("xpath.parse", |_| ruid::parse_xpath(&xpath))
                    .map_err(|e| e.to_string())?;
                let compiled = tr.span("plan.plan", |_| {
                    ruid::plan_query(&parsed, &loaded.summary, &loaded.doc)
                });
                let (hits, stats) = tr
                    .span("plan.execute", |_| {
                        let ev = Evaluator::new(
                            &loaded.doc,
                            NameIndexed::new(
                                TreeAxes::with_order(&loaded.doc, &loaded.order),
                                &loaded.doc,
                                &loaded.index,
                            ),
                        );
                        ruid::execute_plan(
                            &compiled,
                            &loaded.doc,
                            &loaded.summary,
                            &loaded.order,
                            &ev,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let rows: usize =
                    stats.op_actuals.iter().sum::<usize>() + stats.tail_actual.unwrap_or(0);
                path.rows_examined
                    .set(path.rows_examined.get() + rows as u64);
                path.hits.set(path.hits.get() + hits.len() as u64);
                let out = tr.span("bench.format", |_| format_hits(&loaded, &hits));
                tr.span("plan.cache.insert", |_| {
                    path.cache
                        .insert(doc, &xpath, loaded.generation, out.clone());
                });
                out
            }
        };
        match id {
            Some(id) => {
                let response = WireResponse::Line(reply);
                let mut encoded = Vec::new();
                tr.span("service.wire.encode_response", |_| {
                    wire::encode_response(id, &response, &mut encoded);
                });
                std::hint::black_box(&encoded);
                let WireResponse::Line(reply) = response else {
                    unreachable!()
                };
                Ok(reply)
            }
            None => Ok(reply),
        }
    })
}

/// The spans, with their self times in nanoseconds, of the requests
/// (from `first_request` on) whose root span is named `root` — reads and
/// commits share span names (`service.proto.parse`,
/// `service.catalog.get`) and must not be pooled.
fn spans_under<'t>(
    tr: &'t Tracer,
    root: &str,
    first_request: u64,
) -> Vec<(&'t crate::trace::Span, f64)> {
    let requests: std::collections::BTreeSet<u64> = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root && s.request >= first_request)
        .map(|s| s.request)
        .collect();
    tr.spans()
        .iter()
        .zip(tr.self_times())
        .filter(|(span, _)| requests.contains(&span.request))
        .map(|(span, own)| (span, own as f64))
        .collect()
}

fn by_name(spans: &[(&crate::trace::Span, f64)]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut grouped: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, own) in spans {
        grouped.entry(span.name).or_default().push(*own);
    }
    grouped
}

/// Span names whose self time counts as "a measured layer" of a read.
const READ_LAYER_SPANS: [&str; 9] = [
    "service.wire.decode_request",
    "service.proto.parse",
    "service.catalog.get",
    "plan.cache.lookup",
    "xpath.parse",
    "plan.plan",
    "plan.execute",
    "plan.cache.insert",
    "service.wire.encode_response",
];

/// Reduces the spans of replayed reads to the codec, cache and
/// plan/execute metrics. `classes[i]` is the template class of the
/// `i`-th replayed request (request ids start at `first_request`).
pub fn read_metrics(
    tr: &Tracer,
    path: &ReadPath<'_>,
    first_request: u64,
    classes: &[QueryClass],
    layers: &mut Layers,
) {
    let spans = spans_under(tr, "bench.request", first_request);
    let by_name = by_name(&spans);
    let ns = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
    layers.set_median(
        "service.wire.decode_request_ns",
        ns("service.wire.decode_request"),
        1.0,
    );
    layers.set_median("service.proto.parse_ns", ns("service.proto.parse"), 1.0);
    layers.set_median(
        "service.wire.encode_response_ns",
        ns("service.wire.encode_response"),
        1.0,
    );
    layers.set_median("service.catalog.get_ns", ns("service.catalog.get"), 1.0);
    layers.set_median("plan.cache.lookup_ns", ns("plan.cache.lookup"), 1.0);
    layers.set_median("plan.cache.insert_ns", ns("plan.cache.insert"), 1.0);
    layers.set_median("xpath.parse_ns", ns("xpath.parse"), 1.0);
    layers.set_median("plan.plan_ns", ns("plan.plan"), 1.0);
    layers.set_median("plan.execute_us", ns("plan.execute"), 1e3);
    layers.set_median("bench.format_us", ns("bench.format"), 1e3);

    // Per request: the whole in-process request, the sum of its measured
    // layers, and the plan + execute share of all request time.
    let mut request_ns: BTreeMap<u64, f64> = BTreeMap::new();
    let mut layer_sum_ns: BTreeMap<u64, f64> = BTreeMap::new();
    let mut value_pred_ns = Vec::new();
    let (mut plan_execute_ns, mut all_request_ns) = (0.0, 0.0);
    for &(span, own) in &spans {
        if span.name == "bench.request" {
            let whole = (span.end_ns - span.start_ns) as f64;
            request_ns.insert(span.request, whole);
            all_request_ns += whole;
        }
        if READ_LAYER_SPANS.contains(&span.name) {
            *layer_sum_ns.entry(span.request).or_default() += own;
        }
        if matches!(span.name, "xpath.parse" | "plan.plan" | "plan.execute") {
            plan_execute_ns += own;
        }
        if span.name == "plan.execute"
            && classes
                .get((span.request - first_request) as usize)
                .is_some_and(|class| class.is_value_predicate())
        {
            value_pred_ns.push(own);
        }
    }
    let requests: Vec<f64> = request_ns.into_values().collect();
    layers.set_median("bench.request_us", &requests, 1e3);
    layers.set_median(
        "bench.layers_sum_us",
        &layer_sum_ns.into_values().collect::<Vec<_>>(),
        1e3,
    );
    layers.set_median("plan.execute.value_pred_us", &value_pred_ns, 1e3);
    if all_request_ns > 0.0 {
        layers.set("bench.plan_execute_share", plan_execute_ns / all_request_ns);
    }
    if path.hits.get() > 0 {
        layers.set(
            "plan.rows_examined_per_hit",
            path.rows_examined.get() as f64 / path.hits.get() as f64,
        );
    }
    layers.set("bench.replayed_requests", requests.len() as f64);
}

/// `server.rs::parse_fragment` for the one shape the script sends (a
/// childless element): the same wrap-and-parse through the ordinary
/// document parser.
fn parse_fragment(fragment: &str) -> Result<durable::NodeContent, String> {
    let doc =
        Document::parse(&format!("<w>{fragment}</w>")).map_err(|e| format!("bad fragment: {e}"))?;
    let node = doc
        .root_element()
        .and_then(|root| doc.children(root).next())
        .ok_or("bad fragment")?;
    Ok(durable::NodeContent::from_node(&doc, node))
}

/// What one in-process commit reports besides its spans.
pub struct CommitStats {
    /// Labels the incremental renumbering rewrote.
    pub relabeled: usize,
    /// True when the numbering fell back to a full rebuild.
    pub full_rebuild: bool,
    /// True for an `INSERT`.
    pub is_insert: bool,
}

/// One `INSERT`/`DELETE` request line through the layers
/// `commit_update` crosses: parse, fragment parse, pin, the real
/// `apply_update`, WAL append + fsync with the pointer swap inside, and
/// the drop of the replaced bundle.
pub fn replay_commit(
    tr: &mut Tracer,
    catalog: &Catalog,
    durability: &Durability,
    line: &str,
) -> Result<CommitStats, String> {
    tr.next_request();
    tr.span("bench.commit", |tr| {
        let request = tr.span("service.proto.parse", |_| proto::parse(line))?;
        let (doc_id, op) = match request {
            Request::Insert {
                doc,
                parent,
                position,
                fragment,
            } => {
                let content = tr.span("service.fragment_parse", |_| parse_fragment(&fragment))?;
                (
                    doc,
                    WalOp::Insert {
                        doc_id: doc,
                        parent,
                        position,
                        content,
                    },
                )
            }
            Request::Delete { doc, label } => (doc, WalOp::Delete { doc_id: doc, label }),
            other => return Err(format!("replay expects INSERT/DELETE, got {other:?}")),
        };
        let _writers = catalog.begin_write();
        let loaded = tr
            .span("service.catalog.get", |_| catalog.get(doc_id))
            .ok_or_else(|| format!("no document {doc_id}"))?;
        let generation = catalog.next_generation();
        let (next, applied) = tr.span("service.catalog.apply_update", |_| {
            loaded.apply_update(&op, generation)
        })?;
        let installed = tr.span("durable.wal.log", |tr| {
            durability.log_with(&op, || {
                tr.span("service.catalog.replace", |_| catalog.replace(doc_id, next))
            })
        })?;
        if !installed {
            return Err(format!("no document {doc_id}"));
        }
        // The catalog now holds the new bundle; this was the last
        // reference to the old one, so its teardown is paid here — in the
        // server, by whichever thread drops the last pin.
        tr.span("service.catalog.bundle_drop", |_| drop(loaded));
        let stats = applied.stats();
        Ok(CommitStats {
            relabeled: stats.relabeled,
            full_rebuild: stats.full_rebuild,
            is_insert: matches!(applied, Applied::Inserted { .. }),
        })
    })
}

/// Times of the named parts of one `apply_update`, in nanoseconds.
#[derive(Default)]
pub struct ApplyParts {
    samples: BTreeMap<&'static str, Vec<f64>>,
    summary_rebuilds: usize,
    commits: usize,
}

impl ApplyParts {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = f();
        self.samples
            .entry(name)
            .or_default()
            .push(started.elapsed().as_nanos() as f64);
        result
    }

    /// Runs the steps of `LoadedDoc::apply_update` one by one on `base`
    /// (which is left untouched), timing each call into a layer.
    pub fn measure(&mut self, base: &LoadedDoc, op: &WalOp) -> Result<(), String> {
        self.commits += 1;
        let mut state = DocState {
            id: 0,
            path: base.path.clone(),
            config: *base.scheme.config(),
            with_store: base.store.is_some(),
            doc: self.time("xmldom.doc_clone", || base.doc.clone()),
            scheme: self.time("core.scheme_clone", || base.scheme.clone()),
        };
        let applied = self.time("durable.state.apply", || state.apply_detailed(op))?;
        let DocState { doc, scheme, .. } = state;
        let order = self.time("xmldom.order_build", || DocOrder::build(&doc));
        let mut index = self.time("xpath.nameindex_clone", || base.index.clone());
        let mut summary = self.time("plan.summary_clone", || base.summary.clone());
        let mut interval = self.time("schemes.interval_clone", || base.interval.clone());
        let mut ancestry = self.time("schemes.ancestry_clone", || base.ancestry.clone());
        match &applied {
            Applied::Inserted { node, .. } => {
                self.time("xpath.nameindex_patch", || {
                    index.patch_insert(&doc, &order, *node)
                });
                let patched = self.time("plan.summary_patch", || {
                    let patched = summary.patch_insert(&doc, &order, *node);
                    if !patched {
                        summary = PathSummary::build(&doc);
                    }
                    patched
                });
                self.summary_rebuilds += usize::from(!patched);
                self.time("schemes.interval_on_update", || {
                    interval.on_insert(&doc, *node)
                });
                self.time("schemes.ancestry_on_update", || {
                    ancestry.on_insert(&doc, *node)
                });
            }
            Applied::Deleted {
                elements,
                parent,
                root,
                ..
            } => {
                self.time("xpath.nameindex_patch", || index.patch_delete(elements));
                let removed: Vec<NodeId> = elements.iter().map(|&(_, n)| n).collect();
                let patched = self.time("plan.summary_patch", || {
                    let patched = summary.patch_delete(&removed);
                    if !patched {
                        summary = PathSummary::build(&doc);
                    }
                    patched
                });
                self.summary_rebuilds += usize::from(!patched);
                self.time("schemes.interval_on_update", || {
                    interval.on_delete(&doc, *parent, *root)
                });
                self.time("schemes.ancestry_on_update", || {
                    ancestry.on_delete(&doc, *parent, *root)
                });
            }
            Applied::Repartitioned { .. } => {}
        }
        let store = self.time("xmlstore.load", || {
            let mut store = XmlStore::in_memory();
            store.load_document(&doc, &scheme);
            store
        });
        // Dropping the staged copies is not part of `apply_update`.
        drop((
            doc, scheme, order, index, summary, interval, ancestry, store,
        ));
        Ok(())
    }

    /// Writes the part medians and returns their sum in milliseconds.
    pub fn report(&self, layers: &mut Layers) -> f64 {
        const PARTS: [(&str, &str, f64); 13] = [
            ("xmldom.doc_clone", "xmldom.doc_clone_ms", 1e6),
            ("core.scheme_clone", "core.scheme_clone_ms", 1e6),
            ("durable.state.apply", "durable.state.apply_us", 1e3),
            ("xmldom.order_build", "xmldom.order_build_ms", 1e6),
            ("xpath.nameindex_clone", "xpath.nameindex_clone_us", 1e3),
            ("plan.summary_clone", "plan.summary_clone_us", 1e3),
            ("schemes.interval_clone", "schemes.interval_clone_ms", 1e6),
            ("schemes.ancestry_clone", "schemes.ancestry_clone_ms", 1e6),
            ("xpath.nameindex_patch", "xpath.nameindex_patch_us", 1e3),
            ("plan.summary_patch", "plan.summary_patch_us", 1e3),
            (
                "schemes.interval_on_update",
                "schemes.interval_on_update_ms",
                1e6,
            ),
            (
                "schemes.ancestry_on_update",
                "schemes.ancestry_on_update_ms",
                1e6,
            ),
            ("xmlstore.load", "xmlstore.load_ms", 1e6),
        ];
        let mut sum_ms = 0.0;
        for (part, metric, per_unit) in PARTS {
            if let Some(samples) = self.samples.get(part) {
                layers.set_median(metric, samples, per_unit);
                sum_ms += stats::median(samples) / 1e6;
            }
        }
        if self.commits > 0 {
            layers.set(
                "plan.summary_rebuild_ratio",
                self.summary_rebuilds as f64 / self.commits as f64,
            );
        }
        sum_ms
    }
}

/// Reduces the spans of replayed commits to the commit-group metrics;
/// `parts_ms` is the sum [`ApplyParts::report`] returned.
pub fn commit_metrics(
    tr: &Tracer,
    first_request: u64,
    commits: &[CommitStats],
    parts_ms: f64,
    layers: &mut Layers,
) {
    let spans = spans_under(tr, "bench.commit", first_request);
    let by_name = by_name(&spans);
    let ns = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
    layers.set_median("service.proto.parse_ns", ns("service.proto.parse"), 1.0);
    layers.set_median(
        "service.fragment_parse_ns",
        ns("service.fragment_parse"),
        1.0,
    );
    layers.set_median("service.catalog.get_ns", ns("service.catalog.get"), 1.0);
    layers.set_median(
        "service.catalog.apply_update_ms",
        ns("service.catalog.apply_update"),
        1e6,
    );
    layers.set_median(
        "service.catalog.replace_ns",
        ns("service.catalog.replace"),
        1.0,
    );
    layers.set_median(
        "service.catalog.bundle_drop_ms",
        ns("service.catalog.bundle_drop"),
        1e6,
    );
    let whole: Vec<f64> = spans
        .iter()
        .filter(|(span, _)| span.name == "bench.commit")
        .map(|(span, _)| (span.end_ns - span.start_ns) as f64)
        .collect();
    layers.set_median("bench.commit_us", &whole, 1e3);
    layers.set(
        "service.catalog.apply_update_unattributed_ms",
        layers.get("service.catalog.apply_update_ms") - parts_ms,
    );
    let inserts: Vec<&CommitStats> = commits.iter().filter(|c| c.is_insert).collect();
    if !inserts.is_empty() {
        let relabeled: usize = inserts.iter().map(|c| c.relabeled).sum();
        layers.set(
            "core.relabeled_per_insert",
            relabeled as f64 / inserts.len() as f64,
        );
    }
    layers.set(
        "core.full_rebuilds",
        commits.iter().filter(|c| c.full_rebuild).count() as f64,
    );
}

/// Replays every arrival twice — untraced against `plain`, traced
/// against `traced`, two read paths with caches in the same state — and
/// returns the traced replies with the time spent in either. The two
/// replays alternate request by request, and so does which goes first:
/// a noisy second or a warm CPU cache then weighs on both alike, and the
/// ratio of the two times is the cost of the spans alone.
fn replay_reads_both_ways(
    tracer: &mut Tracer,
    plain: &ReadPath<'_>,
    traced: &ReadPath<'_>,
    arrivals: &[Arrival],
) -> Result<(Vec<String>, std::time::Duration, std::time::Duration), String> {
    let mut off = Tracer::new(false);
    let (mut plain_busy, mut traced_busy) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    let mut replies = Vec::with_capacity(arrivals.len());
    for (i, arrival) in arrivals.iter().enumerate() {
        for traced_turn in [i % 2 == 0, i % 2 != 0] {
            let started = Instant::now();
            if traced_turn {
                replies.push(replay_read(tracer, traced, arrival)?);
                traced_busy += started.elapsed();
            } else {
                replay_read(&mut off, plain, arrival)?;
                plain_busy += started.elapsed();
            }
        }
    }
    Ok((replies, plain_busy, traced_busy))
}

/// The server's own counters at one moment of a wire pass; the pass's
/// work is the difference of two readings, never a private stopwatch.
pub struct ServerCounters {
    hits: u64,
    lookups: u64,
    evictions: u64,
    invalidations: u64,
    net_written: u64,
}

impl ServerCounters {
    /// Reads the result cache's and the network counters.
    pub fn read(handle: &ruid::ServerHandle) -> ServerCounters {
        let cache = handle.plan_cache().stats();
        ServerCounters {
            hits: cache.hits,
            lookups: cache.hits + cache.misses,
            evictions: cache.evictions,
            invalidations: cache.invalidations,
            net_written: handle.metrics().net_bytes_written(),
        }
    }

    /// Reports what `requests` requests since `self` did to the cache and
    /// the wire; returns how many cache entries they invalidated.
    pub fn report_since(
        &self,
        handle: &ruid::ServerHandle,
        requests: usize,
        layers: &mut Layers,
    ) -> u64 {
        let now = ServerCounters::read(handle);
        layers.set(
            "plan.cache.hit_ratio",
            (now.hits - self.hits) as f64 / (now.lookups - self.lookups).max(1) as f64,
        );
        layers.set(
            "plan.cache.evictions",
            (now.evictions - self.evictions) as f64,
        );
        layers.set(
            "service.reply_bytes_per_req",
            (now.net_written - self.net_written) as f64 / requests.max(1) as f64,
        );
        now.invalidations - self.invalidations
    }
}

/// The in-process half of a read workload's traced run: `loaded` goes
/// into a catalog of its own, `xpaths` arrive as binary frames and are
/// replayed untraced and traced against two result caches (both warmed
/// with `warm` first), and the spans are reduced to the read metrics,
/// the tracing overhead and `service.rest_us` (the wire round trip
/// `wire_p50_us` minus the layers the replay could time). Returns the
/// traced replies.
pub fn trace_reads(
    tracer: &mut Tracer,
    mut loaded: LoadedDoc,
    xpaths: &[&str],
    classes: &[QueryClass],
    warm: &[&str],
    wire_p50_us: f64,
    layers: &mut Layers,
) -> Result<Vec<String>, String> {
    let defaults = ruid::ServerConfig::default();
    let catalog = Catalog::new(defaults.shards);
    loaded.generation = catalog.next_generation();
    let doc = catalog.insert(loaded);
    let arrivals: Vec<Arrival> = xpaths
        .iter()
        .enumerate()
        .map(|(i, xpath)| Arrival::frame(i as u64 + 1, doc, xpath))
        .collect();
    let (plain_cache, cache) = (
        ResultCache::new(defaults.plan_cache_cap),
        ResultCache::new(defaults.plan_cache_cap),
    );
    let (plain, path) = (
        ReadPath::new(&catalog, &plain_cache),
        ReadPath::new(&catalog, &cache),
    );
    let mut off = Tracer::new(false);
    for xpath in warm {
        replay_read(&mut off, &plain, &Arrival::frame(0, doc, xpath))?;
        replay_read(&mut off, &path, &Arrival::frame(0, doc, xpath))?;
    }
    let first_request = tracer.next_request() + 1;
    let (replies, untraced, traced) = replay_reads_both_ways(tracer, &plain, &path, &arrivals)?;
    read_metrics(tracer, &path, first_request, classes, layers);
    layers.set(
        "bench.trace_overhead_ratio",
        overhead_ratio(untraced, traced),
    );
    layers.set(
        "service.rest_us",
        wire_p50_us - layers.get("bench.layers_sum_us"),
    );
    layers.set("bench.spans", tracer.spans().len() as f64);
    Ok(replies)
}

/// Traced over untraced time of the same replay.
pub fn overhead_ratio(untraced: std::time::Duration, traced: std::time::Duration) -> f64 {
    traced.as_secs_f64() / untraced.as_secs_f64().max(1e-9)
}
