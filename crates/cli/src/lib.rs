//! Implementation of the `ruid-xml` command-line tool.
//!
//! ```text
//! ruid-xml stats  <file.xml>                       tree + numbering statistics
//! ruid-xml label  <file.xml> [--depth D] [--limit N]   print labels and table K
//! ruid-xml query  <file.xml> <xpath> [--engine E]  run an XPath query
//!                 (E: tree, uid, ruid, indexed, interval, ancestry, planned)
//! ruid-xml explain <file.xml> <xpath>              show the physical query plan
//! ruid-xml axes   <file.xml> <xpath>               show every axis of the first match
//! ruid-xml parent <file.xml> <g> <l> <r>           rparent() of an identifier
//! ruid-xml serve  [<file.xml>...] [--addr A] [--threads N]   run the TCP service
//! ruid-xml client <addr> <command...>              send one protocol request
//! ```

#![forbid(unsafe_code)]

use ruid::prelude::*;
use ruid::service::proto::{self, Engine};
use ruid::service::run_query;
use ruid::{BinaryClient, Client, DocOrder, FsyncPolicy, LoadedDoc, NameIndex, NameIndexed, PathSummary, Ruid2, Server, ServerConfig, ServerHandle, UidScheme};

/// The usage banner printed on argument errors.
pub const USAGE: &str = "usage:
  ruid-xml stats  <file.xml>
  ruid-xml label  <file.xml> [--depth D] [--limit N]
  ruid-xml query  <file.xml> <xpath> [--engine tree|uid|ruid|indexed|interval|ancestry|planned]
  ruid-xml explain <file.xml> <xpath>
  ruid-xml axes   <file.xml> <xpath>
  ruid-xml parent <file.xml> <global> <local> <true|false>
  ruid-xml serve  [<file.xml>...] [--addr 127.0.0.1:PORT] [--threads N] [--depth D]
                  [--queue-cap N] [--max-line-bytes N] [--read-timeout-ms MS]
                  [--mux-workers N]
                  [--data-dir DIR] [--fsync always|never|every=<n>]
                  [--metrics-addr 127.0.0.1:PORT]
                  [--follow LEADER_ADDR] [--repl-poll-ms MS]
  ruid-xml client <addr> [--protocol text|binary] <command...>
     wire verbs include PING, LOAD, QUERY, LABEL, EXPLAIN, and the
     structural updates INSERT <doc> <g> <l> <r> <pos> <fragment>,
     DELETE <doc> <g> <l> <r>, RELABEL <doc>
     --protocol binary sends the same request in one binary frame, under
     its own verb code where it has one (QUERY, LABEL, PARENT, GET, ...) and
     as a TEXT frame otherwise (MQUERY/MLABEL batches need the library
     BinaryClient)";

/// Dispatches one invocation; `args` excludes the program name.
pub fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?;
    match command.as_str() {
        "stats" => stats(args.get(1).ok_or("missing file")?),
        "label" => label(&args[1..]),
        "query" => query(&args[1..]),
        "explain" => explain(&args[1..]),
        "axes" => axes(&args[1..]),
        "parent" => parent(&args[1..]),
        "serve" => serve(&args[1..]),
        "client" => client(&args[1..]),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn load(path: &str) -> Result<Document, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Document::parse(&text).map_err(|e| format!("parse error in {path}: {e}"))
}

/// Parses `--flag value` style options out of an argument list.
fn option<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn stats(path: &str) -> Result<(), String> {
    let doc = load(path)?;
    let root = doc.root_element().ok_or("document has no root element")?;
    let tree = TreeStats::collect(&doc, root);
    println!("file            : {path}");
    println!("nodes           : {}", tree.node_count);
    println!("elements        : {}", tree.element_count);
    println!("max fan-out     : {}", tree.max_fanout);
    println!("max depth       : {}", tree.max_depth);
    println!("avg fan-out     : {:.2}", tree.avg_fanout());
    println!("distinct names  : {}", doc.names().len());
    for d in [2usize, 3, 4] {
        match Ruid2Scheme::try_build(&doc, &PartitionConfig::by_depth(d)) {
            Ok(scheme) => println!(
                "rUID by-depth {d} : {} areas, κ = {}, K = {} bytes, label ≤ {} bits",
                scheme.area_count(),
                scheme.kappa(),
                scheme.ktable().memory_bytes(),
                scheme.label_width_bits()
            ),
            Err(e) => println!("rUID by-depth {d} : {e}"),
        }
    }
    let uid = UidScheme::build(&doc);
    println!(
        "original UID    : k = {}, largest identifier needs {} bits",
        uid.k(),
        uid.bits_required()
    );
    Ok(())
}

fn label(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing file")?;
    let depth: usize = option(args, "--depth").map_or(Ok(3), str::parse).map_err(
        |e: std::num::ParseIntError| e.to_string(),
    )?;
    let limit: usize = option(args, "--limit").map_or(Ok(40), str::parse).map_err(
        |e: std::num::ParseIntError| e.to_string(),
    )?;
    let doc = load(path)?;
    let root = doc.root_element().ok_or("document has no root element")?;
    let scheme = Ruid2Scheme::try_build(&doc, &PartitionConfig::by_depth(depth))
        .map_err(|e| e.to_string())?;
    println!("κ = {}, {} areas; table K:", scheme.kappa(), scheme.area_count());
    for row in scheme.ktable().rows().iter().take(limit) {
        println!("  global {:>6}  local {:>6}  fan-out {:>4}", row.global, row.local, row.fanout);
    }
    if scheme.ktable().len() > limit {
        println!("  ... {} more rows", scheme.ktable().len() - limit);
    }
    println!();
    for node in doc.descendants(root).take(limit) {
        let l = scheme.label_of(node);
        let name = doc
            .tag_name(node)
            .map(|t| format!("<{t}>"))
            .unwrap_or_else(|| format!("{:?}", doc.string_value(node)));
        println!("{:<30} {l}", format!("{}{name}", "  ".repeat(doc.depth(node) - 1)));
    }
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing file")?;
    let xpath = args.get(1).ok_or("missing XPath expression")?;
    let engine = option(args, "--engine").unwrap_or("indexed");
    let loaded = LoadedDoc::from_file(path, 3, false)?;
    let LoadedDoc { doc, scheme, .. } = &loaded;
    let started = std::time::Instant::now();
    // Every service engine answers through `run_query`; only the original
    // UID numbering, which the service does not keep, is built here.
    let hits = if engine == "uid" {
        Evaluator::new(doc, UidAxes::new(&UidScheme::build(doc))).query(xpath)?
    } else {
        let e = Engine::parse(engine).ok_or_else(|| format!("unknown engine {engine:?}"))?;
        run_query(&loaded, xpath, e)?.0
    };
    let elapsed = started.elapsed();
    for &node in hits.iter().take(20) {
        println!("{:<18} {}", scheme.label_of(node), doc.subtree_to_xml_string(node));
    }
    if hits.len() > 20 {
        println!("... {} more", hits.len() - 20);
    }
    eprintln!("{} hits in {elapsed:.2?} (engine: {engine})", hits.len());
    Ok(())
}

fn explain(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing file")?;
    let xpath = args.get(1).ok_or("missing XPath expression")?;
    let doc = load(path)?;
    let index = NameIndex::build(&doc);
    let order = DocOrder::build(&doc);
    let summary = PathSummary::build(&doc);
    let ev = Evaluator::new(
        &doc,
        NameIndexed::new(TreeAxes::with_order(&doc, &order), &doc, &index),
    );
    let started = std::time::Instant::now();
    let (hits, compiled, stats) = ruid::planned_query(xpath, &doc, &summary, &order, &ev)?;
    let elapsed = started.elapsed();
    for line in ruid::render_explain(xpath, &compiled, &stats, &summary, &doc, hits.len()) {
        println!("{line}");
    }
    eprintln!("{} hits in {elapsed:.2?} ({} summary paths)", hits.len(), summary.path_count());
    Ok(())
}

fn axes(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing file")?;
    let xpath = args.get(1).ok_or("missing XPath expression")?;
    let doc = load(path)?;
    let scheme = Ruid2Scheme::try_build(&doc, &PartitionConfig::by_depth(3))
        .map_err(|e| e.to_string())?;
    let hits = Evaluator::new(&doc, RuidAxes::new(&scheme)).query(xpath)?;
    let &node = hits.first().ok_or("no match")?;
    let l = scheme.label_of(node);
    println!("context: {l} = {}", doc.subtree_to_xml_string(node));
    let show = |name: &str, labels: Vec<Ruid2>| {
        let rendered: Vec<String> = labels.iter().take(8).map(Ruid2::to_string).collect();
        println!(
            "{name:<22} [{}{}] ({} nodes)",
            rendered.join(", "),
            if labels.len() > 8 { ", ..." } else { "" },
            labels.len()
        );
    };
    show("ancestors", scheme.rancestors(&l));
    show("children", scheme.rchildren(&l));
    show("descendants", scheme.rdescendants(&l));
    show("preceding-siblings", scheme.rpsiblings(&l));
    show("following-siblings", scheme.rfsiblings(&l));
    show("preceding", scheme.rpreceding(&l));
    show("following", scheme.rfollowing(&l));
    Ok(())
}

/// Starts the TCP service and pre-loads any files given before the first
/// `--flag`. Returns the handle so callers (tests, embedders) can address
/// and stop the server; the `serve` subcommand blocks on it.
pub fn serve_start(args: &[String]) -> Result<ServerHandle, String> {
    let mut config = ServerConfig::default();
    if let Some(addr) = option(args, "--addr") {
        config.addr = addr.to_owned();
    }
    if let Some(threads) = option(args, "--threads") {
        config.threads =
            threads.parse().map_err(|e: std::num::ParseIntError| e.to_string())?;
        // One knob for both budgets: serving concurrency and build fan-out
        // (`--threads 1` forces the fully sequential path end to end).
        config.build_threads = config.threads;
    }
    if let Some(depth) = option(args, "--depth") {
        config.depth =
            depth.parse().map_err(|e: std::num::ParseIntError| e.to_string())?;
    }
    if let Some(cap) = option(args, "--queue-cap") {
        config.queue_cap =
            cap.parse().map_err(|e: std::num::ParseIntError| e.to_string())?;
    }
    if let Some(workers) = option(args, "--mux-workers") {
        config.mux_workers =
            workers.parse().map_err(|e: std::num::ParseIntError| e.to_string())?;
    }
    if let Some(bytes) = option(args, "--max-line-bytes") {
        config.max_line_bytes =
            bytes.parse().map_err(|e: std::num::ParseIntError| e.to_string())?;
    }
    if let Some(ms) = option(args, "--read-timeout-ms") {
        config.read_timeout_ms =
            ms.parse().map_err(|e: std::num::ParseIntError| e.to_string())?;
    }
    if let Some(dir) = option(args, "--data-dir") {
        config.data_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(policy) = option(args, "--fsync") {
        config.fsync = FsyncPolicy::parse(policy)?;
    }
    if let Some(addr) = option(args, "--metrics-addr") {
        config.metrics_addr = Some(addr.to_owned());
    }
    if let Some(leader) = option(args, "--follow") {
        // Follower replica: bootstrap from the leader's newest snapshot,
        // tail its WAL, serve reads, reject writes until PROMOTE.
        config.follow = Some(leader.to_owned());
    }
    if let Some(ms) = option(args, "--repl-poll-ms") {
        config.repl_poll_ms =
            ms.parse().map_err(|e: std::num::ParseIntError| e.to_string())?;
    }
    let files: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let handle = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    // Recovery (with --data-dir) may already have brought documents back;
    // skip re-loading any preload path that is already in the catalog so
    // a restart with the same command line is idempotent. The rest load in
    // argument order, so ids are stable, exactly as a protocol LOAD would.
    let known: Vec<String> =
        handle.catalog().entries().into_iter().map(|(_, path)| path).collect();
    for file in files.into_iter().filter(|f| !known.contains(f)) {
        let id = handle.load(file)?;
        let nodes = handle.catalog().get(id).map_or(0, |d| d.scheme.len());
        eprintln!("loaded {file} as document {id} ({nodes} labelled nodes)");
    }
    eprintln!("ruid-service listening on {}", handle.addr());
    if let Some(m) = handle.metrics_http_addr() {
        eprintln!("prometheus metrics on http://{m}/metrics");
    }
    Ok(handle)
}

fn serve(args: &[String]) -> Result<(), String> {
    let handle = serve_start(args)?;
    handle.join(); // until a client sends SHUTDOWN
    Ok(())
}

fn client(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or("missing server address")?;
    let protocol = option(args, "--protocol").unwrap_or("text");
    // Everything after the address that isn't the --protocol flag pair
    // joins into the request line.
    let mut words: Vec<&str> = Vec::new();
    let mut rest = args[1..].iter().map(String::as_str);
    while let Some(word) = rest.next() {
        if word == "--protocol" {
            rest.next(); // skip the flag value
        } else {
            words.push(word);
        }
    }
    let line = words.join(" ");
    if line.trim().is_empty() {
        return Err("missing command (e.g. `ruid-xml client 127.0.0.1:7070 PING`)".into());
    }
    let response = match protocol {
        "text" => {
            let mut client = Client::connect(addr.as_str())
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            client.request(&line).map_err(|e| e.to_string())?
        }
        "binary" => {
            // The typed request under its own verb code — responses are
            // byte-identical by design. A line that does not parse still
            // goes out, in a TEXT frame, so the server's ERR is printed.
            let mut client = BinaryClient::connect(addr.as_str())
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            match proto::parse(&line) {
                Ok(request) => client.call(&request),
                Err(_) => client.request(&line),
            }
            .map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown protocol {other:?} (text|binary)")),
    };
    println!("{response}");
    if let Some(err) = response.strip_prefix("ERR ") {
        return Err(format!("server: {err}"));
    }
    Ok(())
}

fn parent(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing file")?;
    let global: u64 = args.get(1).ok_or("missing global index")?.parse().map_err(
        |e: std::num::ParseIntError| e.to_string(),
    )?;
    let local: u64 = args.get(2).ok_or("missing local index")?.parse().map_err(
        |e: std::num::ParseIntError| e.to_string(),
    )?;
    let is_root: bool = args.get(3).ok_or("missing root flag")?.parse().map_err(
        |e: std::str::ParseBoolError| e.to_string(),
    )?;
    let doc = load(path)?;
    let scheme = Ruid2Scheme::try_build(&doc, &PartitionConfig::by_depth(3))
        .map_err(|e| e.to_string())?;
    let label = Ruid2::new(global, local, is_root);
    let node = scheme.node_of(&label).ok_or_else(|| format!("no node carries {label}"))?;
    println!("{label} = {}", doc.subtree_to_xml_string(node));
    match scheme.rparent(&label) {
        Some(p) => {
            let pnode = scheme.node_of(&p).expect("parent label must resolve");
            println!("rparent -> {p} = {}", doc.subtree_to_xml_string(pnode));
        }
        None => println!("rparent -> (tree root has no parent)"),
    }
    Ok(())
}
