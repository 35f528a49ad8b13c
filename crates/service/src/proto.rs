//! The one request type, its line grammar and wire formatting.
//!
//! [`Request`] is every verb the service answers, whichever front end it
//! arrived on: [`parse`] reads a text line into it, [`crate::wire`]
//! decodes a binary frame into it, and its `Display` writes the
//! canonical line back (what the slowlog shows, and what a binary TEXT
//! frame carries).
//!
//! One request per line; tokens are whitespace-separated, except that
//! XPath expressions extend to the end of the line (optionally followed by
//! a trailing engine keyword for `QUERY`). Every response is exactly one
//! line: `OK ...` on success, `ERR <message>` on failure — so a client is
//! one `write` + one `read_line` per request.

use std::fmt;

use crate::metrics::Command;
use ruid_core::Ruid2;

/// A request, from either front end.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `PING` — liveness probe.
    Ping,
    /// `LOAD <path> [depth]` — parse and label a file (default depth 3).
    Load {
        /// Filesystem path of the XML document.
        path: String,
        /// `PartitionConfig::by_depth` parameter.
        depth: usize,
    },
    /// `LOADSTREAM <name> <event>...` — build and label a document
    /// directly from interval-encoded flat events (`start:end:name` /
    /// `start:end:=text` tokens), without materializing XML text.
    LoadStream {
        /// Display name the document is catalogued under.
        name: String,
        /// The whitespace-joined event tokens.
        events: String,
    },
    /// `UNLOAD <doc>` — drop a loaded document.
    Unload(u64),
    /// `LIST` — ids and paths of loaded documents.
    List,
    /// `LABEL <doc> <xpath>` — rUID labels of every match.
    Label {
        /// Target document id.
        doc: u64,
        /// XPath expression (may contain spaces).
        xpath: String,
    },
    /// `PARENT <doc> <g> <l> <true|false>` — the `rparent` arithmetic.
    Parent {
        /// Target document id.
        doc: u64,
        /// The identifier to take the parent of.
        label: Ruid2,
    },
    /// `QUERY <doc> <xpath> [engine]` — evaluate an XPath query.
    Query {
        /// Target document id.
        doc: u64,
        /// XPath expression (may contain spaces).
        xpath: String,
        /// `tree`, `ruid`, `indexed`, `interval`, `ancestry`, or
        /// `planned`.
        engine: Engine,
    },
    /// `EXPLAIN <doc> <xpath>` — the chosen physical plan, per-step
    /// estimated vs. actual cardinalities, and result-cache status.
    Explain {
        /// Target document id.
        doc: u64,
        /// XPath expression (may contain spaces).
        xpath: String,
    },
    /// `INSERT <doc> <g> <l> <true|false> <position> <fragment>` — insert
    /// one node (an empty element like `<tag a="v"/>`, a comment, a
    /// processing instruction, or bare text) as the `position`-th child of
    /// the node labelled `(g,l,r)`, committing a new catalog generation.
    Insert {
        /// Target document id.
        doc: u64,
        /// Label of the parent node.
        parent: Ruid2,
        /// Child rank to insert at (clamped to append).
        position: u32,
        /// The node to insert, as an XML fragment or bare text (runs of
        /// whitespace collapse to single spaces on the wire).
        fragment: String,
    },
    /// `DELETE <doc> <g> <l> <true|false>` — detach the whole subtree
    /// rooted at the labelled node, committing a new catalog generation.
    Delete {
        /// Target document id.
        doc: u64,
        /// Label of the subtree root to delete.
        label: Ruid2,
    },
    /// `RELABEL <doc>` — repartition and renumber the document from
    /// scratch (the maintenance escape hatch after heavy updates),
    /// committing a new catalog generation. The tree is untouched.
    Relabel(u64),
    /// `SCAN <doc> <global>` — storage rows of one rUID area.
    Scan {
        /// Target document id.
        doc: u64,
        /// The area's global index.
        global: u64,
    },
    /// `GET <doc> <g> <l> <true|false>` — subtree XML of one identifier.
    Get {
        /// Target document id.
        doc: u64,
        /// The identifier to fetch.
        label: Ruid2,
    },
    /// `STATS <doc>` — tree and numbering statistics.
    Stats(u64),
    /// `METRICS [prom]` — service counters and latency quantiles; `prom`
    /// selects the Prometheus text exposition.
    Metrics {
        /// Whether the Prometheus text format was requested.
        prom: bool,
    },
    /// `SNAPSHOT` — write and install a catalog snapshot, rotate the WAL.
    Snapshot,
    /// `PERSIST` — fsync the write-ahead log now.
    Persist,
    /// `TRACE [on|off|<threshold-ms>]` — inspect or change tracing state.
    Trace(TraceCmd),
    /// `SLOWLOG [n]` — the newest `n` captured slow requests (default 10).
    Slowlog(usize),
    /// `SHUTDOWN` — stop the server gracefully.
    Shutdown,
    /// `PROMOTE` — stop following and accept writes (no-op on a leader).
    Promote,
    /// `MQUERY <doc>` over a batch of XPath expressions (binary only): one
    /// catalog snapshot pin, one planned/cached evaluation per entry, one
    /// reply.
    MQuery {
        /// Target document id.
        doc: u64,
        /// The batched XPath expressions.
        xpaths: Vec<String>,
    },
    /// `MLABEL <doc>` (binary only): identical to `MQUERY` (labels *are*
    /// the planned rendering), metered under its own command bucket.
    MLabel {
        /// Target document id.
        doc: u64,
        /// The batched XPath expressions.
        xpaths: Vec<String>,
    },
    /// `REPL HELLO` (binary only): a follower introduces itself; the
    /// leader answers a `Blob` holding an encoded `repl::HelloInfo`.
    ReplHello {
        /// The follower's self-chosen name.
        follower: String,
    },
    /// `REPL SNAPSHOT` (binary only): fetch the raw bytes of snapshot
    /// `generation`.
    ReplSnapshot {
        /// Which snapshot generation to ship.
        generation: u64,
    },
    /// `REPL TAIL` (binary only): fetch committed WAL bytes of segment
    /// `generation` starting at `offset`; the leader answers a `Blob`
    /// holding an encoded `repl::TailChunk`.
    ReplTail {
        /// Which WAL segment to read.
        generation: u64,
        /// Byte offset within the segment to start from.
        offset: u64,
        /// Upper bound on shipped data bytes in one answer.
        max_bytes: u32,
    },
    /// `REPL ACK` (binary only): the follower reports its applied position
    /// so the leader can compute per-follower lag; `bye` marks a clean
    /// detach (the follower is shutting down, not crashing).
    ReplAck {
        /// Segment generation the follower has applied through.
        generation: u64,
        /// Next sequence number the follower expects in that segment.
        seq: u64,
        /// True when this is a goodbye: forget the follower.
        bye: bool,
        /// The follower's name, matching its `REPL HELLO`.
        follower: String,
    },
}

/// The `TRACE` sub-commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCmd {
    /// Bare `TRACE`: report the current state.
    Status,
    /// `TRACE on`: enable with the current threshold.
    On,
    /// `TRACE off`: disable capture.
    Off,
    /// `TRACE <ms>`: set the slow threshold and enable (`0` captures all).
    ThresholdMs(u64),
}

/// Which axis provider answers a `QUERY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Plain DOM traversal (the no-numbering baseline).
    Tree,
    /// rUID label arithmetic for every axis.
    Ruid,
    /// rUID arithmetic + element-name index.
    Indexed,
    /// Nested-set `[rank, last_descendant]` position arithmetic.
    Interval,
    /// Compact ancestry labels (small-depth / Dahlgaard-style).
    Ancestry,
    /// Path-summary planner: containment-join physical plans with the
    /// step-by-step evaluator as fallback (the default).
    Planned,
}

/// Every engine with its `QUERY` keyword and its binary wire code: the one
/// table the text grammar and the binary codec both read.
pub(crate) const ENGINES: [(Engine, &str, u8); 6] = [
    (Engine::Planned, "planned", 0),
    (Engine::Tree, "tree", 1),
    (Engine::Ruid, "ruid", 2),
    (Engine::Indexed, "indexed", 3),
    (Engine::Interval, "interval", 4),
    (Engine::Ancestry, "ancestry", 5),
];

impl Engine {
    /// The engine a `QUERY` keyword names.
    pub fn parse(keyword: &str) -> Option<Engine> {
        ENGINES.iter().find(|&&(_, k, _)| k == keyword).map(|&(engine, ..)| engine)
    }

    /// The engine a binary wire code names.
    pub(crate) fn from_code(code: u8) -> Option<Engine> {
        ENGINES.iter().find(|&&(.., c)| c == code).map(|&(engine, ..)| engine)
    }

    fn entry(self) -> (Engine, &'static str, u8) {
        *ENGINES.iter().find(|&&(e, ..)| e == self).expect("ENGINES lists every engine")
    }

    /// The engine's `QUERY` keyword.
    pub(crate) fn keyword(self) -> &'static str {
        self.entry().1
    }

    /// The engine's binary wire code.
    pub(crate) fn code(self) -> u8 {
        self.entry().2
    }
}

impl Request {
    /// The metrics bucket this request belongs to.
    pub fn command(&self) -> Command {
        match self {
            Request::Ping => Command::Ping,
            Request::Load { .. } => Command::Load,
            Request::LoadStream { .. } => Command::Load,
            Request::Unload(_) => Command::Unload,
            Request::List => Command::List,
            Request::Label { .. } => Command::Label,
            Request::Parent { .. } => Command::Parent,
            Request::Query { .. } => Command::Query,
            Request::Explain { .. } => Command::Explain,
            Request::Insert { .. } => Command::Insert,
            Request::Delete { .. } => Command::Delete,
            Request::Relabel(_) => Command::Relabel,
            Request::Scan { .. } => Command::Scan,
            Request::Get { .. } => Command::Get,
            Request::Stats(_) => Command::Stats,
            Request::Metrics { .. } => Command::Metrics,
            Request::Snapshot => Command::Snapshot,
            Request::Persist => Command::Persist,
            Request::Trace(_) => Command::Trace,
            Request::Slowlog(_) => Command::Slowlog,
            Request::Shutdown => Command::Shutdown,
            Request::Promote => Command::Promote,
            Request::MQuery { .. } => Command::MQuery,
            Request::MLabel { .. } => Command::MLabel,
            Request::ReplHello { .. } => Command::ReplHello,
            Request::ReplSnapshot { .. } => Command::ReplSnapshot,
            Request::ReplTail { .. } => Command::ReplTail,
            Request::ReplAck { .. } => Command::ReplAck,
        }
    }

    /// Whether serving this request can block on file I/O, a WAL append
    /// or fsync, or the follower thread — the binary driver runs these off
    /// its poll loop. Everything else answers from memory, inline.
    pub(crate) fn blocks(&self) -> bool {
        match self {
            Request::Load { .. }
            | Request::LoadStream { .. }
            | Request::Unload(_)
            | Request::Insert { .. }
            | Request::Delete { .. }
            | Request::Relabel(_)
            | Request::Snapshot
            | Request::Persist
            | Request::Shutdown
            | Request::Promote
            | Request::ReplSnapshot { .. }
            | Request::ReplTail { .. } => true,
            Request::Ping
            | Request::List
            | Request::Label { .. }
            | Request::Parent { .. }
            | Request::Query { .. }
            | Request::Explain { .. }
            | Request::Scan { .. }
            | Request::Get { .. }
            | Request::Stats(_)
            | Request::Metrics { .. }
            | Request::Trace(_)
            | Request::Slowlog(_)
            | Request::MQuery { .. }
            | Request::MLabel { .. }
            | Request::ReplHello { .. }
            | Request::ReplAck { .. } => false,
        }
    }
}

/// The canonical text line: [`parse`] reads it back into the same request
/// (XPaths, fragments and event lists with single spaces, paths and names
/// without). The binary-only verbs have no text spelling; their line is
/// for the slowlog.
impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::LoadStream { .. } => f.write_str("LOADSTREAM")?,
            other => f.write_str(other.command().name())?,
        }
        let label = |l: &Ruid2| format!("{} {} {}", l.global, l.local, l.is_root);
        match self {
            Request::Ping
            | Request::List
            | Request::Metrics { prom: false }
            | Request::Snapshot
            | Request::Persist
            | Request::Trace(TraceCmd::Status)
            | Request::Shutdown
            | Request::Promote => Ok(()),
            Request::Load { path, depth } => write!(f, " {path} {depth}"),
            Request::LoadStream { name, events } => write!(f, " {name} {events}"),
            Request::Unload(doc) | Request::Relabel(doc) | Request::Stats(doc) => {
                write!(f, " {doc}")
            }
            Request::Label { doc, xpath } | Request::Explain { doc, xpath } => {
                write!(f, " {doc} {xpath}")
            }
            Request::Parent { doc, label: l }
            | Request::Get { doc, label: l }
            | Request::Delete { doc, label: l } => write!(f, " {doc} {}", label(l)),
            Request::Query { doc, xpath, engine } => {
                write!(f, " {doc} {xpath} {}", engine.keyword())
            }
            Request::Insert { doc, parent, position, fragment } => {
                write!(f, " {doc} {} {position} {fragment}", label(parent))
            }
            Request::Scan { doc, global } => write!(f, " {doc} {global}"),
            Request::Metrics { prom: true } => f.write_str(" prom"),
            Request::Trace(TraceCmd::On) => f.write_str(" on"),
            Request::Trace(TraceCmd::Off) => f.write_str(" off"),
            Request::Trace(TraceCmd::ThresholdMs(ms)) => write!(f, " {ms}"),
            Request::Slowlog(n) => write!(f, " {n}"),
            Request::MQuery { doc, xpaths } | Request::MLabel { doc, xpaths } => {
                write!(f, " {doc} {}", xpaths.join(" ; "))
            }
            Request::ReplHello { follower } => write!(f, " {follower}"),
            Request::ReplSnapshot { generation } => write!(f, " {generation}"),
            Request::ReplTail { generation, offset, max_bytes } => {
                write!(f, " {generation} {offset} {max_bytes}")
            }
            Request::ReplAck { generation, seq, bye, follower } => {
                write!(f, " {follower} {generation} {seq} {bye}")
            }
        }
    }
}

fn parse_u64(token: &str, what: &str) -> Result<u64, String> {
    token.parse().map_err(|_| format!("bad {what} {token:?}"))
}

fn parse_label(tokens: &[&str]) -> Result<Ruid2, String> {
    let global = parse_u64(tokens[0], "global index")?;
    let local = parse_u64(tokens[1], "local index")?;
    let is_root = match tokens[2] {
        "true" => true,
        "false" => false,
        other => return Err(format!("bad root flag {other:?} (want true|false)")),
    };
    Ok(Ruid2::new(global, local, is_root))
}

/// Parses one request line.
///
/// The command keyword is case-insensitive; arguments are not.
pub fn parse(line: &str) -> Result<Request, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some(&keyword) = tokens.first() else {
        return Err("empty request".into());
    };
    let args = &tokens[1..];
    let arity = |n: usize, usage: &str| -> Result<(), String> {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!("usage: {usage}"))
        }
    };
    match keyword.to_ascii_uppercase().as_str() {
        "PING" => arity(0, "PING").map(|()| Request::Ping),
        "LOAD" => {
            if args.is_empty() || args.len() > 2 {
                return Err("usage: LOAD <path> [depth]".into());
            }
            let depth = match args.get(1) {
                Some(d) => parse_u64(d, "depth")? as usize,
                None => 3,
            };
            if depth == 0 {
                return Err("depth must be at least 1".into());
            }
            Ok(Request::Load { path: args[0].to_owned(), depth })
        }
        "LOADSTREAM" => {
            if args.len() < 2 {
                return Err("usage: LOADSTREAM <name> <start:end:content>...".into());
            }
            Ok(Request::LoadStream { name: args[0].to_owned(), events: args[1..].join(" ") })
        }
        "UNLOAD" => {
            arity(1, "UNLOAD <doc>")?;
            Ok(Request::Unload(parse_u64(args[0], "document id")?))
        }
        "LIST" => arity(0, "LIST").map(|()| Request::List),
        "LABEL" => {
            if args.len() < 2 {
                return Err("usage: LABEL <doc> <xpath>".into());
            }
            Ok(Request::Label {
                doc: parse_u64(args[0], "document id")?,
                xpath: args[1..].join(" "),
            })
        }
        "PARENT" => {
            arity(4, "PARENT <doc> <global> <local> <true|false>")?;
            Ok(Request::Parent {
                doc: parse_u64(args[0], "document id")?,
                label: parse_label(&args[1..4])?,
            })
        }
        "QUERY" => {
            if args.len() < 2 {
                return Err(
                    "usage: QUERY <doc> <xpath> [tree|ruid|indexed|interval|ancestry|planned]"
                        .into(),
                );
            }
            let doc = parse_u64(args[0], "document id")?;
            // A trailing engine keyword is only an engine when an xpath
            // remains in front of it.
            let (xpath_tokens, engine) = match Engine::parse(args[args.len() - 1]) {
                Some(engine) if args.len() >= 3 => (&args[1..args.len() - 1], engine),
                _ => (&args[1..], Engine::Planned),
            };
            Ok(Request::Query { doc, xpath: xpath_tokens.join(" "), engine })
        }
        "EXPLAIN" => {
            if args.len() < 2 {
                return Err("usage: EXPLAIN <doc> <xpath>".into());
            }
            Ok(Request::Explain {
                doc: parse_u64(args[0], "document id")?,
                xpath: args[1..].join(" "),
            })
        }
        "INSERT" => {
            if args.len() < 6 {
                return Err(
                    "usage: INSERT <doc> <global> <local> <true|false> <position> <fragment>"
                        .into(),
                );
            }
            Ok(Request::Insert {
                doc: parse_u64(args[0], "document id")?,
                parent: parse_label(&args[1..4])?,
                position: parse_u64(args[4], "position")? as u32,
                fragment: args[5..].join(" "),
            })
        }
        "DELETE" => {
            arity(4, "DELETE <doc> <global> <local> <true|false>")?;
            Ok(Request::Delete {
                doc: parse_u64(args[0], "document id")?,
                label: parse_label(&args[1..4])?,
            })
        }
        "RELABEL" => {
            arity(1, "RELABEL <doc>")?;
            Ok(Request::Relabel(parse_u64(args[0], "document id")?))
        }
        "SCAN" => {
            arity(2, "SCAN <doc> <global>")?;
            Ok(Request::Scan {
                doc: parse_u64(args[0], "document id")?,
                global: parse_u64(args[1], "global index")?,
            })
        }
        "GET" => {
            arity(4, "GET <doc> <global> <local> <true|false>")?;
            Ok(Request::Get {
                doc: parse_u64(args[0], "document id")?,
                label: parse_label(&args[1..4])?,
            })
        }
        "STATS" => {
            arity(1, "STATS <doc>")?;
            Ok(Request::Stats(parse_u64(args[0], "document id")?))
        }
        "METRICS" => match args {
            [] => Ok(Request::Metrics { prom: false }),
            ["prom"] => Ok(Request::Metrics { prom: true }),
            _ => Err("usage: METRICS [prom]".into()),
        },
        "SNAPSHOT" => arity(0, "SNAPSHOT").map(|()| Request::Snapshot),
        "PERSIST" => arity(0, "PERSIST").map(|()| Request::Persist),
        "TRACE" => match args {
            [] => Ok(Request::Trace(TraceCmd::Status)),
            ["on"] => Ok(Request::Trace(TraceCmd::On)),
            ["off"] => Ok(Request::Trace(TraceCmd::Off)),
            [ms] => Ok(Request::Trace(TraceCmd::ThresholdMs(parse_u64(
                ms,
                "trace threshold (ms)",
            )?))),
            _ => Err("usage: TRACE [on|off|<threshold-ms>]".into()),
        },
        "SLOWLOG" => match args {
            [] => Ok(Request::Slowlog(10)),
            [n] => Ok(Request::Slowlog(parse_u64(n, "slowlog entry count")? as usize)),
            _ => Err("usage: SLOWLOG [n]".into()),
        },
        "SHUTDOWN" => arity(0, "SHUTDOWN").map(|()| Request::Shutdown),
        "PROMOTE" => arity(0, "PROMOTE").map(|()| Request::Promote),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// The wire rendering of an identifier: `(global,local,is_root)` with no
/// internal spaces, so label lists stay space-separated.
pub fn fmt_label(label: &Ruid2) -> String {
    format!("({},{},{})", label.global, label.local, label.is_root)
}

/// Escapes a string into one line: backslash, CR and LF become `\\`,
/// `\r`, `\n`.
pub fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgen::SplitMix64;

    /// Every command's spellings with the request each parses to.
    fn corpus() -> Vec<(&'static str, Request)> {
        vec![
            ("PING", Request::Ping),
            ("LOAD /tmp/x.xml", Request::Load { path: "/tmp/x.xml".into(), depth: 3 }),
            ("load /tmp/x.xml 2", Request::Load { path: "/tmp/x.xml".into(), depth: 2 }),
            (
                "LOADSTREAM feed 1:4:a 2:3:b",
                Request::LoadStream { name: "feed".into(), events: "1:4:a 2:3:b".into() },
            ),
            ("UNLOAD 7", Request::Unload(7)),
            ("LIST", Request::List),
            ("LABEL 1 //a/b", Request::Label { doc: 1, xpath: "//a/b".into() }),
            ("PARENT 1 3 5 false", Request::Parent { doc: 1, label: Ruid2::new(3, 5, false) }),
            ("EXPLAIN 1 //a//b", Request::Explain { doc: 1, xpath: "//a//b".into() }),
            ("explain 2 //a[b > 1]/c", Request::Explain { doc: 2, xpath: "//a[b > 1]/c".into() }),
            ("SCAN 1 4", Request::Scan { doc: 1, global: 4 }),
            ("GET 2 1 1 true", Request::Get { doc: 2, label: Ruid2::new(1, 1, true) }),
            ("STATS 9", Request::Stats(9)),
            (
                "INSERT 1 2 5 false 0 <item/>",
                Request::Insert {
                    doc: 1,
                    parent: Ruid2::new(2, 5, false),
                    position: 0,
                    fragment: "<item/>".into(),
                },
            ),
            (
                "insert 1 1 1 true 3 <note kind=\"a b\"/>",
                Request::Insert {
                    doc: 1,
                    parent: Ruid2::new(1, 1, true),
                    position: 3,
                    fragment: "<note kind=\"a b\"/>".into(),
                },
            ),
            (
                "INSERT 1 1 1 true 0 some free text",
                Request::Insert {
                    doc: 1,
                    parent: Ruid2::new(1, 1, true),
                    position: 0,
                    fragment: "some free text".into(),
                },
            ),
            ("DELETE 4 3 7 false", Request::Delete { doc: 4, label: Ruid2::new(3, 7, false) }),
            ("RELABEL 4", Request::Relabel(4)),
            ("METRICS", Request::Metrics { prom: false }),
            ("METRICS prom", Request::Metrics { prom: true }),
            ("SNAPSHOT", Request::Snapshot),
            ("persist", Request::Persist),
            ("TRACE", Request::Trace(TraceCmd::Status)),
            ("TRACE on", Request::Trace(TraceCmd::On)),
            ("trace off", Request::Trace(TraceCmd::Off)),
            ("TRACE 250", Request::Trace(TraceCmd::ThresholdMs(250))),
            ("SLOWLOG", Request::Slowlog(10)),
            ("SLOWLOG 3", Request::Slowlog(3)),
            ("SHUTDOWN", Request::Shutdown),
            ("promote", Request::Promote),
        ]
    }

    #[test]
    fn parses_every_command() {
        for (line, request) in corpus() {
            assert_eq!(parse(line).unwrap(), request, "{line}");
        }
        assert!(parse("PROMOTE now").is_err());
    }

    #[test]
    fn display_parses_back_for_every_command() {
        for (_, request) in corpus() {
            assert_eq!(parse(&request.to_string()), Ok(request.clone()), "{request}");
        }
    }

    /// One canonical text-grammar request: tokens without whitespace,
    /// multi-token fields single-spaced — what `Display` promises to
    /// round-trip.
    fn random_request(rng: &mut SplitMix64) -> Request {
        const WORDS: [&str; 8] =
            ["//a", "/a/b[c]", "tree", "planned", "//b[c > 1]", ">", "<item/>", "x"];
        let words = |rng: &mut SplitMix64| {
            let n = rng.gen_range(1..5usize);
            (0..n).map(|_| WORDS[rng.gen_range(0..WORDS.len())]).collect::<Vec<_>>().join(" ")
        };
        let doc = rng.next_u64();
        let label = Ruid2::new(rng.next_u64(), rng.next_u64(), rng.gen_bool(0.5));
        let engine = ENGINES[rng.gen_range(0..ENGINES.len())].0;
        match rng.gen_range(0..22u32) {
            0 => Request::Ping,
            1 => Request::Load { path: format!("/d/{doc}.xml"), depth: rng.gen_range(1..9usize) },
            2 => Request::LoadStream { name: format!("s{doc}"), events: words(rng) },
            3 => Request::Unload(doc),
            4 => Request::List,
            5 => Request::Label { doc, xpath: words(rng) },
            6 => Request::Parent { doc, label },
            7 => Request::Query { doc, xpath: words(rng), engine },
            8 => Request::Explain { doc, xpath: words(rng) },
            9 => Request::Insert {
                doc,
                parent: label,
                position: rng.next_u64() as u32,
                fragment: words(rng),
            },
            10 => Request::Delete { doc, label },
            11 => Request::Relabel(doc),
            12 => Request::Scan { doc, global: rng.next_u64() },
            13 => Request::Get { doc, label },
            14 => Request::Stats(doc),
            15 => Request::Metrics { prom: rng.gen_bool(0.5) },
            16 => Request::Snapshot,
            17 => Request::Persist,
            18 => Request::Trace(match rng.gen_range(0..4u32) {
                0 => TraceCmd::Status,
                1 => TraceCmd::On,
                2 => TraceCmd::Off,
                _ => TraceCmd::ThresholdMs(rng.next_u64()),
            }),
            19 => Request::Slowlog(rng.next_u64() as usize),
            20 => Request::Shutdown,
            _ => Request::Promote,
        }
    }

    #[test]
    fn display_parses_back_for_random_requests() {
        for seed in 0..512u64 {
            let request = random_request(&mut SplitMix64::seed_from_u64(seed));
            assert_eq!(
                parse(&request.to_string()),
                Ok(request.clone()),
                "failing seed: {seed:#x} ({request})"
            );
        }
    }

    #[test]
    fn only_io_and_waiting_verbs_block() {
        let blocking: Vec<String> = corpus()
            .into_iter()
            .filter(|(_, request)| request.blocks())
            .map(|(line, _)| line.split(' ').next().unwrap().to_ascii_uppercase())
            .collect();
        assert_eq!(
            blocking,
            [
                "LOAD", "LOAD", "LOADSTREAM", "UNLOAD", "INSERT", "INSERT", "INSERT", "DELETE",
                "RELABEL", "SNAPSHOT", "PERSIST", "SHUTDOWN", "PROMOTE"
            ]
        );
        let repl = [
            Request::ReplHello { follower: "f".into() },
            Request::ReplSnapshot { generation: 1 },
            Request::ReplTail { generation: 1, offset: 0, max_bytes: 1 },
            Request::ReplAck { generation: 1, seq: 1, bye: false, follower: "f".into() },
            Request::MQuery { doc: 1, xpaths: vec![] },
            Request::MLabel { doc: 1, xpaths: vec![] },
        ];
        let blocks: Vec<bool> = repl.iter().map(Request::blocks).collect();
        assert_eq!(blocks, [false, true, true, false, false, false]);
    }

    #[test]
    fn query_engine_disambiguation() {
        // Trailing engine keyword.
        assert_eq!(
            parse("QUERY 1 //a/b tree").unwrap(),
            Request::Query { doc: 1, xpath: "//a/b".into(), engine: Engine::Tree }
        );
        // No engine: default planned.
        assert_eq!(
            parse("QUERY 1 //a/b").unwrap(),
            Request::Query { doc: 1, xpath: "//a/b".into(), engine: Engine::Planned }
        );
        assert_eq!(
            parse("QUERY 1 //a/b planned").unwrap(),
            Request::Query { doc: 1, xpath: "//a/b".into(), engine: Engine::Planned }
        );
        assert_eq!(
            parse("QUERY 1 //a/b indexed").unwrap(),
            Request::Query { doc: 1, xpath: "//a/b".into(), engine: Engine::Indexed }
        );
        // XPath with internal spaces survives.
        assert_eq!(
            parse("QUERY 1 //book[price > 25]/title ruid").unwrap(),
            Request::Query {
                doc: 1,
                xpath: "//book[price > 25]/title".into(),
                engine: Engine::Ruid
            }
        );
        // The new engines parse like the old ones.
        assert_eq!(
            parse("QUERY 1 //a/b interval").unwrap(),
            Request::Query { doc: 1, xpath: "//a/b".into(), engine: Engine::Interval }
        );
        assert_eq!(
            parse("QUERY 1 //a/b ancestry").unwrap(),
            Request::Query { doc: 1, xpath: "//a/b".into(), engine: Engine::Ancestry }
        );
        // A bare engine-looking token is the xpath when nothing precedes it.
        assert_eq!(
            parse("QUERY 1 tree").unwrap(),
            Request::Query { doc: 1, xpath: "tree".into(), engine: Engine::Planned }
        );
        assert_eq!(
            parse("QUERY 1 ancestry").unwrap(),
            Request::Query { doc: 1, xpath: "ancestry".into(), engine: Engine::Planned }
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
        assert!(parse("FROB 1").is_err());
        assert!(parse("LOAD").is_err());
        assert!(parse("LOAD x.xml 0").is_err());
        assert!(parse("PARENT 1 2 3").is_err());
        assert!(parse("PARENT 1 2 3 maybe").is_err());
        assert!(parse("PARENT x 2 3 true").is_err());
        assert!(parse("SCAN 1").is_err());
        assert!(parse("STATS").is_err());
        assert!(parse("INSERT 1 2 5 false 0").is_err(), "missing fragment");
        assert!(parse("INSERT 1 2 5 maybe 0 <x/>").is_err(), "bad root flag");
        assert!(parse("INSERT 1 2 5 false pos <x/>").is_err(), "bad position");
        assert!(parse("DELETE 1 2 3").is_err());
        assert!(parse("DELETE 1 2 3 maybe").is_err());
        assert!(parse("RELABEL").is_err());
        assert!(parse("RELABEL 1 2").is_err());
        assert!(parse("EXPLAIN").is_err());
        assert!(parse("EXPLAIN 1").is_err());
        assert!(parse("EXPLAIN x //a").is_err());
        assert!(parse("PING extra").is_err());
        assert!(parse("SNAPSHOT now").is_err());
        assert!(parse("PERSIST 1").is_err());
        assert!(parse("METRICS xml").is_err());
        assert!(parse("TRACE maybe").is_err());
        assert!(parse("TRACE on off").is_err());
        assert!(parse("SLOWLOG x").is_err());
        assert!(parse("SLOWLOG 1 2").is_err());
        assert!(parse("LOADSTREAM").is_err());
        assert!(parse("LOADSTREAM feed").is_err(), "missing events");
    }

    #[test]
    fn label_and_escape_formats() {
        assert_eq!(fmt_label(&Ruid2::new(3, 17, false)), "(3,17,false)");
        assert_eq!(fmt_label(&Ruid2::new(1, 1, true)), "(1,1,true)");
        assert_eq!(escape_line("a\nb\\c\r"), "a\\nb\\\\c\\r");
        assert_eq!(escape_line("plain"), "plain");
    }
}
