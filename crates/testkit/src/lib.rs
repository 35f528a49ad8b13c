//! What the workspace's integration suites share: the ordered-tree shapes
//! of the exhaustive sweeps, scratch directories that go when their test
//! passes, one bounded wait, and the server fixtures. A suite keeps its own
//! assertions, oracles and op drawers. Only integration tests may depend on
//! the kit: a crate's `#[cfg(test)]` module would link a second copy of
//! that crate through it.

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ruid_service::{Client, FsyncPolicy, LoadedDoc, Server, ServerConfig, ServerHandle};
use xmldom::{Document, NodeId};
use xmlgen::SplitMix64;

/// How an enumerated shape names its elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tags {
    /// Every element is `<n>`.
    Plain,
    /// `a`, `b`, `c` cycled by depth, so distinct depths are distinct
    /// summary paths.
    ByDepth,
}

/// All ordered rooted trees with exactly `n` nodes, as XML strings, in a
/// fixed order: the root's first subtree grows before the rest.
pub fn trees(n: usize, tags: Tags) -> Vec<String> {
    assert!(n >= 1);
    subtrees(n, 0, tags)
}

/// Every ordered tree with 1 to 7 nodes, smallest first: the 197
/// (1 + 1 + 2 + 5 + 14 + 42 + 132) shapes of the exhaustive sweeps.
pub fn shapes(tags: Tags) -> impl Iterator<Item = String> {
    (1..=7).flat_map(move |n| trees(n, tags))
}

fn subtrees(n: usize, depth: usize, tags: Tags) -> Vec<String> {
    let tag = match tags {
        Tags::Plain => "n",
        Tags::ByDepth => ["a", "b", "c"][depth % 3],
    };
    forests(n - 1, depth + 1, tags).into_iter().map(|f| format!("<{tag}>{f}</{tag}>")).collect()
}

/// All sequences of subtrees rooted at `depth` with `m` nodes in all: the
/// first subtree takes `k` nodes, the rest of the forest `m - k`.
fn forests(m: usize, depth: usize, tags: Tags) -> Vec<String> {
    if m == 0 {
        return vec![String::new()];
    }
    let mut out = Vec::new();
    for k in 1..=m {
        for first in subtrees(k, depth, tags) {
            for rest in forests(m - k, depth, tags) {
                out.push(format!("{first}{rest}"));
            }
        }
    }
    out
}

/// The `LOADSTREAM` event stream of `xml`: a `start:end:name` (or
/// `start:end:=text`) token per node in document order, the bounds read
/// off one clock that ticks as a node opens and as it closes.
pub fn event_stream(xml: &str) -> String {
    fn walk(doc: &Document, node: NodeId, clock: &mut u64, events: &mut Vec<String>) {
        *clock += 1;
        let (start, at) = (*clock, events.len());
        events.push(String::new());
        for child in doc.children(node) {
            walk(doc, child, clock, events);
        }
        *clock += 1;
        let payload = match doc.text(node) {
            Some(text) => format!("={text}"),
            None => doc.tag_name(node).expect("an element or a text node").to_owned(),
        };
        events[at] = format!("{start}:{clock}:{payload}");
    }
    let doc = Document::parse(xml).unwrap_or_else(|e| panic!("{xml}: {e}"));
    let mut events = Vec::new();
    walk(&doc, doc.root_element().expect("a root element"), &mut 0, &mut events);
    events.join(" ")
}

/// A directory of one test's own under `<target>/tmp`, removed on drop
/// unless the thread is panicking, so a failed test leaves its files.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// A fresh empty directory named after the suite, `name`, the process
    /// and a per-process counter, so no two tests ever share one.
    pub fn new(name: impl std::fmt::Display) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // The test binary is `<target>/<profile>/deps/<suite>-<hash>`.
        let exe = std::env::current_exe().expect("the test binary's path");
        let stem = exe.file_stem().and_then(|s| s.to_str()).unwrap_or("test");
        let suite = stem.rsplit_once('-').map_or(stem, |(suite, _)| suite);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = exe.ancestors().nth(3).expect("a binary under the target directory");
        let dir = dir.join("tmp").join(format!("{suite}-{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }

    /// Writes `contents` to `name` in this directory; returns its path.
    pub fn file(&self, name: &str, contents: impl AsRef<[u8]>) -> PathBuf {
        let path = self.dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Polls `pred` every 20 ms until it holds; panics naming `what` once
/// `timeout` has passed.
pub fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The two-book catalog most service suites load.
pub const SAMPLE_XML: &str = "<catalog><book id=\"b1\"><title>A</title><price>35</price></book>\
     <book id=\"b2\"><title>B</title><price>20</price></book></catalog>";

/// The planner's differential query corpus: every axis and predicate
/// family it distinguishes, over a/b/c trees.
pub const ABC_QUERIES: &[&str] = &[
    "/a", "/a/b", "/a/b/c", "//b", "//c", "//b/c", "//b//a", "/a//c", "//*", "/a/*", "//b/*",
    "/a/b[c]", "//b[c]/c", "//b[c]//a", "//b[not(c)]", "//b[c][a]", "//b[1]", "//b[last()]",
    "//b[c][1]", "//b/c/..", "//c/parent::b", "//b[count(c) >= 1]", "//a[b or c]",
];

/// The document [`ABC_QUERIES`] runs on over the wire: a/b/c tags by
/// depth, fan-out 3, three levels below the root.
pub fn corpus_xml() -> String {
    fn node(depth: usize) -> String {
        let tag = ["a", "b", "c"][depth % 3];
        match depth {
            3 => format!("<{tag}/>"),
            _ => format!("<{tag}>{}</{tag}>", node(depth + 1).repeat(3)),
        }
    }
    node(0)
}

/// Starts a server and connects a text client to it.
pub fn start(config: ServerConfig) -> (ServerHandle, Client) {
    let handle = Server::start(config).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    (handle, client)
}

/// The default configuration, persisting to `data_dir` with an fsync per
/// commit.
pub fn durable(data_dir: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(data_dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    }
}

/// [`start`] with [`durable`].
pub fn start_durable(data_dir: &Path) -> (ServerHandle, Client) {
    start(durable(data_dir))
}

/// A replica of `leader` polling every `poll_ms`, [`durable`] when given a
/// data directory.
pub fn start_follower(
    leader: SocketAddr,
    dir: Option<&Path>,
    poll_ms: u64,
) -> (ServerHandle, Client) {
    let config = dir.map_or_else(ServerConfig::default, durable);
    start(ServerConfig { follow: Some(leader.to_string()), repl_poll_ms: poll_ms, ..config })
}

/// `LOAD`s the file at `path`; returns the document id.
pub fn load(client: &mut Client, path: impl AsRef<Path>) -> u64 {
    let resp = client.request(&format!("LOAD {}", path.as_ref().display())).unwrap();
    assert!(resp.starts_with("OK id="), "{resp}");
    metrics_field(&resp, "id").unwrap().parse().unwrap()
}

/// `LOAD`s `xml` from a file that lives only as long as the request.
pub fn load_xml(client: &mut Client, xml: &str) -> u64 {
    load(client, Scratch::new("load").file("doc.xml", xml))
}

/// Reads one HTTP response from a server's Prometheus endpoint
/// (`ServerConfig::metrics_addr`), returning `(head, body)`. The endpoint
/// runs on its own thread, so a scrape moves no connection counter.
pub fn scrape(addr: SocketAddr) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// The value of the first `key=value` token of a reply line.
pub fn metrics_field(line: &str, key: &str) -> Option<String> {
    let value = |t: &str| t.strip_prefix(key)?.strip_prefix('=').map(str::to_owned);
    line.split_whitespace().find_map(value)
}

/// The element nodes of a bundle in document order, root first.
pub fn elements(loaded: &LoadedDoc) -> Vec<NodeId> {
    let doc = &loaded.doc;
    doc.descendants(doc.root_element().unwrap()).filter(|&n| doc.is_element(n)).collect()
}

/// A uniform draw from `from`; `None` when it is empty.
pub fn pick<T: Copy>(rng: &mut SplitMix64, from: &[T]) -> Option<T> {
    (!from.is_empty()).then(|| from[rng.gen_range(0..from.len())])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counts follow the Catalan numbers with no shape twice, and an
    /// FNV-1a digest of all 197 strings (each newline-terminated) pins the
    /// bytes and order the suites' own enumerators produced.
    #[test]
    fn enumeration_matches_catalan_numbers_in_both_tag_modes() {
        let plain = (Tags::Plain, 0x5880_05d7_2d90_2060);
        for (tags, want) in [plain, (Tags::ByDepth, 0xef8c_94ff_92e9_53a4)] {
            for (n, count) in (1..=7).zip([1usize, 1, 2, 5, 14, 42, 132]) {
                let mut unique = trees(n, tags);
                assert_eq!(unique.len(), count, "{tags:?} trees with {n} nodes");
                unique.sort();
                unique.dedup();
                assert_eq!(unique.len(), count, "{tags:?}: duplicate shapes at n = {n}");
            }
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in shapes(tags).flat_map(|s| s.into_bytes().into_iter().chain([b'\n'])) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(h, want, "{tags:?} digest");
        }
        assert_eq!(trees(3, Tags::Plain), ["<n><n></n><n></n></n>", "<n><n><n></n></n></n>"]);
    }

    #[test]
    fn event_streams_nest_by_interval() {
        assert_eq!(event_stream("<a><b><c/></b><b>t</b></a>"), "1:10:a 2:5:b 3:4:c 6:9:b 7:8:=t");
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let dir = Scratch::new("kit");
        assert!(dir.file("f.txt", "x").to_str().unwrap().contains("/tmp/testkit-kit-"));
        let path = dir.to_path_buf();
        drop(dir);
        assert!(!path.exists());
    }
}
