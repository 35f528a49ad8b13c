//! Length-prefixed binary framing: the pipelined wire protocol.
//!
//! The text protocol spends one syscall pair and one response write per
//! request, and a worker thread parks on every idle connection. The
//! binary protocol fixes the serving economics without touching request
//! semantics: every frame carries a client-chosen **request id**, many
//! frames can be in flight per connection (pipelining), and responses may
//! come back **out of order** — the id is what matches them up. Batch
//! verbs (`MQUERY`/`MLABEL`) go further and amortize one catalog snapshot
//! pin and one reply write over a whole batch of XPath expressions.
//!
//! ## Frame layout
//!
//! ```text
//! request   0xB1 | len:u32 LE | id:u64 LE | verb:u8 | payload
//! response  0xB2 | len:u32 LE | id:u64 LE | status:u8 | payload
//! ```
//!
//! `len` counts the *body* (id + verb/status + payload), so a frame is
//! `5 + len` bytes on the wire. The magics `0xB1`/`0xB2` are invalid as a
//! UTF-8 lead byte, which is what lets the server sniff the protocol from
//! the first byte of a connection: a text request line can never start
//! with them.
//!
//! ## Verbs
//!
//! A frame carries one [`Request`] — the same type the text grammar
//! parses into. The hot read verbs, the batch verbs, the replication
//! channel and `LOADSTREAM` have a code of their own; every other verb
//! rides `TEXT` as its canonical line (`Request`'s `Display`), which the
//! server reads back with [`proto::parse`].
//!
//! | code | verb     | payload                                              |
//! |------|----------|------------------------------------------------------|
//! | 0x01 | `PING`   | empty                                                |
//! | 0x02 | `QUERY`  | `doc:u64 \| engine:u8 \| xpath:utf8…`                |
//! | 0x03 | `LABEL`  | `doc:u64 \| xpath:utf8…`                             |
//! | 0x04 | `PARENT` | `doc:u64 \| g:u64 \| l:u64 \| root:u8`               |
//! | 0x05 | `GET`    | `doc:u64 \| g:u64 \| l:u64 \| root:u8`               |
//! | 0x06 | `MQUERY` | `doc:u64 \| n:u32 \| n × (len:u32 \| xpath:utf8)`    |
//! | 0x07 | `MLABEL` | `doc:u64 \| n:u32 \| n × (len:u32 \| xpath:utf8)`    |
//! | 0x08 | `TEXT`   | one text-protocol request line (`LOAD`, `METRICS`,   |
//! |      |          | `SHUTDOWN`, … — every verb without a code of its own) |
//! | 0x09 | `REPL HELLO`    | `follower:utf8…`                              |
//! | 0x0A | `REPL SNAPSHOT` | `generation:u64`                              |
//! | 0x0B | `REPL TAIL`     | `generation:u64 \| offset:u64 \| max:u32`     |
//! | 0x0C | `REPL ACK`      | `generation:u64 \| seq:u64 \| bye:u8 \|`      |
//! |      |                 | `follower:utf8…`                              |
//! | 0x0D | `LOADSTREAM`    | `name_len:u32 \| name:utf8 \| events:utf8…`   |
//!
//! Engine codes are the `proto::ENGINES` table's: 0 = planned (default),
//! 1 = tree, 2 = ruid, 3 = indexed, 4 = interval, 5 = ancestry.
//!
//! The `REPL` verbs are the replication channel: a follower greets the
//! leader (`HELLO`, answered with a [`repl::HelloInfo`] blob), pulls the
//! newest snapshot image (`SNAPSHOT`, answered with the raw file bytes),
//! polls for committed WAL bytes (`TAIL`, answered with a
//! [`repl::TailChunk`] blob), and reports its applied position (`ACK`,
//! with `bye = 1` meaning a clean detach). They ride the same mux as
//! every other verb — replication is just another pipelined client.
//!
//! ## Responses
//!
//! Status 0 (`LINE`) carries exactly the bytes the text protocol would
//! have answered for the same request (without the `\n` terminator) — the
//! two front ends are byte-identical by construction. Status 1 (`BATCH`)
//! answers `MQUERY`/`MLABEL` with `n:u32 | n × (len:u32 | line)`, one
//! text-identical response line per sub-query, in sub-query order.
//! Status 2 (`BLOB`) carries raw bytes (snapshot images, tail chunks,
//! hello payloads) — never UTF-8-validated, never line-framed.
//!
//! ## Robustness
//!
//! Decoding is **total**: any byte slice decodes to exactly one of
//! [`Decoded`]'s arms without panicking. Truncations of a valid frame
//! always decode `Incomplete` (the caller waits for more bytes); a frame
//! whose declared body length exceeds the configured cap is `Oversized`
//! *before* any allocation happens; a structurally complete frame with a
//! bad interior (unknown verb, bad UTF-8, short counts) is `Malformed`
//! and names how many bytes to skip, so one bad frame costs one `ERR`
//! response, not the connection. A sound `TEXT` frame whose line does not
//! parse is `Unparsed`: a bad request, answered like a bad text line.

use crate::proto::{self, Engine, Request};
use ruid_core::Ruid2;

/// The request type's former name on the binary side, kept as an alias.
pub use crate::proto::Request as WireRequest;

/// First byte of every binary request frame (never a UTF-8 lead byte).
pub const REQ_MAGIC: u8 = 0xB1;
/// First byte of every binary response frame.
pub const RESP_MAGIC: u8 = 0xB2;
/// Bytes before the body: magic + the `u32` body length.
pub const HEADER_BYTES: usize = 5;
/// The smallest legal body: an id and a verb/status byte.
const MIN_BODY: usize = 9;
/// Upper bound on `MQUERY`/`MLABEL` sub-queries per frame.
pub const MAX_BATCH: usize = 4096;
/// The verb code carrying one text-protocol request line.
const TEXT: u8 = 0x08;

/// One decoded binary response body.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Status 0: the text-protocol response line (no terminator).
    Line(String),
    /// Status 1: one text-identical response line per sub-query.
    Batch(Vec<String>),
    /// Status 2: raw bytes (replication payloads — snapshot images,
    /// encoded tail chunks, hello infos).
    Blob(Vec<u8>),
}

/// A request frame: the id the client chose plus the request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: u64,
    /// The decoded request.
    pub request: Request,
}

/// A response frame: the echoed id plus the response body.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The id of the request this answers (0 for connection-level errors
    /// the server raises on its own, e.g. an oversized frame).
    pub id: u64,
    /// The decoded response.
    pub response: WireResponse,
}

/// The total outcome of one decode attempt over a byte buffer.
#[derive(Debug, PartialEq)]
pub enum Decoded<T> {
    /// A complete frame; `consumed` bytes of the buffer belong to it.
    Frame {
        /// The decoded frame.
        frame: T,
        /// Bytes of the input the frame occupied.
        consumed: usize,
    },
    /// Not enough bytes yet — read more and retry with a longer slice.
    Incomplete,
    /// The header declares a body larger than the configured cap. The
    /// connection cannot resynchronize (the length itself is untrusted):
    /// answer an error and close.
    Oversized {
        /// The declared body length.
        declared: usize,
    },
    /// A structurally complete frame with a bad interior. Skipping
    /// `consumed` bytes resynchronizes on the next frame.
    Malformed {
        /// The frame's request id when it could be read, else 0.
        id: u64,
        /// What was wrong.
        reason: String,
        /// Bytes to skip to reach the next frame.
        consumed: usize,
    },
    /// A sound `TEXT` frame whose line [`proto::parse`] rejects: the frame
    /// is fine, the request is not. It is answered like a text line that
    /// fails to parse — counted as a request, `ERR <reason>`.
    Unparsed {
        /// The frame's request id.
        id: u64,
        /// Why the line did not parse.
        reason: String,
        /// Bytes the frame occupied.
        consumed: usize,
    },
    /// The first byte is not the expected magic — this is not a binary
    /// frame stream. Close.
    Corrupt {
        /// What was wrong.
        reason: &'static str,
    },
}

fn put_str_list(out: &mut Vec<u8>, items: &[String]) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        out.extend_from_slice(&(item.len() as u32).to_le_bytes());
        out.extend_from_slice(item.as_bytes());
    }
}

fn put_label(out: &mut Vec<u8>, label: &Ruid2) {
    out.extend_from_slice(&label.global.to_le_bytes());
    out.extend_from_slice(&label.local.to_le_bytes());
    out.push(u8::from(label.is_root));
}

/// Appends one encoded request frame to `out` (which may already hold
/// other frames — that is how a pipelined client builds one write).
pub fn encode_request(id: u64, request: &Request, out: &mut Vec<u8>) {
    let start = open_frame(out, REQ_MAGIC, id);
    match request {
        Request::Ping => out.push(0x01),
        Request::Query { doc, xpath, engine } => {
            out.push(0x02);
            out.extend_from_slice(&doc.to_le_bytes());
            out.push(engine.code());
            out.extend_from_slice(xpath.as_bytes());
        }
        Request::Label { doc, xpath } => {
            out.push(0x03);
            out.extend_from_slice(&doc.to_le_bytes());
            out.extend_from_slice(xpath.as_bytes());
        }
        Request::Parent { doc, label } => {
            out.push(0x04);
            out.extend_from_slice(&doc.to_le_bytes());
            put_label(out, label);
        }
        Request::Get { doc, label } => {
            out.push(0x05);
            out.extend_from_slice(&doc.to_le_bytes());
            put_label(out, label);
        }
        Request::MQuery { doc, xpaths } => {
            out.push(0x06);
            out.extend_from_slice(&doc.to_le_bytes());
            put_str_list(out, xpaths);
        }
        Request::MLabel { doc, xpaths } => {
            out.push(0x07);
            out.extend_from_slice(&doc.to_le_bytes());
            put_str_list(out, xpaths);
        }
        Request::ReplHello { follower } => {
            out.push(0x09);
            out.extend_from_slice(follower.as_bytes());
        }
        Request::ReplSnapshot { generation } => {
            out.push(0x0A);
            out.extend_from_slice(&generation.to_le_bytes());
        }
        Request::ReplTail { generation, offset, max_bytes } => {
            out.push(0x0B);
            out.extend_from_slice(&generation.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&max_bytes.to_le_bytes());
        }
        Request::LoadStream { name, events } => {
            out.push(0x0D);
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(events.as_bytes());
        }
        Request::ReplAck { generation, seq, bye, follower } => {
            out.push(0x0C);
            out.extend_from_slice(&generation.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.push(u8::from(*bye));
            out.extend_from_slice(follower.as_bytes());
        }
        text_only => {
            out.push(TEXT);
            out.extend_from_slice(text_only.to_string().as_bytes());
        }
    }
    patch_len(out, start);
}

/// Appends one `TEXT` frame carrying `line` verbatim — how a client sends
/// a line it could not parse itself, so the server's `ERR` answers it.
pub fn encode_text(id: u64, line: &str, out: &mut Vec<u8>) {
    let start = open_frame(out, REQ_MAGIC, id);
    out.push(TEXT);
    out.extend_from_slice(line.as_bytes());
    patch_len(out, start);
}

/// Appends one encoded response frame to `out`.
pub fn encode_response(id: u64, response: &WireResponse, out: &mut Vec<u8>) {
    let start = open_frame(out, RESP_MAGIC, id);
    match response {
        WireResponse::Line(line) => {
            out.push(0);
            out.extend_from_slice(line.as_bytes());
        }
        WireResponse::Batch(lines) => {
            out.push(1);
            put_str_list(out, lines);
        }
        WireResponse::Blob(bytes) => {
            out.push(2);
            out.extend_from_slice(bytes);
        }
    }
    patch_len(out, start);
}

/// Writes a frame header with a zero length (back-patched by
/// [`patch_len`]) and the id; returns where the frame starts.
fn open_frame(out: &mut Vec<u8>, magic: u8, id: u64) -> usize {
    let start = out.len();
    out.push(magic);
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&id.to_le_bytes());
    start
}

fn patch_len(out: &mut [u8], start: usize) {
    let len = (out.len() - start - HEADER_BYTES) as u32;
    out[start + 1..start + HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
}

/// A bounds-checked cursor over a frame body; every `take_*` fails with a
/// message instead of slicing out of range, which is what keeps decoding
/// total.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.rest.len() < n {
            return Err(format!("truncated {what} ({} of {n} bytes)", self.rest.len()));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn take_u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn take_u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn take_u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn take_label(&mut self) -> Result<Ruid2, String> {
        let global = self.take_u64("global index")?;
        let local = self.take_u64("local index")?;
        let is_root = match self.take_u8("root flag")? {
            0 => false,
            1 => true,
            other => return Err(format!("bad root flag {other} (want 0|1)")),
        };
        Ok(Ruid2::new(global, local, is_root))
    }

    fn take_str_rest(&mut self, what: &str) -> Result<String, String> {
        let bytes = std::mem::take(&mut self.rest);
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not valid utf-8"))
    }

    fn take_bytes_rest(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.rest).to_vec()
    }

    fn take_str_list(&mut self) -> Result<Vec<String>, String> {
        let count = self.take_u32("batch count")? as usize;
        if count > MAX_BATCH {
            return Err(format!("batch of {count} exceeds the {MAX_BATCH}-entry limit"));
        }
        let mut items = Vec::with_capacity(count.min(64));
        for i in 0..count {
            let len = self.take_u32("batch entry length")? as usize;
            let bytes = self.take(len, "batch entry")?;
            items.push(
                std::str::from_utf8(bytes)
                    .map_err(|_| format!("batch entry {i} is not valid utf-8"))?
                    .to_owned(),
            );
        }
        Ok(items)
    }

    fn finish(&self, what: &str) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after {what}", self.rest.len()))
        }
    }
}

/// Splits one frame off the front of `buf`: checks the magic, reads the
/// declared body length against `cap + MIN_BODY` (so `cap` bounds the
/// payload, exactly like `max_line_bytes` bounds a text line), and hands
/// the body to `parse` — whose outer `Err` is a malformed frame and whose
/// inner `Err` a sound frame carrying an unparsable request.
fn decode_frame<T>(
    buf: &[u8],
    magic: u8,
    bad_magic: &'static str,
    cap: usize,
    parse: impl FnOnce(u64, u8, Cursor<'_>) -> Result<Result<T, String>, String>,
) -> Decoded<T> {
    let Some(&first) = buf.first() else { return Decoded::Incomplete };
    if first != magic {
        return Decoded::Corrupt { reason: bad_magic };
    }
    if buf.len() < HEADER_BYTES {
        return Decoded::Incomplete;
    }
    let len = u32::from_le_bytes(buf[1..HEADER_BYTES].try_into().expect("4 bytes")) as usize;
    if len > cap.saturating_add(MIN_BODY) {
        return Decoded::Oversized { declared: len };
    }
    let consumed = HEADER_BYTES + len;
    if buf.len() < consumed {
        return Decoded::Incomplete;
    }
    let body = &buf[HEADER_BYTES..consumed];
    if body.len() < MIN_BODY {
        return Decoded::Malformed {
            id: 0,
            reason: format!("frame body too short ({} bytes)", body.len()),
            consumed,
        };
    }
    let id = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let tag = body[8];
    match parse(id, tag, Cursor { rest: &body[MIN_BODY..] }) {
        Ok(Ok(frame)) => Decoded::Frame { frame, consumed },
        Ok(Err(reason)) => Decoded::Unparsed { id, reason, consumed },
        Err(reason) => Decoded::Malformed { id, reason, consumed },
    }
}

/// Decodes one request frame off the front of `buf`. `cap` is the payload
/// cap (the server passes its `max_line_bytes`).
pub fn decode_request(buf: &[u8], cap: usize) -> Decoded<RequestFrame> {
    decode_frame(buf, REQ_MAGIC, "bad request magic", cap, |id, verb, mut c| {
        let request = match verb {
            0x01 => {
                c.finish("PING")?;
                Request::Ping
            }
            0x02 => {
                let doc = c.take_u64("document id")?;
                let engine = Engine::from_code(c.take_u8("engine code")?)
                    .ok_or("bad engine code (want 0..=5)")?;
                Request::Query { doc, engine, xpath: c.take_str_rest("xpath")? }
            }
            0x03 => {
                let doc = c.take_u64("document id")?;
                Request::Label { doc, xpath: c.take_str_rest("xpath")? }
            }
            0x04 => {
                let doc = c.take_u64("document id")?;
                let label = c.take_label()?;
                c.finish("PARENT")?;
                Request::Parent { doc, label }
            }
            0x05 => {
                let doc = c.take_u64("document id")?;
                let label = c.take_label()?;
                c.finish("GET")?;
                Request::Get { doc, label }
            }
            0x06 => {
                let doc = c.take_u64("document id")?;
                let xpaths = c.take_str_list()?;
                c.finish("MQUERY")?;
                Request::MQuery { doc, xpaths }
            }
            0x07 => {
                let doc = c.take_u64("document id")?;
                let xpaths = c.take_str_list()?;
                c.finish("MLABEL")?;
                Request::MLabel { doc, xpaths }
            }
            TEXT => match proto::parse(&c.take_str_rest("request line")?) {
                Ok(request) => request,
                Err(reason) => return Ok(Err(reason)),
            },
            0x09 => Request::ReplHello { follower: c.take_str_rest("follower name")? },
            0x0A => {
                let generation = c.take_u64("snapshot generation")?;
                c.finish("REPL SNAPSHOT")?;
                Request::ReplSnapshot { generation }
            }
            0x0B => {
                let generation = c.take_u64("segment generation")?;
                let offset = c.take_u64("segment offset")?;
                let max_bytes = c.take_u32("tail byte cap")?;
                c.finish("REPL TAIL")?;
                Request::ReplTail { generation, offset, max_bytes }
            }
            0x0C => {
                let generation = c.take_u64("ack generation")?;
                let seq = c.take_u64("ack sequence")?;
                let bye = match c.take_u8("bye flag")? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("bad bye flag {other} (want 0|1)")),
                };
                let follower = c.take_str_rest("follower name")?;
                Request::ReplAck { generation, seq, bye, follower }
            }
            0x0D => {
                let name_len = c.take_u32("name length")? as usize;
                let name = std::str::from_utf8(c.take(name_len, "document name")?)
                    .map_err(|_| "document name is not valid utf-8")?
                    .to_owned();
                Request::LoadStream { name, events: c.take_str_rest("event stream")? }
            }
            other => return Err(format!("unknown verb 0x{other:02x}")),
        };
        Ok(Ok(RequestFrame { id, request }))
    })
}

/// Decodes one response frame off the front of `buf`. Responses have no
/// payload cap (a `QUERY` answer can be arbitrarily long); the length
/// field still bounds the read.
pub fn decode_response(buf: &[u8]) -> Decoded<ResponseFrame> {
    decode_frame(buf, RESP_MAGIC, "bad response magic", u32::MAX as usize, |id, status, mut c| {
        let response = match status {
            0 => WireResponse::Line(c.take_str_rest("response line")?),
            1 => {
                let lines = c.take_str_list()?;
                c.finish("batch response")?;
                WireResponse::Batch(lines)
            }
            2 => WireResponse::Blob(c.take_bytes_rest()),
            other => return Err(format!("unknown status {other}")),
        };
        Ok(Ok(ResponseFrame { id, response }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(request: Request) {
        let mut buf = Vec::new();
        encode_request(7, &request, &mut buf);
        match decode_request(&buf, 64 * 1024) {
            Decoded::Frame { frame, consumed } => {
                assert_eq!(consumed, buf.len());
                assert_eq!(frame.id, 7);
                assert_eq!(frame.request, request);
            }
            other => panic!("{request:?} decoded to {other:?}"),
        }
    }

    #[test]
    fn every_request_roundtrips() {
        roundtrip(Request::Ping);
        roundtrip(Request::Query {
            doc: 3,
            engine: Engine::Indexed,
            xpath: "//b[c]/c".into(),
        });
        roundtrip(Request::Label { doc: 1, xpath: "//a".into() });
        roundtrip(Request::Parent { doc: 2, label: Ruid2::new(4, 9, false) });
        roundtrip(Request::Get { doc: 2, label: Ruid2::new(1, 1, true) });
        roundtrip(Request::MQuery {
            doc: 5,
            xpaths: vec!["//a".into(), "/a/b[c]".into(), String::new()],
        });
        roundtrip(Request::MLabel { doc: 5, xpaths: vec![] });
        roundtrip(Request::Metrics { prom: true });
        roundtrip(Request::ReplHello { follower: "replica-1".into() });
        roundtrip(Request::ReplHello { follower: String::new() });
        roundtrip(Request::ReplSnapshot { generation: 17 });
        roundtrip(Request::ReplTail { generation: 4, offset: 8192, max_bytes: 1 << 20 });
        roundtrip(Request::ReplAck {
            generation: 4,
            seq: 99,
            bye: true,
            follower: "replica-1".into(),
        });
        roundtrip(Request::Query { doc: 3, engine: Engine::Interval, xpath: "//a".into() });
        roundtrip(Request::Query { doc: 3, engine: Engine::Ancestry, xpath: "//a".into() });
        roundtrip(Request::LoadStream {
            name: "feed".into(),
            events: "1:6:a 2:5:b 3:4:=hi".into(),
        });
        roundtrip(Request::LoadStream { name: String::new(), events: String::new() });
    }

    /// The byte format is frozen: every request of
    /// `every_request_roundtrips`, each engine code, and one `TEXT` frame
    /// per text-only keyword encode to exactly the bytes recorded when the
    /// binary protocol had a request type of its own — so clients and
    /// servers from either side of that change still understand each other.
    #[test]
    fn encoding_matches_frozen_fixtures() {
        use crate::proto::TraceCmd;
        let fixtures: Vec<(Request, &str)> = vec![
            (
                Request::Ping,
                "b109000000070000000000000001",
            ),
            (
                Request::Query { doc: 3, xpath: "//b[c]/c".into(), engine: Engine::Indexed },
                "b11a0000000700000000000000020300000000000000032f2f625b635d2f63",
            ),
            (
                Request::Label { doc: 1, xpath: "//a".into() },
                "b11400000007000000000000000301000000000000002f2f61",
            ),
            (
                Request::Parent { doc: 2, label: Ruid2::new(4, 9, false) },
                "b12200000007000000000000000402000000000000000400000000000000090000000000000000",
            ),
            (
                Request::Get { doc: 2, label: Ruid2::new(1, 1, true) },
                "b12200000007000000000000000502000000000000000100000000000000010000000000000001",
            ),
            (
                Request::MQuery { doc: 5, xpaths: vec!["//a".into(), "/a/b[c]".into(), String::new()] },
                "b12b000000070000000000000006050000000000000003000000030000002f2f61070000002f612f625b635d00000000",
            ),
            (
                Request::MLabel { doc: 5, xpaths: vec![] },
                "b115000000070000000000000007050000000000000000000000",
            ),
            (
                Request::ReplHello { follower: "replica-1".into() },
                "b1120000000700000000000000097265706c6963612d31",
            ),
            (
                Request::ReplHello { follower: String::new() },
                "b109000000070000000000000009",
            ),
            (
                Request::ReplSnapshot { generation: 17 },
                "b11100000007000000000000000a1100000000000000",
            ),
            (
                Request::ReplTail { generation: 4, offset: 8192, max_bytes: 1 << 20 },
                "b11d00000007000000000000000b0400000000000000002000000000000000001000",
            ),
            (
                Request::ReplAck { generation: 4, seq: 99, bye: true, follower: "replica-1".into() },
                "b12300000007000000000000000c04000000000000006300000000000000017265706c6963612d31",
            ),
            (
                Request::Query { doc: 3, xpath: "//a".into(), engine: Engine::Interval },
                "b1150000000700000000000000020300000000000000042f2f61",
            ),
            (
                Request::Query { doc: 3, xpath: "//a".into(), engine: Engine::Ancestry },
                "b1150000000700000000000000020300000000000000052f2f61",
            ),
            (
                Request::LoadStream { name: "feed".into(), events: "1:6:a 2:5:b 3:4:=hi".into() },
                "b12400000007000000000000000d0400000066656564313a363a6120323a353a6220333a343a3d6869",
            ),
            (
                Request::LoadStream { name: String::new(), events: String::new() },
                "b10d00000007000000000000000d00000000",
            ),
            (
                Request::Query { doc: 1, xpath: "//a".into(), engine: Engine::Planned },
                "b1150000000700000000000000020100000000000000002f2f61",
            ),
            (
                Request::Query { doc: 1, xpath: "//a".into(), engine: Engine::Tree },
                "b1150000000700000000000000020100000000000000012f2f61",
            ),
            (
                Request::Query { doc: 1, xpath: "//a".into(), engine: Engine::Ruid },
                "b1150000000700000000000000020100000000000000022f2f61",
            ),
            (
                Request::Load { path: "/tmp/x.xml".into(), depth: 3 },
                "b11a0000000700000000000000084c4f4144202f746d702f782e786d6c2033",
            ),
            (
                Request::Unload(7),
                "b111000000070000000000000008554e4c4f41442037",
            ),
            (
                Request::List,
                "b10d0000000700000000000000084c495354",
            ),
            (
                Request::Explain { doc: 2, xpath: "//a[b > 1]/c".into() },
                "b11f0000000700000000000000084558504c41494e2032202f2f615b62203e20315d2f63",
            ),
            (
                Request::Insert {
                    doc: 1,
                    parent: Ruid2::new(2, 5, false),
                    position: 0,
                    fragment: "<item/>".into(),
                },
                "b125000000070000000000000008494e534552542031203220352066616c73652030203c6974656d2f3e",
            ),
            (
                Request::Delete { doc: 4, label: Ruid2::new(3, 7, false) },
                "b11b00000007000000000000000844454c4554452034203320372066616c7365",
            ),
            (
                Request::Relabel(4),
                "b11200000007000000000000000852454c4142454c2034",
            ),
            (
                Request::Scan { doc: 1, global: 4 },
                "b1110000000700000000000000085343414e20312034",
            ),
            (
                Request::Stats(9),
                "b11000000007000000000000000853544154532039",
            ),
            (
                Request::Metrics { prom: true },
                "b1150000000700000000000000084d4554524943532070726f6d",
            ),
            (
                Request::Snapshot,
                "b111000000070000000000000008534e415053484f54",
            ),
            (
                Request::Persist,
                "b11000000007000000000000000850455253495354",
            ),
            (
                Request::Trace(TraceCmd::ThresholdMs(250)),
                "b112000000070000000000000008545241434520323530",
            ),
            (
                Request::Slowlog(3),
                "b112000000070000000000000008534c4f574c4f472033",
            ),
            (
                Request::Shutdown,
                "b11100000007000000000000000853485554444f574e",
            ),
            (
                Request::Promote,
                "b11000000007000000000000000850524f4d4f5445",
            ),
        ];
        for (request, hex) in fixtures {
            let mut buf = Vec::new();
            encode_request(7, &request, &mut buf);
            let got: String = buf.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{request:?} encodes differently");
            roundtrip(request);
        }
    }

    #[test]
    fn unparsable_text_line_is_a_sound_frame() {
        let mut buf = Vec::new();
        encode_text(4, "FROB 1", &mut buf);
        assert_eq!(
            decode_request(&buf, 1024),
            Decoded::Unparsed {
                id: 4,
                reason: "unknown command \"FROB\"".into(),
                consumed: buf.len()
            }
        );
    }

    #[test]
    fn loadstream_name_length_is_bounds_checked() {
        let mut buf = Vec::new();
        encode_request(
            9,
            &Request::LoadStream { name: "feed".into(), events: "1:2:a".into() },
            &mut buf,
        );
        // Forge a name length pointing past the payload.
        let len_at = HEADER_BYTES + MIN_BODY;
        buf[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_request(&buf, 1024), Decoded::Malformed { id: 9, .. }));
    }

    #[test]
    fn responses_roundtrip() {
        for response in [
            WireResponse::Line("OK 2 (1,1,true) (2,3,false)".into()),
            WireResponse::Line(String::new()),
            WireResponse::Batch(vec!["OK 0".into(), "ERR no document 9".into()]),
            WireResponse::Batch(vec![]),
            WireResponse::Blob(vec![0xFF, 0x00, 0xB1, 0xB2, 7]),
            WireResponse::Blob(Vec::new()),
        ] {
            let mut buf = Vec::new();
            encode_response(99, &response, &mut buf);
            match decode_response(&buf) {
                Decoded::Frame { frame, consumed } => {
                    assert_eq!(consumed, buf.len());
                    assert_eq!(frame.id, 99);
                    assert_eq!(frame.response, response);
                }
                other => panic!("{response:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_incomplete() {
        let mut buf = Vec::new();
        encode_request(
            1,
            &Request::MQuery { doc: 1, xpaths: vec!["//a".into(), "//b/c".into()] },
            &mut buf,
        );
        for n in 0..buf.len() {
            assert_eq!(
                decode_request(&buf[..n], 64 * 1024),
                Decoded::Incomplete,
                "prefix of {n} bytes"
            );
        }
    }

    #[test]
    fn wrong_magic_is_corrupt() {
        assert!(matches!(decode_request(b"PING\n", 1024), Decoded::Corrupt { .. }));
        assert!(matches!(decode_response(b"OK pong\n"), Decoded::Corrupt { .. }));
        assert_eq!(decode_request(&[], 1024), Decoded::Incomplete);
    }

    #[test]
    fn oversized_header_is_rejected_before_the_body_arrives() {
        let mut buf = vec![REQ_MAGIC];
        buf.extend_from_slice(&(1_000_000u32).to_le_bytes());
        assert_eq!(decode_request(&buf, 1024), Decoded::Oversized { declared: 1_000_000 });
        // The cap bounds the payload: a body of exactly cap + MIN_BODY is
        // still allowed (mirrors a text line of exactly max_line_bytes).
        let mut ok = Vec::new();
        encode_text(1, &format!("EXPLAIN 1 {}", "x".repeat(1024 - 10)), &mut ok);
        assert!(matches!(decode_request(&ok, 1024), Decoded::Frame { .. }));
    }

    #[test]
    fn malformed_frames_resync_at_the_next_frame() {
        // Unknown verb.
        let mut buf = vec![REQ_MAGIC];
        buf.extend_from_slice(&(MIN_BODY as u32).to_le_bytes());
        buf.extend_from_slice(&42u64.to_le_bytes());
        buf.push(0xEE);
        let tail = buf.len();
        encode_request(43, &Request::Ping, &mut buf);
        match decode_request(&buf, 1024) {
            Decoded::Malformed { id, consumed, .. } => {
                assert_eq!(id, 42);
                assert_eq!(consumed, tail);
                assert!(matches!(decode_request(&buf[consumed..], 1024), Decoded::Frame { .. }));
            }
            other => panic!("{other:?}"),
        }
        // Body shorter than id + verb.
        let mut short = vec![REQ_MAGIC];
        short.extend_from_slice(&3u32.to_le_bytes());
        short.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            decode_request(&short, 1024),
            Decoded::Malformed { id: 0, .. }
        ));
        // Batch count pointing past the payload.
        let mut bad = vec![REQ_MAGIC];
        let body_len = 8 + 1 + 8 + 4; // id + verb + doc + count
        bad.extend_from_slice(&(body_len as u32).to_le_bytes());
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.push(0x06);
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&9u32.to_le_bytes()); // 9 entries, no bytes
        assert!(matches!(decode_request(&bad, 1024), Decoded::Malformed { id: 1, .. }));
        // Bad engine code.
        let mut bad_engine = Vec::new();
        encode_request(
            5,
            &Request::Query { doc: 1, engine: Engine::Planned, xpath: "//a".into() },
            &mut bad_engine,
        );
        bad_engine[HEADER_BYTES + MIN_BODY + 8] = 7; // engine byte
        assert!(matches!(decode_request(&bad_engine, 1024), Decoded::Malformed { id: 5, .. }));
        // Trailing bytes after a fixed-size payload.
        let mut padded = Vec::new();
        encode_request(6, &Request::Ping, &mut padded);
        padded.push(0);
        patch_len(&mut padded, 0);
        assert!(matches!(decode_request(&padded, 1024), Decoded::Malformed { id: 6, .. }));
    }

    #[test]
    fn frames_concatenate_and_split() {
        let mut buf = Vec::new();
        let reqs = [
            Request::Ping,
            Request::Query { doc: 1, engine: Engine::Planned, xpath: "//a".into() },
            Request::List,
        ];
        for (i, r) in reqs.iter().enumerate() {
            encode_request(i as u64, r, &mut buf);
        }
        let mut off = 0;
        for (i, r) in reqs.iter().enumerate() {
            match decode_request(&buf[off..], 1024) {
                Decoded::Frame { frame, consumed } => {
                    assert_eq!(frame.id, i as u64);
                    assert_eq!(&frame.request, r);
                    off += consumed;
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(off, buf.len());
    }
}
