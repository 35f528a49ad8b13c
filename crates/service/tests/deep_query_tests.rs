//! Query lines nested deep enough to overflow a worker's stack, were the
//! XPath parser unbounded, answer `ERR` on either protocol, and the
//! connection (and the server) keeps serving.

use ruid_service::{BinaryClient, ServerConfig};
use testkit::{load_xml, start};

/// The shapes that overflowed a worker thread before nesting was
/// bounded: nested predicates, parentheses, `not(…)`, and a flat `or`
/// chain just under the 64 KiB line cap.
fn shapes() -> Vec<String> {
    vec![
        format!("//a[{}b{}]", "b[".repeat(938), "]".repeat(938)),
        format!("//a[{}b{}]", "(".repeat(1835), ")".repeat(1835)),
        format!("//a[{}b{}]", "not(".repeat(1835), ")".repeat(1835)),
        format!("//a[{}]", vec!["b"; 12_000].join(" or ")),
    ]
}

#[test]
fn deep_queries_answer_err_and_the_connection_survives() {
    let (handle, mut text) = start(ServerConfig::default());
    let id = load_xml(&mut text, "<a><b/></a>");
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    for xpath in shapes() {
        let line = format!("QUERY {id} {xpath}");
        assert!(line.len() < ServerConfig::default().max_line_bytes, "{} bytes", line.len());
        let reply = text.request(&line).unwrap();
        assert!(reply.starts_with("ERR XPath parse error: "), "text: {reply}");
        assert_eq!(text.request("PING").unwrap(), "OK pong");

        let reply = binary.query(id, &xpath).unwrap();
        assert!(reply.starts_with("ERR XPath parse error: "), "binary: {reply}");
        assert_eq!(binary.request("PING").unwrap(), "OK pong");
    }
    handle.stop();
}
