//! What a snapshot file holds, seen from the server:
//!
//! * a follower that bootstraps from the leader's snapshot persists the
//!   document bodies it was shipped, byte for byte, minus the ones it
//!   quarantined;
//! * an element with more attributes than the format can count is refused
//!   by `LOAD` and `INSERT` before anything reaches the WAL, so a later
//!   `SNAPSHOT` and further writes still succeed.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ruid_service::{Client, FsyncPolicy, Server, ServerConfig, ServerHandle};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ruid-snapshot-bodies-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(data_dir: &Path, follow: Option<String>) -> (ServerHandle, Client) {
    let config = ServerConfig {
        data_dir: Some(data_dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        follow,
        repl_poll_ms: 10,
        max_line_bytes: 4 << 20,
        ..ServerConfig::default()
    };
    let handle = Server::start(config).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    (handle, client)
}

fn ok(client: &mut Client, line: &str) -> String {
    let resp = client.request(line).unwrap();
    assert!(resp.starts_with("OK"), "{line}: {resp}");
    resp
}

/// The one `snapshot-*.snap` file in `dir`, once one is installed.
fn snapshot_in(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "snap"))
}

/// `(doc_id, body)` for every directory entry of a snapshot image.
fn bodies(image: &[u8]) -> Vec<(u64, Vec<u8>)> {
    let u64_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
    let count = u32::from_le_bytes(image[20..24].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let entry = 24 + i * 24;
            let (offset, len) = (u64_at(entry + 8) as usize, u64_at(entry + 16) as usize);
            (u64_at(entry), image[offset..offset + len].to_vec())
        })
        .collect()
}

#[test]
fn a_bootstrapped_follower_persists_the_shipped_bodies() {
    let dir = scratch("follower");
    let docs = [
        "<site><people><person id=\"p1\"><name>Ann</name></person></people></site>",
        "<?pi x?><!--c--><a k=\"v\">mixed <b>text</b> ü<c/></a>",
        "<r><s/><s><t>deep</t></s></r>",
    ];
    let (leader, mut lc) = start(&dir.join("leader"), None);
    for (i, xml) in docs.iter().enumerate() {
        let path = dir.join(format!("doc{i}.xml"));
        std::fs::write(&path, xml).unwrap();
        ok(&mut lc, &format!("LOAD {}", path.display()));
    }
    ok(&mut lc, "SNAPSHOT");
    let leader_snap = snapshot_in(&dir.join("leader")).unwrap();
    let mut image = std::fs::read(&leader_snap).unwrap();
    let shipped = bodies(&image);
    assert_eq!(shipped.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![1, 2, 3]);
    // Damage document 2's body on the leader's disk: the follower must
    // quarantine it and persist the other two.
    let (_, body2) = &shipped[1];
    let at = image.windows(body2.len()).position(|w| w == &body2[..]).unwrap();
    image[at + body2.len() / 2] ^= 0xFF;
    std::fs::write(&leader_snap, &image).unwrap();

    let follower_dir = dir.join("follower");
    let (follower, _fc) = start(&follower_dir, Some(leader.addr().to_string()));
    let deadline = Instant::now() + Duration::from_secs(30);
    let persisted = loop {
        if let Some(path) = snapshot_in(&follower_dir) {
            break std::fs::read(path).unwrap();
        }
        assert!(Instant::now() < deadline, "the follower never persisted a snapshot");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(bodies(&persisted), vec![shipped[0].clone(), shipped[2].clone()]);
    assert!(follower.catalog().get(2).is_none());
    follower.stop();
    leader.stop();
}

/// `<e a0="" a1="" …/>` with `count` attributes.
fn wide_element(count: usize) -> String {
    let mut xml = String::from("<e");
    for i in 0..count {
        xml.push_str(&format!(" a{i}=\"\""));
    }
    xml.push_str("/>");
    xml
}

#[test]
fn an_element_over_the_attribute_limit_is_refused_before_the_wal() {
    let dir = scratch("attributes");
    let data_dir = dir.join("data");
    let (handle, mut client) = start(&data_dir, None);
    let wide = dir.join("wide.xml");
    std::fs::write(&wide, format!("<r>{}</r>", wide_element(70_000))).unwrap();
    let resp = client.request(&format!("LOAD {}", wide.display())).unwrap();
    assert!(resp.starts_with("ERR") && resp.contains("65535"), "{resp}");

    let small = dir.join("small.xml");
    std::fs::write(&small, "<r><s/></r>").unwrap();
    assert!(ok(&mut client, &format!("LOAD {}", small.display())).starts_with("OK id=1 "));
    let resp = client.request(&format!("INSERT 1 1 1 true 0 {}", wide_element(70_000))).unwrap();
    assert!(resp.starts_with("ERR") && resp.contains("65535"), "{resp}");

    assert!(ok(&mut client, "SNAPSHOT").starts_with("OK generation=1 docs=1"));
    assert!(ok(&mut client, &format!("LOAD {}", small.display())).starts_with("OK id=2 "));
    assert!(ok(&mut client, "METRICS").contains("wal_records=1 "));
    handle.stop();
}
