//! Helpers shared by this crate's integration tests. Each test binary
//! declares `pub mod common;`, so a helper it leaves unused is not
//! reported as dead code.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use ntr_geom::{Layout, NetGenerator, Point};

/// The pins of a random `size`-pin net on the DATE'94 layout.
pub fn random_pins(seed: u64, size: usize) -> Vec<Point> {
    NetGenerator::new(Layout::date94(), seed)
        .random_net(size)
        .unwrap()
        .pins()
        .to_vec()
}

/// One `GET path` against an observability endpoint: the status line
/// with its headers, and the body.
pub fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the metrics server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read the response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("headers then body");
    (head.to_owned(), body.to_owned())
}

/// The body of a `GET path` that must answer `200 OK`.
pub fn http_ok(addr: SocketAddr, path: &str) -> String {
    let (head, body) = http_get(addr, path);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "GET {path}: {head}");
    body
}

/// The value of an unlabelled sample in a text exposition.
pub fn sample(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from the exposition"))
        .parse::<f64>()
        .unwrap() as u64
}
