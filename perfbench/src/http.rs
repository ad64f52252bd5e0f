//! Minimal HTTP/1.0 client pieces for talking to `implicate-serve`, which
//! answers one request per connection and then closes it.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Renders one request.
pub fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.0\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Splits a complete response into its status code and body.
pub fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let code = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((
        code,
        String::from_utf8_lossy(&raw[split + 4..]).into_owned(),
    ))
}

/// The unsigned integer value of `"key":` in a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The value of an unlabelled Prometheus sample whose name ends with
/// `suffix`, e.g. `wire_decode_errors`.
pub fn prom_value(text: &str, suffix: &str) -> Option<f64> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (name, value) = l.split_once(' ')?;
        name.ends_with(suffix).then(|| value.trim().parse().ok())?
    })
}

/// One request on a fresh connection, blocking up to `timeout`.
pub fn call(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.write_all(&request(method, path, body))?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    parse_response(&raw).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad response"))
}
