//! A minimal blocking HTTP client for the service's own tests and smoke
//! checks — the other half of the wire protocol in [`crate::http`].
//!
//! One request per connection (the server closes after responding), bodies
//! always carried with `Content-Length`, response read to EOF.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::retry::RetrySchedule;

/// A parsed response: status code and body bytes.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Raw header block (CRLF-joined, without the status line).
    pub headers: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 (lossy — good enough for assertions and logs).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// A response header's value (ASCII case-insensitive name match).
    pub fn header(&self, name: &str) -> Option<String> {
        self.headers.lines().find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case(name)
                .then(|| v.trim().to_owned())
        })
    }
}

/// Sends one request and reads the full response.  `target` is the
/// path-and-query, e.g. `/datasets/a/anonymize?k=3&m=2`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(630)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut stream = stream;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Convenience `GET`.
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", target, b"")
}

/// Convenience `POST`.
pub fn post(addr: SocketAddr, target: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
    request(addr, "POST", target, body)
}

/// The delay before retry number `retry_index` (0-based) of a 503: the
/// larger of `schedule`'s jitter-free exponential step and the server's
/// `Retry-After` hint, capped at `schedule.cap` — the same schedule and
/// responses always produce the same delays.
fn delay(schedule: &RetrySchedule, retry_index: u32, retry_after: Option<Duration>) -> Duration {
    schedule
        .delay(retry_index)
        .max(retry_after.unwrap_or(Duration::ZERO))
        .min(schedule.cap)
}

/// A response's `Retry-After` header as a duration (delta-seconds form
/// only, which is what the server emits).
pub fn retry_after(response: &ClientResponse) -> Option<Duration> {
    response
        .header("Retry-After")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

/// Like [`request`], but on a 503 the client backs off per `schedule`
/// (honouring `Retry-After`, capped) and retries, surfacing the last
/// response once attempts are exhausted.  Transport errors are not retried
/// — the caller cannot tell whether the request took effect.
pub fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
    schedule: &RetrySchedule,
) -> std::io::Result<ClientResponse> {
    let mut retry_index = 0u32;
    loop {
        let response = request(addr, method, target, body)?;
        if response.status != 503 || retry_index + 1 >= schedule.attempts.max(1) {
            return Ok(response);
        }
        let hint = retry_after(&response);
        std::thread::sleep(delay(schedule, retry_index, hint));
        retry_index += 1;
    }
}

/// Convenience retrying `POST` (see [`request_with_retry`]).
pub fn post_with_retry(
    addr: SocketAddr,
    target: &str,
    body: &[u8],
    schedule: &RetrySchedule,
) -> std::io::Result<ClientResponse> {
    request_with_retry(addr, "POST", target, body, schedule)
}

fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| bad("response headers are not UTF-8"))?;
    let (status_line, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok(ClientResponse {
        status,
        headers: headers.to_owned(),
        body: raw[header_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_schedule_is_deterministic_capped_and_honours_retry_after() {
        let policy = RetrySchedule {
            attempts: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
        };
        // Jitter-free exponential: 50, 100, 200, 400ms...
        let plain: Vec<u64> = (0..4)
            .map(|i| delay(&policy, i, None).as_millis() as u64)
            .collect();
        assert_eq!(plain, vec![50, 100, 200, 400]);
        // The same inputs always produce the same schedule.
        assert_eq!(delay(&policy, 2, None), delay(&policy, 2, None));
        // A Retry-After hint wins when it is longer than the backoff...
        assert_eq!(
            delay(&policy, 0, Some(Duration::from_secs(1))),
            Duration::from_secs(1)
        );
        // ...but never exceeds the cap.
        assert_eq!(
            delay(&policy, 0, Some(Duration::from_secs(3600))),
            Duration::from_secs(2)
        );
        // And a short hint does not shrink the exponential step.
        assert_eq!(
            delay(&policy, 3, Some(Duration::from_millis(1))),
            Duration::from_millis(400)
        );
    }

    #[test]
    fn retry_after_header_parses_delta_seconds_only() {
        let mk = |headers: &str| ClientResponse {
            status: 503,
            headers: headers.to_owned(),
            body: Vec::new(),
        };
        assert_eq!(
            retry_after(&mk("Retry-After: 7")),
            Some(Duration::from_secs(7))
        );
        assert_eq!(
            retry_after(&mk("retry-after:  2 ")),
            Some(Duration::from_secs(2))
        );
        assert_eq!(retry_after(&mk("Retry-After: soon")), None);
        assert_eq!(retry_after(&mk("Content-Length: 0")), None);
    }

    /// A fake one-shot server: answers 503 + `Retry-After: 0` for the first
    /// `busy_responses` connections, then 200.
    fn fake_flaky_server(busy_responses: usize) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut served = 0usize;
            loop {
                let (mut conn, _) = listener.accept().unwrap();
                // Read the full request head (the body is empty) before
                // replying, so closing the socket cannot RST unread bytes.
                let mut head = Vec::new();
                let mut buf = [0u8; 1024];
                while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                    match conn.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => head.extend_from_slice(&buf[..n]),
                    }
                }
                let reply = if served < busy_responses {
                    "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
                } else {
                    "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"
                };
                conn.write_all(reply.as_bytes()).unwrap();
                drop(conn);
                served += 1;
                if served > busy_responses {
                    return served;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn request_with_retry_rides_out_503s() {
        let (addr, server) = fake_flaky_server(2);
        let policy = RetrySchedule {
            attempts: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        };
        let resp = request_with_retry(addr, "GET", "/healthz", b"", &policy).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(server.join().unwrap(), 3, "two 503s then the 200");
    }

    #[test]
    fn request_with_retry_surfaces_the_last_503_when_exhausted() {
        let (addr, server) = fake_flaky_server(usize::MAX);
        let policy = RetrySchedule {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        };
        let resp = request_with_retry(addr, "GET", "/healthz", b"", &policy).unwrap();
        assert_eq!(resp.status, 503);
        drop(server); // the listener thread blocks on accept; leave it to the harness
    }

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body, b"{}");
        assert_eq!(
            resp.header("content-type").as_deref(),
            Some("application/json")
        );
        assert_eq!(resp.header("missing"), None);
    }
}
