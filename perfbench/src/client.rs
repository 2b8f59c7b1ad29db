//! A minimal blocking HTTP/1.1 client over one keep-alive connection, and
//! the validator every forecast response passes through.

use serde_json::Value;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why one request counts as failed.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    /// Any status other than 200 (a 413 from the body cap included).
    Status(u16),
    /// No complete response within the client timeout.
    Timeout,
    /// The connection broke.
    Io(String),
    /// A 200 whose body is not a finite `[T_f, N]` forecast.
    BadBody(String),
}

impl Failure {
    /// Short label for the per-phase failure tally.
    pub fn label(&self) -> String {
        match self {
            Failure::Status(s) => format!("status_{s}"),
            Failure::Timeout => "timeout".to_string(),
            Failure::Io(_) => "io".to_string(),
            Failure::BadBody(_) => "bad_body".to_string(),
        }
    }
}

/// One complete HTTP response.
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes (Content-Length framed).
    pub body: Vec<u8>,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with `timeout` as the read timeout for every response.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// `POST path` with a JSON body and an `X-Request-Id`, then read the
    /// full response.
    pub fn post(&mut self, path: &str, request_id: &str, body: &str) -> Result<Response, Failure> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nX-Request-Id: {request_id}\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream
            .write_all(head.as_bytes())
            .and_then(|()| self.stream.write_all(body.as_bytes()))
            .map_err(io_failure)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, Failure> {
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| Failure::Io(format!("malformed status line in {head:?}")))?;
        let content_length = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> Result<(), Failure> {
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(Failure::Io("connection closed mid-response".to_string())),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(io_failure(e)),
        }
    }
}

fn io_failure(e: io::Error) -> Failure {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => Failure::Timeout,
        _ => Failure::Io(e.to_string()),
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Check one `POST /v1/forecast` response and return its forecast,
/// flattened `[T_f * N]` row-major.
///
/// A non-200 status fails, and so does a 200 whose `values` is not a
/// `[tf, n]` array of finite numbers: the JSON writer turns NaN and Inf
/// into `null`, so a non-finite forecast arrives as a 200 with nulls.
pub fn validate_forecast(
    status: u16,
    body: &[u8],
    tf: usize,
    n: usize,
) -> Result<Vec<f32>, Failure> {
    if status != 200 {
        return Err(Failure::Status(status));
    }
    let text = std::str::from_utf8(body).map_err(|e| Failure::BadBody(e.to_string()))?;
    let reply: Value =
        serde_json::from_str(text).map_err(|e| Failure::BadBody(format!("not JSON: {e}")))?;
    let Value::Object(fields) = reply else {
        return Err(Failure::BadBody("reply is not an object".to_string()));
    };
    let Some((_, Value::Array(rows))) = fields.iter().find(|(k, _)| k == "values") else {
        return Err(Failure::BadBody("no `values` array".to_string()));
    };
    if rows.len() != tf {
        return Err(Failure::BadBody(format!(
            "{} forecast steps, expected {tf}",
            rows.len()
        )));
    }
    let mut out = Vec::with_capacity(tf * n);
    for (t, row) in rows.iter().enumerate() {
        let Value::Array(cells) = row else {
            return Err(Failure::BadBody(format!("step {t} is a {}", row.kind())));
        };
        if cells.len() != n {
            return Err(Failure::BadBody(format!(
                "step {t} has {} sensors, expected {n}",
                cells.len()
            )));
        }
        for (i, cell) in cells.iter().enumerate() {
            let v = match cell {
                Value::Number(serde::Number::Float(v)) => *v,
                Value::Number(serde::Number::PosInt(v)) => *v as f64,
                Value::Number(serde::Number::NegInt(v)) => *v as f64,
                other => {
                    return Err(Failure::BadBody(format!(
                        "values[{t}][{i}] is {}, not a finite number",
                        other.kind()
                    )))
                }
            };
            let v = v as f32;
            if !v.is_finite() {
                return Err(Failure::BadBody(format!("values[{t}][{i}] is not finite")));
            }
            out.push(v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(values: &str) -> Vec<u8> {
        format!(r#"{{"model":"m","generation":1,"fallback":false,"shard":0,"values":{values}}}"#)
            .into_bytes()
    }

    #[test]
    fn finite_forecast_of_the_right_shape_passes() {
        let v = validate_forecast(200, &reply("[[1.5,2],[3,-4.25]]"), 2, 2).unwrap();
        assert_eq!(v, vec![1.5, 2.0, 3.0, -4.25]);
    }

    #[test]
    fn null_cell_fails() {
        let err = validate_forecast(200, &reply("[[1.5,null],[3,4]]"), 2, 2).unwrap_err();
        assert!(
            matches!(err, Failure::BadBody(ref m) if m.contains("null")),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_shape_fails() {
        assert!(matches!(
            validate_forecast(200, &reply("[[1,2],[3,4]]"), 3, 2),
            Err(Failure::BadBody(_))
        ));
        assert!(matches!(
            validate_forecast(200, &reply("[[1,2],[3]]"), 2, 2),
            Err(Failure::BadBody(_))
        ));
        assert!(matches!(
            validate_forecast(200, br#"{"values":"x"}"#, 1, 1),
            Err(Failure::BadBody(_))
        ));
        assert!(matches!(
            validate_forecast(200, b"not json", 1, 1),
            Err(Failure::BadBody(_))
        ));
    }

    #[test]
    fn non_200_fails_whatever_the_body() {
        assert_eq!(
            validate_forecast(413, &reply("[[1]]"), 1, 1),
            Err(Failure::Status(413))
        );
        assert_eq!(
            validate_forecast(503, b"{}", 1, 1),
            Err(Failure::Status(503))
        );
    }
}
