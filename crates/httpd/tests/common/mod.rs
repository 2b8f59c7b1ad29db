//! Shared fixtures for the httpd integration tests: tiny serve shards and a
//! minimal blocking HTTP client.

#![allow(dead_code)] // each test binary uses a subset of these helpers

use d2stgnn_core::{checkpoint, D2stgnn, D2stgnnConfig, TrafficModel};
use d2stgnn_data::{simulate, SimulatorConfig, WindowedDataset};
use d2stgnn_httpd::api::ForecastBody;
use d2stgnn_serve::{ModelFactory, ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A tiny simulated dataset: 6 sensors, 2 days, 12-step windows.
pub fn dataset() -> WindowedDataset {
    let mut cfg = SimulatorConfig::tiny();
    cfg.num_nodes = 6;
    cfg.num_steps = 2 * 288;
    cfg.knn = 2;
    WindowedDataset::new(simulate(&cfg), 12, 12, (0.6, 0.2, 0.2))
}

fn factory_for(data: &WindowedDataset, seed: u64) -> ModelFactory {
    let mut cfg = D2stgnnConfig::small(data.num_nodes());
    cfg.layers = 1;
    let network = data.data().network.clone();
    Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(D2stgnn::new(cfg.clone(), &network, &mut rng)) as Box<dyn TrafficModel>
    })
}

/// Register a fresh seed-`seed` model under `name` in `registry`.
pub fn register(registry: &ModelRegistry, data: &WindowedDataset, name: &str, seed: u64) {
    let factory = factory_for(data, seed);
    let model = factory();
    let ckpt = checkpoint::snapshot(model.as_ref() as &dyn d2stgnn_tensor::nn::Module, name);
    registry
        .register(
            name,
            factory,
            ckpt,
            *data.scaler(),
            [data.th(), data.num_nodes()],
        )
        .expect("register model");
}

/// A serve shard with the given models registered.
pub fn shard(data: &WindowedDataset, models: &[&str], config: ServeConfig) -> Arc<Server> {
    let registry = Arc::new(ModelRegistry::new());
    for (i, name) in models.iter().enumerate() {
        register(&registry, data, name, 7 + i as u64);
    }
    Arc::new(Server::start(registry, config).expect("start shard"))
}

/// A shard with an empty registry (routable, but serves no models).
pub fn empty_shard() -> Arc<Server> {
    let registry = Arc::new(ModelRegistry::new());
    Arc::new(Server::start(registry, ServeConfig::default()).expect("start empty shard"))
}

/// JSON body for a valid forecast request against `model`, windowed from the
/// dataset's test split.
pub fn forecast_json(data: &WindowedDataset, model: &str, sensor: Option<u64>) -> String {
    let raw = data.data();
    let (window, tod, dow) = raw.raw_window(raw.num_steps() - data.th(), data.th());
    serde_json::to_string(&ForecastBody {
        model: model.to_string(),
        window: window
            .data()
            .chunks(raw.num_nodes())
            .map(<[f32]>::to_vec)
            .collect(),
        tod,
        dow,
        deadline_ms: None,
        sensor,
        city: None,
    })
    .expect("serialize forecast body")
}

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Resp {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Resp {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A blocking client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    pub fn send(&mut self, raw: &[u8]) {
        self.stream.write_all(raw).expect("send request");
    }

    /// Send a GET for `path` (keep-alive by default under HTTP/1.1).
    pub fn get(&mut self, path: &str) {
        self.send(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes());
    }

    /// Send a POST with a JSON body and optional extra headers.
    pub fn post_json(&mut self, path: &str, body: &str, extra_headers: &[(&str, &str)]) {
        let mut req = format!("POST {path} HTTP/1.1\r\nHost: test\r\n");
        for (k, v) in extra_headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        self.send(req.as_bytes());
    }

    /// Read one full response; `None` if the server closed the connection
    /// before sending anything further.
    pub fn read_response(&mut self) -> Option<Resp> {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    assert!(
                        self.buf.is_empty(),
                        "connection closed mid-response: {:?}",
                        String::from_utf8_lossy(&self.buf)
                    );
                    return None;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read response head: {e}"),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| {
                l.split_once(':')
                    .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            })
            .collect();
        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| v.parse().expect("content-length"))
            .unwrap_or(0);
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("connection closed mid-body"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read response body: {e}"),
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        Some(Resp {
            status,
            headers,
            body,
        })
    }
}

fn find_subslice(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// One-shot GET: fresh connection, `Connection: close`.
pub fn get_once(addr: SocketAddr, path: &str) -> Resp {
    let mut c = Client::connect(addr);
    c.send(format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes());
    c.read_response().expect("response")
}

/// One-shot POST of a JSON body with optional headers.
pub fn post_once(addr: SocketAddr, path: &str, body: &str, extra_headers: &[(&str, &str)]) -> Resp {
    let mut c = Client::connect(addr);
    let mut req = format!("POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (k, v) in extra_headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str(&format!(
        "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    c.send(req.as_bytes());
    c.read_response().expect("response")
}
