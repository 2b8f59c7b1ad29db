//! The forecast route's input boundary: a `tod` slot past the model's day
//! and a window value the JSON parser turns into `inf` each get a typed 400,
//! and the one-worker shard behind them still answers the next valid
//! forecast with a 200.

mod common;

use common::{dataset, forecast_json, shard, Client};
use d2stgnn_httpd::api::{ForecastBody, ForecastReply};
use d2stgnn_httpd::{HttpServer, HttpdConfig, ShardRouter};
use d2stgnn_serve::ServeConfig;
use std::sync::Arc;
use std::time::Duration;

/// POST `bad(valid_body, steps_per_day)` to a fresh one-worker shard and
/// expect a 400, then POST the valid body on the same connection and expect
/// a finite 200 forecast from the model.
fn rejected_then_served(bad: impl FnOnce(ForecastBody, usize) -> String) {
    let data = dataset();
    let one_worker = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let serve = shard(&data, &["m"], one_worker);
    let spd = serve
        .registry()
        .get("m")
        .and_then(|v| v.steps_per_day())
        .expect("D2STGNN indexes a time-of-day table");
    let router = Arc::new(ShardRouter::new());
    router.add_shard(0, serve).expect("add shard");
    let config = HttpdConfig {
        read_timeout: Duration::from_secs(30),
        ..HttpdConfig::default()
    };
    let server = HttpServer::bind("127.0.0.1:0", router, config).expect("bind");

    let valid = forecast_json(&data, "m", Some(1));
    let body: ForecastBody = serde_json::from_str(&valid).expect("valid body parses");
    let mut client = Client::connect(server.local_addr());
    client.post_json("/v1/forecast", &bad(body, spd), &[]);
    let resp = client.read_response().expect("reply to the bad request");
    assert_eq!(resp.status, 400, "{}", resp.body_text());

    client.post_json("/v1/forecast", &valid, &[]);
    let resp = client.read_response().expect("reply to the valid request");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let reply: ForecastReply = serde_json::from_str(&resp.body_text()).expect("forecast reply");
    assert!(!reply.fallback);
    assert_eq!(reply.shard, 0);
    assert!(reply.values.iter().flatten().all(|v| v.is_finite()));
}

#[test]
fn tod_at_steps_per_day_gets_400_and_the_shard_keeps_serving() {
    rejected_then_served(|mut body, spd| {
        body.tod[5] = spd;
        serde_json::to_string(&body).expect("serialize")
    });
}

#[test]
fn window_value_that_parses_to_inf_gets_400_and_the_shard_keeps_serving() {
    rejected_then_served(|body, _| {
        // `1e39` overflows f32; writing the literal bypasses the serializer,
        // which would print a non-finite value as `null`.
        let row = vec!["1e39"; body.window[0].len()].join(",");
        let window = vec![format!("[{row}]"); body.window.len()].join(",");
        format!(
            r#"{{"model":"m","window":[{window}],"tod":{:?},"dow":{:?},"sensor":1}}"#,
            body.tod, body.dow
        )
    });
}
