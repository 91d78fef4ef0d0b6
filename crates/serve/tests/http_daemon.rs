//! End-to-end daemon test over real sockets: boot on an ephemeral port,
//! submit jobs over HTTP, poll them to completion, exercise every
//! endpoint, and shut down gracefully.

use muri_core::{PolicyKind, SchedulerConfig};
use muri_serve::{bind, HttpClient, ServeLimits, ServerConfig};
use muri_sim::SimConfig;
use serde_json::Value;
use std::io::{Read, Write};
use std::time::Duration;

fn poll_until<F: FnMut() -> bool>(mut done: F, what: &str) {
    for _ in 0..4000 {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn daemon_end_to_end_over_http() {
    let mut cfg = ServerConfig::new(SimConfig::testbed(SchedulerConfig::preset(
        PolicyKind::MuriL,
    )));
    // Fast virtual time so jobs finish in wall milliseconds.
    cfg.time_scale = 36_000.0;
    cfg.workers = 2;
    let bound = bind(cfg).expect("bind ephemeral port");
    let addr = bound.addr().to_string();

    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());

        let mut c = HttpClient::connect(&addr).expect("connect");
        let (st, body) = c.get("/v1/healthz").expect("healthz");
        assert_eq!(st, 200, "{body}");

        // Submit a handful of jobs on one keep-alive connection.
        let mut ids = Vec::new();
        for gpus in [1u32, 2, 2, 4] {
            let req = format!("{{\"model\":\"ResNet18\",\"num_gpus\":{gpus},\"iterations\":20}}");
            let (st, body) = c.post("/v1/jobs", &req).expect("submit");
            assert_eq!(st, 200, "{body}");
            let v: Value = serde_json::from_str(&body).expect("submit json");
            assert_eq!(v.get("accepted"), Some(&Value::Bool(true)), "{body}");
            let id = match v.get("job") {
                Some(&Value::UInt(n)) => n,
                Some(&Value::Int(n)) => u64::try_from(n).expect("job id sign"),
                other => panic!("missing job id ({other:?}) in {body}"),
            };
            ids.push(id);
        }

        // Malformed submissions are refused without crashing anything.
        let (st, _) = c.post("/v1/jobs", "{\"nope\":1}").expect("bad submit");
        assert_eq!(st, 400);
        let (st, body) = c
            .post(
                "/v1/jobs",
                "{\"model\":\"ResNet18\",\"num_gpus\":3,\"iterations\":5}",
            )
            .expect("bad shape");
        assert_eq!(st, 409, "{body}");

        // Poll everything to completion.
        poll_until(
            || {
                ids.iter().all(|id| {
                    let (st, body) = c.get(&format!("/v1/jobs/{id}")).expect("status");
                    assert_eq!(st, 200, "{body}");
                    let v: Value = serde_json::from_str(&body).expect("status json");
                    v.get("status").and_then(|s| s.get("phase"))
                        == Some(&Value::Str("finished".to_string()))
                })
            },
            "all jobs to finish",
        );

        // Unknown job → 404 (status and cancel alike).
        let (st, _) = c.get("/v1/jobs/99999").expect("missing status");
        assert_eq!(st, 404);
        let (st, _) = c.post("/v1/jobs/99999/cancel", "").expect("missing cancel");
        assert_eq!(st, 404);

        // Cluster state: everything drained.
        let (st, body) = c.get("/v1/cluster").expect("cluster");
        assert_eq!(st, 200);
        let v: Value = serde_json::from_str(&body).expect("cluster json");
        let cluster = v.get("cluster").expect("cluster key");
        assert_eq!(cluster.get("queued_jobs"), Some(&Value::UInt(0)), "{body}");
        assert_eq!(cluster.get("used_gpus"), Some(&Value::UInt(0)), "{body}");

        // Metrics: valid Prometheus exposition with the daemon families.
        let (st, text) = c.get("/metrics").expect("metrics");
        assert_eq!(st, 200);
        assert!(text.contains("muri_serve_submissions_total"), "{text}");
        assert!(text.contains("muri_serve_placement_latency_us"), "{text}");
        muri_telemetry::parse_prometheus(&text).expect("prometheus parses");

        // Journal: JSONL that parses back into events.
        let (st, jsonl) = c.get("/v1/journal").expect("journal");
        assert_eq!(st, 200);
        let events = muri_telemetry::Journal::from_jsonl(&jsonl).expect("journal parses");
        assert!(!events.is_empty());

        // Graceful shutdown: acknowledged, then the server loop exits 0.
        let (st, body) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200, "{body}");
        let v: Value = serde_json::from_str(&body).expect("shutdown json");
        assert!(
            matches!(v.get("checkpointed_jobs"), Some(&Value::UInt(_))),
            "{body}"
        );

        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    });
}

#[test]
fn tenant_quota_is_enforced_over_http() {
    let mut cfg = ServerConfig::new(SimConfig::testbed(SchedulerConfig::preset(
        PolicyKind::MuriL,
    )));
    cfg.time_scale = 36_000.0;
    cfg.workers = 1;
    cfg.tenants = vec![muri_serve::TenantConfig {
        name: "alice".to_string(),
        quota_gpus: Some(2),
    }];
    let bound = bind(cfg).expect("bind");
    let addr = bound.addr().to_string();

    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let mut c = HttpClient::connect(&addr).expect("connect");

        let ok =
            "{\"tenant\":\"alice\",\"model\":\"ResNet18\",\"num_gpus\":2,\"iterations\":1000000}";
        let (st, body) = c.post("/v1/jobs", ok).expect("submit");
        assert_eq!(st, 200, "{body}");

        // Second job blows the quota while the first is outstanding.
        let (st, body) = c.post("/v1/jobs", ok).expect("submit over quota");
        assert_eq!(st, 409, "{body}");
        assert!(body.contains("quota"), "{body}");

        // Unknown tenants are refused in closed mode.
        let stranger =
            "{\"tenant\":\"mallory\",\"model\":\"ResNet18\",\"num_gpus\":1,\"iterations\":5}";
        let (st, body) = c.post("/v1/jobs", stranger).expect("unknown tenant");
        assert_eq!(st, 409, "{body}");

        let (st, _) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200);
        server.join().expect("join").expect("clean exit");
    });
}

fn base_cfg() -> ServerConfig {
    let mut cfg = ServerConfig::new(SimConfig::testbed(SchedulerConfig::preset(
        PolicyKind::MuriL,
    )));
    cfg.time_scale = 36_000.0;
    cfg.workers = 2;
    cfg
}

/// Regression for the shutdown poke: a daemon bound to the wildcard
/// address used to poke `0.0.0.0` itself, which is not connectable
/// everywhere — shutdown would hang. The poke now targets loopback.
#[test]
fn wildcard_bind_shuts_down_cleanly() {
    let mut cfg = base_cfg();
    cfg.addr = "0.0.0.0:0".to_string();
    let bound = bind(cfg).expect("bind wildcard");
    let port = bound.addr().port();

    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let mut c = HttpClient::connect(&format!("127.0.0.1:{port}")).expect("connect");
        let (st, _) = c.get("/v1/healthz").expect("healthz");
        assert_eq!(st, 200);
        let (st, _) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200);
        server.join().expect("join").expect("clean exit");
    });
}

/// Slow and oversized clients are bounded: a stalled body read times
/// out with 408 instead of pinning a worker forever, and a declared
/// body over the limit is refused 413 *before* any of it is read.
#[test]
fn slow_and_oversized_requests_are_refused() {
    let mut cfg = base_cfg();
    cfg.read_timeout_ms = 150;
    let bound = bind(cfg).expect("bind");
    let addr = bound.addr().to_string();

    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());

        // Stalled client: headers promise a body that never arrives.
        let mut slow = std::net::TcpStream::connect(&addr).expect("connect");
        slow.write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 64\r\n\r\nab")
            .expect("partial write");
        let mut resp = String::new();
        slow.read_to_string(&mut resp).expect("read 408");
        assert!(resp.starts_with("HTTP/1.1 408"), "{resp}");

        // Oversized client: refused from the Content-Length alone.
        let mut big = std::net::TcpStream::connect(&addr).expect("connect");
        big.write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 9000000\r\n\r\n")
            .expect("oversize headers");
        let mut resp = String::new();
        big.read_to_string(&mut resp).expect("read 413");
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

        // The daemon is still healthy for well-behaved clients.
        let mut c = HttpClient::connect(&addr).expect("connect");
        let (st, _) = c.get("/v1/healthz").expect("healthz");
        assert_eq!(st, 200);
        let (st, _) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200);
        server.join().expect("join").expect("clean exit");
    });
}

/// Overload refusals over the wire: a tenant at its depth cap gets 429
/// with a Retry-After header, and a rolling `/v1/config` change admits
/// a previously unknown tenant without a restart.
#[test]
fn backpressure_and_rolling_config_over_http() {
    let mut cfg = base_cfg();
    cfg.workers = 1;
    cfg.time_scale = 1.0; // slow virtual time: submitted jobs stay open
    cfg.limits = ServeLimits {
        max_open_jobs: 1024,
        tenant_depth: 1,
        retry_after_ms: 700,
    };
    cfg.tenants = vec![muri_serve::TenantConfig {
        name: "alice".to_string(),
        quota_gpus: None,
    }];
    let bound = bind(cfg).expect("bind");
    let addr = bound.addr().to_string();

    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let mut c = HttpClient::connect(&addr).expect("connect");

        let alice =
            "{\"tenant\":\"alice\",\"model\":\"ResNet18\",\"num_gpus\":1,\"iterations\":1000000}";
        let (st, body) = c.post("/v1/jobs", alice).expect("submit");
        assert_eq!(st, 200, "{body}");

        // Depth cap: retryable 429 carrying Retry-After (700ms → 1s).
        let (st, headers, body) = c
            .request_full("POST", "/v1/jobs", alice)
            .expect("over depth");
        assert_eq!(st, 429, "{body}");
        let retry = headers
            .iter()
            .find(|(k, _)| k == "retry-after")
            .map(|(_, v)| v.as_str());
        assert_eq!(retry, Some("1"), "{headers:?}");
        let v: Value = serde_json::from_str(&body).expect("refusal json");
        assert!(
            matches!(v.get("retry_after_ms"), Some(&Value::UInt(700))),
            "{body}"
        );

        // Unknown tenant: permanent 409, no Retry-After.
        let bob = "{\"tenant\":\"bob\",\"model\":\"ResNet18\",\"num_gpus\":1,\"iterations\":10}";
        let (st, headers, _) = c.request_full("POST", "/v1/jobs", bob).expect("unknown");
        assert_eq!(st, 409);
        assert!(
            !headers.iter().any(|(k, _)| k == "retry-after"),
            "{headers:?}"
        );

        // Rolling config: admit bob with a quota, no restart.
        let (st, body) = c
            .post(
                "/v1/config",
                "{\"tenants\":[{\"name\":\"bob\",\"quota_gpus\":4}]}",
            )
            .expect("config");
        assert_eq!(st, 200, "{body}");
        let (st, body) = c.post("/v1/jobs", bob).expect("bob after config");
        assert_eq!(st, 200, "{body}");

        // A malformed config is refused without being applied.
        let (st, _) = c
            .post("/v1/config", "{\"plan_mode\":\"sideways\"}")
            .expect("bad config");
        assert_eq!(st, 400);

        let (st, _) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200);
        server.join().expect("join").expect("clean exit");
    });
}

/// Daemon-wide saturation: with the global open-job bound at 1 and the
/// one slot held by a placed job, further submits are shed-or-refused —
/// a lighter incoming job gets a retryable 503 with Retry-After.
#[test]
fn saturated_daemon_refuses_with_503() {
    let mut cfg = base_cfg();
    cfg.workers = 1;
    cfg.time_scale = 1.0;
    cfg.limits = ServeLimits {
        max_open_jobs: 1,
        tenant_depth: 256,
        retry_after_ms: 250,
    };
    let bound = bind(cfg).expect("bind");
    let addr = bound.addr().to_string();

    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let mut c = HttpClient::connect(&addr).expect("connect");

        let heavy = "{\"model\":\"ResNet18\",\"num_gpus\":4,\"iterations\":1000000}";
        let (st, body) = c.post("/v1/jobs", heavy).expect("submit");
        assert_eq!(st, 200, "{body}");

        // A lighter job cannot displace the heavier one: 503 + backoff.
        let light = "{\"model\":\"ResNet18\",\"num_gpus\":1,\"iterations\":10}";
        let (st, headers, body) = c.request_full("POST", "/v1/jobs", light).expect("light");
        assert_eq!(st, 503, "{body}");
        assert!(
            headers.iter().any(|(k, v)| k == "retry-after" && v == "1"),
            "{headers:?}"
        );

        let (st, _) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200);
        server.join().expect("join").expect("clean exit");
    });
}

/// End-to-end durability: a daemon with a state directory survives a
/// restart — jobs submitted before the restart are still known (with
/// their ids) after `recover: true` replays the journal.
#[test]
fn durable_daemon_recovers_jobs_across_restart() {
    let dir = std::env::temp_dir().join(format!("muri-daemon-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = base_cfg();
    cfg.workers = 1;
    cfg.time_scale = 1.0; // jobs stay open across the restart
    cfg.state_dir = Some(dir.to_string_lossy().into_owned());

    let bound = bind(cfg.clone()).expect("bind first daemon");
    let addr = bound.addr().to_string();
    let mut ids = Vec::new();
    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let mut c = HttpClient::connect(&addr).expect("connect");
        for gpus in [1u32, 2] {
            let req =
                format!("{{\"model\":\"ResNet18\",\"num_gpus\":{gpus},\"iterations\":1000000}}");
            let (st, body) = c.post("/v1/jobs", &req).expect("submit");
            assert_eq!(st, 200, "{body}");
            let v: Value = serde_json::from_str(&body).expect("json");
            match v.get("job") {
                Some(&Value::UInt(n)) => ids.push(n),
                other => panic!("no job id ({other:?}) in {body}"),
            }
        }
        let (st, _) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200);
        server.join().expect("join").expect("clean exit");
    });

    // Second daemon: recover from the journal the first one wrote.
    cfg.recover = true;
    let bound = bind(cfg).expect("bind recovered daemon");
    let addr = bound.addr().to_string();
    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let mut c = HttpClient::connect(&addr).expect("connect");
        for id in &ids {
            let (st, body) = c.get(&format!("/v1/jobs/{id}")).expect("status");
            assert_eq!(st, 200, "job {id} lost across restart: {body}");
        }
        // The recovered id allocator must not alias the old jobs.
        let (st, body) = c
            .post(
                "/v1/jobs",
                "{\"model\":\"ResNet18\",\"num_gpus\":1,\"iterations\":5}",
            )
            .expect("fresh submit");
        assert_eq!(st, 200, "{body}");
        let v: Value = serde_json::from_str(&body).expect("json");
        match v.get("job") {
            Some(&Value::UInt(n)) => assert!(!ids.contains(&n), "id {n} reissued"),
            other => panic!("no job id ({other:?}) in {body}"),
        }
        let (st, _) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200);
        server.join().expect("join").expect("clean exit");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// `n` nested arrays: `[[[...]]]`.
fn nested_arrays(n: usize) -> String {
    "[".repeat(n) + &"]".repeat(n)
}

/// The JSON parser bounds its nesting depth at 128, as upstream
/// serde_json does: a document at the limit parses, one past it is a
/// parse error instead of a stack overflow.
#[test]
fn json_nesting_is_bounded_at_128() {
    assert!(serde_json::from_str::<Value>(&nested_arrays(128)).is_ok());
    let mut objects = "{\"a\":".repeat(127) + "{}";
    objects.push_str(&"}".repeat(127));
    assert!(serde_json::from_str::<Value>(&objects).is_ok());
    let err = serde_json::from_str::<Value>(&nested_arrays(129)).expect_err("past the limit");
    assert!(err.to_string().contains("recursion limit"), "{err}");
}

/// Regression: a submit body of 200k `[` then 200k `]` (400 KB, under
/// the body cap) used to overflow the parser's stack and abort the
/// whole daemon. It is now a bad submit body (400) and the daemon keeps
/// serving.
#[test]
fn deeply_nested_submit_body_is_refused_with_400() {
    let bound = bind(base_cfg()).expect("bind");
    let addr = bound.addr().to_string();

    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let mut c = HttpClient::connect(&addr).expect("connect");
        let (st, body) = c
            .post("/v1/jobs", &nested_arrays(200_000))
            .expect("deep submit");
        assert_eq!(st, 400, "{body}");

        let mut c = HttpClient::connect(&addr).expect("reconnect");
        let (st, _) = c.get("/v1/healthz").expect("healthz after deep submit");
        assert_eq!(st, 200);
        let (st, _) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200);
        server.join().expect("join").expect("clean exit");
    });
}

/// Regression: a job of `u64::MAX` iterations used to overflow the
/// completion-time addition and panic the scheduler thread, killing the
/// daemon. Time arithmetic saturates now: the job is accepted, simply
/// never finishes, and the daemon keeps serving and shuts down cleanly.
#[test]
fn endless_job_submit_leaves_the_daemon_serving() {
    let bound = bind(base_cfg()).expect("bind");
    let addr = bound.addr().to_string();

    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let mut c = HttpClient::connect(&addr).expect("connect");
        let (st, body) = c
            .post(
                "/v1/jobs",
                "{\"model\":\"ResNet18\",\"num_gpus\":1,\"iterations\":18446744073709551615}",
            )
            .expect("endless submit");
        assert_eq!(st, 200, "{body}");

        let mut c = HttpClient::connect(&addr).expect("reconnect");
        let (st, _) = c.get("/v1/healthz").expect("healthz after endless submit");
        assert_eq!(st, 200);
        let (st, _) = c.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(st, 200);
        server.join().expect("join").expect("clean exit");
    });
}
