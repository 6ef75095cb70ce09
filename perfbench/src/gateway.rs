//! An in-process HTTP gateway and the benchmark's client for it.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pimsyn::{SchedulingPolicy, ServiceConfig, SynthesisRequest, SynthesisService, TenantPolicy};
use pimsyn_gateway::http::roundtrip;
use pimsyn_gateway::{serve_gateway_in_background, GatewayConfig, GatewayHandle, TenantRegistry};
use pimsyn_model::json::JsonValue;

/// Bearer keys of the two tenants of the fair gateway, in order.
pub const TENANT_KEYS: [(&str, &str); 2] = [("alice", "k-alice"), ("bob", "k-bob")];

/// Job slots of every gateway and service the benchmark starts.
pub const JOB_SLOTS: usize = 2;

/// How the gateway (or the bare service, in traced runs) is set up.
#[derive(Debug, Clone, Default)]
pub struct ServerSpec {
    /// Two bearer-key tenants under the weighted-fair scheduler.
    pub tenants: bool,
    /// Eval-cache file overlaid onto every job.
    pub cache_file: Option<PathBuf>,
}

impl ServerSpec {
    /// The service the gateway fronts.
    pub fn service(&self) -> Arc<SynthesisService> {
        let scheduling = if self.tenants {
            SchedulingPolicy::WeightedFair
        } else {
            SchedulingPolicy::Fifo
        };
        Arc::new(SynthesisService::new(
            ServiceConfig::default()
                .with_job_slots(JOB_SLOTS)
                .with_scheduling(scheduling),
        ))
    }

    /// The server-side overlay (the `pimsyn gateway --eval-cache-file`
    /// policy) applied to every submitted request.
    pub fn overlay(&self) -> impl Fn(&mut SynthesisRequest) + Send + Sync + 'static {
        let cache_file = self.cache_file.clone();
        move |request: &mut SynthesisRequest| {
            if request.options.eval_cache.enabled {
                if let Some(path) = &cache_file {
                    request.options.backend.cache_file = Some(path.clone());
                }
            }
        }
    }

    /// The tenant policy a job of tenant `t` runs under (service-direct
    /// submissions), matching what the gateway resolves from its keys.
    pub fn tenant_policy(&self, t: usize) -> Option<TenantPolicy> {
        self.tenants
            .then(|| TenantPolicy::new(TENANT_KEYS[t].0).with_weight(1))
    }
}

/// A gateway running on a background thread of this process.
#[derive(Debug)]
pub struct Gateway {
    handle: GatewayHandle,
    service: Arc<SynthesisService>,
    /// `host:port` it listens on.
    pub addr: String,
    admin_key: Option<&'static str>,
}

impl Gateway {
    /// Starts a gateway; with tenants, writes their keys file into `dir`.
    pub fn start(spec: &ServerSpec, dir: &Path) -> Result<Self, String> {
        let mut config = GatewayConfig::new().with_quiet(true);
        if spec.tenants {
            let keys: Vec<String> = TENANT_KEYS
                .iter()
                .map(|(name, key)| format!(r#"{{"name":"{name}","key":"{key}","weight":1}}"#))
                .collect();
            let path = dir.join("keys.json");
            std::fs::write(&path, format!(r#"{{"tenants":[{}]}}"#, keys.join(",")))
                .map_err(|e| format!("cannot write keys file: {e}"))?;
            let path = path.to_string_lossy().into_owned();
            config = config
                .with_tenants(TenantRegistry::load(&path)?)
                .with_keys_file(path);
        }
        let service = spec.service();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
        let handle =
            serve_gateway_in_background(listener, Arc::clone(&service), spec.overlay(), config)
                .map_err(|e| format!("cannot start gateway: {e}"))?;
        let gateway = Self {
            addr: handle.addr().to_string(),
            handle,
            service,
            admin_key: spec.tenants.then_some(TENANT_KEYS[0].1),
        };
        match http(&gateway.addr, "GET", "/healthz", None, "") {
            Ok((200, _)) => Ok(gateway),
            other => Err(format!("gateway not healthy: {other:?}")),
        }
    }

    /// Drains the gateway and waits for it and its service to stop.
    pub fn stop(self) -> Result<(), String> {
        let drained = http(&self.addr, "POST", "/v1/drain", self.admin_key, "");
        let joined = self.handle.join();
        self.service.shutdown();
        match drained {
            Ok((202, _)) => joined.map_err(|e| format!("gateway exited with {e}")),
            other => Err(format!("drain refused: {other:?}")),
        }
    }
}

/// One HTTP exchange: `(status, body)`.
pub fn http(
    addr: &str,
    method: &str,
    path: &str,
    key: Option<&str>,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    let auth = key.map_or(String::new(), |k| format!("Authorization: Bearer {k}\r\n"));
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\n{auth}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, _, body) = roundtrip(addr, raw.as_bytes())?;
    Ok((status, body))
}

/// What one job through the gateway produced.
#[derive(Debug)]
pub struct HttpJob {
    /// POST → 202 seconds (also set for refused submits).
    pub submit_s: f64,
    /// Whether the submit was refused (non-202).
    pub refused: bool,
    /// The result body, or why there is none.
    pub result: Result<Vec<u8>, String>,
}

/// Submits `body` and blocks on its result.
pub fn run_job(addr: &str, key: Option<&str>, body: &str) -> HttpJob {
    let start = Instant::now();
    let submitted = http(addr, "POST", "/v1/jobs", key, body);
    let submit_s = start.elapsed().as_secs_f64();
    let id = match submitted {
        Ok((202, reply)) => std::str::from_utf8(&reply)
            .ok()
            .and_then(|t| JsonValue::parse(t).ok())
            .and_then(|doc| doc.get("id").and_then(JsonValue::as_usize)),
        Ok((status, reply)) => {
            return HttpJob {
                submit_s,
                refused: true,
                result: Err(format!(
                    "submit refused with {status}: {}",
                    String::from_utf8_lossy(&reply)
                )),
            }
        }
        Err(e) => {
            return HttpJob {
                submit_s,
                refused: true,
                result: Err(e),
            }
        }
    };
    let result = match id {
        None => Err("202 reply without a job id".to_string()),
        Some(id) => match http(addr, "GET", &format!("/v1/jobs/{id}/result"), key, "") {
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(format!(
                "result {status}: {}",
                String::from_utf8_lossy(&body)
            )),
            Err(e) => Err(e),
        },
    };
    HttpJob {
        submit_s,
        refused: false,
        result,
    }
}
