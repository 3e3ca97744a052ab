//! Exposition: Prometheus text format, JSON, and a tiny scrape endpoint.

use crate::metrics::HISTOGRAM_BUCKETS;
use crate::registry::{Registry, SampleValue, TelemetrySnapshot};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

fn label_str(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Inclusive upper edge of histogram bucket `i`, rendered for `le=`.
fn le_of(i: usize) -> String {
    if i >= HISTOGRAM_BUCKETS - 1 {
        "+Inf".to_string()
    } else if i == 0 {
        "0".to_string()
    } else {
        ((1u64 << i) - 1).to_string()
    }
}

impl TelemetrySnapshot {
    /// Render the snapshot in the Prometheus text exposition format:
    /// one `# TYPE` line per metric name, one sample line per series
    /// (histograms expand to cumulative `_bucket`/`_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !typed.contains(&s.name.as_str()) {
                typed.push(&s.name);
                let kind = match s.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "histogram",
                };
                if !s.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", s.name, s.help);
                }
                let _ = writeln!(out, "# TYPE {} {kind}", s.name);
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", s.name, label_str(&s.labels, None));
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {v}", s.name, label_str(&s.labels, None));
                }
                SampleValue::Histogram(h) => {
                    let mut cum = 0u64;
                    let top = h.buckets.iter().rposition(|&c| c != 0).unwrap_or(0).max(1);
                    for (i, &c) in h.buckets.iter().enumerate() {
                        cum = cum.saturating_add(c);
                        // Skip interior empty buckets above the data;
                        // cumulative counts stay valid.
                        if i > top && i < HISTOGRAM_BUCKETS - 1 {
                            continue;
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            s.name,
                            label_str(&s.labels, Some(("le", le_of(i))))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        s.name,
                        label_str(&s.labels, None),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        label_str(&s.labels, None),
                        h.count()
                    );
                }
            }
        }
        out
    }

    /// Render the snapshot as a JSON document (no external deps: the
    /// format is flat and hand-written).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\"metrics\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"labels\":{{", esc(&s.name));
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", esc(k), esc(v));
            }
            out.push_str("},");
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = write!(out, "\"type\":\"counter\",\"value\":{v}");
                }
                SampleValue::Gauge(v) => {
                    let _ = write!(out, "\"type\":\"gauge\",\"value\":{v}");
                }
                SampleValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\
                         \"mean\":{:.2},\"p50\":{},\"p95\":{},\"p99\":{}",
                        h.count(),
                        h.sum,
                        h.max,
                        h.mean(),
                        h.p50(),
                        h.p95(),
                        h.p99()
                    );
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Handle to a running [`serve_stats`] endpoint.
pub struct StatsServer {
    /// Address actually bound (useful with port 0).
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl StatsServer {
    /// The bound listen address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the accept loop awake.
        let _ = std::net::TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.shutdown();
        }
    }
}

/// Extra endpoints for [`serve_stats`]: path → `(content type, body
/// producer)`. Lets pipeline components publish views the telemetry
/// crate cannot know about (quarantine forensics, trace exemplars,
/// readiness summaries) without growing its dependency surface.
#[derive(Default)]
pub struct RouteTable {
    routes: Vec<Route>,
}

/// One registered route: `(path, content type, body producer)`.
type Route = (String, String, Box<dyn Fn() -> String + Send + Sync>);

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Register `path` (e.g. `"/quarantine"`) served as `content_type`
    /// with a body produced per request. Registered routes take
    /// precedence over the built-ins, so `/healthz` can be upgraded from
    /// bare liveness to a readiness summary.
    pub fn add(
        mut self,
        path: &str,
        content_type: &str,
        body: impl Fn() -> String + Send + Sync + 'static,
    ) -> Self {
        self.routes
            .push((path.to_string(), content_type.to_string(), Box::new(body)));
        self
    }

    fn find(&self, path: &str) -> Option<(&str, &(dyn Fn() -> String + Send + Sync))> {
        self.routes
            .iter()
            .find(|(p, _, _)| p == path)
            .map(|(_, ct, f)| (ct.as_str(), f.as_ref()))
    }
}

/// Extract the request path from the first HTTP request line in `buf`
/// (`GET /metrics HTTP/1.0`), dropping any query string. Unparseable
/// requests default to `/metrics` — a bare scraper should keep working.
fn request_path(buf: &[u8]) -> String {
    let text = String::from_utf8_lossy(buf);
    let line = text.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (Some(_method), Some(target)) = (parts.next(), parts.next()) else {
        return "/metrics".to_string();
    };
    let path = target.split('?').next().unwrap_or(target);
    if path.starts_with('/') {
        path.to_string()
    } else {
        "/metrics".to_string()
    }
}

fn http_response(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Serve the stats endpoint over HTTP/1.0 on `addr` (port 0 picks a free
/// port), routing by request path:
///
/// * `/metrics` (or `/`) — Prometheus text exposition of `registry`;
/// * `/json` — the same snapshot as a JSON document;
/// * `/healthz` — liveness JSON (process up + flight-recorder counters);
/// * `/flight` — the global [`crate::flight`] recorder's recent events;
/// * any path in `routes` — the registered producer (checked first);
/// * anything else — `404`.
pub fn serve_stats(
    addr: impl ToSocketAddrs,
    registry: Arc<Registry>,
    routes: RouteTable,
) -> std::io::Result<StatsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("brisk-stats".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut conn) = conn else { continue };
                // Read the request line; ignore errors — a scraper that
                // hangs up early is not our problem.
                let _ = conn.set_read_timeout(Some(std::time::Duration::from_millis(200)));
                let mut buf = [0u8; 1024];
                let n = conn.read(&mut buf).unwrap_or(0);
                let path = request_path(&buf[..n]);
                let resp = if let Some((ct, body)) = routes.find(&path) {
                    http_response("200 OK", ct, &body())
                } else {
                    match path.as_str() {
                        "/metrics" | "/" => http_response(
                            "200 OK",
                            "text/plain; version=0.0.4",
                            &registry.snapshot().to_prometheus(),
                        ),
                        "/json" => http_response(
                            "200 OK",
                            "application/json",
                            &registry.snapshot().to_json(),
                        ),
                        "/healthz" => {
                            let f = crate::trace::flight();
                            let body = format!(
                                "{{\"status\":\"ok\",\"flight_recorded\":{},\
                                 \"flight_contended\":{}}}",
                                f.recorded(),
                                f.contended()
                            );
                            http_response("200 OK", "application/json", &body)
                        }
                        "/flight" => http_response(
                            "200 OK",
                            "application/json",
                            &crate::trace::flight().to_json(),
                        ),
                        _ => http_response("404 Not Found", "text/plain", "not found\n"),
                    }
                };
                let _ = conn.write_all(resp.as_bytes());
            }
        })?;
    Ok(StatsServer {
        addr: local,
        stop,
        join: Some(join),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::io::{Read, Write};

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn scrape(addr: std::net::SocketAddr) -> String {
        get(addr, "/metrics")
    }

    #[test]
    fn prometheus_text_shape() {
        let r = Registry::new();
        r.counter_fn("brisk_frames_total", "frames", &[("dir", "in")], || 3);
        r.counter_fn("brisk_frames_total", "frames", &[("dir", "out")], || 4);
        r.gauge_fn("brisk_depth", "depth", &[], || -2);
        let h = Arc::new(crate::Histogram::new());
        h.record(3);
        h.record(100);
        r.register_histogram("brisk_lat_us", "latency", &[], &h);
        let text = r.snapshot().to_prometheus();

        // One TYPE line per metric name.
        assert_eq!(text.matches("# TYPE brisk_frames_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE brisk_depth gauge").count(), 1);
        assert_eq!(text.matches("# TYPE brisk_lat_us histogram").count(), 1);
        assert!(text.contains("brisk_frames_total{dir=\"in\"} 3"));
        assert!(text.contains("brisk_frames_total{dir=\"out\"} 4"));
        assert!(text.contains("brisk_depth -2"));
        assert!(text.contains("brisk_lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("brisk_lat_us_sum 103"));
        assert!(text.contains("brisk_lat_us_count 2"));

        // One sample line per series: no duplicated (name, labels).
        let mut seen = HashSet::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let series = line.rsplit_once(' ').unwrap().0.to_string();
            assert!(seen.insert(series.clone()), "duplicate series {series}");
        }
    }

    #[test]
    fn json_is_wellformed_enough() {
        let r = Registry::new();
        r.counter("a_total", "").add(1);
        let h = Arc::new(crate::Histogram::new());
        h.record(7);
        r.register_histogram("h_us", "", &[], &h);
        let js = r.snapshot().to_json();
        assert!(js.starts_with("{\"metrics\":["));
        assert!(js.contains("\"type\":\"counter\",\"value\":1"));
        assert!(js.contains("\"p99\":7"));
        assert_eq!(js.matches('{').count(), js.matches('}').count());
    }

    #[test]
    fn scrape_endpoint_serves_registry() {
        let r = Registry::new();
        r.counter("brisk_up_total", "liveness").add(1);
        let srv = serve_stats("127.0.0.1:0", Arc::clone(&r), RouteTable::new()).unwrap();
        let resp = scrape(srv.addr());
        assert!(resp.starts_with("HTTP/1.0 200 OK"));
        assert!(resp.contains("text/plain"));
        assert!(resp.contains("# TYPE brisk_up_total counter"));
        assert!(resp.contains("brisk_up_total 1"));
        // Scrapes see fresh values.
        r.counter("brisk_up_total", "liveness").add(5);
        assert!(scrape(srv.addr()).contains("brisk_up_total 6"));
        srv.stop();
    }

    #[test]
    fn request_path_parsing() {
        assert_eq!(request_path(b"GET /json HTTP/1.0\r\n\r\n"), "/json");
        assert_eq!(request_path(b"GET /flight?n=5 HTTP/1.1\r\n"), "/flight");
        assert_eq!(request_path(b""), "/metrics");
        assert_eq!(request_path(b"garbage"), "/metrics");
    }

    #[test]
    fn routes_by_path() {
        let r = Registry::new();
        r.counter("brisk_routed_total", "").add(2);
        let srv = serve_stats("127.0.0.1:0", Arc::clone(&r), RouteTable::new()).unwrap();

        let metrics = get(srv.addr(), "/metrics");
        assert!(metrics.contains("200 OK"));
        assert!(metrics.contains("brisk_routed_total 2"));
        // Bare `/` stays a valid scrape target.
        assert!(get(srv.addr(), "/").contains("brisk_routed_total 2"));

        let json = get(srv.addr(), "/json");
        assert!(json.contains("application/json"));
        assert!(json.contains("\"name\":\"brisk_routed_total\""));

        let health = get(srv.addr(), "/healthz");
        assert!(health.contains("200 OK"));
        assert!(health.contains("\"status\":\"ok\""));

        let flight = get(srv.addr(), "/flight");
        assert!(flight.contains("200 OK"));
        assert!(flight.contains("\"events\":["));

        let missing = get(srv.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));
        srv.stop();
    }

    #[test]
    fn extra_routes_take_precedence() {
        let r = Registry::new();
        let routes = RouteTable::new()
            .add("/quarantine", "application/json", || "{\"q\":1}".into())
            .add("/healthz", "application/json", || {
                "{\"status\":\"ok\",\"ready\":true}".into()
            });
        let srv = serve_stats("127.0.0.1:0", Arc::clone(&r), routes).unwrap();
        assert!(get(srv.addr(), "/quarantine").contains("{\"q\":1}"));
        assert!(get(srv.addr(), "/healthz").contains("\"ready\":true"));
        // Built-ins still work alongside.
        assert!(get(srv.addr(), "/metrics").contains("200 OK"));
        srv.stop();
    }
}
