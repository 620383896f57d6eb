//! Reading the server's own instrumentation: the span trees it records
//! into its flight recorder (`GET /debug/trace`, Chrome trace-event JSON)
//! and its Prometheus counters (`GET /metrics`).

use std::collections::HashMap;
use std::net::SocketAddr;

use nncell_server::json::{self, Json};

use crate::http;

/// One recorded span. Times are microseconds on the server's trace clock.
pub struct Span {
    pub name: String,
    pub dur_us: f64,
    pub span: u64,
    pub parent: u64,
    /// Numeric span arguments (`bytes`, `tail`, …).
    pub args: Vec<(String, f64)>,
}

impl Span {
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Every span still in the server's flight recorder, grouped by trace id.
pub fn harvest(addr: SocketAddr) -> Result<HashMap<u128, Vec<Span>>, String> {
    let body = http::get_ok(addr, "/debug/trace?last=1000000")?;
    parse_chrome(&body)
}

fn parse_chrome(body: &str) -> Result<HashMap<u128, Vec<Span>>, String> {
    let v = json::parse(body).map_err(|e| format!("/debug/trace is not JSON: {e:?}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("/debug/trace has no traceEvents")?;
    let mut traces: HashMap<u128, Vec<Span>> = HashMap::new();
    for e in events {
        let bad = || "malformed trace event".to_string();
        let args = e.get("args").ok_or_else(bad)?;
        let hex = |key: &str| args.get(key).and_then(Json::as_str).ok_or_else(bad);
        let trace = u128::from_str_radix(hex("trace")?, 16).map_err(|_| bad())?;
        let span = Span {
            name: e
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(bad)?
                .to_string(),
            dur_us: e.get("dur").and_then(Json::as_f64).ok_or_else(bad)?,
            span: u64::from_str_radix(hex("span")?, 16).map_err(|_| bad())?,
            parent: u64::from_str_radix(hex("parent")?, 16).map_err(|_| bad())?,
            args: match args {
                Json::Obj(m) => m
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect(),
                _ => Vec::new(),
            },
        };
        traces.entry(trace).or_default().push(span);
    }
    Ok(traces)
}

/// Durations of the spans in `spans` named `name`, in microseconds.
pub fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(|s| s.dur_us)
}

/// A span's duration minus the time its direct children cover.
pub fn self_time_us(spans: &[Span], s: &Span) -> f64 {
    s.dur_us
        - spans
            .iter()
            .filter(|c| c.parent == s.span)
            .map(|c| c.dur_us)
            .sum::<f64>()
}

/// The sum of every series of a Prometheus family (all label sets).
pub fn prom_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            let base = name.split('{').next()?;
            (base == family)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_chrome_trace_events() {
        let body = r#"{"displayTimeUnit":"ms","traceEvents":[
{"name":"server.request","cat":"nncell","ph":"X","ts":10.000,"dur":50.500,"pid":1,"tid":3,"args":{"trace":"000000000000000000000000000000ab","span":"0000000000000001","parent":"0000000000000000","status":200}},
{"name":"server.handle","cat":"nncell","ph":"X","ts":20.000,"dur":30.000,"pid":1,"tid":3,"args":{"trace":"000000000000000000000000000000ab","span":"0000000000000002","parent":"0000000000000001"}},
{"name":"shard.query","cat":"nncell","ph":"X","ts":21.000,"dur":12.250,"pid":1,"tid":3,"args":{"trace":"000000000000000000000000000000ab","span":"0000000000000003","parent":"0000000000000002","shard":1}}
]}"#;
        let traces = parse_chrome(body).expect("parses");
        let spans = &traces[&0xab];
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].arg("status"), Some(200.0));
        assert_eq!(durations(spans, "shard.query").sum::<f64>(), 12.25);
        assert_eq!(self_time_us(spans, &spans[1]), 17.75);
    }

    #[test]
    fn sums_prometheus_series() {
        let text = "# TYPE nncell_wal_fsyncs_total counter\n\
                    nncell_wal_fsyncs_total{shard=\"0\"} 3\n\
                    nncell_wal_fsyncs_total{shard=\"1\"} 4\n\
                    nncell_wal_fsyncs_total_other 100\n";
        assert_eq!(prom_sum(text, "nncell_wal_fsyncs_total"), 7.0);
    }
}
