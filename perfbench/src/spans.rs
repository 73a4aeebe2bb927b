//! Host-time spans of the traced run, written as a Chrome `trace_event`
//! JSON file (open it in Perfetto or `chrome://tracing`).

use std::fmt::Write;
use std::time::Instant;

use wbsn_obs::json::escape;

struct Span {
    name: String,
    cat: &'static str,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, String)>,
}

/// A flat list of complete (`X`) events on one track. Nesting follows
/// from time containment: run ⊃ cell ⊃ synth/build/setup/run/obs/power.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose time origin is `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records one span from `start` to `end`.
    pub fn record(
        &mut self,
        name: &str,
        cat: &'static str,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, String)>,
    ) {
        self.spans.push(Span {
            name: name.to_string(),
            cat,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: (end - start).as_secs_f64() * 1e6,
            args,
        });
    }

    /// The `trace_event` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"wbsn-perfbench replay\"}}",
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{",
                escape(&s.name),
                s.cat,
                s.start_us,
                s.dur_us
            );
            for (i, (key, value)) in s.args.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{key}\":\"{}\"", escape(value));
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
