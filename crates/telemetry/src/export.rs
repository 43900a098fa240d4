//! Exporters: Chrome `trace_event` JSON and CSV.
//!
//! The JSON emitter is hand-rolled (the offline build has no registry
//! access) and targets the subset of the Trace Event Format that Perfetto
//! and `chrome://tracing` load: `"X"` complete events for spans, `"i"`
//! instants, `"C"` counters and `"M"` metadata records naming processes
//! (nodes) and threads (cores). Timestamps are microseconds with
//! nanosecond fractions.

use crate::tracer::{Event, EventKind, Tracer};
use ioat_simcore::SimTime;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → trace-event microseconds ("123.456").
fn ts_us(t: SimTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders the full Chrome `trace_event` JSON document for a tracer's
/// events and metadata.
pub fn chrome_trace_json(tracer: &Tracer) -> String {
    tracer.with_events(|events| {
        // ~120 bytes per serialized event is a comfortable upper bound.
        let mut out = String::with_capacity(events.len() * 120 + 1024);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push_obj = |out: &mut String, body: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str("\n{");
            out.push_str(&body);
            out.push('}');
        };

        for (node, name) in tracer.process_names() {
            push_obj(
                &mut out,
                format!(
                    "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}",
                    json_escape(&name)
                ),
            );
        }
        for ((node, core), name) in tracer.track_names() {
            push_obj(
                &mut out,
                format!(
                    "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":{core},\
                 \"args\":{{\"name\":\"{}\"}}",
                    json_escape(&name)
                ),
            );
        }
        for ev in events {
            let common = format!(
                "\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{}",
                json_escape(ev.name),
                ev.cat.name(),
                ev.track.node,
                ev.track.core
            );
            let body = match ev.kind {
                EventKind::Span { start, end } => {
                    let dur_ns = end.as_nanos() - start.as_nanos();
                    format!(
                        "{common},\"ph\":\"X\",\"ts\":{},\"dur\":{}.{:03}",
                        ts_us(start),
                        dur_ns / 1_000,
                        dur_ns % 1_000
                    )
                }
                EventKind::Instant { at } => {
                    format!("{common},\"ph\":\"i\",\"s\":\"t\",\"ts\":{}", ts_us(at))
                }
                EventKind::Counter { at, value } => {
                    // JSON has no NaN/Infinity; a pathological counter value
                    // must not corrupt the whole trace document.
                    let v = if value.is_finite() {
                        format!("{value}")
                    } else {
                        "null".to_string()
                    };
                    format!(
                        "{common},\"ph\":\"C\",\"ts\":{},\"args\":{{\"value\":{v}}}",
                        ts_us(at)
                    )
                }
            };
            push_obj(&mut out, body);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    })
}

/// Writes the Chrome trace JSON to `path`.
pub fn write_chrome_trace(path: &Path, tracer: &Tracer) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(tracer))
}

/// Renders events as CSV
/// (`name,category,node,core,kind,start_ns,end_ns,value`).
pub fn events_csv(events: &[Event]) -> String {
    let mut out = String::from("name,category,node,core,kind,start_ns,end_ns,value\n");
    for ev in events {
        let (kind, start, end, value) = match ev.kind {
            EventKind::Span { start, end } => {
                ("span", start.as_nanos(), end.as_nanos(), String::new())
            }
            EventKind::Instant { at } => ("instant", at.as_nanos(), at.as_nanos(), String::new()),
            EventKind::Counter { at, value } => {
                ("counter", at.as_nanos(), at.as_nanos(), format!("{value}"))
            }
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{kind},{start},{end},{value}",
            ev.name,
            ev.cat.name(),
            ev.track.node,
            ev.track.core
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Category, TrackId};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A minimal structural JSON parser: validates the exported document
    /// without external deps. Returns the number of objects in
    /// `traceEvents`.
    fn parse_trace_json(s: &str) -> usize {
        let s = s.trim();
        assert!(
            s.starts_with('{') && s.ends_with('}'),
            "document is an object"
        );
        assert!(s.contains("\"traceEvents\":["), "has traceEvents array");
        // Balance braces/brackets while respecting strings.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        let mut objects = 0;
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => {
                    depth += 1;
                    // doc object = 1, traceEvents array = 2, event = 3.
                    if depth == 3 {
                        objects += 1;
                    }
                }
                '}' => depth -= 1,
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced structure");
        }
        assert_eq!(depth, 0, "balanced document");
        assert!(!in_str, "no unterminated string");
        objects
    }

    #[test]
    fn chrome_trace_structure_is_valid() {
        let tr = Tracer::enabled();
        tr.set_process_name(0, "server");
        tr.set_track_name(TrackId::new(0, 1), "core1");
        tr.span(
            "irq \"x\"\n",
            Category::Interrupt,
            TrackId::new(0, 1),
            t(1_500),
            t(3_750),
        );
        tr.instant("mark", Category::App, TrackId::new(0, 1), t(2_000));
        tr.counter(
            "backlog",
            Category::Other,
            TrackId::new(0, 0),
            t(9_001),
            7.5,
        );
        let json = chrome_trace_json(&tr);
        // 2 metadata + 3 events, each an object; args objects nest deeper.
        assert_eq!(parse_trace_json(&json), 5);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.250"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"irq \\\"x\\\"\\n\""), "name is escaped");
    }

    #[test]
    fn non_finite_counter_values_export_as_null() {
        let tr = Tracer::enabled();
        let track = TrackId::new(0, 0);
        tr.counter("a", Category::Other, track, t(1), f64::NAN);
        tr.counter("b", Category::Other, track, t(2), f64::INFINITY);
        tr.counter("c", Category::Other, track, t(3), f64::NEG_INFINITY);
        let json = chrome_trace_json(&tr);
        parse_trace_json(&json);
        assert_eq!(json.matches("\"value\":null").count(), 3);
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn empty_tracer_exports_valid_document() {
        let json = chrome_trace_json(&Tracer::enabled());
        assert_eq!(parse_trace_json(&json), 0);
        let disabled = chrome_trace_json(&Tracer::disabled());
        assert_eq!(parse_trace_json(&disabled), 0);
    }

    #[test]
    fn write_then_read_back() {
        let tr = Tracer::enabled();
        tr.span("s", Category::Copy, TrackId::new(2, 3), t(0), t(10));
        let path = std::env::temp_dir().join("ioat_telemetry_test_trace.json");
        write_chrome_trace(&path, &tr).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, chrome_trace_json(&tr));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn events_csv_rows() {
        let tr = Tracer::enabled();
        tr.span("s", Category::Copy, TrackId::new(0, 1), t(5), t(9));
        tr.counter("c", Category::Io, TrackId::new(1, 0), t(7), 2.5);
        let csv = tr.with_events(events_csv);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "s,copy,0,1,span,5,9,");
        assert_eq!(lines[2], "c,io,1,0,counter,7,7,2.5");
    }
}
