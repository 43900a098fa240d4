//! Host-time spans recorded around the benchmark's own calls into each
//! layer, kept in memory and exported as Chrome-trace JSON at the end.
//!
//! A span's *self time* is its duration minus the time its direct child
//! spans cover; summed per layer, self times partition the recorded root
//! spans exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`paper_stream.pass`, `bandwidth/ioat`, ...).
    pub name: String,
    /// The crate whose entry point ran, or `bench` for harness work.
    pub layer: &'static str,
    /// Start, host ns since the recorder was created.
    pub start_ns: u64,
    /// End, host ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, host ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. When off, [`Spans::span`] only calls its closure.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder, recording only when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Self time of every span, ns, indexed like [`Spans::spans`].
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time summed per layer, seconds.
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *by.entry(s.layer).or_insert(0.0) += ns as f64 * 1e-9;
        }
        by
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// (`X`) event per span, with its layer as the category and its
    /// parent's index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                escape(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {}
    }

    #[test]
    fn self_times_partition_the_root() {
        let mut sp = Spans::new(true);
        sp.span("root", "bench", |sp| {
            spin(200);
            sp.span("child", "core", |_| spin(300));
        });
        let own = sp.self_ns();
        let root = &sp.spans()[0];
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert_eq!(own.iter().sum::<u64>(), root.end_ns - root.start_ns);
        let by = sp.self_s_by_layer();
        assert!(by["core"] > 0.0002 && by["bench"] > 0.0001);
    }

    #[test]
    fn off_records_nothing_and_json_escapes() {
        let mut sp = Spans::new(false);
        assert_eq!(sp.span("x", "bench", |_| 7), 7);
        assert!(sp.spans().is_empty());
        sp.set_on(true);
        sp.span("a\"b", "bench", |_| ());
        assert!(sp.chrome_json().contains("a\\\"b"));
    }
}
