//! In-memory span recorder around the benchmark's calls into the program,
//! written out as a Chrome trace (`chrome://tracing`, Perfetto) when the
//! run ends. Spans are only kept when the recorder is armed; disarmed, a
//! span costs one `Instant` read and nothing is stored.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, matching the per-layer metric it feeds.
    pub name: &'static str,
    /// What the call did (`"qr 8x8 x8000"`).
    pub label: String,
    pub start_us: f64,
    pub dur_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Counters the call returned, joined onto its span.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration minus the simulator launch time the span contains.
    pub fn self_us(&self) -> f64 {
        let launch_us = self
            .args
            .iter()
            .find(|(k, _)| *k == "launch_s")
            .map_or(0.0, |(_, v)| v * 1e6);
        self.dur_us - launch_us
    }
}

#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    armed: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            armed: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn arm(&mut self, on: bool) {
        self.armed = on;
    }

    pub fn armed(&self) -> bool {
        self.armed
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds since the recorder was created.
    pub fn now_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Open an enclosing span (a pass); close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, label: String) {
        if self.armed {
            let start_us = self.now_s() * 1e6;
            self.spans.push(Span {
                name,
                label,
                start_us,
                dur_us: 0.0,
                parent: self.open.last().copied(),
                args: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn close(&mut self) {
        if self.armed {
            if let Some(i) = self.open.pop() {
                self.spans[i].dur_us = self.now_s() * 1e6 - self.spans[i].start_us;
            }
        }
    }

    /// Record a finished leaf span that started at `start_s` and lasted
    /// `dur_s` (both in recorder seconds).
    pub fn leaf(
        &mut self,
        name: &'static str,
        label: impl FnOnce() -> String,
        start_s: f64,
        dur_s: f64,
        args: Vec<(&'static str, f64)>,
    ) {
        if self.armed {
            self.spans.push(Span {
                name,
                label: label(),
                start_us: start_s * 1e6,
                dur_us: dur_s * 1e6,
                parent: self.open.last().copied(),
                args,
            });
        }
    }

    /// The spans as a Chrome trace document: one complete (`"X"`) event
    /// per span on one thread track, with its counters and self time as
    /// arguments.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"self_us\":{:.3}",
                if i == 0 { "" } else { ",\n" },
                escape(&sp.label),
                sp.name,
                sp.start_us,
                sp.dur_us,
                sp.parent.map_or(-1, |p| p as i64),
                sp.self_us(),
            );
            for (k, v) in &sp.args {
                let _ = write!(s, ",\"{k}\":{}", json_num(*v));
            }
            s.push_str("}}");
        }
        s.push_str("\n]}\n");
        s
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// A finite JSON number (non-finite values become 0, which JSON cannot
/// otherwise carry).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_recorder_keeps_nothing() {
        let mut r = Recorder::new();
        r.open("bench.pass", "p".into());
        r.leaf("core.session", || "x".into(), 0.0, 1.0, vec![]);
        r.close();
        assert!(r.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_launch_time_and_export_nests() {
        let mut r = Recorder::new();
        r.arm(true);
        r.open("bench.pass", "pass 0".into());
        r.leaf(
            "core.session",
            || "qr \"8x8\"".into(),
            0.0,
            2.0,
            vec![("launch_s", 1.5)],
        );
        r.close();
        let s = &r.spans()[1];
        assert_eq!(s.parent, Some(0));
        assert!((s.self_us() - 0.5e6).abs() < 1e-6);
        let doc = r.chrome_json();
        assert!(doc.contains("\"name\":\"qr \\\"8x8\\\"\""));
        assert!(doc.contains("\"parent\":0"));
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
    }
}
