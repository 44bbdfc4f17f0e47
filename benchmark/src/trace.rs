//! The harness-local span recorder of the traced pass.
//!
//! Spans are recorded around the calls into each layer (spans *inside*
//! the program are a later change, ROADMAP item 2), kept in memory, and
//! written as Chrome trace-event JSON when the run ends — load the file
//! in `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::json::{obj, Json};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`workload`, `setup`, `step`, `probe.dycore.rk_scalar_tend`, ...).
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repeat the span belongs to.
    pub repeat: Option<usize>,
    /// Step (operation index within the repeat) the span belongs to.
    pub step: Option<usize>,
    /// Numbers the program reported for this span (`dyn_ms`, `sbm_ms`, ...).
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder. A disabled recorder records nothing and
/// allocates nothing, so the untraced pass runs the same harness code.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    workload: String,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder for `workload`; `enabled = false` makes every call a no-op.
    pub fn new(workload: &str, enabled: bool) -> Self {
        Recorder {
            enabled,
            workload: workload.to_string(),
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, repeat: Option<usize>, step: Option<usize>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            repeat,
            step,
            args: Vec::new(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost-first"
        );
        self.spans[idx].end_ns = self.now_ns().max(self.spans[idx].start_ns);
    }

    /// Attaches a program-reported number to an open or closed span.
    pub fn arg(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(idx) = id.0 {
            self.spans[idx].args.push((key, value));
        }
    }

    /// Records `f` as one span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None, None);
        let out = f();
        self.close(id);
        out
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of it its
    /// direct children cover (children of one parent never overlap).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum();
        self.spans[idx].dur_ns().saturating_sub(covered)
    }

    /// Checks the tree shape: every span is closed, lies inside its
    /// parent, and siblings do not overlap.
    pub fn well_nested(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} span(s) still open", self.stack.len()));
        }
        let mut last_end: Vec<u64> = vec![0; self.spans.len() + 1];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} `{}` ends before it starts", s.name));
            }
            let slot = match s.parent {
                Some(p) => {
                    let ps = &self.spans[p];
                    if p >= i || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                        return Err(format!(
                            "span {i} `{}` escapes its parent `{}`",
                            s.name, ps.name
                        ));
                    }
                    p + 1
                }
                None => 0,
            };
            if s.start_ns < last_end[slot] {
                return Err(format!("span {i} `{}` overlaps a sibling", s.name));
            }
            last_end[slot] = s.end_ns;
        }
        Ok(())
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// span, microsecond timestamps, self time and context in `args`.
    pub fn chrome_json(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("workload".to_string(), Json::from(self.workload.as_str())),
                    (
                        "self_us".to_string(),
                        Json::Num(self.self_ns(i) as f64 / 1e3),
                    ),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), self.spans[p].name.as_str().into()));
                }
                if let Some(r) = s.repeat {
                    args.push(("repeat".into(), r.into()));
                }
                if let Some(st) = s.step {
                    args.push(("step".into(), st.into()));
                }
                for (k, v) in &s.args {
                    args.push((k.to_string(), Json::Num(*v)));
                }
                obj([
                    ("name", s.name.as_str().into()),
                    ("cat", self.workload.as_str().into()),
                    ("ph", "X".into()),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", 1usize.into()),
                    ("tid", 1usize.into()),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        obj([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", events.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recorder with hand-placed spans so the arithmetic is exact.
    fn fixed() -> Recorder {
        let mut r = Recorder::new("w", true);
        let mk = |name: &str, a, b, parent| Span {
            name: name.into(),
            start_ns: a,
            end_ns: b,
            parent,
            repeat: None,
            step: None,
            args: vec![],
        };
        r.spans = vec![
            mk("workload", 0, 1000, None),
            mk("setup", 10, 300, Some(0)),
            mk("case_init", 20, 120, Some(1)),
            mk("table_build", 120, 250, Some(1)),
            mk("step", 300, 900, Some(0)),
            mk("verify", 900, 990, Some(0)),
        ];
        r
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = fixed();
        assert_eq!(r.self_ns(0), 1000 - (290 + 600 + 90));
        assert_eq!(r.self_ns(1), 290 - (100 + 130));
        assert_eq!(r.self_ns(4), 600);
        r.well_nested().unwrap();
    }

    #[test]
    fn nesting_violations_are_named() {
        let mut r = fixed();
        r.spans[2].end_ns = 400; // child outlives `setup`
        assert!(r.well_nested().unwrap_err().contains("escapes"));
        let mut r = fixed();
        r.spans[3].start_ns = 100; // overlaps its sibling `case_init`
        assert!(r.well_nested().unwrap_err().contains("overlaps"));
    }

    #[test]
    fn live_spans_nest_and_disabled_records_nothing() {
        let mut r = Recorder::new("w", true);
        let w = r.open("workload", None, None);
        let s = r.open("step", Some(0), Some(3));
        r.arg(s, "dyn_ms", 1.5);
        r.close(s);
        r.span("verify", || ());
        r.close(w);
        r.well_nested().unwrap();
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].step, Some(3));
        assert_eq!(r.spans()[2].parent, Some(0));

        let mut off = Recorder::new("w", false);
        let id = off.open("workload", None, None);
        off.arg(id, "x", 1.0);
        off.close(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let r = fixed();
        let doc = Json::parse(&r.chrome_json().render()).unwrap();
        let ev = doc.get("traceEvents").unwrap().items();
        assert_eq!(ev.len(), 6);
        assert_eq!(ev[2].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(ev[2].get("dur").and_then(Json::as_f64), Some(0.1));
        let args = ev[2].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("setup"));
        assert_eq!(args.get("self_us").and_then(Json::as_f64), Some(0.1));
    }
}
