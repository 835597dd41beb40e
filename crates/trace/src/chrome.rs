//! Chrome `trace_event` JSON builder, loadable in `chrome://tracing`
//! and <https://ui.perfetto.dev>.
//!
//! Only the subset of the format the runner needs: complete events
//! (`ph:"X"`, microsecond `ts`/`dur`), instant events (`ph:"i"`), and
//! metadata records naming processes and threads.

use crate::json::escape;

fn render_args(args: &[(String, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
    }
    s.push('}');
    s
}

#[derive(Debug, Clone)]
enum Record {
    Complete {
        name: String,
        cat: String,
        pid: u64,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(String, String)>,
    },
    Instant {
        name: String,
        cat: String,
        pid: u64,
        tid: u64,
        ts_us: u64,
        args: Vec<(String, String)>,
    },
    Meta {
        name: String,
        pid: u64,
        tid: u64,
        value: String,
    },
}

impl Record {
    fn to_json(&self) -> String {
        match self {
            Record::Complete {
                name,
                cat,
                pid,
                tid,
                ts_us,
                dur_us,
                args,
            } => format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"dur\":{dur_us},\"args\":{}}}",
                escape(name),
                escape(cat),
                render_args(args),
            ),
            Record::Instant {
                name,
                cat,
                pid,
                tid,
                ts_us,
                args,
            } => format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"args\":{}}}",
                escape(name),
                escape(cat),
                render_args(args),
            ),
            Record::Meta {
                name,
                pid,
                tid,
                value,
            } => format!(
                "{{\"name\":\"{}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                escape(name),
                escape(value),
            ),
        }
    }
}

/// Incremental builder for a Chrome `trace_event` JSON document.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    records: Vec<Record>,
}

impl ChromeTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names a process track (`ph:"M"`, `process_name`).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.records.push(Record::Meta {
            name: "process_name".to_string(),
            pid,
            tid: 0,
            value: name.to_string(),
        });
    }

    /// Names a thread track (`ph:"M"`, `thread_name`).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.records.push(Record::Meta {
            name: "thread_name".to_string(),
            pid,
            tid,
            value: name.to_string(),
        });
    }

    /// Adds a complete span (`ph:"X"`); `ts`/`dur` in microseconds.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: &[(&str, &str)],
    ) {
        self.records.push(Record::Complete {
            name: name.to_string(),
            cat: cat.to_string(),
            pid,
            tid,
            ts_us,
            dur_us,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Adds an instant event (`ph:"i"`, thread-scoped).
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: u64,
        args: &[(&str, &str)],
    ) {
        self.records.push(Record::Instant {
            name: name.to_string(),
            cat: cat.to_string(),
            pid,
            tid,
            ts_us,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Number of records added so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records have been added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the full document: `{"traceEvents":[...]}`.
    pub fn render(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.to_json());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn renders_valid_parseable_trace() {
        let mut t = ChromeTrace::new();
        t.process_name(1, "seesaw runner");
        t.thread_name(1, 2, "worker 1");
        t.complete("fig7 \"cell\"", "cell", 1, 2, 10, 250, &[("memo", "miss")]);
        t.instant("memo hit", "memo", 1, 2, 300, &[]);
        let doc = Json::parse(&t.render()).expect("self-render must parse");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 4);
        let span = &events[2];
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            span.get("name").and_then(Json::as_str),
            Some("fig7 \"cell\"")
        );
        assert_eq!(span.get("ts").and_then(Json::as_u64), Some(10));
        assert_eq!(span.get("dur").and_then(Json::as_u64), Some(250));
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("memo"))
                .and_then(Json::as_str),
            Some("miss")
        );
        assert_eq!(events[3].get("ph").and_then(Json::as_str), Some("i"));
    }
}
