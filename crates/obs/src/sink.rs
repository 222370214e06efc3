//! Output sinks: the JSON-Lines exporter and the stderr summary reporter.

use crate::json::{emit_f64, emit_str};
use crate::metrics::{registry, RegistrySnapshot};
use crate::span::FieldValue;
use crate::Level;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

static JSONL_ACTIVE: AtomicBool = AtomicBool::new(false);
static JSONL: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Lock a mutex, recovering the guard if a panicking thread poisoned it —
/// telemetry must stay usable from panic hooks, where poisoning is routine.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Is the JSONL sink installed? One relaxed atomic load.
#[inline]
pub fn jsonl_active() -> bool {
    JSONL_ACTIVE.load(Ordering::Relaxed)
}

/// Stream telemetry records to a JSON-Lines file (truncates any existing
/// file at `path`).
pub fn init_jsonl(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    init_jsonl_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// Stream telemetry records to an arbitrary writer (used by tests to
/// capture output in memory).
pub fn init_jsonl_writer(writer: Box<dyn Write + Send>) {
    *JSONL.lock().unwrap() = Some(writer);
    JSONL_ACTIVE.store(true, Ordering::Relaxed);
}

/// Honour `LS_OBS_JSONL=<path>` if set (called from the level cache init).
pub(crate) fn init_jsonl_from_env() {
    if jsonl_active() {
        return;
    }
    if let Some(path) = std::env::var_os("LS_OBS_JSONL") {
        if let Some(path) = path.to_str() {
            if let Err(e) = init_jsonl(path) {
                eprintln!("[ls-obs] cannot open LS_OBS_JSONL={path}: {e}");
            }
        }
    }
}

/// Detach and return the JSONL writer (tests use this to inspect captured
/// bytes; harnesses use it to cleanly close the file).
pub fn take_jsonl_writer() -> Option<Box<dyn Write + Send>> {
    JSONL_ACTIVE.store(false, Ordering::Relaxed);
    JSONL.lock().unwrap().take()
}

fn write_line(line: &str) {
    let mut guard = JSONL.lock().unwrap();
    if let Some(w) = guard.as_mut() {
        let _ = writeln!(w, "{line}");
    }
}

fn unix_micros() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros())
        .unwrap_or(0)
}

/// Emit a span-close record. Called from `Span::drop`.
pub(crate) fn write_span(
    name: &str,
    id: u64,
    parent: u64,
    trace: u64,
    secs: f64,
    fields: &[(&'static str, FieldValue)],
) {
    if !jsonl_active() {
        return;
    }
    let mut line = String::with_capacity(128);
    line.push_str("{\"t\":\"span\",\"name\":");
    emit_str(&mut line, name);
    let _ = write!(
        line,
        ",\"id\":{id},\"parent\":{parent},\"us\":{:.0},\"ts_us\":{}",
        secs * 1e6,
        unix_micros()
    );
    if trace != 0 {
        // Hex string, not a JSON number: the parser's numbers are f64 and
        // would silently round 64-bit trace ids.
        let _ = write!(line, ",\"trace\":\"{trace:016x}\"");
    }
    if !fields.is_empty() {
        line.push_str(",\"fields\":{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            emit_str(&mut line, k);
            line.push(':');
            match v {
                FieldValue::U64(n) => {
                    let _ = write!(line, "{n}");
                }
                FieldValue::I64(n) => {
                    let _ = write!(line, "{n}");
                }
                FieldValue::F64(n) => emit_f64(&mut line, *n),
                FieldValue::Bool(b) => {
                    let _ = write!(line, "{b}");
                }
                FieldValue::Str(s) => emit_str(&mut line, s),
            }
        }
        line.push('}');
    }
    line.push('}');
    write_line(&line);
}

fn snapshot_json(snap: &RegistrySnapshot) -> String {
    let mut line = String::with_capacity(512);
    let _ = write!(
        line,
        "{{\"t\":\"metrics\",\"ts_us\":{},\"counters\":{{",
        unix_micros()
    );
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        emit_str(&mut line, name);
        let _ = write!(line, ":{value}");
    }
    line.push_str("},\"gauges\":{");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        emit_str(&mut line, name);
        line.push(':');
        emit_f64(&mut line, *value);
    }
    line.push_str("},\"histograms\":{");
    for (i, (name, st, exemplars)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        emit_str(&mut line, name);
        let _ = write!(line, ":{{\"count\":{},\"sum\":", st.count);
        emit_f64(&mut line, st.sum);
        line.push_str(",\"mean\":");
        emit_f64(&mut line, st.mean);
        line.push_str(",\"min\":");
        emit_f64(&mut line, st.min);
        line.push_str(",\"max\":");
        emit_f64(&mut line, st.max);
        line.push_str(",\"p50\":");
        emit_f64(&mut line, st.p50);
        line.push_str(",\"p90\":");
        emit_f64(&mut line, st.p90);
        line.push_str(",\"p99\":");
        emit_f64(&mut line, st.p99);
        if !exemplars.is_empty() {
            line.push_str(",\"exemplars\":[");
            for (j, (value, trace)) in exemplars.iter().enumerate() {
                if j > 0 {
                    line.push(',');
                }
                line.push_str("{\"value\":");
                emit_f64(&mut line, *value);
                let _ = write!(line, ",\"trace\":\"{trace:016x}\"}}");
            }
            line.push(']');
        }
        line.push('}');
    }
    line.push_str("},\"meters\":{");
    for (i, (name, (count, rate))) in snap.meters.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        emit_str(&mut line, name);
        let _ = write!(line, ":{{\"count\":{count},\"per_sec\":");
        emit_f64(&mut line, *rate);
        line.push('}');
    }
    line.push_str("}}");
    line
}

/// One metrics-snapshot record as a JSON object string — the same shape the
/// JSONL sink emits, exposed so the serving admin protocol can answer
/// metrics queries without owning a second serializer.
pub fn metrics_json() -> String {
    snapshot_json(&registry().snapshot())
}

/// Write a metrics-snapshot record to the JSONL sink (if active) and flush.
pub fn flush() {
    if jsonl_active() {
        let line = snapshot_json(&registry().snapshot());
        write_line(&line);
    }
    let mut guard = JSONL.lock().unwrap();
    if let Some(w) = guard.as_mut() {
        let _ = w.flush();
    }
}

/// Histograms that record counts, not seconds: the summary prints their
/// values as plain numbers (metrics carry no unit of their own yet).
const COUNT_HISTOGRAMS: &[&str] = &[
    "serve.batch_items",
    "serve.evloop.ready_per_wake",
    "provenance.clauses_per_lineage",
];

fn fmt_count(v: f64) -> String {
    format!("{v:.2}")
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Human-readable metrics summary (all registered metrics, alphabetical).
pub fn summary() -> String {
    let snap = registry().snapshot();
    let mut out = String::new();
    out.push_str("== ls-obs metrics summary ==\n");
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {name:<44} {value}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &snap.gauges {
            let _ = writeln!(out, "  {name:<44} {value:.6}");
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms (secs; counts for count metrics):\n");
        for (name, st, _exemplars) in &snap.histograms {
            if st.count == 0 {
                continue;
            }
            let fmt = if COUNT_HISTOGRAMS.contains(name) {
                fmt_count
            } else {
                fmt_secs
            };
            let _ = writeln!(
                out,
                "  {name:<44} n={:<7} mean={:<9} p50={:<9} p90={:<9} p99={:<9} max={}",
                st.count,
                fmt(st.mean),
                fmt(st.p50),
                fmt(st.p90),
                fmt(st.p99),
                fmt(st.max),
            );
        }
    }
    if !snap.meters.is_empty() {
        out.push_str("meters:\n");
        for (name, (count, rate)) in &snap.meters {
            let _ = writeln!(out, "  {name:<44} n={count:<10} rate={rate:.1}/s");
        }
    }
    out
}

/// Print the summary to stderr when `LS_OBS` is at `summary` or higher,
/// flush the JSONL sink, and dump the flight recorder to its configured
/// path (if any) so clean exits leave a recording too. Call once at the
/// end of a run.
pub fn report() {
    flush();
    crate::recorder::dump_to_configured();
    if crate::level() >= Level::Summary {
        eprint!("{}", summary());
    }
}
