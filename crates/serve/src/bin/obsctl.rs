//! obsctl — live introspection client for a running ls-serve TCP server.
//!
//! Speaks the admin frames of `ls_serve::proto` over the same port as the
//! ranking protocol, so any serving process is inspectable with no extra
//! listener:
//!
//! ```text
//! obsctl <host:port> metrics    # metrics snapshot, with histogram exemplars
//! obsctl <host:port> state     # queue / pool / cache / breaker state
//! obsctl <host:port> traces    # in-flight traced requests + stage progress
//! obsctl <host:port> recorder  # flight-recorder ring contents
//! ```
//!
//! Output is the server's JSON, pretty-printed; `--raw` prints it compact
//! (one line, suitable for piping into other tooling).

use ls_obs::{emit_json_str, Json};
use ls_serve::{AdminCommand, TcpRankClient};
use std::fmt::Write as _;

fn usage() -> ! {
    eprintln!("usage: obsctl <host:port> <metrics|state|traces|recorder> [--raw]");
    std::process::exit(2);
}

/// Compact JSON emit (BTreeMap keys give deterministic field order).
fn emit(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(n) => {
            if n.is_finite() {
                let _ = write!(out, "{n}");
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => emit_json_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(out, item);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_json_str(out, k);
                out.push(':');
                emit(out, item);
            }
            out.push('}');
        }
    }
}

/// Pretty emit: objects and arrays of objects go multi-line, scalar arrays
/// stay inline so histograms remain readable.
fn emit_pretty(out: &mut String, v: &Json, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Json::Arr(items)
            if items
                .iter()
                .any(|i| matches!(i, Json::Obj(_) | Json::Arr(_))) =>
        {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                emit_pretty(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in map.iter().enumerate() {
                out.push_str(&pad_in);
                emit_json_str(out, k);
                out.push_str(": ");
                emit_pretty(out, item, indent + 1);
                if i + 1 < map.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
        other => emit(out, other),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let raw = argv.iter().any(|a| a == "--raw");
    let pos: Vec<&String> = argv.iter().filter(|a| !a.starts_with("--")).collect();
    let (addr, kw) = match pos.as_slice() {
        [addr, kw] => (addr.as_str(), kw.as_str()),
        _ => usage(),
    };
    let Some(cmd) = AdminCommand::from_keyword(kw) else {
        eprintln!("unknown command {kw:?}");
        usage();
    };
    let mut client = match TcpRankClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("obsctl: connect {addr}: {e}");
            std::process::exit(1);
        }
    };
    match client.admin(cmd) {
        Ok(doc) => {
            let mut out = String::new();
            if raw {
                emit(&mut out, &doc);
            } else {
                emit_pretty(&mut out, &doc, 0);
            }
            println!("{out}");
        }
        Err(e) => {
            eprintln!("obsctl: {kw}: {e}");
            std::process::exit(1);
        }
    }
}
