//! `xbgp-lint` — lint xBGP extension assembly before deployment.
//!
//! ```text
//! xbgp-lint [options] <file.s>...
//!
//!   --point <name>        insertion point for files without shipped
//!                         context (bgp_receive_message, bgp_inbound_filter,
//!                         bgp_decision, bgp_outbound_filter,
//!                         bgp_encode_message); default bgp_inbound_filter
//!   --helpers <a,b,...>   helper whitelist by name; default: all helpers
//!   --define NAME=VAL     prepend `.equ NAME, VAL` (repeatable)
//!   --quiet               warnings only: suppress the per-file ok summary
//!                         and the per-update and update-group verdicts
//! ```
//!
//! Files whose stem matches a shipped program (`rov_check.s`, …) are
//! linted under that program's manifest context — same insertion point,
//! same helper whitelist — unless `--point`/`--helpers` override it.
//! A program at `bgp_inbound_filter` or `bgp_outbound_filter` gets one
//! line saying whether one run of it can answer for every route of an
//! UPDATE (`per-update: …`) or which granted helper prevents that
//! (`per-route: grants get_prefix`).
//! A program at `bgp_outbound_filter` or `bgp_encode_message` also gets
//! one line saying whether its runs can be shared by an update-group
//! (`groupable: reads {type, flags}`) or what defeats that (`per-peer:
//! get_peer_info pointer escapes at pc 4`, `per-peer: declares
//! ctx_shared_get`).
//! Exit status: 0 when every file is error-free (warnings do not fail
//! the run), 1 otherwise, 2 on usage errors.

use std::collections::HashSet;
use std::path::Path;
use std::process::ExitCode;

use xbgp_core::api::{helper, InsertionPoint};
use xbgp_lint::{lint, shipped_context, LintTarget};

fn usage(msg: &str) -> ExitCode {
    eprintln!("xbgp-lint: {msg}");
    eprintln!("usage: xbgp-lint [--point <name>] [--helpers a,b,...] [--define NAME=VAL]... [--quiet] <file.s>...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut point: Option<InsertionPoint> = None;
    let mut helpers: Option<HashSet<u32>> = None;
    let mut defines: Vec<(String, i64)> = Vec::new();
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--point" => {
                let Some(name) = args.next() else {
                    return usage("--point needs a value");
                };
                match InsertionPoint::from_name(&name) {
                    Some(p) => point = Some(p),
                    None => return usage(&format!("unknown insertion point `{name}`")),
                }
            }
            "--helpers" => {
                let Some(list) = args.next() else {
                    return usage("--helpers needs a value");
                };
                let mut ids = HashSet::new();
                for name in list.split(',').filter(|s| !s.is_empty()) {
                    match helper::id_of(name) {
                        Some(id) => {
                            ids.insert(id);
                        }
                        None => return usage(&format!("unknown helper `{name}`")),
                    }
                }
                helpers = Some(ids);
            }
            "--define" => {
                let Some(kv) = args.next() else {
                    return usage("--define needs NAME=VAL");
                };
                let Some((name, val)) = kv.split_once('=') else {
                    return usage(&format!("bad --define `{kv}` (want NAME=VAL)"));
                };
                let Ok(val) = val.parse::<i64>() else {
                    return usage(&format!("bad --define value in `{kv}`"));
                };
                defines.push((name.to_string(), val));
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: xbgp-lint [--point <name>] [--helpers a,b,...] \
                     [--define NAME=VAL]... [--quiet] <file.s>..."
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage(&format!("unknown option `{arg}`")),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return usage("no input files");
    }

    let mut failed = false;
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: error: {e}");
                failed = true;
                continue;
            }
        };
        let stem = Path::new(file).file_stem().and_then(|s| s.to_str()).unwrap_or(file);
        let ctx = shipped_context(stem);
        let target = LintTarget {
            name: file.clone(),
            source,
            point: point
                .or(ctx.as_ref().map(|c| c.point))
                .unwrap_or(InsertionPoint::BgpInboundFilter),
            helpers: helpers.clone().or(ctx.as_ref().map(|c| c.helpers.clone())),
            defines: if defines.is_empty() {
                ctx.map(|c| c.defines).unwrap_or_default()
            } else {
                defines.clone()
            },
        };
        let report = lint(&target);
        if !report.clean() {
            failed = true;
        }
        let text = report.to_string();
        if report.clean() && quiet {
            for line in text.lines().filter(|l| l.contains(": warning: ")) {
                println!("{line}");
            }
        } else {
            print!("{text}");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
