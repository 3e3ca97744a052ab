//! `brisk-query` — query, aggregate and compact a durable trace store.
//!
//! Companion tool to `brisk-ismd --store-dir`: everything it does runs
//! against the store directory on disk, concurrently with a live writer.
//! `brisk-query --help` lists every flag.
//!
//! Modes (mutually exclusive; default prints matching records):
//!
//! * *select* — print records matching the time-range × node × sensor
//!   predicate (`--node` and `--sensor` repeat to match several ids).
//!   Zone-map sidecars prune segments that provably hold no
//!   match, so a narrow query reads a fraction of the store; `--stats`
//!   shows exactly how many segments were pruned vs scanned.
//! * `--window-ms N` — windowed aggregation over the matching records:
//!   per-window record count, rate, and mean/p50/p95/p99 of inter-arrival
//!   gaps (or of numeric field `K` with `--field K`), from the same
//!   log2-bucket histograms the live telemetry uses.
//! * `--chain ID` — walk the CRE reason/conseq links starting from
//!   correlation id `ID` (decimal or 0xHEX) across the matching records
//!   and print the causal chain, indented by depth.
//! * `--compact` — rewrite cold sealed segments into the
//!   descriptor-dictionary delta format (readable transparently by every
//!   reader); `--keep-hot N` leaves the N newest sealed segments plain.
//!
//! Exit status: 0 on success (even when nothing matches), 2 on usage
//! errors, 1 on store errors.

use brisk::cli::{on, put, val, Flag, Verdict};
use brisk::prelude::*;
use std::io::Write;
use std::path::PathBuf;

/// The query's flags land in its `Predicate` and `CompactConfig`; the mode
/// and output shape live beside them.
#[derive(Default)]
struct Args {
    dir: PathBuf,
    pred: Predicate,
    compact_cfg: CompactConfig,
    limit: Option<usize>,
    stats: bool,
    window_ms: Option<u64>,
    field: Option<usize>,
    chain: Option<u64>,
    max_links: usize,
    compact: bool,
}

/// A correlation id, decimal or `0x` hex.
fn parse_id(s: &str) -> std::result::Result<u64, std::num::ParseIntError> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
}

#[rustfmt::skip]
const FLAGS: &[Flag<Args>] = &[
    ("DIR", "", |a, v| put(&mut a.dir, val(v))),
    ("--from-us", "N", |a, v| put(&mut a.pred.from, val(v).map(UtcMicros::from_micros).map(Some))),
    ("--to-us", "N", |a, v| put(&mut a.pred.to, val(v).map(UtcMicros::from_micros).map(Some))),
    ("--node", "N", |a, v| { a.pred = std::mem::take(&mut a.pred).node(val(v)?); Ok(()) }),
    ("--sensor", "N", |a, v| { a.pred = std::mem::take(&mut a.pred).sensor(val(v)?); Ok(()) }),
    ("--limit", "N", |a, v| put(&mut a.limit, val(v).map(Some))),
    ("--stats", "", |a, _| on(&mut a.stats)),
    ("--window-ms", "N", |a, v| put(&mut a.window_ms, val(v).map(Some))),
    ("--field", "K", |a, v| put(&mut a.field, val(v).map(Some))),
    ("--chain", "ID", |a, v| put(&mut a.chain, parse_id(v).map(Some))),
    ("--max-links", "N", |a, v| put(&mut a.max_links, val(v))),
    ("--compact", "", |a, _| on(&mut a.compact)),
    ("--keep-hot", "N", |a, v| put(&mut a.compact_cfg.keep_hot, val(v))),
    ("--block-records", "N", |a, v| put(&mut a.compact_cfg.block_records, val(v))),
];

/// Cross-flag rules: one store, one mode.
fn check(a: &Args) -> Verdict {
    if a.dir.as_os_str().is_empty() {
        return Err("missing store directory (see --help)".into());
    }
    if a.field.is_some() && a.window_ms.is_none() {
        return Err("--field only makes sense with --window-ms".into());
    }
    if a.compact && (a.window_ms.is_some() || a.chain.is_some()) {
        return Err("--compact is a mode of its own".into());
    }
    Ok(())
}

fn run(args: &Args) -> Result<()> {
    // Buffered, error-propagating stdout: piping into `head` closes the
    // pipe mid-listing, and that must end the program quietly (see
    // `main`), not panic the way `println!` would.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    if args.compact {
        let compactor = Compactor::new(&args.dir, args.compact_cfg.clone());
        let report = compactor.run_once()?;
        writeln!(
            out,
            "compacted {} segments ({} skipped): {} -> {} bytes",
            report.compacted, report.skipped, report.bytes_before, report.bytes_after
        )?;
        out.flush()?;
        return Ok(());
    }

    let reader = StoreReader::open(&args.dir)?;
    let (hit, report) = reader.query(&args.pred)?;
    if args.stats {
        eprintln!(
            "brisk-query: {} records matched; {} segments total, {} pruned, \
             {} scanned, {} evicted mid-scan",
            report.records_matched,
            report.segments_total,
            report.segments_pruned,
            report.segments_scanned,
            report.evicted_under_scan,
        );
    }

    if let Some(window_ms) = args.window_ms {
        let source = match args.field {
            Some(k) => AggSource::Field(k),
            None => AggSource::Gaps,
        };
        let what = match args.field {
            Some(k) => format!("field[{k}]"),
            None => "gap_us".into(),
        };
        writeln!(out, "window_start_us count rate_hz {what}:mean p50 p95 p99")?;
        for w in windowed_aggregate(&hit.records, window_ms as i64 * 1000, source) {
            writeln!(
                out,
                "{} {} {:.1} {:.1} {} {} {}",
                w.start.as_micros(),
                w.count,
                w.rate_hz,
                w.mean,
                w.p50,
                w.p95,
                w.p99
            )?;
        }
        out.flush()?;
        return Ok(());
    }

    if let Some(id) = args.chain {
        let chain = causal_chain(&hit.records, CorrelationId(id), args.max_links);
        if chain.is_empty() {
            writeln!(out, "no events linked to correlation id {id:#x}")?;
        }
        for ev in &chain {
            writeln!(
                out,
                "{:indent$}[{}] {}",
                "",
                ev.depth,
                ev.record,
                indent = ev.depth as usize * 2
            )?;
        }
        out.flush()?;
        return Ok(());
    }

    let shown = args.limit.unwrap_or(usize::MAX);
    for rec in hit.records.iter().take(shown) {
        writeln!(out, "{rec}")?;
    }
    out.flush()?;
    if hit.records.len() > shown {
        eprintln!("brisk-query: output truncated at {shown} (use --limit)");
    }
    Ok(())
}

fn main() {
    let defaults = Args {
        max_links: 1000,
        ..Args::default()
    };
    let args = brisk::cli::parse_env("brisk-query", FLAGS, defaults, check);
    if let Err(e) = run(&args) {
        // A downstream pager/`head` closing the pipe is a normal way to
        // stop reading, not an error.
        if let BriskError::Io(io) = &e {
            if io.kind() == std::io::ErrorKind::BrokenPipe {
                return;
            }
        }
        eprintln!("brisk-query: {e}");
        std::process::exit(1);
    }
}
