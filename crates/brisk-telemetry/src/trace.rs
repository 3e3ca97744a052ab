//! Self-tracing observability: the trace sampler, per-stage latency
//! histograms with exemplar trace-ids, and the always-on flight recorder.
//!
//! This module deliberately works on *plain integers* (trace ids as `u64`,
//! stage codes as `u8`, timestamps as `i64` microseconds): `brisk-telemetry`
//! sits below `brisk-core` in the dependency order, so the typed
//! `TraceContext` lives there and the pipeline translates at the call
//! sites.
//!
//! Three pieces:
//!
//! * [`TraceSampler`] — decides, one-in-N per emitted record, whether a
//!   `NOTICE` gets an `X_TRACE` context, and mints SplitMix64 trace ids.
//! * [`StageLatencies`] — log₂ histograms of per-stage spans keyed by
//!   `(from, to)` stage pair, each bucket remembering an *exemplar*
//!   trace-id so a slow bucket can be turned into a concrete waterfall.
//! * [`FlightRecorder`] + [`flight_log!`](crate::flight_log) — a fixed-size
//!   lossy ring of recent structured events (quarantines, evictions,
//!   credit stalls, sheds, reconnects…), dumped on panic and served at
//!   `/flight` on the stats endpoint.

use crate::metrics::{bucket_of, bucket_upper, Histogram, HISTOGRAM_BUCKETS};
use crate::registry::Registry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// SplitMix64 mixing function: a high-quality 64-bit bijection, used both
/// to mint trace ids and by tests that need deterministic id streams.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decides which emitted records carry a trace context.
///
/// Sampling is a shared countdown: every call to [`TraceSampler::sample`]
/// takes one off it, and a call that finds it at one (or below, while
/// another call's fire is winding it up) fires and winds it up by N, so
/// a steady stream yields an unbiased 1-in-N regardless of which sensor
/// port the records come from, at one subtraction per call and no
/// division.
/// Ids are SplitMix64 outputs over a seeded counter — unique per sampler
/// lifetime and non-zero by construction (tools treat 0 as "no trace").
#[derive(Debug)]
pub struct TraceSampler {
    every: u64,
    /// Calls until the next fires, read as signed: the first call
    /// fires. Calls racing a fire take it to zero or below, fire too and
    /// wind it up as well, so racing can only sample early, never stall.
    left: AtomicU64,
    id_state: AtomicU64,
    /// Samples that *fired* but could not be attached (record already at
    /// the field limit). Kept here so ports can account for them without
    /// another registry dependency.
    full_skips: AtomicU64,
}

impl TraceSampler {
    /// Sampler firing one in every `every` calls; `0` never fires.
    /// The seed is drawn from the wall clock so concurrent processes mint
    /// disjoint id streams.
    pub fn new(every: u32) -> Self {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        TraceSampler::with_seed(every, seed)
    }

    /// Sampler with an explicit id seed (deterministic tests).
    pub fn with_seed(every: u32, seed: u64) -> Self {
        TraceSampler {
            every: every as u64,
            left: AtomicU64::new(1),
            id_state: AtomicU64::new(seed),
            full_skips: AtomicU64::new(0),
        }
    }

    /// Sampling enabled at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.every != 0
    }

    /// Count one emitted record; returns a fresh non-zero trace id when
    /// this record should carry a context.
    #[inline]
    pub fn sample(&self) -> Option<u64> {
        if self.every == 0 {
            return None;
        }
        if self.left.fetch_sub(1, Ordering::Relaxed) as i64 > 1 {
            return None;
        }
        self.left.fetch_add(self.every, Ordering::Relaxed);
        let s = self.id_state.fetch_add(1, Ordering::Relaxed);
        Some(splitmix64(s).max(1))
    }

    /// Record that a fired sample could not be attached (field limit).
    #[inline]
    pub fn note_full_skip(&self) {
        self.full_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples dropped because the record was already at the field limit.
    pub fn full_skips(&self) -> u64 {
        self.full_skips.load(Ordering::Relaxed)
    }
}

/// One stage-pair span histogram plus a per-bucket exemplar trace-id.
///
/// The exemplar is "last writer wins" per bucket — enough to hand a tool
/// *one* concrete trace id living in a slow bucket, which is all a
/// waterfall needs.
#[derive(Debug)]
pub struct ExemplarHistogram {
    hist: Arc<Histogram>,
    exemplars: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for ExemplarHistogram {
    fn default() -> Self {
        ExemplarHistogram {
            hist: Arc::new(Histogram::new()),
            exemplars: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
        }
    }
}

impl ExemplarHistogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        ExemplarHistogram::default()
    }

    /// The underlying histogram (shareable with a [`Registry`]).
    pub fn histogram(&self) -> &Arc<Histogram> {
        &self.hist
    }

    /// Record a span and stamp its bucket's exemplar.
    #[inline]
    pub fn record_with_exemplar(&self, v: u64, trace_id: u64) {
        self.hist.record(v);
        if trace_id != 0 {
            self.exemplars[bucket_of(v)].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Exemplar trace id for bucket `i`, if one was recorded.
    pub fn exemplar(&self, i: usize) -> Option<u64> {
        match self.exemplars[i].load(Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        }
    }

    /// The exemplar from the highest occupied bucket — the slowest
    /// recorded span with a known trace id.
    pub fn slowest_exemplar(&self) -> Option<(u64, u64)> {
        for i in (0..HISTOGRAM_BUCKETS).rev() {
            if let Some(id) = self.exemplar(i) {
                return Some((bucket_upper(i), id));
            }
        }
        None
    }
}

/// Registry of per-stage-pair span histograms, keyed by `(from, to)`
/// stage codes. The delivering thread feeds it by walking consecutive
/// trace stamps; scrape-side consumers read the exemplars as JSON.
pub struct StageLatencies {
    registry: Arc<Registry>,
    pairs: Mutex<HashMap<(u8, u8), Arc<ExemplarHistogram>>>,
}

impl StageLatencies {
    /// New set registering its histograms into `registry` as
    /// `brisk_trace_stage_us{from=..,to=..}`.
    pub fn new(registry: Arc<Registry>) -> Self {
        StageLatencies {
            registry,
            pairs: Mutex::new(HashMap::new()),
        }
    }

    /// The registry stage histograms are added to as new stage pairs are
    /// seen — and where an owner registers any other series that appears
    /// after binding.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Record one span between two named stages for `trace_id`.
    pub fn observe(
        &self,
        from: (u8, &'static str),
        to: (u8, &'static str),
        span_us: u64,
        trace_id: u64,
    ) {
        let mut pairs = self.pairs.lock().unwrap_or_else(|e| e.into_inner());
        let eh = pairs.entry((from.0, to.0)).or_insert_with(|| {
            let eh = Arc::new(ExemplarHistogram::new());
            self.registry.register_histogram(
                "brisk_trace_stage_us",
                "per-stage pipeline latency of traced records",
                &[("from", from.1), ("to", to.1)],
                eh.histogram(),
            );
            eh
        });
        eh.record_with_exemplar(span_us, trace_id);
    }

    /// Snapshot of every pair's exemplars as a JSON document:
    /// `{"stages":[{"from":..,"to":..,"exemplars":[{"le":..,"trace_id":..}]}]}`.
    ///
    /// Stage codes are rendered through `name`, supplied by the caller so
    /// this crate needs no knowledge of the stage enum.
    pub fn exemplars_json(&self, name: impl Fn(u8) -> &'static str) -> String {
        use std::fmt::Write as _;
        let pairs = self.pairs.lock().unwrap_or_else(|e| e.into_inner());
        let mut keys: Vec<(u8, u8)> = pairs.keys().copied().collect();
        keys.sort_unstable();
        let mut out = String::from("{\"stages\":[");
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let eh = &pairs[key];
            let _ = write!(
                out,
                "{{\"from\":\"{}\",\"to\":\"{}\",\"exemplars\":[",
                name(key.0),
                name(key.1)
            );
            let mut first = true;
            for b in 0..HISTOGRAM_BUCKETS {
                if let Some(id) = eh.exemplar(b) {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "{{\"le\":{},\"trace_id\":\"{id:016x}\"}}",
                        bucket_upper(b)
                    );
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// The slowest exemplar across every stage pair: `(span upper bound,
    /// trace id)`. What a tool wants when asked "show me a slow one".
    pub fn slowest_exemplar(&self) -> Option<(u64, u64)> {
        let pairs = self.pairs.lock().unwrap_or_else(|e| e.into_inner());
        pairs
            .values()
            .filter_map(|eh| eh.slowest_exemplar())
            .max_by_key(|&(le, _)| le)
    }
}

/// Severity of a flight-recorder event, most severe first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum FlightLevel {
    /// Data loss or protocol failure.
    Error = 0,
    /// Degradation the pipeline absorbed (shed, eviction, stall).
    Warn = 1,
    /// Notable state change (reconnect, rotation).
    Info = 2,
    /// Chatty diagnostics, off by default.
    Debug = 3,
}

impl FlightLevel {
    /// Stable lowercase name.
    pub const fn name(self) -> &'static str {
        match self {
            FlightLevel::Error => "error",
            FlightLevel::Warn => "warn",
            FlightLevel::Info => "info",
            FlightLevel::Debug => "debug",
        }
    }

    fn parse(s: &str) -> Option<FlightLevel> {
        match s {
            "error" => Some(FlightLevel::Error),
            "warn" => Some(FlightLevel::Warn),
            "info" => Some(FlightLevel::Info),
            "debug" => Some(FlightLevel::Debug),
            _ => None,
        }
    }
}

/// One recorded flight event.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Global sequence number (defines replay order).
    pub seq: u64,
    /// Wall-clock microseconds since the UNIX epoch.
    pub ts_us: i64,
    /// Severity.
    pub level: FlightLevel,
    /// Originating component, dotted (`"ism.reactor"`, `"store"`).
    pub component: &'static str,
    /// Event kind slug (`"quarantine"`, `"evict"`, `"credit_stall"`).
    pub kind: &'static str,
    /// Preformatted human detail.
    pub detail: String,
}

/// Per-component level filter parsed from a `BRISK_LOG`-style spec:
/// a comma list of `level` (global default) and `component=level`
/// (longest-prefix match wins), e.g. `info,ism.reactor=debug,store=warn`.
#[derive(Debug)]
struct LevelFilter {
    default: FlightLevel,
    by_prefix: Vec<(String, FlightLevel)>,
}

impl LevelFilter {
    fn parse(spec: &str) -> LevelFilter {
        let mut default = FlightLevel::Info;
        let mut by_prefix = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                None => {
                    if let Some(l) = FlightLevel::parse(part) {
                        default = l;
                    }
                }
                Some((comp, lvl)) => {
                    if let Some(l) = FlightLevel::parse(lvl.trim()) {
                        by_prefix.push((comp.trim().to_string(), l));
                    }
                }
            }
        }
        // Longest prefix first so `ism.reactor=debug` beats `ism=warn`.
        by_prefix.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
        LevelFilter { default, by_prefix }
    }

    fn max_level(&self, component: &str) -> FlightLevel {
        self.by_prefix
            .iter()
            .find(|(p, _)| component.starts_with(p.as_str()))
            .map(|&(_, l)| l)
            .unwrap_or(self.default)
    }
}

/// A fixed-size, lossy ring of recent structured events.
///
/// Writers claim a slot with one `fetch_add` and fill it under a
/// per-slot `try_lock`; a writer that loses the (rare) race for a slot
/// drops its event and bumps `contended` rather than block a pipeline
/// thread. Readers lock slots briefly to snapshot.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightEvent>>>,
    cursor: AtomicU64,
    contended: AtomicU64,
    /// First sequence number not yet emitted by [`FlightRecorder::dump_new`]
    /// — the panic hook's at-most-once watermark.
    dumped: AtomicU64,
    filter: LevelFilter,
}

impl FlightRecorder {
    /// Recorder holding the last `size` events, filtered per `spec`
    /// (a comma list of `level` and `component=level`, longest prefix
    /// wins; empty spec means `info`).
    pub fn with_spec(size: usize, spec: &str) -> Self {
        let size = size.max(8);
        FlightRecorder {
            slots: (0..size).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            dumped: AtomicU64::new(0),
            filter: LevelFilter::parse(spec),
        }
    }

    /// Recorder with the level spec taken from the `BRISK_LOG`
    /// environment variable (default `info`).
    pub fn new(size: usize) -> Self {
        let spec = std::env::var("BRISK_LOG").unwrap_or_default();
        FlightRecorder::with_spec(size, &spec)
    }

    /// Number of event slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Would an event at `level` from `component` be recorded? Check
    /// this *before* formatting the detail string.
    #[inline]
    pub fn enabled(&self, level: FlightLevel, component: &str) -> bool {
        level <= self.filter.max_level(component)
    }

    /// Record one event (unconditionally; pair with [`Self::enabled`]).
    pub fn record(
        &self,
        level: FlightLevel,
        component: &'static str,
        kind: &'static str,
        detail: String,
    ) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.write_slot(FlightEvent {
            seq,
            ts_us: now_us(),
            level,
            component,
            kind,
            detail,
        });
    }

    /// Fill the ring slot owned by `ev.seq`. A slot is only ever replaced
    /// by a *newer* sequence number: a writer delayed between claiming its
    /// seq and reaching the slot must not clobber an event a full ring lap
    /// ahead of it (that would hand readers a stale slot that then jumps
    /// backwards in replay order). Split out of [`Self::record`] so tests
    /// can inject an out-of-order writer deterministically.
    fn write_slot(&self, ev: FlightEvent) {
        let slot = &self.slots[(ev.seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut s) => match s.as_ref() {
                Some(existing) if existing.seq > ev.seq => {
                    // Lost a full lap to a faster writer: the event is
                    // dropped, like a contended one.
                    self.contended.fetch_add(1, Ordering::Relaxed);
                }
                _ => *s = Some(ev),
            },
            Err(_) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total events ever offered (including overwritten and contended).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events dropped to slot contention.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// JSON rendering for the `/flight` endpoint.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        }
        let events = self.snapshot();
        let mut out = String::from("{\"events\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"ts_us\":{},\"level\":\"{}\",\"component\":\"{}\",\
                 \"kind\":\"{}\",\"detail\":\"{}\"}}",
                e.seq,
                e.ts_us,
                e.level.name(),
                esc(e.component),
                esc(e.kind),
                esc(&e.detail)
            );
        }
        let _ = write!(
            out,
            "],\"recorded\":{},\"contended\":{}}}",
            self.recorded(),
            self.contended()
        );
        out
    }

    /// Human rendering of the events not yet dumped this way, advancing
    /// the watermark so repeated calls (a multi-thread panic storm hits
    /// the hook once per panicking thread) emit each entry at most once.
    pub fn dump_new(&self) -> String {
        use std::fmt::Write as _;
        let events = self.snapshot();
        let next = events.last().map(|e| e.seq + 1).unwrap_or(0);
        let from = self.dumped.fetch_max(next, Ordering::AcqRel);
        let mut out = String::new();
        for e in events.iter().filter(|e| e.seq >= from) {
            let _ = writeln!(
                out,
                "#{:<6} {:>16}us {:5} {:<12} {:<14} {}",
                e.seq,
                e.ts_us,
                e.level.name(),
                e.component,
                e.kind,
                e.detail
            );
        }
        out
    }

    /// Human rendering, one line per event (`/flight`, `brisk-trace`).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in self.snapshot() {
            let _ = writeln!(
                out,
                "#{:<6} {:>16}us {:5} {:<12} {:<14} {}",
                e.seq,
                e.ts_us,
                e.level.name(),
                e.component,
                e.kind,
                e.detail
            );
        }
        out
    }
}

/// Wall-clock microseconds since the UNIX epoch — the flight recorder's
/// timebase (diagnostics want real time even in simulated pipelines).
pub fn now_us() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as i64)
        .unwrap_or(0)
}

static GLOBAL_FLIGHT: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
static GLOBAL_FLIGHT_SIZE: AtomicUsize = AtomicUsize::new(256);
static PANIC_HOOK_INSTALLED: AtomicU8 = AtomicU8::new(0);

/// Set the size the global recorder will be created with. Only effective
/// before the first [`flight`] call (the ring is not resizable).
pub fn set_flight_capacity(size: usize) {
    GLOBAL_FLIGHT_SIZE.store(size.max(8), Ordering::Relaxed);
}

/// The process-wide flight recorder, created on first use with the
/// capacity from [`set_flight_capacity`] (default 256) and the level
/// spec from `BRISK_LOG`.
pub fn flight() -> &'static Arc<FlightRecorder> {
    GLOBAL_FLIGHT.get_or_init(|| {
        Arc::new(FlightRecorder::new(
            GLOBAL_FLIGHT_SIZE.load(Ordering::Relaxed),
        ))
    })
}

/// Install a panic hook that dumps the global flight recorder to stderr
/// (chaining the previously installed hook). Idempotent.
pub fn install_flight_panic_hook() {
    if PANIC_HOOK_INSTALLED.swap(1, Ordering::SeqCst) != 0 {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        prev(info);
        let rec = flight();
        eprintln!(
            "--- flight recorder ({} events, {} recorded) ---",
            rec.snapshot().len(),
            rec.recorded()
        );
        // `dump_new`, not `dump`: concurrent panics each fire the hook and
        // must not replay entries an earlier panic already printed.
        eprint!("{}", rec.dump_new());
        eprintln!("--- end flight recorder ---");
    }));
}

/// Leveled structured logging into the global [`flight`] recorder.
///
/// `flight_log!(Warn, "ism.sorter", "shed", "dropped {n} records")` —
/// the detail is only formatted when the component's level filter admits
/// the event, so disabled levels cost one atomic-free filter check.
#[macro_export]
macro_rules! flight_log {
    ($level:ident, $component:expr, $kind:expr, $($arg:tt)*) => {{
        let __rec = $crate::flight();
        if __rec.enabled($crate::FlightLevel::$level, $component) {
            __rec.record(
                $crate::FlightLevel::$level,
                $component,
                $kind,
                format!($($arg)*),
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable_and_bijective_enough() {
        // Known-answer check keeps the id stream stable across releases.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn sampler_fires_one_in_n() {
        let s = TraceSampler::with_seed(4, 7);
        let fired: Vec<bool> = (0..16).map(|_| s.sample().is_some()).collect();
        assert_eq!(fired.iter().filter(|&&f| f).count(), 4);
        assert!(fired[0], "first record always sampled");
        assert!(fired[4] && fired[8] && fired[12], "every fourth");
    }

    #[test]
    fn racing_callers_keep_the_sampler_firing() {
        // Four threads share a 1-in-2 sampler: however their calls
        // interleave with a fire, sampling neither stalls nor drifts far.
        let s = Arc::new(TraceSampler::with_seed(2, 3));
        let fired: usize = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || (0..50_000).filter(|_| s.sample().is_some()).count())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .sum();
        assert!((100_000..=110_000).contains(&fired), "{fired} of 200 000");
    }

    #[test]
    fn sampler_off_and_every_one() {
        let off = TraceSampler::with_seed(0, 1);
        assert!(!off.enabled());
        assert!((0..100).all(|_| off.sample().is_none()));
        let all = TraceSampler::with_seed(1, 1);
        assert!((0..100).all(|_| all.sample().is_some()));
    }

    #[test]
    fn sampler_ids_unique_and_nonzero() {
        let s = TraceSampler::with_seed(1, 99);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = s.sample().unwrap();
            assert_ne!(id, 0);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn exemplar_histogram_remembers_slow_ids() {
        let eh = ExemplarHistogram::new();
        eh.record_with_exemplar(3, 0xaaa);
        eh.record_with_exemplar(1000, 0xbbb);
        eh.record_with_exemplar(900, 0xccc); // same bucket as 1000: last wins
        assert_eq!(eh.exemplar(bucket_of(3)), Some(0xaaa));
        assert_eq!(eh.exemplar(bucket_of(1000)), Some(0xccc));
        let (le, id) = eh.slowest_exemplar().unwrap();
        assert_eq!(id, 0xccc);
        assert!(le >= 1000);
        // Zero trace ids never become exemplars.
        eh.record_with_exemplar(1 << 20, 0);
        assert_eq!(eh.exemplar(bucket_of(1 << 20)), None);
    }

    #[test]
    fn stage_latencies_register_and_render() {
        let r = Registry::new();
        let sl = StageLatencies::new(Arc::clone(&r));
        sl.observe((0, "notice"), (1, "exs_scoop"), 50, 0xdead);
        sl.observe((0, "notice"), (1, "exs_scoop"), 70, 0xbeef);
        sl.observe((1, "exs_scoop"), (2, "batch_send"), 5000, 0xf00d);
        let snap = r.snapshot();
        let h = snap.histogram("brisk_trace_stage_us").unwrap();
        assert_eq!(h.count(), 3);
        let js = sl.exemplars_json(|c| match c {
            0 => "notice",
            1 => "exs_scoop",
            _ => "batch_send",
        });
        assert!(js.contains("\"from\":\"notice\""), "{js}");
        assert!(js.contains(&format!("{:016x}", 0xf00du64)), "{js}");
        let (le, id) = sl.slowest_exemplar().unwrap();
        assert_eq!(id, 0xf00d);
        assert!(le >= 5000);
    }

    #[test]
    fn level_filter_prefix_match() {
        let f = LevelFilter::parse("warn,ism.pump=debug,ism=error");
        assert_eq!(f.max_level("store"), FlightLevel::Warn);
        assert_eq!(f.max_level("ism.pump"), FlightLevel::Debug);
        assert_eq!(f.max_level("ism.sorter"), FlightLevel::Error);
        let default = LevelFilter::parse("");
        assert_eq!(default.max_level("anything"), FlightLevel::Info);
    }

    #[test]
    fn recorder_keeps_recent_events_in_order() {
        let rec = FlightRecorder::with_spec(8, "debug");
        for i in 0..20 {
            rec.record(FlightLevel::Info, "test", "tick", format!("event {i}"));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 8);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        assert_eq!(rec.recorded(), 20);
        assert!(snap.iter().all(|e| e.detail.starts_with("event ")));
    }

    #[test]
    fn recorder_filters_by_level() {
        let rec = FlightRecorder::with_spec(8, "warn");
        assert!(rec.enabled(FlightLevel::Error, "x"));
        assert!(rec.enabled(FlightLevel::Warn, "x"));
        assert!(!rec.enabled(FlightLevel::Info, "x"));
        assert!(!rec.enabled(FlightLevel::Debug, "x"));
    }

    #[test]
    fn recorder_json_and_dump_render() {
        let rec = FlightRecorder::with_spec(8, "debug");
        rec.record(
            FlightLevel::Warn,
            "ism.sorter",
            "shed",
            "dropped 3 \"old\" records".into(),
        );
        let js = rec.to_json();
        assert!(js.contains("\"kind\":\"shed\""), "{js}");
        assert!(js.contains("\\\"old\\\""), "{js}");
        assert!(js.contains("\"recorded\":1"), "{js}");
        assert_eq!(js.matches('{').count(), js.matches('}').count());
        let dump = rec.dump();
        assert!(dump.contains("ism.sorter"), "{dump}");
        assert!(dump.contains("shed"), "{dump}");
    }

    #[test]
    fn recorder_concurrent_writers_never_lose_structure() {
        let rec = Arc::new(FlightRecorder::with_spec(32, "debug"));
        let mut joins = Vec::new();
        for t in 0..4 {
            let rec = Arc::clone(&rec);
            joins.push(std::thread::spawn(move || {
                for i in 0..500 {
                    rec.record(FlightLevel::Info, "test", "tick", format!("{t}:{i}"));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(rec.recorded(), 2000);
        let snap = rec.snapshot();
        assert!(snap.len() <= 32);
        // Sequences are unique and sorted.
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn delayed_writer_cannot_clobber_a_newer_lap() {
        let rec = FlightRecorder::with_spec(8, "debug");
        // One full lap plus one: slot 0 now holds seq 8.
        for i in 0..9 {
            rec.record(FlightLevel::Info, "test", "tick", format!("event {i}"));
        }
        // A writer that claimed seq 0 before the wrap finally reaches its
        // slot. It must be dropped, not overwrite the newer event.
        rec.write_slot(FlightEvent {
            seq: 0,
            ts_us: now_us(),
            level: FlightLevel::Info,
            component: "test",
            kind: "tick",
            detail: "stale".into(),
        });
        let snap = rec.snapshot();
        assert!(
            snap.iter().all(|e| e.detail != "stale"),
            "stale lap must not surface: {snap:?}"
        );
        assert!(
            snap.iter().any(|e| e.seq == 8),
            "the newer lap's event must survive: {snap:?}"
        );
        assert_eq!(rec.contended(), 1, "the displaced write counts as dropped");
    }

    #[test]
    fn reader_racing_wrapping_writers_sees_no_torn_or_stale_slot() {
        use std::sync::atomic::AtomicBool;
        let rec = Arc::new(FlightRecorder::with_spec(8, "debug"));
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        // Writers wrap the 8-slot ring hundreds of times, each tagging
        // component and detail consistently so a torn slot (fields mixed
        // from two writes) is detectable.
        for t in 0..3 {
            let rec = Arc::clone(&rec);
            let comp: &'static str = ["w0", "w1", "w2"][t];
            joins.push(std::thread::spawn(move || {
                for i in 0..2000 {
                    rec.record(FlightLevel::Info, comp, "tick", format!("{comp}:{i}"));
                }
            }));
        }
        // Reader races the wrap: every snapshot must be internally
        // consistent and per-slot sequences must never move backwards.
        let reader = {
            let rec = Arc::clone(&rec);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut high = vec![0u64; rec.capacity()];
                while !stop.load(Ordering::Relaxed) {
                    let snap = rec.snapshot();
                    let mut prev = None;
                    for e in &snap {
                        assert!(e.detail.starts_with(e.component), "torn slot: {e:?}");
                        assert!(prev.is_none_or(|p| p < e.seq), "duplicate/unsorted seq");
                        prev = Some(e.seq);
                        let slot = (e.seq % rec.capacity() as u64) as usize;
                        assert!(
                            e.seq >= high[slot],
                            "slot {slot} went backwards: {} after {}",
                            e.seq,
                            high[slot]
                        );
                        high[slot] = e.seq;
                    }
                }
            })
        };
        for j in joins {
            j.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(rec.recorded(), 6000);
    }

    #[test]
    fn dump_new_emits_each_entry_at_most_once() {
        let rec = FlightRecorder::with_spec(8, "debug");
        for i in 0..3 {
            rec.record(FlightLevel::Warn, "test", "boom", format!("event {i}"));
        }
        let first = rec.dump_new();
        assert_eq!(first.lines().count(), 3, "{first}");
        // A second panic must not replay what the first already printed.
        assert_eq!(rec.dump_new(), "", "entries dumped twice");
        rec.record(FlightLevel::Warn, "test", "boom", "event 3".into());
        let third = rec.dump_new();
        assert_eq!(third.lines().count(), 1, "{third}");
        assert!(third.contains("event 3"), "{third}");
        // The full rendering for /flight is unaffected by the watermark.
        assert_eq!(rec.dump().lines().count(), 4);
    }

    #[test]
    fn global_flight_and_macro() {
        // The global recorder is shared test-wide; just verify the macro
        // records through it and levels gate formatting.
        crate::flight_log!(Warn, "test.global", "probe", "n={}", 7);
        let found = flight()
            .snapshot()
            .iter()
            .any(|e| e.component == "test.global" && e.detail == "n=7");
        assert!(found);
    }
}
