//! Workload inputs. Everything here is a pure function of `--seed`: the
//! seed reaches `routegen` and the generators below and nothing else, and
//! the program under test only ever receives the bytes made here.

use routegen::churn::{churn_rounds, total_updates, ChurnSpec};
use routegen::{to_updates, Route, TableSpec};
use rpki::Roa;
use xbgp_wire::{Ipv4Prefix, Message, UpdateMsg};

/// Which §3 use case a cell runs, which also fixes the session type:
/// route reflection is iBGP, origin validation is eBGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Rr,
    Ov,
}

/// Share of table prefixes that get a matching ROA (§3.4 of the paper).
const VALID_FRACTION: f64 = 0.75;

/// Size of one TCP leg: a closed-loop blast of `routes` routes, then two
/// open-loop phases given as `(updates per second, seconds)`.
#[derive(Debug, Clone, Copy)]
pub struct ServeScale {
    pub routes: usize,
    /// Independent single updates at Poisson-spaced times.
    pub low: (u64, f64),
    /// A continuous stream: one update every `1/rate` seconds.
    pub high: (u64, f64),
}

/// Input sizes and sample counts. `full` is what `BENCHMARK.json`
/// measures; `tiny` keeps `cargo test` of this package to a few seconds.
/// Every count is fixed, so two runs of a workload measure the same work.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub table_routes: usize,
    pub churn_routes: usize,
    pub churn_rounds: usize,
    pub fanout_routes: usize,
    pub fanout_sinks: usize,
    /// The TCP leg of `serve_tcp`.
    pub serve: ServeScale,
    /// The short TCP leg that ends every in-process workload.
    pub probe: ServeScale,
    /// Rounds of an untraced run: set-ups, and samples per cell.
    pub rounds: usize,
    /// Rounds of (untraced, traced) sample pairs in a traced run.
    pub trace_rounds: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            table_routes: 50_000,
            churn_routes: 30_000,
            churn_rounds: 8,
            fanout_routes: 5_000,
            fanout_sinks: 32,
            serve: ServeScale { routes: 20_000, low: (100, 12.0), high: (1_000, 5.0) },
            probe: ServeScale { routes: 5_000, low: (100, 3.0), high: (1_000, 1.0) },
            rounds: 11,
            trace_rounds: 2,
        }
    }

    pub fn tiny() -> Scale {
        // 125 low-rate updates: the fewest that still support a p90.
        let leg = ServeScale { routes: 1_000, low: (250, 0.5), high: (400, 0.5) };
        Scale {
            table_routes: 2_000,
            churn_routes: 1_500,
            churn_rounds: 4,
            fanout_routes: 500,
            fanout_sinks: 4,
            serve: ServeScale { low: (250, 1.0), high: (400, 1.0), ..leg },
            probe: leg,
            rounds: 2,
            trace_rounds: 1,
        }
    }
}

/// Inputs of one in-process workload: the frames delivered to the daemon
/// on link 0 and what must come out of every sink link afterwards.
pub struct InprocInputs {
    pub mode: Mode,
    pub sinks: usize,
    /// Generated table (the layer replay times public functions over it).
    pub table: Vec<Route>,
    /// Frames delivered before the clock starts (`churn_ov` only).
    pub preload: Vec<Vec<u8>>,
    /// Frames delivered inside the timed region.
    pub timed: Vec<Vec<u8>>,
    /// Announced NLRI plus withdrawn prefixes in `timed`.
    pub routing_updates: u64,
    /// ROA set for the table. Only `Mode::Ov` daemons load it; the layer
    /// replay validates against it in every workload.
    pub roas: Vec<Roa>,
    /// Prefixes every sink must hold when the stream ends, sorted.
    pub expected: Vec<Ipv4Prefix>,
}

fn encode(updates: Vec<UpdateMsg>) -> Vec<Vec<u8>> {
    updates
        .into_iter()
        .map(|u| Message::Update(u).encode(4).expect("generated UPDATE fits a frame"))
        .collect()
}

fn sorted_prefixes(table: &[Route]) -> Vec<Ipv4Prefix> {
    let mut p: Vec<Ipv4Prefix> = table.iter().map(|r| r.prefix).collect();
    p.sort();
    p
}

fn roas_for(table: &[Route], seed: u64) -> Vec<Roa> {
    routegen::make_roas(table, VALID_FRACTION, seed)
        .into_iter()
        .map(|e| Roa::new(e.prefix, e.max_len, e.asn))
        .collect()
}

/// A one-shot table transfer: `table_rr`, `table_ov`, `fanout_rr`.
pub fn table_inputs(mode: Mode, routes: usize, sinks: usize, seed: u64) -> InprocInputs {
    let table = routegen::generate(&TableSpec::new(routes, seed));
    let local_pref = (mode == Mode::Rr).then_some(100);
    let timed = encode(to_updates(&table, 1, local_pref));
    InprocInputs {
        mode,
        sinks,
        preload: Vec::new(),
        timed,
        routing_updates: table.len() as u64,
        roas: roas_for(&table, seed),
        expected: sorted_prefixes(&table),
        table,
    }
}

/// `churn_ov`: the table goes in untimed, the churn rounds are timed. The
/// stream ends with routegen's restore round, so the sinks converge back
/// to the whole table.
pub fn churn_inputs(routes: usize, rounds: usize, seed: u64) -> InprocInputs {
    let table = routegen::generate(&TableSpec::new(routes, seed));
    let preload = encode(to_updates(&table, 1, None));
    let stream = churn_rounds(&table, &ChurnSpec::new(seed, rounds));
    let timed = stream.iter().flat_map(|r| encode(r.to_updates(1, None))).collect();
    InprocInputs {
        mode: Mode::Ov,
        sinks: 1,
        preload,
        timed,
        routing_updates: total_updates(&stream),
        roas: roas_for(&table, seed),
        expected: sorted_prefixes(&table),
        table,
    }
}

/// The benchmark's own generator for choices `routegen` does not make
/// (the order in which `serve_tcp` re-announces routes). SplitMix64: tiny, seedable,
/// and independent of the `rand` shim the program uses.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is far below anything
    /// the workloads can see.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One open-loop re-announcement of `serve_tcp`.
pub struct Reannounce {
    /// When the update is due, in ns from the start of its phase.
    pub due_ns: u64,
    pub prefix: Ipv4Prefix,
    /// The ASN prepended to the route's path; with `prefix` it identifies
    /// the one export this update must cause.
    pub marker: u32,
    pub frame: Vec<u8>,
}

/// Inputs of `serve_tcp`.
pub struct ServeInputs {
    pub table: Vec<Route>,
    pub blast: Vec<Vec<u8>>,
    pub low: Vec<Reannounce>,
    pub high: Vec<Reannounce>,
    pub expected: Vec<Ipv4Prefix>,
}

impl ServeInputs {
    /// Every frame A sends, in sending order.
    pub fn frames(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.blast.iter().chain(self.low.iter().chain(&self.high).map(|r| &r.frame))
    }
}

/// First marker ASN; the marker goes up by one each time the schedule has
/// walked the whole table, so two re-announcements of one prefix never
/// carry the same path (a repeat of identical attributes would change no
/// best path and yield no export).
const MARKER_BASE: u32 = 64_000;

/// How the due times of an open-loop phase are spaced.
#[derive(Clone, Copy)]
enum Spacing {
    /// Exponential gaps: independent senders. Evenly spaced updates would
    /// lock onto the runtime's 2 ms read timeouts and land every latency
    /// on one of a few exact values, with the median on the edge between
    /// two of them.
    Poisson,
    /// One update every `1/rate` seconds: a continuous stream.
    Even,
}

/// The next `rate * secs` re-announcements, walking `order` (a seeded
/// shuffle of table indices) from `*cursor` on.
fn schedule(
    table: &[Route],
    order: &[usize],
    cursor: &mut usize,
    rng: &mut SplitMix64,
    (rate, secs): (u64, f64),
    spacing: Spacing,
) -> Vec<Reannounce> {
    let n = (rate as f64 * secs) as u64;
    let mut due = 0.0f64;
    (0..n)
        .map(|i| {
            let due_ns = match spacing {
                Spacing::Even => i * 1_000_000_000 / rate,
                Spacing::Poisson => {
                    // Uniform in (0, 1], so the logarithm is finite.
                    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                    due += -u.ln() / rate as f64;
                    (due * 1e9) as u64
                }
            };
            let route = &table[order[*cursor % order.len()]];
            let marker = MARKER_BASE + (*cursor / order.len()) as u32;
            *cursor += 1;
            let mut marked = route.clone();
            marked.as_path.insert(0, marker);
            let update = UpdateMsg::announce(marked.attrs(1, None), vec![route.prefix]);
            Reannounce {
                due_ns,
                prefix: route.prefix,
                marker,
                frame: Message::Update(update).encode(4).expect("single-prefix UPDATE fits"),
            }
        })
        .collect()
}

pub fn serve_inputs(scale: &ServeScale, seed: u64) -> ServeInputs {
    let table = routegen::generate(&TableSpec::new(scale.routes, seed));
    let blast = encode(to_updates(&table, 1, None));
    let mut rng = SplitMix64::new(seed ^ 0x5e72_7665);
    let mut order: Vec<usize> = (0..table.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut cursor = 0;
    let low = schedule(&table, &order, &mut cursor, &mut rng, scale.low, Spacing::Poisson);
    let high = schedule(&table, &order, &mut cursor, &mut rng, scale.high, Spacing::Even);
    ServeInputs { expected: sorted_prefixes(&table), table, blast, low, high }
}

/// The stream `serve_tcp` sends over TCP, as an in-process workload: the
/// same frames in the same order on link 0, one sink, origin validation
/// against ROAs made for the same table.
pub fn served_stream_inputs(serve: &ServeInputs, seed: u64) -> InprocInputs {
    InprocInputs {
        mode: Mode::Ov,
        sinks: 1,
        preload: Vec::new(),
        routing_updates: (serve.table.len() + serve.low.len() + serve.high.len()) as u64,
        timed: serve.frames().cloned().collect(),
        roas: roas_for(&serve.table, seed),
        expected: serve.expected.clone(),
        table: serve.table.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(i: &InprocInputs) -> Vec<Vec<u8>> {
        i.preload.iter().chain(&i.timed).cloned().collect()
    }

    #[test]
    fn one_seed_gives_identical_frames_and_two_seeds_differ() {
        let s = Scale::tiny();
        let a = churn_inputs(s.churn_routes, s.churn_rounds, 7);
        let b = churn_inputs(s.churn_routes, s.churn_rounds, 7);
        let c = churn_inputs(s.churn_routes, s.churn_rounds, 8);
        assert_eq!(stream(&a), stream(&b));
        assert_ne!(stream(&a), stream(&c));
        assert_eq!(a.roas, b.roas);

        let frames = |x: &ServeInputs| -> Vec<Vec<u8>> { x.frames().cloned().collect() };
        assert_eq!(frames(&serve_inputs(&s.serve, 7)), frames(&serve_inputs(&s.serve, 7)));
        assert_ne!(frames(&serve_inputs(&s.serve, 7)), frames(&serve_inputs(&s.serve, 8)));
    }

    #[test]
    fn no_prefix_is_reannounced_twice_with_one_marker() {
        // Fewer routes than re-announcements, so the walk wraps.
        let s = ServeScale { routes: 300, low: (100, 1.0), high: (400, 1.0) };
        let x = serve_inputs(&s, 3);
        assert_eq!((x.low.len(), x.high.len()), (100, 400));
        assert!(x.low.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let mut seen = std::collections::HashSet::new();
        for r in x.low.iter().chain(&x.high) {
            assert!(seen.insert((r.prefix, r.marker)));
        }
        let t = table_inputs(Mode::Rr, 500, 2, 3);
        assert_eq!(t.routing_updates, 500);
        assert_eq!(t.expected.len(), 500);
    }
}
