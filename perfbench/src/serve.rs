//! `serve`: an in-process `remix_serve::Server` driven over loopback by
//! one closed-loop client connection.
//!
//! Three in four jobs repeat a deck warmed into the cache during set-up
//! (reads); the rest are unique value-perturbed decks that go through
//! SPICE import, the lint gate, the analysis and a cache insert
//! (writes). With 75 % reads, p50 sits among the hits and p90 among
//! the misses, both well clear of the boundary: p50 tracks framing,
//! protocol and cache, p90 tracks import, lint and analysis.
//!
//! One connection, not several: on a two-CPU machine, concurrent
//! clients, connection threads and workers compete for the CPUs, and
//! sub-millisecond round trips then follow how the host schedules them
//! more than what the server does.

use crate::harness::{self, Layers, Measured, Phases, Workload};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use remix_circuit::Element;
use remix_core::{LoDrive, MixerConfig, MixerMode, ReconfigurableMixer, RfDrive};
use remix_serve::protocol::{JobKind, JobRequest};
use remix_serve::{Client, ServeConfig, Server, Status};
use remix_telemetry::{names, Telemetry};
use std::path::Path;
use std::time::{Duration, Instant};

/// Each (deck, kind) pair appears this many times per pass as a repeat
/// and once as a miss.
pub const REPEATS_PER_MISS: usize = 3;
/// Passes per segment of a timed run, on one server. Every miss stays
/// in that server's cache, so a fixed number of passes per server keeps
/// the memory held independent of how fast the passes ran.
pub const SEGMENT_PASSES: usize = 60;
/// Declared job deadline (ms): generous, so no job is shed or cut.
const DEADLINE_MS: u64 = 30_000;
/// Short transient of every `tran` job.
const TRAN_STOP_S: f64 = 2e-9;
const TRAN_DT_S: f64 = 2e-11;
const SWEEP_POINTS: usize = 5;
const SALT: u64 = 0x7365_7276; // "serv"

/// One deck the jobs are made from, with the source its DC sweep moves.
#[derive(Debug, Clone)]
pub struct Deck {
    pub name: String,
    pub text: String,
    source: String,
    source_dc: f64,
    /// Node the miss perturbation shunts to ground.
    shunt_node: String,
    /// How many of op, DC sweep, short transient its jobs use.
    kinds: usize,
}

/// The committed `tests/decks/topo_*.cir` decks, in name order.
pub fn topo_decks(root: &Path) -> Result<Vec<Deck>, String> {
    let dir = root.join("tests/decks");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("topo_") && n.ends_with(".cir"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no topo_*.cir decks in {}", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let name = p
                .file_stem()
                .and_then(|n| n.to_str())
                .unwrap_or("deck")
                .to_string();
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            describe(name, text, 3)
        })
        .collect()
}

/// Both mixer modes, built and emitted as SPICE. Their jobs are
/// operating points only: a mixer DC sweep or transient costs 30–90 ms,
/// hundreds of hits, and a few of them per pass would be most of the
/// pass's time, so throughput would follow a handful of jobs. The mixer
/// transient is the `transient` workload's subject.
pub fn mixer_decks() -> Result<Vec<Deck>, String> {
    let mixer = ReconfigurableMixer::new(MixerConfig::default());
    [MixerMode::Active, MixerMode::Passive]
        .into_iter()
        .map(|mode| {
            let (circuit, _) = mixer.build(
                mode,
                &RfDrive::Tone {
                    freq: 2.455e9,
                    amplitude: 2e-3,
                },
                &LoDrive::sine(2.45e9),
            );
            let name = format!("mixer_{}", mode.label());
            let text = remix_circuit::to_spice(&circuit, &name);
            describe(name, text, 1)
        })
        .collect()
}

/// Parses `text`; its first voltage source is the one a DC sweep moves
/// and the one whose positive node a miss's shunt goes on.
fn describe(name: String, text: String, kinds: usize) -> Result<Deck, String> {
    let circuit = remix_circuit::from_spice(&text).map_err(|e| format!("{name}: {e}"))?;
    let (source, source_dc, node) = circuit
        .elements()
        .iter()
        .find_map(|e| match e {
            Element::VoltageSource { name, p, wave, .. } => {
                Some((name.clone(), wave.dc_value(), *p))
            }
            _ => None,
        })
        .ok_or_else(|| format!("{name}: no voltage source"))?;
    Ok(Deck {
        shunt_node: circuit.node_name(node).to_string(),
        name,
        text,
        source,
        source_dc,
        kinds,
    })
}

/// Every (deck, job kind) pair the jobs are drawn from.
fn pairs(decks: &[Deck]) -> Vec<(usize, JobKind)> {
    decks
        .iter()
        .enumerate()
        .flat_map(|(i, d)| (0..d.kinds).map(move |k| (i, kind(d, k))))
        .collect()
}

fn kind(deck: &Deck, k: usize) -> JobKind {
    match k {
        0 => JobKind::Op,
        1 => {
            let delta = 0.05 * deck.source_dc.abs().max(1.0);
            JobKind::DcSweep {
                source: deck.source.clone(),
                start: deck.source_dc - delta,
                stop: deck.source_dc + delta,
                points: SWEEP_POINTS,
            }
        }
        _ => JobKind::Tran {
            t_stop: TRAN_STOP_S,
            dt: TRAN_DT_S,
        },
    }
}

/// A miss's deck: the original plus a 1 MΩ-scale shunt whose name and
/// value are unique to the op, so no two misses share a cache key.
pub fn perturb(deck: &Deck, seed: u64, op: u64) -> String {
    let shunt = format!(
        "rpb{op} {} 0 {}.{:03}\n",
        deck.shunt_node,
        1_000_000 + op,
        seed % 1000
    );
    let mut out = String::with_capacity(deck.text.len() + shunt.len());
    let mut inserted = false;
    for line in deck.text.lines() {
        if !inserted && line.trim().eq_ignore_ascii_case(".end") {
            out.push_str(&shunt);
            inserted = true;
        }
        out.push_str(line);
        out.push('\n');
    }
    if !inserted {
        out.push_str(&shunt);
    }
    out
}

/// One slot of a pass: which (deck, kind) pair, and whether it repeats
/// a warmed job or is a unique miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub pair: usize,
    pub miss: bool,
}

/// One pass: every (deck, kind) pair three times as a repeat and once
/// as a miss, in seeded order.
pub fn input_set(seed: u64, pairs: usize) -> Vec<Slot> {
    let mut slots: Vec<Slot> = (0..pairs)
        .flat_map(|pair| {
            (0..=REPEATS_PER_MISS).map(move |i| Slot {
                pair,
                miss: i == REPEATS_PER_MISS,
            })
        })
        .collect();
    Rng::new(seed ^ SALT).shuffle(&mut slots);
    slots
}

/// The server configuration, pinned field by field.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_connections: 8,
        queue_depth: 32,
        max_line_bytes: remix_serve::protocol::DEFAULT_MAX_LINE_BYTES,
        max_deck_bytes: remix_serve::protocol::DEFAULT_MAX_DECK_BYTES,
        frame_deadline_ms: 5_000,
        idle_timeout_ms: 60_000,
        default_deadline_ms: DEADLINE_MS,
        max_deadline_ms: DEADLINE_MS,
        // Holds the warm set plus every miss of a server's lifetime many
        // times over.
        cache_capacity: 1 << 20,
        cache_file: None,
        chaos: remix_serve::ChaosConfig::default(),
    }
}

/// What the client saw for one op of the traced half.
#[derive(Debug, Clone, Copy)]
struct Seen {
    ms: f64,
    server_ms: f64,
    miss: bool,
}

pub struct Serve {
    seed: u64,
    decks: Vec<Deck>,
    pairs: Vec<(usize, JobKind)>,
    pass: Vec<Slot>,
    /// Warm-up body of each (deck, kind) pair.
    warm: Vec<String>,
    server: Server,
    client: Option<Client>,
    repeats_sent: u64,
    /// Traced half: the server's counters when it began, client-side
    /// observations and tran steps computed.
    traced_from: Option<harness::Telem>,
    seen: Vec<Seen>,
    tran_steps: u64,
}

impl Serve {
    pub fn setup(seed: u64, root: &Path, phases: &mut Phases<'_>) -> Result<Serve, String> {
        let mut decks = phases.run("setup.inputs", || topo_decks(root))?;
        decks.extend(phases.run("setup.build", mixer_decks)?);
        let pairs = pairs(&decks);
        let pass = input_set(seed, pairs.len());
        let server = phases
            .run("setup.server", || Server::start(serve_config()))
            .map_err(|e| format!("server failed to start: {e}"))?;
        let warm = phases.run("setup.warm", || -> Result<Vec<String>, String> {
            let mut client = Client::connect(server.addr(), Duration::from_secs(2))
                .map_err(|e| format!("connect: {e}"))?;
            let mut bodies = Vec::new();
            for pair in 0..pairs.len() {
                let job = request(&decks, &pairs, pair, None, seed, pair as u64);
                let r = client
                    .submit(&job)
                    .map_err(|e| format!("warm-up {}: {e}", job.id))?;
                if r.status != Status::Ok || r.cached {
                    return Err(format!("warm-up {}: {}", job.id, r.raw));
                }
                bodies.push(r.result);
            }
            Ok(bodies)
        })?;
        Ok(Serve {
            seed,
            decks,
            pairs,
            pass,
            warm,
            server,
            client: None,
            repeats_sent: 0,
            traced_from: None,
            seen: Vec::new(),
            tran_steps: 0,
        })
    }

    /// The warm set's requests, for the protocol probe.
    pub fn warm_requests(&self) -> Vec<JobRequest> {
        (0..self.warm.len())
            .map(|pair| request(&self.decks, &self.pairs, pair, None, self.seed, pair as u64))
            .collect()
    }

    /// A repeat must be served from the cache with its warm-up body,
    /// byte for byte; a miss must be computed and complete.
    fn check(&self, slot: Slot, r: &remix_serve::JobResponse) -> Result<(), String> {
        if r.status != Status::Ok {
            return Err(format!("status {:?}: {}", r.status, r.raw));
        }
        if slot.miss {
            if r.cached {
                return Err("a unique deck was served from the cache".into());
            }
            let complete = match &self.pairs[slot.pair].1 {
                JobKind::Op => r.result.contains("\"unknowns\""),
                JobKind::DcSweep { points, .. } => {
                    body_u64(&r.result, "completed") == *points as u64
                }
                JobKind::Tran { .. } => body_u64(&r.result, "steps") > 0,
            };
            if !complete {
                return Err(format!("incomplete result: {}", r.result));
            }
        } else if !r.cached || r.result != self.warm[slot.pair] {
            return Err(format!(
                "repeat differs from its warm-up: cached={} body {} vs {}",
                r.cached, r.result, self.warm[slot.pair]
            ));
        }
        Ok(())
    }

    /// Stops the server; the cache must have served every repeat sent
    /// (warm-up included none) as a hit.
    pub fn finish(mut self) -> Result<(), String> {
        self.client = None;
        let snap = harness::Telem::from_snapshot(&self.server.shutdown());
        let hits = snap.counter(names::SERVE_CACHE_HITS);
        if hits != self.repeats_sent {
            return Err(format!(
                "cache hits {hits} != repeats sent {}",
                self.repeats_sent
            ));
        }
        Ok(())
    }

    pub fn snapshot(&self) -> harness::Telem {
        harness::Telem::from_snapshot(&self.server.snapshot())
    }
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn pass_len(&self) -> usize {
        self.pass.len()
    }

    fn run_op(&mut self, index: usize, op: u64, tracer: &mut Tracer) -> (f64, Result<(), String>) {
        let slot = self.pass[index];
        let armed = tracer.is_armed();
        if armed && self.traced_from.is_none() {
            self.traced_from = Some(self.snapshot());
        }
        let job = request(
            &self.decks,
            &self.pairs,
            slot.pair,
            slot.miss.then_some(op),
            self.seed,
            op,
        );
        let root = tracer.enter_op("op", op);
        let t = Instant::now();
        let span = tracer.enter("serve.roundtrip");
        if self.client.is_none() {
            self.client = Client::connect(self.server.addr(), Duration::from_secs(2)).ok();
        }
        let response = match self.client.as_mut() {
            Some(c) => c.submit(&job).map_err(|e| e.to_string()),
            None => Err("cannot connect".to_string()),
        };
        tracer.exit(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let span = tracer.enter("check");
        let verdict = response.and_then(|r| {
            self.check(slot, &r)?;
            if armed && slot.miss && matches!(job.kind, JobKind::Tran { .. }) {
                self.tran_steps += body_u64(&r.result, "steps");
            }
            Ok(r.elapsed_ms as f64)
        });
        tracer.exit(span);
        tracer.exit(root);
        if !slot.miss {
            self.repeats_sent += 1;
        }
        if verdict.is_err() {
            self.client = None; // a broken exchange may leave the stream mid-frame
        }
        if armed {
            self.seen.push(Seen {
                ms,
                server_ms: *verdict.as_ref().unwrap_or(&0.0),
                miss: slot.miss,
            });
        }
        (ms, verdict.map(|_| ()))
    }
}

fn body_u64(body: &str, field: &str) -> u64 {
    remix_telemetry::parse_json(body)
        .ok()
        .and_then(|v| v.get(field).and_then(|x| x.as_u64()))
        .unwrap_or(0)
}

/// The request for `pair`; `miss` carries the op id that makes its deck
/// unique.
fn request(
    decks: &[Deck],
    pairs: &[(usize, JobKind)],
    pair: usize,
    miss: Option<u64>,
    seed: u64,
    op: u64,
) -> JobRequest {
    let (index, kind) = &pairs[pair];
    let deck = &decks[*index];
    JobRequest {
        id: format!("{}-{op}", deck.name),
        kind: kind.clone(),
        deck: match miss {
            Some(op) => perturb(deck, seed, op),
            None => deck.text.clone(),
        },
        deadline_ms: Some(DEADLINE_MS),
        newton_budget: None,
        timestep_budget: None,
        events: false,
    }
}

/// Per-layer metrics of the traced half, from the client's view and the
/// server's own counters, plus the deck, protocol and solver probes.
pub fn layers(
    w: &Serve,
    _: &Telemetry,
    traced: &Measured,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let ops = traced.lat_ms.len();
    let t = w
        .snapshot()
        .since(w.traced_from.as_ref().ok_or("the traced half ran no op")?);
    harness::analysis_layers(&t, ops, layers);
    let pick = |miss: bool| {
        stats::sorted(
            &w.seen
                .iter()
                .filter(|s| s.miss == miss)
                .map(|s| s.ms)
                .collect::<Vec<_>>(),
        )
    };
    let (hits, misses) = (pick(false), pick(true));
    let q = |v: &[f64], p| stats::quantile(v, p).map_or(0.0, |(x, _)| x);
    layers.insert("serve.hit_ms.p50", (q(&hits, 0.5), hits.len()));
    layers.insert("serve.miss_ms.p50", (q(&misses, 0.5), misses.len()));
    layers.insert(
        "serve.miss_ms.p90",
        (stats::p90(&misses).unwrap_or(0.0), misses.len()),
    );
    let server_ms = stats::sorted(
        &w.seen
            .iter()
            .filter(|s| s.miss)
            .map(|s| s.server_ms)
            .collect::<Vec<_>>(),
    );
    layers.insert("serve.server_ms.p50", (q(&server_ms, 0.5), server_ms.len()));
    let wait = stats::sorted(
        &w.seen
            .iter()
            .map(|s| s.ms - s.server_ms)
            .collect::<Vec<_>>(),
    );
    layers.insert(
        "serve.wait_ms.p90",
        (stats::p90(&wait).unwrap_or(0.0), wait.len()),
    );
    let (h, m) = (
        t.counter(names::SERVE_CACHE_HITS),
        t.counter(names::SERVE_CACHE_MISSES),
    );
    for (metric, v) in [
        ("serve.cache.hits", h),
        ("serve.cache.misses", m),
        ("serve.cache.joins", t.counter(names::SERVE_CACHE_JOINS)),
        ("serve.sheds", t.counter(names::SERVE_SHEDS)),
        ("serve.jobs_failed", t.counter(names::SERVE_JOBS_FAILED)),
        ("serve.retries", t.counter(names::EXEC_RETRIES)),
    ] {
        layers.insert(metric, (v as f64, ops));
    }
    layers.insert(
        "serve.hit_ratio",
        (h as f64 / (h + m).max(1) as f64, (h + m) as usize),
    );
    layers.insert(
        "analysis.tran.steps",
        (w.tran_steps as f64 / ops.max(1) as f64, ops),
    );
    harness::self_time_layers(tracer, ops, layers);
    let texts: Vec<&str> = w.decks.iter().map(|d| d.text.as_str()).collect();
    crate::probes::decks(&texts, tracer, layers)?;
    crate::probes::protocol(&w.warm_requests(), tracer, layers)?;
    let circuits: Vec<remix_circuit::Circuit> = texts
        .iter()
        .map(|t| remix_circuit::from_spice(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&remix_circuit::Circuit> = circuits.iter().collect();
    crate::probes::solver(&refs, tracer, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(input_set(1, 30), input_set(1, 30));
        assert_ne!(input_set(1, 30), input_set(2, 30));
    }

    #[test]
    fn a_pass_is_three_repeats_per_miss() {
        let pass = input_set(4, 30);
        assert_eq!(pass.len(), 120);
        assert_eq!(pass.iter().filter(|s| s.miss).count(), 30);
        for pair in 0..30 {
            assert_eq!(pass.iter().filter(|s| s.pair == pair).count(), 4);
        }
    }

    #[test]
    fn misses_are_unique_and_only_add_a_shunt() {
        let deck = describe(
            "d".into(),
            "* t\nv1 a 0 dc 1\nr2 a 0 1k\n.end\n".to_string(),
            3,
        )
        .expect("deck parses");
        let (a, b) = (perturb(&deck, 5, 10), perturb(&deck, 5, 11));
        assert_ne!(a, b);
        assert!(a.ends_with("rpb10 a 0 1000010.005\n.end\n"), "{a}");
        remix_circuit::from_spice(&a).expect("perturbed deck parses");
    }
}
