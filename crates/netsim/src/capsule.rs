//! Flight-recorder capture format.
//!
//! A [`Capsule`] records everything needed to re-execute a simulation
//! run bit-identically: the seed (from which every per-node RNG stream
//! is derived), the full [`SimConfig`], the exact topology (positions
//! *and* the sampled link table, so no link model is resampled on
//! replay), the complete fault schedule, free-form scenario tags that
//! let tooling reconstruct the protocol under test, and the run digests
//! ([`RunDigest`]) that replay must reproduce.
//!
//! Two encodings share one line dialect:
//!
//! * **JSONL** — the repo's existing hand-rolled one-object-per-line
//!   dialect (see `trace.rs`/`fault.rs`), extended with `capsule*`
//!   event labels. Human-greppable, diff-friendly.
//! * **Binary-framed** — an `LRSC` magic, a little-endian `u32`
//!   version, then length-prefixed frames each holding one JSONL line.
//!   Same information, self-delimiting, safe to concatenate with other
//!   artifacts.
//!
//! Floating-point fields (positions, PRRs, loss probabilities) are
//! stored as IEEE-754 bit patterns (`f64::to_bits`) so a round trip is
//! exact — a capsule that re-derives even one PRR differently would
//! silently break bit-identical replay.

use crate::fault::{json_str_field, json_u64_field, FaultEvent, FaultPlan};
use crate::metrics::Metrics;
use crate::node::NodeId;
use crate::noise::{BurstyNoise, NoiseModel};
use crate::sim::{Outcome, RunReport, SimConfig};
use crate::time::{Duration, SimTime};
use crate::topology::{Link, Position, Topology};
use crate::trace::TraceEvent;
use crate::violation::ContentDigest;
use std::convert::Infallible;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Current capture-format version, written in the header line.
pub const CAPSULE_VERSION: u64 = 1;

/// Magic prefix of the binary-framed encoding.
pub const FRAME_MAGIC: [u8; 4] = *b"LRSC";

/// Engine label for the [`Simulator`](crate::sim::Simulator), the only
/// engine. Capsules keep the label (and a shard count of 1) so the
/// format stays byte-compatible with capsules written when a second
/// engine existed.
pub const SEQUENTIAL_ENGINE: &str = "sequential";

/// The per-node RNG stream-derivation constants, recorded in the
/// header so a capsule documents its own reproduction recipe: the
/// protocol stream of each node is `seed·c₀ ^ node`. `c₁` and `c₂`
/// seeded the per-node tx/rx streams of the removed sharded engine;
/// they stay in the header so the format is byte-compatible.
pub const RNG_STREAMS: &str = "9e3779b97f4a7c15,ff51afd7ed558ccd,c4ceb9fe1a85ec53";

/// Condensed identity of a finished run: what replay must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunDigest {
    /// [`Outcome::label`] of the run.
    pub outcome: String,
    /// Virtual time when the run stopped.
    pub final_time: SimTime,
    /// Number of trace events digested (0 when the trace was not
    /// collected).
    pub events: u64,
    /// FNV-1a over every trace line (newline-terminated), or
    /// [`ContentDigest::MISSING`] when the trace was not collected.
    pub trace: ContentDigest,
    /// FNV-1a over the canonical metrics JSON line.
    pub metrics: ContentDigest,
    /// Event-order digest. Always [`ContentDigest::MISSING`]: the
    /// engine's event order is queue-internal and already covered by
    /// `trace`. Kept so the capsule format stays byte-compatible.
    pub order: ContentDigest,
}

impl RunDigest {
    /// Digests a finished run from its report, metrics, and trace. The
    /// last argument is always `None` (it cannot be anything else); it
    /// keeps existing four-argument call sites compiling.
    pub fn compute(
        report: &RunReport,
        metrics: &Metrics,
        trace: &[TraceEvent],
        _order: Option<Infallible>,
    ) -> Self {
        let mut trace_digest = ContentDigest::EMPTY;
        for event in trace {
            trace_digest = trace_digest
                .absorb(event.to_json().as_bytes())
                .absorb(b"\n");
        }
        RunDigest {
            outcome: report.outcome.label().to_string(),
            final_time: report.final_time,
            events: trace.len() as u64,
            trace: trace_digest,
            metrics: Self::metrics_digest(report.final_time, metrics),
            order: ContentDigest::MISSING,
        }
    }

    /// Digest of a run whose trace was not collected (e.g. the
    /// sequential engine's automatic failure dump): outcome, final
    /// time, and metrics only; trace/order digests are `MISSING`.
    pub fn metrics_only(outcome: Outcome, final_time: SimTime, metrics: &Metrics) -> Self {
        RunDigest {
            outcome: outcome.label().to_string(),
            final_time,
            events: 0,
            trace: ContentDigest::MISSING,
            metrics: Self::metrics_digest(final_time, metrics),
            order: ContentDigest::MISSING,
        }
    }

    fn metrics_digest(final_time: SimTime, metrics: &Metrics) -> ContentDigest {
        ContentDigest::of(metrics.to_trace_json(final_time).as_bytes())
    }
}

/// A [`RunDigest`] tagged with the engine that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineDigest {
    /// Engine label; [`SEQUENTIAL_ENGINE`] for every digest this code
    /// writes.
    pub engine: String,
    /// Shard count of the digested run (always 1).
    pub shards: usize,
    /// The digest itself.
    pub digest: RunDigest,
}

/// Everything needed to re-execute a run bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct Capsule {
    /// The run seed; all per-node RNG streams derive from it (see
    /// [`RNG_STREAMS`]).
    pub seed: u64,
    /// Engine of the captured run ([`SEQUENTIAL_ENGINE`]).
    pub engine: String,
    /// Shard count of the captured run (always 1).
    pub shards: usize,
    /// The deadline the run was started with.
    pub deadline: Duration,
    /// Full simulation configuration (radio, noise, watchdog).
    pub config: SimConfig,
    /// Exact topology, including the sampled per-link PRR table.
    pub topology: Topology,
    /// The complete fault schedule.
    pub faults: FaultPlan,
    /// Free-form key/value tags describing how to reconstruct the
    /// protocol under test (scheme name, image length, params, …).
    pub scenario: Vec<(String, String)>,
    /// Recorded run digests.
    pub digests: Vec<EngineDigest>,
}

/// Errors loading or parsing a capsule.
#[derive(Debug)]
pub enum CapsuleError {
    /// File-system error while loading.
    Io(io::Error),
    /// The byte stream is not a framed capsule (bad magic, truncated
    /// frame, or non-UTF-8 content).
    BadFrame(&'static str),
    /// The capsule was written by a newer format version.
    UnsupportedVersion(u64),
    /// A JSONL line failed to parse.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for CapsuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapsuleError::Io(err) => write!(f, "capsule I/O error: {err}"),
            CapsuleError::BadFrame(why) => write!(f, "bad capsule frame: {why}"),
            CapsuleError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "capsule version {v} is newer than supported {CAPSULE_VERSION}"
                )
            }
            CapsuleError::Malformed { line, reason } => {
                write!(f, "malformed capsule line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CapsuleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CapsuleError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for CapsuleError {
    fn from(err: io::Error) -> Self {
        CapsuleError::Io(err)
    }
}

/// Escapes `"` and `\` for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Extracts `"key":"…"` honoring `\"`/`\\` escapes (the plain
/// [`json_str_field`] stops at the first quote).
fn json_escaped_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
}

impl Capsule {
    /// Looks up a scenario tag by key.
    pub fn scenario_value(&self, key: &str) -> Option<&str> {
        self.scenario
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The recorded digest for `engine`, if any (the first match).
    pub fn digest_for(&self, engine: &str) -> Option<&EngineDigest> {
        self.digests.iter().find(|d| d.engine == engine)
    }

    /// Renders the capsule as JSON Lines (trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            r#"{{"ev":"capsule","version":{CAPSULE_VERSION},"seed":{},"engine":"{}","shards":{},"deadline_us":{},"rng_streams":"{RNG_STREAMS}"}}"#,
            self.seed,
            self.engine,
            self.shards,
            self.deadline.as_micros(),
        ));
        out.push('\n');
        let medium = &self.config.medium;
        out.push_str(&format!(
            r#"{{"ev":"capsule_config","us_per_byte":{},"overhead_us":{},"max_backoff_us":{},"csma":{},"collisions":{},"app_loss_bits":{},"diag_events":{}"#,
            medium.us_per_byte,
            medium.per_packet_overhead_us,
            medium.max_backoff_us,
            u8::from(medium.csma),
            u8::from(medium.collisions),
            medium.app_loss.to_bits(),
            self.config.diag_events,
        ));
        if let Some(limit) = self.config.max_sim_time {
            out.push_str(&format!(r#","max_sim_time_us":{}"#, limit.as_micros()));
        }
        if let Some(window) = self.config.stall_window {
            out.push_str(&format!(r#","stall_window_us":{}"#, window.as_micros()));
        }
        if let NoiseModel::Bursty(noise) = medium.noise {
            out.push_str(&format!(
                r#","noise":"bursty","noise_quiet_us":{},"noise_noisy_us":{},"noise_factor_bits":{}"#,
                noise.mean_quiet_us,
                noise.mean_noisy_us,
                noise.noisy_prr_factor.to_bits(),
            ));
        }
        out.push_str("}\n");
        for (i, position) in self.topology.positions().iter().enumerate() {
            out.push_str(&format!(
                r#"{{"ev":"capsule_node","node":{i},"x_bits":{},"y_bits":{}}}"#,
                position.x.to_bits(),
                position.y.to_bits(),
            ));
            out.push('\n');
        }
        for from in 0..self.topology.len() {
            for link in self.topology.links_from(NodeId(from as u32)) {
                out.push_str(&format!(
                    r#"{{"ev":"capsule_link","from":{from},"to":{},"prr_bits":{}}}"#,
                    link.to.0,
                    link.prr.to_bits(),
                ));
                out.push('\n');
            }
        }
        for (key, value) in &self.scenario {
            out.push_str(&format!(
                r#"{{"ev":"capsule_scenario","key":"{}","value":"{}"}}"#,
                escape(key),
                escape(value),
            ));
            out.push('\n');
        }
        for event in self.faults.events() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        for entry in &self.digests {
            out.push_str(&format!(
                r#"{{"ev":"capsule_digest","engine":"{}","shards":{},"outcome":"{}","final_time":{},"events":{},"trace":"{}","metrics":"{}","order":"{}"}}"#,
                entry.engine,
                entry.shards,
                entry.digest.outcome,
                entry.digest.final_time.as_micros(),
                entry.digest.events,
                entry.digest.trace,
                entry.digest.metrics,
                entry.digest.order,
            ));
            out.push('\n');
        }
        out
    }

    /// Parses the JSONL encoding.
    pub fn from_jsonl(text: &str) -> Result<Self, CapsuleError> {
        let mal = |line: usize, reason: &str| CapsuleError::Malformed {
            line,
            reason: reason.to_string(),
        };
        let mut header: Option<(u64, String, usize, Duration)> = None;
        let mut config: Option<SimConfig> = None;
        let mut positions: Vec<(usize, Position)> = Vec::new();
        let mut link_rows: Vec<(usize, Link)> = Vec::new();
        let mut scenario: Vec<(String, String)> = Vec::new();
        let mut fault_events: Vec<FaultEvent> = Vec::new();
        let mut digests: Vec<EngineDigest> = Vec::new();
        for (index, line) in text.lines().enumerate() {
            let no = index + 1;
            if line.trim().is_empty() {
                continue;
            }
            let ev = json_str_field(line, "ev").ok_or_else(|| mal(no, "missing \"ev\" field"))?;
            match ev {
                "capsule" => {
                    let version = json_u64_field(line, "version")
                        .ok_or_else(|| mal(no, "missing version"))?;
                    if version > CAPSULE_VERSION {
                        return Err(CapsuleError::UnsupportedVersion(version));
                    }
                    header = Some((
                        json_u64_field(line, "seed").ok_or_else(|| mal(no, "missing seed"))?,
                        json_str_field(line, "engine")
                            .ok_or_else(|| mal(no, "missing engine"))?
                            .to_string(),
                        json_u64_field(line, "shards").ok_or_else(|| mal(no, "missing shards"))?
                            as usize,
                        Duration::from_micros(
                            json_u64_field(line, "deadline_us")
                                .ok_or_else(|| mal(no, "missing deadline_us"))?,
                        ),
                    ));
                }
                "capsule_config" => {
                    let field = |key: &str| {
                        json_u64_field(line, key).ok_or_else(|| mal(no, &format!("missing {key}")))
                    };
                    let noise = match json_str_field(line, "noise") {
                        Some("bursty") => NoiseModel::Bursty(BurstyNoise {
                            mean_quiet_us: field("noise_quiet_us")?,
                            mean_noisy_us: field("noise_noisy_us")?,
                            noisy_prr_factor: f64::from_bits(field("noise_factor_bits")?),
                        }),
                        Some(other) => {
                            return Err(mal(no, &format!("unknown noise model \"{other}\"")))
                        }
                        None => NoiseModel::None,
                    };
                    config = Some(SimConfig {
                        medium: crate::medium::MediumConfig {
                            us_per_byte: field("us_per_byte")?,
                            per_packet_overhead_us: field("overhead_us")?,
                            max_backoff_us: field("max_backoff_us")?,
                            csma: field("csma")? != 0,
                            collisions: field("collisions")? != 0,
                            app_loss: f64::from_bits(field("app_loss_bits")?),
                            noise,
                        },
                        max_sim_time: json_u64_field(line, "max_sim_time_us")
                            .map(Duration::from_micros),
                        stall_window: json_u64_field(line, "stall_window_us")
                            .map(Duration::from_micros),
                        diag_events: field("diag_events")? as usize,
                    });
                }
                "capsule_node" => {
                    let field = |key: &str| {
                        json_u64_field(line, key).ok_or_else(|| mal(no, &format!("missing {key}")))
                    };
                    positions.push((
                        field("node")? as usize,
                        Position {
                            x: f64::from_bits(field("x_bits")?),
                            y: f64::from_bits(field("y_bits")?),
                        },
                    ));
                }
                "capsule_link" => {
                    let field = |key: &str| {
                        json_u64_field(line, key).ok_or_else(|| mal(no, &format!("missing {key}")))
                    };
                    link_rows.push((
                        field("from")? as usize,
                        Link {
                            to: NodeId(field("to")? as u32),
                            prr: f64::from_bits(field("prr_bits")?),
                        },
                    ));
                }
                "capsule_scenario" => {
                    scenario.push((
                        json_escaped_str_field(line, "key")
                            .ok_or_else(|| mal(no, "missing key"))?,
                        json_escaped_str_field(line, "value")
                            .ok_or_else(|| mal(no, "missing value"))?,
                    ));
                }
                "capsule_digest" => {
                    let hex = |key: &str| -> Result<ContentDigest, CapsuleError> {
                        let text = json_str_field(line, key)
                            .ok_or_else(|| mal(no, &format!("missing {key}")))?;
                        u64::from_str_radix(text, 16)
                            .map(ContentDigest)
                            .map_err(|_| mal(no, &format!("non-hex {key} digest")))
                    };
                    let field = |key: &str| {
                        json_u64_field(line, key).ok_or_else(|| mal(no, &format!("missing {key}")))
                    };
                    digests.push(EngineDigest {
                        engine: json_str_field(line, "engine")
                            .ok_or_else(|| mal(no, "missing engine"))?
                            .to_string(),
                        shards: field("shards")? as usize,
                        digest: RunDigest {
                            outcome: json_str_field(line, "outcome")
                                .ok_or_else(|| mal(no, "missing outcome"))?
                                .to_string(),
                            final_time: SimTime(field("final_time")?),
                            events: field("events")?,
                            trace: hex("trace")?,
                            metrics: hex("metrics")?,
                            order: hex("order")?,
                        },
                    });
                }
                other if other.starts_with("fault_") => {
                    let event = FaultEvent::from_json(line)
                        .ok_or_else(|| mal(no, "unparseable fault event"))?;
                    fault_events.push(event);
                }
                other => return Err(mal(no, &format!("unknown event \"{other}\""))),
            }
        }
        let (seed, engine, shards, deadline) =
            header.ok_or_else(|| mal(0, "no \"capsule\" header line"))?;
        let config = config.ok_or_else(|| mal(0, "no \"capsule_config\" line"))?;
        positions.sort_by_key(|(i, _)| *i);
        for (slot, (index, _)) in positions.iter().enumerate() {
            if slot != *index {
                return Err(mal(0, &format!("node table has a gap at n{slot}")));
            }
        }
        let n = positions.len();
        let mut links: Vec<Vec<Link>> = vec![Vec::new(); n];
        for (from, link) in link_rows {
            if from >= n || (link.to.0 as usize) >= n {
                return Err(mal(0, &format!("link n{from}→n{} out of range", link.to.0)));
            }
            links[from].push(link);
        }
        let topology = Topology::from_parts(positions.into_iter().map(|(_, p)| p).collect(), links);
        let mut faults = FaultPlan::new();
        for event in fault_events {
            faults.push(event);
        }
        Ok(Capsule {
            seed,
            engine,
            shards,
            deadline,
            config,
            topology,
            faults,
            scenario,
            digests,
        })
    }

    /// Renders the binary-framed encoding: `LRSC` magic, `u32` LE
    /// version, then one length-prefixed frame per JSONL line.
    pub fn to_framed(&self) -> Vec<u8> {
        let jsonl = self.to_jsonl();
        let mut out = Vec::with_capacity(jsonl.len() + 64);
        out.extend_from_slice(&FRAME_MAGIC);
        out.extend_from_slice(&(CAPSULE_VERSION as u32).to_le_bytes());
        for line in jsonl.lines() {
            out.extend_from_slice(&(line.len() as u32).to_le_bytes());
            out.extend_from_slice(line.as_bytes());
        }
        out
    }

    /// Parses the binary-framed encoding.
    pub fn from_framed(bytes: &[u8]) -> Result<Self, CapsuleError> {
        if bytes.len() < 8 || bytes[..4] != FRAME_MAGIC {
            return Err(CapsuleError::BadFrame("missing LRSC magic"));
        }
        let version = u64::from(u32::from_le_bytes(
            bytes[4..8].try_into().expect("4 bytes sliced"),
        ));
        if version > CAPSULE_VERSION {
            return Err(CapsuleError::UnsupportedVersion(version));
        }
        let mut text = String::with_capacity(bytes.len());
        let mut off = 8;
        while off < bytes.len() {
            if off + 4 > bytes.len() {
                return Err(CapsuleError::BadFrame("truncated frame length"));
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes sliced"))
                as usize;
            off += 4;
            if off + len > bytes.len() {
                return Err(CapsuleError::BadFrame("truncated frame body"));
            }
            let line = std::str::from_utf8(&bytes[off..off + len])
                .map_err(|_| CapsuleError::BadFrame("frame is not UTF-8"))?;
            text.push_str(line);
            text.push('\n');
            off += len;
        }
        Self::from_jsonl(&text)
    }

    /// Saves to `path`: binary-framed when the extension is `lrsc` or
    /// `bin`, JSONL otherwise.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let framed = matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("lrsc" | "bin")
        );
        if framed {
            std::fs::write(path, self.to_framed())
        } else {
            std::fs::write(path, self.to_jsonl())
        }
    }

    /// Loads from `path`, auto-detecting the encoding by the frame
    /// magic.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CapsuleError> {
        let bytes = std::fs::read(path)?;
        if bytes.starts_with(&FRAME_MAGIC) {
            Self::from_framed(&bytes)
        } else {
            let text = String::from_utf8(bytes)
                .map_err(|_| CapsuleError::BadFrame("capsule is not UTF-8"))?;
            Self::from_jsonl(&text)
        }
    }
}

/// Where (and with which scenario tags) the automatic failure dump
/// writes its capsule. Built by
/// [`SimBuilder::capsule_on_failure`](crate::SimBuilder::capsule_on_failure)
/// or handed to
/// [`Simulator::set_capsule_on_failure`](crate::sim::Simulator::set_capsule_on_failure).
#[derive(Clone, Debug)]
pub struct CapsuleSpec {
    /// Output path; parent directories are created on demand.
    pub path: PathBuf,
    /// Scenario tags recorded into the capsule.
    pub scenario: Vec<(String, String)>,
}

impl CapsuleSpec {
    /// A spec writing to `path` with no scenario tags.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CapsuleSpec {
            path: path.into(),
            scenario: Vec::new(),
        }
    }

    /// Adds a scenario tag.
    pub fn tag(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.scenario.push((key.into(), value.to_string()));
        self
    }

    /// Best-effort write used by the automatic failure dumps: creates
    /// parent directories and reports (rather than propagates) I/O
    /// errors, because a failing run must still return its report.
    pub(crate) fn write(&self, capsule: &Capsule) {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        if let Err(err) = capsule.save(&self.path) {
            eprintln!(
                "warning: failed to write failure capsule {}: {err}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MediumConfig;

    fn sample_capsule() -> Capsule {
        let mut faults = FaultPlan::new();
        faults.crash(NodeId(3), SimTime(400_000));
        faults.link_outage(
            NodeId(1),
            NodeId(2),
            SimTime(100_000),
            Duration::from_secs(1),
        );
        Capsule {
            seed: 0xDEAD_BEEF,
            engine: SEQUENTIAL_ENGINE.to_string(),
            shards: 1,
            deadline: Duration::from_secs(100),
            config: SimConfig {
                medium: MediumConfig {
                    app_loss: 0.05,
                    noise: NoiseModel::Bursty(BurstyNoise::heavy()),
                    ..MediumConfig::default()
                },
                max_sim_time: Some(Duration::from_secs(3_000)),
                stall_window: Some(Duration::from_secs(400)),
                diag_events: 64,
            },
            topology: Topology::grid(3, 10.0, 7),
            faults,
            scenario: vec![
                ("scheme".to_string(), "lr-seluge".to_string()),
                ("note".to_string(), "quote \" and back\\slash".to_string()),
            ],
            digests: vec![EngineDigest {
                engine: SEQUENTIAL_ENGINE.to_string(),
                shards: 1,
                digest: RunDigest {
                    outcome: "stalled".to_string(),
                    final_time: SimTime(123_456),
                    events: 42,
                    trace: ContentDigest(0x1122_3344_5566_7788),
                    metrics: ContentDigest(0x99AA_BBCC_DDEE_FF00),
                    order: ContentDigest::MISSING,
                },
            }],
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let capsule = sample_capsule();
        let text = capsule.to_jsonl();
        let parsed = Capsule::from_jsonl(&text).expect("parse");
        assert_eq!(parsed, capsule);
        // Every line is a self-contained JSON object.
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn framed_round_trip_is_exact_and_magic_prefixed() {
        let capsule = sample_capsule();
        let bytes = capsule.to_framed();
        assert_eq!(&bytes[..4], b"LRSC");
        assert_eq!(Capsule::from_framed(&bytes).expect("parse"), capsule);
    }

    #[test]
    fn newer_versions_are_rejected() {
        let text = sample_capsule()
            .to_jsonl()
            .replacen("\"version\":1", "\"version\":99", 1);
        assert!(matches!(
            Capsule::from_jsonl(&text),
            Err(CapsuleError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let bytes = sample_capsule().to_framed();
        assert!(matches!(
            Capsule::from_framed(&bytes[..bytes.len() - 3]),
            Err(CapsuleError::BadFrame(_))
        ));
        assert!(matches!(
            Capsule::from_framed(b"NOPE"),
            Err(CapsuleError::BadFrame(_))
        ));
    }

    #[test]
    fn scenario_lookup_and_escaping() {
        let capsule = sample_capsule();
        let parsed = Capsule::from_jsonl(&capsule.to_jsonl()).expect("parse");
        assert_eq!(parsed.scenario_value("scheme"), Some("lr-seluge"));
        assert_eq!(
            parsed.scenario_value("note"),
            Some("quote \" and back\\slash")
        );
        assert_eq!(parsed.scenario_value("absent"), None);
    }

    #[test]
    fn digest_lookup_by_engine() {
        let capsule = sample_capsule();
        assert!(capsule.digest_for(SEQUENTIAL_ENGINE).is_some());
        assert!(capsule.digest_for("sharded").is_none());
    }
}
