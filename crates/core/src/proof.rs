//! Proof-carrying repair (§6 hardened): evidence artifacts minted per
//! [`RepairPlan`] and re-validated before commit.
//!
//! The paper's repair loop reverts a root cause but ships no evidence
//! that the revert is correct. [`RepairProof`] is that evidence:
//!
//! * the **HBG provenance path** from the root-cause leaf down to the
//!   problematic FIB event, each hop carrying a content digest of the
//!   captured event it names;
//! * a **hash chain** over those digests ([`cpvr_types::hash::chain`]),
//!   so flipping any byte of any hop — or reordering hops — breaks
//!   every downstream link and the gate returns ERROR, never Applied;
//! * the **predicted post-repair EC behaviors**: the behavior-class
//!   map (the §6 "<15 classes at 100K prefixes" notion that
//!   [`crate::predict`] learns templates over) of the shadow state
//!   after the repair, plus the root cause's FIB-consequence template
//!   from [`crate::predict::fib_template`];
//! * a **deterministic replay transcript** derived from the (time,id)
//!   fold: undo steps that revert the root cause's FIB consequences
//!   and redo steps that reproduce them, with the base violations and
//!   a FIB footprint digest pinning the state the transcript was
//!   minted against.
//!
//! [`gate_repair`] re-validates all of it against the resident
//! verifier's shadow state and returns the
//! REPRODUCED/DIVERGED/ERROR verdict the control loop blocks on. The
//! whole artifact round-trips through `cpvr_types::json`
//! (externally-tagged, human-auditable) and through the v3-style
//! binary codec ([`RepairProof::encode_binary`]) that the collector
//! journals and federation peers exchange.

use std::collections::{BTreeMap, BTreeSet};

use crate::hbg::Hbg;
use crate::predict::fib_template;
use crate::provenance::provenance_path;
use crate::repair::RepairPlan;
use cpvr_dataplane::{FibAction, FibUpdate, UpdateKind};
use cpvr_sim::{EventId, IoEvent, IoKind, Trace};
use cpvr_types::hash;
use cpvr_types::json::{self, FromJson};
use cpvr_types::{varint, Ipv4Prefix, RouterId, SimTime};
use cpvr_verify::{
    violation_sigs, IncrementalVerifier, ReplayGate, ReplayTranscript, ReplayVerdict,
};

/// One hop of the provenance path, with a content digest of the
/// captured event it names (FNV-1a over the event's canonical JSON).
#[derive(Clone, Debug, PartialEq)]
pub struct ProvenanceHop {
    /// The event at this hop.
    pub event: EventId,
    /// Where it happened.
    pub router: RouterId,
    /// When it happened.
    pub time: SimTime,
    /// FNV-1a 64 digest of the event's canonical compact JSON.
    pub digest: u64,
}

/// One predicted post-repair behavior class: the per-router forwarding
/// behavior signature and the prefixes it covers.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictedBehavior {
    /// The behavior signature (one rendered action per router).
    pub behavior: Vec<String>,
    /// Prefixes forwarded with this behavior.
    pub prefixes: Vec<Ipv4Prefix>,
}

/// The evidence artifact minted for one repair plan.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairProof {
    /// The plan this proof justifies.
    pub plan: RepairPlan,
    /// The problematic FIB event the provenance walk started from.
    pub target: EventId,
    /// The confidence threshold the provenance was walked at.
    pub min_confidence: f64,
    /// The widest provenance path, root-cause leaf first, target last.
    pub provenance: Vec<ProvenanceHop>,
    /// Running hash chain over the hop digests: `chain[i]` commits to
    /// hops `0..=i` in order.
    pub chain: Vec<u64>,
    /// Predicted post-repair behavior classes (shadow state after the
    /// undo steps).
    pub predicted: Vec<PredictedBehavior>,
    /// The root cause's FIB-consequence template from
    /// [`crate::predict::fib_template`] — the final action per router
    /// among the consequences the repair reverts.
    pub template: Vec<(RouterId, Option<FibAction>)>,
    /// The deterministic replay transcript the gate re-executes.
    pub transcript: ReplayTranscript,
}

/// Recomputes the hash chain committed to by `hops`, in order.
pub fn chain_over(hops: &[ProvenanceHop]) -> Vec<u64> {
    let mut out = Vec::with_capacity(hops.len());
    let mut link = hash::FNV_OFFSET;
    for h in hops {
        link = hash::chain(link, h.digest);
        out.push(link);
    }
    out
}

impl RepairProof {
    /// A stable identifier for this proof: the FNV-1a digest of its
    /// binary encoding. Journal records for every lifecycle stage of
    /// one repair carry the same id.
    pub fn repair_id(&self) -> u64 {
        cpvr_types::fnv1a64(&self.encode_binary())
    }
}

/// Mints the proof for `plan` against the live verifier state.
///
/// `trace` and `hbg` must be the capture and graph the plan's root
/// cause was walked from; `target` is the problematic FIB event;
/// `verifier` is the resident verifier whose state the transcript's
/// base digest pins. The transcript is derived purely from the
/// (time,id)-ordered FIB events of the trace, so minting is
/// deterministic: the same inputs always produce the same proof bytes.
pub fn prove(
    trace: &Trace,
    hbg: &Hbg,
    verifier: &IncrementalVerifier,
    plan: &RepairPlan,
    target: EventId,
    min_confidence: f64,
) -> RepairProof {
    let horizon = trace
        .events
        .get(target.index())
        .map(|e| e.time)
        .unwrap_or(SimTime::MAX);
    // Provenance path + per-hop content digests + chain.
    let path = provenance_path(hbg, plan.root.event, target, min_confidence);
    let provenance: Vec<ProvenanceHop> = path
        .iter()
        .filter_map(|id| trace.events.get(id.index()))
        .map(|e| ProvenanceHop {
            event: e.id,
            router: e.router,
            time: e.time,
            digest: cpvr_types::fnv1a64(json::to_string_compact(e).as_bytes()),
        })
        .collect();
    let chain = chain_over(&provenance);

    // The FIB consequences of the root cause, in (time,id) fold order,
    // plus the pre-consequence state of every touched (router, prefix)
    // pair — reconstructed by walking the captured FIB stream so the
    // removal steps know which action they removed. Only the touched
    // pairs' history matters, so the walk tracks (and sorts) nothing
    // else: its cost follows the incident, not the trace.
    let consequences: BTreeSet<EventId> = std::iter::once(plan.root.event)
        .chain(hbg.descendants(plan.root.event, min_confidence))
        .collect();
    let fib_key = |e: &IoEvent| match &e.kind {
        IoKind::FibInstall { prefix, .. } | IoKind::FibRemove { prefix } if e.time <= horizon => {
            Some((e.router, *prefix))
        }
        _ => None,
    };
    let touched: BTreeSet<(RouterId, Ipv4Prefix)> = consequences
        .iter()
        .filter_map(|id| trace.events.get(id.index()))
        .filter_map(fib_key)
        .collect();
    let mut fib_events: Vec<_> = trace
        .events
        .iter()
        .filter(|e| fib_key(e).is_some_and(|key| touched.contains(&key)))
        .collect();
    fib_events.sort_by_key(|e| (e.time, e.id));
    let mut state: BTreeMap<(RouterId, Ipv4Prefix), (FibAction, SimTime)> = BTreeMap::new();
    let mut pre: BTreeMap<(RouterId, Ipv4Prefix), Option<(FibAction, SimTime)>> = BTreeMap::new();
    let mut redo: Vec<FibUpdate> = Vec::new();
    for e in fib_events {
        let (prefix, install_action) = match &e.kind {
            IoKind::FibInstall { prefix, action } => (*prefix, Some(*action)),
            IoKind::FibRemove { prefix } => (*prefix, None),
            _ => unreachable!("filtered to FIB events"),
        };
        let key = (e.router, prefix);
        if consequences.contains(&e.id) {
            pre.entry(key).or_insert_with(|| state.get(&key).copied());
            redo.push(match install_action {
                Some(action) => FibUpdate {
                    router: e.router,
                    prefix,
                    kind: UpdateKind::Install,
                    action,
                    at: e.time,
                },
                None => FibUpdate {
                    router: e.router,
                    prefix,
                    kind: UpdateKind::Remove,
                    // The removed action, when the stream recorded one;
                    // removing an absent entry is a no-op either way.
                    action: state.get(&key).map(|(a, _)| *a).unwrap_or(FibAction::Drop),
                    at: e.time,
                },
            });
        }
        match install_action {
            Some(action) => {
                state.insert(key, (action, e.time));
            }
            None => {
                state.remove(&key);
            }
        }
    }
    // Undo: restore every touched pair to its pre-consequence state, in
    // deterministic pair order.
    let undo: Vec<FibUpdate> = pre
        .iter()
        .map(|(&(router, prefix), prior)| match prior {
            Some((action, at)) => FibUpdate {
                router,
                prefix,
                kind: UpdateKind::Install,
                action: *action,
                at: *at,
            },
            None => FibUpdate {
                router,
                prefix,
                kind: UpdateKind::Remove,
                action: state
                    .get(&(router, prefix))
                    .map(|(a, _)| *a)
                    .unwrap_or(FibAction::Drop),
                at: horizon,
            },
        })
        .collect();

    let transcript = ReplayTranscript {
        base_violations: violation_sigs(&verifier.report().violations),
        base_digest: 0,
        undo,
        redo,
    };
    let transcript = ReplayTranscript {
        base_digest: transcript.digest_on(verifier.dataplane()),
        ..transcript
    };

    // Predicted post-repair EC behaviors: the behavior-class map of the
    // shadow state after the undo steps.
    let mut shadow = verifier.clone();
    for u in &transcript.undo {
        shadow.apply(u);
    }
    let predicted = behaviors_of(&mut shadow);

    RepairProof {
        plan: plan.clone(),
        target,
        min_confidence,
        provenance,
        chain,
        predicted,
        template: fib_template_of(trace, hbg, plan.root.event, horizon, min_confidence),
        transcript,
    }
}

/// The behavior-class map of `v`, in canonical (sorted) order.
fn behaviors_of(v: &mut IncrementalVerifier) -> Vec<PredictedBehavior> {
    v.behavior_classes()
        .into_iter()
        .map(|(behavior, prefixes)| PredictedBehavior { behavior, prefixes })
        .collect()
}

/// [`fib_template`] keyed by event id, tolerating ids outside the
/// trace (yields an empty template rather than panicking).
fn fib_template_of(
    trace: &Trace,
    hbg: &Hbg,
    root: EventId,
    horizon: SimTime,
    min_conf: f64,
) -> Vec<(RouterId, Option<FibAction>)> {
    match trace.events.get(root.index()) {
        Some(e) => fib_template(trace, hbg, e, horizon, min_conf),
        None => Vec::new(),
    }
}

/// Re-validates `proof` against the resident verifier and returns the
/// verdict the control loop blocks on.
///
/// Checks, in order: the hash chain over the provenance hops (any
/// tampering — a flipped byte in a digest, a reordered or dropped hop,
/// an edited chain link — is ERROR: the evidence is structurally
/// unsound and nothing is replayed); then the deterministic replay via
/// [`ReplayGate`] on a shadow clone; then, for a reproduced replay,
/// the predicted post-repair behavior classes against a fresh shadow.
/// Only REPRODUCED may commit; the shadow is discarded on every path,
/// which *is* the rollback of the tentative apply.
pub fn gate_repair(verifier: &IncrementalVerifier, proof: &RepairProof) -> ReplayVerdict {
    if proof.provenance.is_empty() {
        return ReplayVerdict::Error("empty provenance path: no evidence to validate".into());
    }
    if chain_over(&proof.provenance) != proof.chain {
        return ReplayVerdict::Error(
            "hash chain does not match the provenance hops: evidence tampered or corrupted".into(),
        );
    }
    // A provenance *path* never revisits an event — a self-loop or
    // cycle means the walk was forged, even if the chain was recomputed
    // over the looped hops and is internally consistent.
    let mut seen = BTreeSet::new();
    for h in &proof.provenance {
        if !seen.insert(h.event) {
            return ReplayVerdict::Error(format!(
                "provenance path revisits event {}: self-loop or cycle in the evidence",
                h.event.0
            ));
        }
    }
    let verdict = ReplayGate::execute(verifier, &proof.transcript);
    if !verdict.is_reproduced() {
        return verdict;
    }
    // The replay reproduced; the predicted post-repair behaviors must
    // match what the repair would actually produce.
    let mut shadow = verifier.clone();
    for u in &proof.transcript.undo {
        shadow.apply(u);
    }
    if behaviors_of(&mut shadow) != proof.predicted {
        return ReplayVerdict::Diverged(
            "predicted post-repair behavior classes differ from the shadow replay".into(),
        );
    }
    ReplayVerdict::Reproduced
}

// ---------------------------------------------------------------------
// Binary codec (v3 wire style: varints + length-prefixed bytes).
// ---------------------------------------------------------------------

/// Version byte heading every binary-encoded proof — matches the v3
/// binary wire generation it ships in.
pub const PROOF_CODEC_VERSION: u8 = 3;

fn write_str(out: &mut Vec<u8>, s: &str) {
    varint::write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String, String> {
    let len = varint::read_u64(buf, pos).ok_or("truncated string length")? as usize;
    let end = pos.checked_add(len).filter(|&e| e <= buf.len());
    let end = end.ok_or("string length overruns buffer")?;
    let s = std::str::from_utf8(&buf[*pos..end]).map_err(|_| "invalid utf-8".to_string())?;
    *pos = end;
    Ok(s.to_string())
}

fn write_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64_le(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let end = pos.checked_add(8).filter(|&e| e <= buf.len());
    let end = end.ok_or("truncated u64")?;
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(u64::from_le_bytes(b))
}

fn write_prefix(out: &mut Vec<u8>, p: &Ipv4Prefix) {
    varint::write_u32(out, p.bits());
    out.push(p.len());
}

fn read_prefix(buf: &[u8], pos: &mut usize) -> Result<Ipv4Prefix, String> {
    let bits = varint::read_u32(buf, pos).ok_or("truncated prefix bits")?;
    let len = *buf.get(*pos).ok_or("truncated prefix length")?;
    *pos += 1;
    if len > 32 {
        return Err(format!("prefix length {len} out of range"));
    }
    Ok(Ipv4Prefix::from_bits(bits, len))
}

fn write_action(out: &mut Vec<u8>, a: &FibAction) {
    match a {
        FibAction::Forward(l) => {
            out.push(0);
            varint::write_u32(out, l.0);
        }
        FibAction::Exit(p) => {
            out.push(1);
            varint::write_u32(out, p.0);
        }
        FibAction::Local => out.push(2),
        FibAction::Drop => out.push(3),
    }
}

fn read_action(buf: &[u8], pos: &mut usize) -> Result<FibAction, String> {
    let tag = *buf.get(*pos).ok_or("truncated action tag")?;
    *pos += 1;
    Ok(match tag {
        0 => FibAction::Forward(cpvr_topo::LinkId(
            varint::read_u32(buf, pos).ok_or("truncated link id")?,
        )),
        1 => FibAction::Exit(cpvr_topo::ExtPeerId(
            varint::read_u32(buf, pos).ok_or("truncated peer id")?,
        )),
        2 => FibAction::Local,
        3 => FibAction::Drop,
        t => return Err(format!("unknown action tag {t}")),
    })
}

fn write_update(out: &mut Vec<u8>, u: &FibUpdate) {
    varint::write_u32(out, u.router.0);
    write_prefix(out, &u.prefix);
    out.push(match u.kind {
        UpdateKind::Install => 0,
        UpdateKind::Remove => 1,
    });
    write_action(out, &u.action);
    varint::write_u64(out, u.at.as_nanos());
}

fn read_update(buf: &[u8], pos: &mut usize) -> Result<FibUpdate, String> {
    let router = RouterId(varint::read_u32(buf, pos).ok_or("truncated router id")?);
    let prefix = read_prefix(buf, pos)?;
    let kind = match *buf.get(*pos).ok_or("truncated update kind")? {
        0 => UpdateKind::Install,
        1 => UpdateKind::Remove,
        k => return Err(format!("unknown update kind {k}")),
    };
    *pos += 1;
    let action = read_action(buf, pos)?;
    let at = SimTime::from_nanos(varint::read_u64(buf, pos).ok_or("truncated update time")?);
    Ok(FibUpdate {
        router,
        prefix,
        kind,
        action,
        at,
    })
}

impl RepairProof {
    /// Encodes the proof in the v3 binary wire style: a version byte,
    /// then varint-framed fields with fixed 8-byte digests. The plan
    /// (which carries the arbitrarily-structured config change) rides
    /// as length-prefixed canonical JSON — the same layering the wire
    /// codec uses for structured payloads inside binary envelopes.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut out = vec![PROOF_CODEC_VERSION];
        write_str(&mut out, &json::to_string_compact(&self.plan));
        varint::write_u32(&mut out, self.target.0);
        write_u64_le(&mut out, self.min_confidence.to_bits());
        varint::write_u64(&mut out, self.provenance.len() as u64);
        for h in &self.provenance {
            varint::write_u32(&mut out, h.event.0);
            varint::write_u32(&mut out, h.router.0);
            varint::write_u64(&mut out, h.time.as_nanos());
            write_u64_le(&mut out, h.digest);
        }
        varint::write_u64(&mut out, self.chain.len() as u64);
        for link in &self.chain {
            write_u64_le(&mut out, *link);
        }
        varint::write_u64(&mut out, self.predicted.len() as u64);
        for b in &self.predicted {
            varint::write_u64(&mut out, b.behavior.len() as u64);
            for s in &b.behavior {
                write_str(&mut out, s);
            }
            varint::write_u64(&mut out, b.prefixes.len() as u64);
            for p in &b.prefixes {
                write_prefix(&mut out, p);
            }
        }
        varint::write_u64(&mut out, self.template.len() as u64);
        for (r, act) in &self.template {
            varint::write_u32(&mut out, r.0);
            match act {
                Some(a) => {
                    out.push(1);
                    write_action(&mut out, a);
                }
                None => out.push(0),
            }
        }
        let t = &self.transcript;
        varint::write_u64(&mut out, t.base_violations.len() as u64);
        for v in &t.base_violations {
            varint::write_u64(&mut out, v.policy_idx as u64);
            varint::write_u32(&mut out, v.ingress.0);
            write_str(&mut out, &v.representative);
            write_str(&mut out, &v.observed);
        }
        write_u64_le(&mut out, t.base_digest);
        varint::write_u64(&mut out, t.undo.len() as u64);
        for u in &t.undo {
            write_update(&mut out, u);
        }
        varint::write_u64(&mut out, t.redo.len() as u64);
        for u in &t.redo {
            write_update(&mut out, u);
        }
        out
    }

    /// Decodes a binary proof. Every malformation — truncation, a bad
    /// version byte, an unknown tag, invalid UTF-8 or JSON — is a
    /// clean `Err`, never a panic.
    pub fn decode_binary(buf: &[u8]) -> Result<RepairProof, String> {
        let pos = &mut 0usize;
        let version = *buf.first().ok_or("empty proof buffer")?;
        *pos = 1;
        if version != PROOF_CODEC_VERSION {
            return Err(format!("unsupported proof codec version {version}"));
        }
        let plan_json = read_str(buf, pos)?;
        let plan_value = json::parse(&plan_json).map_err(|e| e.to_string())?;
        let plan = RepairPlan::from_json(&plan_value).map_err(|e| e.to_string())?;
        let target = EventId(varint::read_u32(buf, pos).ok_or("truncated target")?);
        let min_confidence = f64::from_bits(read_u64_le(buf, pos)?);
        let n = varint::read_u64(buf, pos).ok_or("truncated provenance count")? as usize;
        let mut provenance = Vec::new();
        for _ in 0..n {
            provenance.push(ProvenanceHop {
                event: EventId(varint::read_u32(buf, pos).ok_or("truncated hop event")?),
                router: RouterId(varint::read_u32(buf, pos).ok_or("truncated hop router")?),
                time: SimTime::from_nanos(varint::read_u64(buf, pos).ok_or("truncated hop time")?),
                digest: read_u64_le(buf, pos)?,
            });
        }
        let n = varint::read_u64(buf, pos).ok_or("truncated chain count")? as usize;
        let mut chain = Vec::new();
        for _ in 0..n {
            chain.push(read_u64_le(buf, pos)?);
        }
        let n = varint::read_u64(buf, pos).ok_or("truncated predicted count")? as usize;
        let mut predicted = Vec::new();
        for _ in 0..n {
            let bn = varint::read_u64(buf, pos).ok_or("truncated behavior count")? as usize;
            let mut behavior = Vec::new();
            for _ in 0..bn {
                behavior.push(read_str(buf, pos)?);
            }
            let pn = varint::read_u64(buf, pos).ok_or("truncated prefix count")? as usize;
            let mut prefixes = Vec::new();
            for _ in 0..pn {
                prefixes.push(read_prefix(buf, pos)?);
            }
            predicted.push(PredictedBehavior { behavior, prefixes });
        }
        let n = varint::read_u64(buf, pos).ok_or("truncated template count")? as usize;
        let mut template = Vec::new();
        for _ in 0..n {
            let r = RouterId(varint::read_u32(buf, pos).ok_or("truncated template router")?);
            let has = *buf.get(*pos).ok_or("truncated template option")?;
            *pos += 1;
            let act = match has {
                0 => None,
                1 => Some(read_action(buf, pos)?),
                t => return Err(format!("bad option tag {t}")),
            };
            template.push((r, act));
        }
        let n = varint::read_u64(buf, pos).ok_or("truncated violation count")? as usize;
        let mut base_violations = Vec::new();
        for _ in 0..n {
            base_violations.push(cpvr_verify::ViolationSig {
                policy_idx: varint::read_u64(buf, pos).ok_or("truncated policy idx")? as usize,
                ingress: RouterId(varint::read_u32(buf, pos).ok_or("truncated ingress")?),
                representative: read_str(buf, pos)?,
                observed: read_str(buf, pos)?,
            });
        }
        let base_digest = read_u64_le(buf, pos)?;
        let n = varint::read_u64(buf, pos).ok_or("truncated undo count")? as usize;
        let mut undo = Vec::new();
        for _ in 0..n {
            undo.push(read_update(buf, pos)?);
        }
        let n = varint::read_u64(buf, pos).ok_or("truncated redo count")? as usize;
        let mut redo = Vec::new();
        for _ in 0..n {
            redo.push(read_update(buf, pos)?);
        }
        if *pos != buf.len() {
            return Err(format!(
                "{} trailing bytes after proof payload",
                buf.len() - *pos
            ));
        }
        Ok(RepairProof {
            plan,
            target,
            min_confidence,
            provenance,
            chain,
            predicted,
            template,
            transcript: ReplayTranscript {
                base_violations,
                base_digest,
                undo,
                redo,
            },
        })
    }
}

cpvr_types::impl_json_struct!(ProvenanceHop {
    event,
    router,
    time,
    digest,
});
cpvr_types::impl_json_struct!(PredictedBehavior { behavior, prefixes });
cpvr_types::impl_json_struct!(RepairProof {
    plan,
    target,
    min_confidence,
    provenance,
    chain,
    predicted,
    template,
    transcript,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::{RootCause, RootCauseKind};
    use crate::repair::RepairAction;
    use cpvr_topo::LinkId;

    fn sample_proof() -> RepairProof {
        let root = RootCause {
            event: EventId(0),
            router: RouterId(1),
            time: SimTime::from_millis(5),
            kind: RootCauseKind::ConfigChange {
                change: Some(cpvr_bgp::ConfigChange::SetAddPath(true)),
                inverse: Some(cpvr_bgp::ConfigChange::SetAddPath(false)),
            },
            confidence: 0.9,
        };
        let plan = RepairPlan {
            router: RouterId(1),
            action: RepairAction::RevertConfig(cpvr_bgp::ConfigChange::SetAddPath(false)),
            root,
            rationale: "test \"rationale\" with\nescapes \u{202e}".into(),
        };
        let hops = vec![
            ProvenanceHop {
                event: EventId(0),
                router: RouterId(1),
                time: SimTime::from_millis(5),
                digest: 0xdead_beef_cafe_f00d,
            },
            ProvenanceHop {
                event: EventId(3),
                router: RouterId(2),
                time: SimTime::from_millis(9),
                digest: 0x0123_4567_89ab_cdef,
            },
        ];
        let chain = chain_over(&hops);
        RepairProof {
            plan,
            target: EventId(3),
            min_confidence: 0.8,
            provenance: hops,
            chain,
            predicted: vec![PredictedBehavior {
                behavior: vec!["fwd(L2)".into(), "drop".into()],
                prefixes: vec!["8.8.8.0/24".parse().unwrap()],
            }],
            template: vec![
                (RouterId(0), Some(FibAction::Forward(LinkId(2)))),
                (RouterId(1), None),
            ],
            transcript: ReplayTranscript {
                base_violations: vec![cpvr_verify::ViolationSig {
                    policy_idx: 0,
                    ingress: RouterId(0),
                    representative: "8.8.8.8".into(),
                    observed: "exited via Ext0".into(),
                }],
                base_digest: 0x1111_2222_3333_4444,
                undo: vec![FibUpdate {
                    router: RouterId(0),
                    prefix: "8.8.8.0/24".parse().unwrap(),
                    kind: UpdateKind::Install,
                    action: FibAction::Forward(LinkId(2)),
                    at: SimTime::from_millis(1),
                }],
                redo: vec![FibUpdate {
                    router: RouterId(0),
                    prefix: "8.8.8.0/24".parse().unwrap(),
                    kind: UpdateKind::Remove,
                    action: FibAction::Forward(LinkId(2)),
                    at: SimTime::from_millis(7),
                }],
            },
        }
    }

    #[test]
    fn json_roundtrip() {
        let proof = sample_proof();
        let text = json::to_string_compact(&proof);
        let back = RepairProof::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, proof);
    }

    #[test]
    fn binary_roundtrip() {
        let proof = sample_proof();
        let bytes = proof.encode_binary();
        let back = RepairProof::decode_binary(&bytes).unwrap();
        assert_eq!(back, proof);
    }

    #[test]
    fn binary_truncation_is_a_clean_error() {
        let bytes = sample_proof().encode_binary();
        for cut in 0..bytes.len() {
            assert!(
                RepairProof::decode_binary(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn repair_id_is_stable_and_content_sensitive() {
        let proof = sample_proof();
        assert_eq!(proof.repair_id(), proof.repair_id());
        let mut other = proof.clone();
        other.target = EventId(4);
        assert_ne!(proof.repair_id(), other.repair_id());
    }
}
