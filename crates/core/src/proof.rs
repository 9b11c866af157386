//! Proof-carrying repair (§6 hardened): evidence artifacts minted per
//! [`RepairPlan`] and re-validated before commit.
//!
//! The paper's repair loop reverts a root cause but ships no evidence
//! that the revert is correct. [`RepairProof`] is that evidence:
//!
//! * the **HBG provenance path** from the root-cause leaf down to the
//!   problematic FIB event, each hop carrying a digest of what a
//!   collector holds of the event it names (its fold record and
//!   input-table entry);
//! * a **hash chain** over those digests ([`cpvr_types::hash::chain`]),
//!   so flipping any byte of any hop — or reordering hops — breaks
//!   every downstream link and the gate returns ERROR, never Applied;
//! * the **predicted post-repair EC behaviors**: the behavior-class
//!   map (the §6 "<15 classes at 100K prefixes" notion that
//!   [`crate::predict`] learns templates over) of the shadow state
//!   after the repair, plus the root cause's FIB-consequence template
//!   from `crate::predict::fib_template`;
//! * a **deterministic replay transcript** derived from the (time,id)
//!   fold: undo steps that revert the root cause's FIB consequences
//!   and redo steps that reproduce them, with the base violations and
//!   a FIB footprint digest pinning the state the transcript was
//!   minted against.
//!
//! [`gate_repair`] re-validates all of it against the resident
//! verifier's shadow state and returns the REPRODUCED/DIVERGED/ERROR
//! verdict the control loop blocks on. The artifact round-trips through
//! `cpvr_types::json` and through the binary codec
//! ([`RepairProof::encode_binary`]) that the collector journals;
//! federation peers exchange the JSON with an FNV-1a digest of the
//! binary bytes, so a peer can re-encode and cross-check it.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;

use crate::hbg::Hbg;
use crate::predict::fib_template;
use crate::provenance::{provenance_path, CaptureView, FibKey, RootCauseKind};
use crate::repair::RepairPlan;
use crate::rules::FoldRecord;
use cpvr_dataplane::{FibAction, FibUpdate, UpdateKind};
use cpvr_sim::{wire, EventId, Trace};
use cpvr_types::bin::{self, BinError, Reader};
use cpvr_types::hash;
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use cpvr_verify::{
    violation_sigs, IncrementalVerifier, ReplayGate, ReplayTranscript, ReplayVerdict,
};

/// One hop of the provenance path, with a content digest of the
/// captured event it names (FNV-1a over its record and input-table
/// entry).
#[derive(Clone, Debug, PartialEq)]
pub struct ProvenanceHop {
    /// The event at this hop.
    pub event: EventId,
    /// Where it happened.
    pub router: RouterId,
    /// When it happened.
    pub time: SimTime,
    /// FNV-1a 64 digest of the event's record and input-table entry.
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
    /// `crate::predict::fib_template` — the final action per router
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
/// base digest pins. Minting reads the (time,id)-ordered FIB history of
/// the pairs the root cause touched, so the same inputs always produce
/// the same proof bytes, whichever view of the capture holds them.
pub fn prove(
    trace: &Trace,
    hbg: &Hbg,
    verifier: &IncrementalVerifier,
    plan: &RepairPlan,
    target: EventId,
    min_confidence: f64,
) -> RepairProof {
    prove_in(trace, hbg, verifier, plan, target, min_confidence)
}

/// A hop's digest: FNV-1a 64 over the event's [`FoldRecord`] in a fixed
/// binary layout, then its input-table entry, if it has one, as a
/// compact-JSON blob — what a collector holds of the event.
fn hop_digest(rec: &FoldRecord, input: Option<RootCauseKind>) -> u64 {
    let mut out = Vec::with_capacity(64);
    bin::put_varint(&mut out, rec.time.as_nanos());
    bin::put_varint(&mut out, rec.id.0);
    bin::put_varint(&mut out, rec.router.0);
    out.extend([rec.class as u8, rec.proto.map_or(0, |p| p as u8 + 1)]);
    out.push(u8::from(rec.prefix.is_some()));
    if let Some(p) = &rec.prefix {
        write_prefix(&mut out, p);
    }
    bin::put_varint(&mut out, rec.peer.map_or(0, |r| u64::from(r.0) + 1));
    wire::encode_action(&mut out, &rec.action);
    if let Some(input) = &input {
        wire::encode_json_blob(&mut out, input);
    }
    cpvr_types::fnv1a64(&out)
}

/// [`prove`] over any view of the capture.
pub(crate) fn prove_in(
    view: &impl CaptureView,
    hbg: &Hbg,
    verifier: &IncrementalVerifier,
    plan: &RepairPlan,
    target: EventId,
    min_confidence: f64,
) -> RepairProof {
    let horizon = view.record(target).map_or(SimTime::MAX, |r| r.time);
    // Provenance path + per-hop content digests + chain.
    let path = provenance_path(hbg, plan.root.event, target, min_confidence);
    let provenance: Vec<ProvenanceHop> = path
        .iter()
        .filter_map(|id| view.record(*id))
        .map(|r| ProvenanceHop {
            event: r.id,
            router: r.router,
            time: r.time,
            digest: hop_digest(&r, view.input(r.id)),
        })
        .collect();
    let chain = chain_over(&provenance);

    // The FIB consequences of the root cause, in (time,id) fold order,
    // plus the pre-consequence state of every touched (router, prefix)
    // pair — reconstructed by walking the captured FIB stream so the
    // removal steps know which action they removed. Only the touched
    // pairs' history matters, so the walk reads nothing else: its cost
    // follows the incident, not the capture.
    let consequences: BTreeSet<EventId> = std::iter::once(plan.root.event)
        .chain(hbg.descendants(plan.root.event, min_confidence))
        .collect();
    let touched: BTreeSet<FibKey> = consequences
        .iter()
        .filter_map(|id| view.record(*id))
        .filter(|r| r.time <= horizon)
        .filter_map(|r| r.fib_update())
        .map(|u| (u.router, u.prefix))
        .collect();
    // Each touched pair's installed entry as the walk goes, and its
    // entry before the first consequence.
    let mut state: BTreeMap<FibKey, FibUpdate> = BTreeMap::new();
    let mut pre: BTreeMap<FibKey, Option<FibUpdate>> = BTreeMap::new();
    let mut redo: Vec<FibUpdate> = Vec::new();
    let mut history = view.fib_history(&touched, horizon);
    history.sort_by_key(FoldRecord::key);
    for r in history {
        let mut u = r.fib_update().expect("a FIB history holds FIB records");
        let key = (u.router, u.prefix);
        let prior = match u.kind {
            UpdateKind::Install => state.insert(key, u),
            UpdateKind::Remove => state.remove(&key),
        };
        if u.kind == UpdateKind::Remove {
            // The removed action, when the stream recorded one;
            // removing an absent entry is a no-op either way.
            u.action = prior.map_or(FibAction::Drop, |p| p.action);
        }
        if consequences.contains(&r.id) {
            pre.entry(key).or_insert(prior);
            redo.push(u);
        }
    }
    // Undo: restore every touched pair to its pre-consequence state, in
    // deterministic pair order.
    let undo: Vec<FibUpdate> = pre
        .into_iter()
        .map(|((router, prefix), prior)| {
            prior.unwrap_or_else(|| FibUpdate {
                router,
                prefix,
                kind: UpdateKind::Remove,
                action: state
                    .get(&(router, prefix))
                    .map_or(FibAction::Drop, |s| s.action),
                at: horizon,
            })
        })
        .collect();
    let mut transcript = ReplayTranscript {
        base_violations: violation_sigs(&verifier.report().violations),
        base_digest: 0,
        undo,
        redo,
    };
    transcript.base_digest = transcript.digest_on(verifier.dataplane());

    RepairProof {
        plan: plan.clone(),
        target,
        min_confidence,
        provenance,
        chain,
        // The behavior-class map of the shadow state after the undo steps.
        predicted: predicted_after(verifier, &transcript.undo),
        template: fib_template(view, hbg, plan.root.event, horizon, min_confidence),
        transcript,
    }
}

/// The behavior-class map, in canonical (sorted) order, of a shadow of
/// `v` after `undo`: the predicted post-repair EC behaviors.
fn predicted_after(v: &IncrementalVerifier, undo: &[FibUpdate]) -> Vec<PredictedBehavior> {
    let mut shadow = v.clone();
    for u in undo {
        shadow.apply(u);
    }
    let classes = shadow.behavior_classes().into_iter();
    classes
        .map(|(behavior, prefixes)| PredictedBehavior { behavior, prefixes })
        .collect()
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
    if let Some(h) = proof.provenance.iter().find(|h| !seen.insert(h.event)) {
        return ReplayVerdict::Error(format!(
            "provenance path revisits event {}: self-loop or cycle in the evidence",
            h.event.0
        ));
    }
    let verdict = ReplayGate::execute(verifier, &proof.transcript);
    if !verdict.is_reproduced() {
        return verdict;
    }
    // The replay reproduced; the predicted post-repair behaviors must
    // match what the repair would actually produce.
    if predicted_after(verifier, &proof.transcript.undo) != proof.predicted {
        return ReplayVerdict::Diverged(
            "predicted post-repair behavior classes differ from the shadow replay".into(),
        );
    }
    ReplayVerdict::Reproduced
}

// ---------------------------------------------------------------------
// Binary codec: `cpvr_types::bin` fields, with the FIB-action and
// JSON-blob layouts the event body uses (`cpvr_sim::wire`).
// ---------------------------------------------------------------------

/// Version byte heading every binary-encoded proof — matches the v3
/// binary wire generation it ships in.
pub(crate) const PROOF_CODEC_VERSION: u8 = 3;

fn write_prefix(out: &mut Vec<u8>, p: &Ipv4Prefix) {
    bin::put_varint(out, p.bits());
    out.push(p.len());
}

fn read_prefix(r: &mut Reader<'_>) -> Result<Ipv4Prefix, BinError> {
    let bits = r.varint_u32()?;
    match r.u8()? {
        len @ 0..=32 => Ok(Ipv4Prefix::from_bits(bits, len)),
        len => Err(BinError::BadTag("prefix length", len)),
    }
}

fn write_update(out: &mut Vec<u8>, u: &FibUpdate) {
    bin::put_varint(out, u.router.0);
    write_prefix(out, &u.prefix);
    out.push(match u.kind {
        UpdateKind::Install => 0,
        UpdateKind::Remove => 1,
    });
    wire::encode_action(out, &u.action);
    bin::put_varint(out, u.at.as_nanos());
}

fn read_update(r: &mut Reader<'_>) -> Result<FibUpdate, BinError> {
    Ok(FibUpdate {
        router: RouterId(r.varint_u32()?),
        prefix: read_prefix(r)?,
        kind: match r.u8()? {
            0 => UpdateKind::Install,
            1 => UpdateKind::Remove,
            k => return Err(BinError::BadTag("update kind", k)),
        },
        action: wire::decode_action(r)?,
        at: SimTime::from_nanos(r.varint()?),
    })
}

fn read_string(r: &mut Reader<'_>) -> Result<String, Box<dyn Error>> {
    Ok(std::str::from_utf8(r.len_prefixed()?)?.to_owned())
}

/// A varint count, then each of `items` written by `write`.
fn write_vec<T>(out: &mut Vec<u8>, items: &[T], mut write: impl FnMut(&mut Vec<u8>, &T)) {
    bin::put_varint(out, items.len() as u64);
    for item in items {
        write(out, item);
    }
}

/// What [`write_vec`] writes: a count, then that many elements, each
/// read by `read`.
fn read_vec<T>(
    r: &mut Reader<'_>,
    mut read: impl FnMut(&mut Reader<'_>) -> Result<T, Box<dyn Error>>,
) -> Result<Vec<T>, Box<dyn Error>> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read(r)?);
    }
    Ok(out)
}

impl RepairProof {
    /// Encodes the proof in the v3 binary wire style: a version byte,
    /// then varint-framed fields with fixed 8-byte digests. The plan
    /// (which carries the arbitrarily-structured config change) rides
    /// as a length-prefixed compact-JSON blob — the same layering the
    /// wire codec uses for structured payloads inside binary envelopes.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut out = vec![PROOF_CODEC_VERSION];
        wire::encode_json_blob(&mut out, &self.plan);
        bin::put_varint(&mut out, self.target.0);
        bin::put_u64_le(&mut out, self.min_confidence.to_bits());
        write_vec(&mut out, &self.provenance, |out, h| {
            bin::put_varint(out, h.event.0);
            bin::put_varint(out, h.router.0);
            bin::put_varint(out, h.time.as_nanos());
            bin::put_u64_le(out, h.digest);
        });
        write_vec(&mut out, &self.chain, |out, link| {
            bin::put_u64_le(out, *link)
        });
        write_vec(&mut out, &self.predicted, |out, b| {
            write_vec(out, &b.behavior, |out, s| {
                bin::put_len_prefixed(out, s.as_bytes())
            });
            write_vec(out, &b.prefixes, write_prefix);
        });
        write_vec(&mut out, &self.template, |out, (router, act)| {
            bin::put_varint(out, router.0);
            out.push(u8::from(act.is_some()));
            if let Some(a) = act {
                wire::encode_action(out, a);
            }
        });
        let t = &self.transcript;
        write_vec(&mut out, &t.base_violations, |out, v| {
            bin::put_varint(out, v.policy_idx as u64);
            bin::put_varint(out, v.ingress.0);
            bin::put_len_prefixed(out, v.representative.as_bytes());
            bin::put_len_prefixed(out, v.observed.as_bytes());
        });
        bin::put_u64_le(&mut out, t.base_digest);
        write_vec(&mut out, &t.undo, write_update);
        write_vec(&mut out, &t.redo, write_update);
        out
    }

    /// Decodes a binary proof. Every malformation — truncation, a bad
    /// version byte, an unknown tag, invalid UTF-8 or JSON, trailing
    /// bytes — is a clean `Err`, never a panic.
    pub fn decode_binary(buf: &[u8]) -> Result<RepairProof, String> {
        Self::read_binary(buf).map_err(|e| e.to_string())
    }

    fn read_binary(buf: &[u8]) -> Result<RepairProof, Box<dyn Error>> {
        let mut r = Reader::new(buf);
        let version = r.u8()?;
        if version != PROOF_CODEC_VERSION {
            return Err(format!("unsupported proof codec version {version}").into());
        }
        let plan = wire::decode_json_blob(&mut r, "repair plan")?;
        let target = EventId(r.varint_u32()?);
        let min_confidence = f64::from_bits(r.u64_le()?);
        let provenance = read_vec(&mut r, |r| {
            Ok(ProvenanceHop {
                event: EventId(r.varint_u32()?),
                router: RouterId(r.varint_u32()?),
                time: SimTime::from_nanos(r.varint()?),
                digest: r.u64_le()?,
            })
        })?;
        let chain = read_vec(&mut r, |r| Ok(r.u64_le()?))?;
        let predicted = read_vec(&mut r, |r| {
            Ok(PredictedBehavior {
                behavior: read_vec(r, read_string)?,
                prefixes: read_vec(r, |r| Ok(read_prefix(r)?))?,
            })
        })?;
        let template = read_vec(&mut r, |r| {
            let router = RouterId(r.varint_u32()?);
            let act = if r.flag("template option")? {
                Some(wire::decode_action(r)?)
            } else {
                None
            };
            Ok((router, act))
        })?;
        let base_violations = read_vec(&mut r, |r| {
            Ok(cpvr_verify::ViolationSig {
                policy_idx: r.varint()? as usize,
                ingress: RouterId(r.varint_u32()?),
                representative: read_string(r)?,
                observed: read_string(r)?,
            })
        })?;
        let base_digest = r.u64_le()?;
        let undo = read_vec(&mut r, |r| Ok(read_update(r)?))?;
        let redo = read_vec(&mut r, |r| Ok(read_update(r)?))?;
        r.finish()?;
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
    use cpvr_types::json::{self, FromJson};

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
