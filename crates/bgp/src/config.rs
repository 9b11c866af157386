//! Per-router BGP configuration and runtime configuration changes.
//!
//! Configuration changes are first-class values ([`ConfigChange`]) because
//! the paper's whole repair story revolves around them: they are captured
//! as control-plane inputs, they appear as leaf vertices in the
//! happens-before graph (Fig. 4's root cause is literally "R2 config
//! change"), and repair means computing and applying their *inverse*.

use crate::decision::VendorProfile;
use crate::policy::RouteMap;
use crate::route::PeerRef;
use cpvr_types::{AsNum, RouterId};
use std::fmt;

/// Configuration of one BGP session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionCfg {
    /// The peer.
    pub peer: PeerRef,
    /// Import route map (applied to routes received from the peer).
    pub import: RouteMap,
    /// Export route map (applied to routes advertised to the peer).
    pub export: RouteMap,
    /// Cisco administrative weight for routes from this peer; ignored by
    /// non-Cisco vendor profiles. Higher wins.
    pub weight: u32,
    /// Is this an eBGP session? External peers always are; a session to
    /// an in-domain router in a *different* AS is eBGP too (multi-AS
    /// deployments), while same-AS internal sessions are iBGP.
    pub ebgp: bool,
    /// Is the peer a route-reflector *client* of this router? Clients'
    /// routes are reflected to every iBGP peer, and other iBGP routes are
    /// reflected to clients — relaxing the full-mesh requirement
    /// (RFC 4456, single reflection level).
    pub rr_client: bool,
}

impl SessionCfg {
    /// A session with permissive policies and default weight. External
    /// peers get an eBGP session; internal peers an iBGP one.
    pub fn new(peer: PeerRef) -> Self {
        SessionCfg {
            peer,
            import: RouteMap::permit_any(),
            export: RouteMap::permit_any(),
            weight: 0,
            ebgp: peer.is_external(),
            rr_client: false,
        }
    }

    /// An iBGP session to a route-reflector client.
    pub fn ibgp_client(router: cpvr_types::RouterId) -> Self {
        SessionCfg {
            rr_client: true,
            ..SessionCfg::new(PeerRef::Internal(router))
        }
    }

    /// An eBGP session to an in-domain router of another AS.
    pub fn ebgp_to_router(router: cpvr_types::RouterId) -> Self {
        SessionCfg {
            ebgp: true,
            ..SessionCfg::new(PeerRef::Internal(router))
        }
    }
}

/// One router's BGP configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BgpConfig {
    /// The router this configuration belongs to.
    pub router: RouterId,
    /// Its AS.
    pub asn: AsNum,
    /// Configured sessions.
    pub sessions: Vec<SessionCfg>,
    /// Vendor decision-process profile.
    pub vendor: VendorProfile,
    /// BGP Add-Path: advertise all (not just best) eBGP-learned paths over
    /// iBGP. The paper's §8 notes this restores determinism to BGP.
    pub add_path: bool,
}

impl BgpConfig {
    /// A configuration with no sessions, standard vendor profile, and
    /// Add-Path off.
    pub fn new(router: RouterId, asn: AsNum) -> Self {
        BgpConfig {
            router,
            asn,
            sessions: Vec::new(),
            vendor: VendorProfile::Standard,
            add_path: false,
        }
    }

    /// Adds a session (builder style).
    pub fn with_session(mut self, s: SessionCfg) -> Self {
        self.sessions.push(s);
        self
    }

    /// Looks up a session by peer.
    pub fn session(&self, peer: PeerRef) -> Option<&SessionCfg> {
        self.sessions.iter().find(|s| s.peer == peer)
    }

    /// Mutable session lookup.
    pub fn session_mut(&mut self, peer: PeerRef) -> Option<&mut SessionCfg> {
        self.sessions.iter_mut().find(|s| s.peer == peer)
    }
}

/// A runtime change to a router's BGP configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigChange {
    /// Replace the import route map of a session.
    SetImport {
        /// The session's peer.
        peer: PeerRef,
        /// The new import map.
        map: RouteMap,
    },
    /// Replace the export route map of a session.
    SetExport {
        /// The session's peer.
        peer: PeerRef,
        /// The new export map.
        map: RouteMap,
    },
    /// Set the Cisco weight of a session.
    SetWeight {
        /// The session's peer.
        peer: PeerRef,
        /// The new weight.
        weight: u32,
    },
    /// Enable or disable Add-Path.
    SetAddPath(bool),
    /// Add a new session. Boxed: a whole [`SessionCfg`] inline would
    /// set the size of every `ConfigChange`, two of which ride in every
    /// captured event whatever its kind.
    AddSession(Box<SessionCfg>),
    /// Remove a session.
    RemoveSession(PeerRef),
}

const _: () = assert!(std::mem::size_of::<ConfigChange>() <= 40);

impl ConfigChange {
    /// Computes the inverse change given the configuration *before* this
    /// change is applied — the primitive the repair engine uses to roll a
    /// root cause back. Returns `None` if the change targets a session
    /// that does not exist (nothing to invert).
    pub fn inverse(&self, before: &BgpConfig) -> Option<ConfigChange> {
        match self {
            ConfigChange::SetImport { peer, .. } => {
                before.session(*peer).map(|s| ConfigChange::SetImport {
                    peer: *peer,
                    map: s.import.clone(),
                })
            }
            ConfigChange::SetExport { peer, .. } => {
                before.session(*peer).map(|s| ConfigChange::SetExport {
                    peer: *peer,
                    map: s.export.clone(),
                })
            }
            ConfigChange::SetWeight { peer, .. } => {
                before.session(*peer).map(|s| ConfigChange::SetWeight {
                    peer: *peer,
                    weight: s.weight,
                })
            }
            ConfigChange::SetAddPath(_) => Some(ConfigChange::SetAddPath(before.add_path)),
            ConfigChange::AddSession(s) => Some(ConfigChange::RemoveSession(s.peer)),
            ConfigChange::RemoveSession(p) => {
                let session = before.session(*p).cloned();
                session.map(|s| ConfigChange::AddSession(Box::new(s)))
            }
        }
    }

    /// Applies the change to a configuration. Returns `false` if the
    /// target session does not exist (the change is a no-op).
    pub fn apply(&self, cfg: &mut BgpConfig) -> bool {
        match self {
            ConfigChange::SetImport { peer, map } => match cfg.session_mut(*peer) {
                Some(s) => {
                    s.import = map.clone();
                    true
                }
                None => false,
            },
            ConfigChange::SetExport { peer, map } => match cfg.session_mut(*peer) {
                Some(s) => {
                    s.export = map.clone();
                    true
                }
                None => false,
            },
            ConfigChange::SetWeight { peer, weight } => match cfg.session_mut(*peer) {
                Some(s) => {
                    s.weight = *weight;
                    true
                }
                None => false,
            },
            ConfigChange::SetAddPath(v) => {
                cfg.add_path = *v;
                true
            }
            ConfigChange::AddSession(s) => {
                if cfg.session(s.peer).is_some() {
                    return false;
                }
                cfg.sessions.push((**s).clone());
                true
            }
            ConfigChange::RemoveSession(p) => {
                let before = cfg.sessions.len();
                cfg.sessions.retain(|s| s.peer != *p);
                cfg.sessions.len() != before
            }
        }
    }
}

impl fmt::Display for ConfigChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigChange::SetImport { peer, map } => write!(f, "set import[{peer}] = {map}"),
            ConfigChange::SetExport { peer, map } => write!(f, "set export[{peer}] = {map}"),
            ConfigChange::SetWeight { peer, weight } => write!(f, "set weight[{peer}] = {weight}"),
            ConfigChange::SetAddPath(v) => write!(f, "set add-path = {v}"),
            ConfigChange::AddSession(s) => write!(f, "add session to {}", s.peer),
            ConfigChange::RemoveSession(p) => write!(f, "remove session to {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SetAction;
    use cpvr_topo::ExtPeerId;

    fn cfg() -> BgpConfig {
        BgpConfig::new(RouterId(0), AsNum(65000))
            .with_session(SessionCfg::new(PeerRef::Internal(RouterId(1))))
            .with_session(SessionCfg::new(PeerRef::External(ExtPeerId(0))))
    }

    #[test]
    fn session_lookup() {
        let c = cfg();
        assert!(c.session(PeerRef::Internal(RouterId(1))).is_some());
        assert!(c.session(PeerRef::Internal(RouterId(9))).is_none());
    }

    #[test]
    fn set_import_applies_and_inverts() {
        let mut c = cfg();
        let peer = PeerRef::External(ExtPeerId(0));
        let change = ConfigChange::SetImport {
            peer,
            map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
        };
        let inv = change.inverse(&c).unwrap();
        assert!(change.apply(&mut c));
        assert_ne!(c.session(peer).unwrap().import, RouteMap::permit_any());
        assert!(inv.apply(&mut c));
        assert_eq!(c.session(peer).unwrap().import, RouteMap::permit_any());
    }

    #[test]
    fn change_to_missing_session_is_noop() {
        let mut c = cfg();
        let change = ConfigChange::SetWeight {
            peer: PeerRef::Internal(RouterId(7)),
            weight: 5,
        };
        assert!(change.inverse(&c).is_none());
        assert!(!change.apply(&mut c));
    }

    #[test]
    fn add_remove_session_invert_each_other() {
        let mut c = cfg();
        let s = SessionCfg::new(PeerRef::Internal(RouterId(2)));
        let add = ConfigChange::AddSession(Box::new(s));
        let inv = add.inverse(&c).unwrap();
        assert!(add.apply(&mut c));
        assert_eq!(c.sessions.len(), 3);
        assert!(inv.apply(&mut c));
        assert_eq!(c.sessions.len(), 2);

        let rm = ConfigChange::RemoveSession(PeerRef::External(ExtPeerId(0)));
        let inv = rm.inverse(&c).unwrap();
        assert!(rm.apply(&mut c));
        assert_eq!(c.sessions.len(), 1);
        assert!(inv.apply(&mut c));
        assert_eq!(c.sessions.len(), 2);
    }

    #[test]
    fn duplicate_add_session_rejected() {
        let mut c = cfg();
        let session = SessionCfg::new(PeerRef::Internal(RouterId(1)));
        let add = ConfigChange::AddSession(Box::new(session));
        assert!(!add.apply(&mut c));
    }

    #[test]
    fn add_path_round_trip() {
        let mut c = cfg();
        let change = ConfigChange::SetAddPath(true);
        let inv = change.inverse(&c).unwrap();
        change.apply(&mut c);
        assert!(c.add_path);
        inv.apply(&mut c);
        assert!(!c.add_path);
    }

    #[test]
    fn display_is_informative() {
        let change = ConfigChange::SetWeight {
            peer: PeerRef::Internal(RouterId(0)),
            weight: 9,
        };
        assert_eq!(change.to_string(), "set weight[R1] = 9");
    }
}

cpvr_types::impl_json_struct!(SessionCfg {
    peer,
    import,
    export,
    weight,
    ebgp,
    rr_client,
});
cpvr_types::impl_json_enum!(ConfigChange {
    SetImport { peer, map },
    SetExport { peer, map },
    SetWeight { peer, weight },
    SetAddPath(on),
    AddSession(cfg),
    RemoveSession(peer),
});
