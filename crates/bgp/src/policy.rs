//! Route maps: ordered match/set policies applied at import and export.
//!
//! This is the configuration surface the paper's scenarios manipulate: the
//! Fig. 2 incident is literally a route-map edit that sets local-preference
//! 10 on routes from one peer. A [`RouteMap`] is an ordered list of
//! [`Clause`]s; the first clause whose matches all hold decides the route's
//! fate (permit with modifications, or deny). A route matching no clause is
//! permitted unchanged — networks that want default-deny add a final
//! explicit deny-all clause.

use crate::route::BgpRoute;
use cpvr_types::{AsNum, Ipv4Prefix};
use std::fmt;
use std::sync::Arc;

/// A single match condition inside a clause. All conditions in a clause
/// must hold for the clause to fire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchCond {
    /// The route's prefix is covered by this prefix (e.g. `10.0.0.0/8 le
    /// 32` semantics).
    PrefixIn(Ipv4Prefix),
    /// The route's prefix equals this prefix exactly.
    PrefixEq(Ipv4Prefix),
    /// The route carries this community.
    HasCommunity(u32),
    /// The AS path contains this AS.
    AsPathContains(AsNum),
    /// The AS path is at most this long.
    AsPathLenAtMost(usize),
}

impl MatchCond {
    /// Does the condition hold for `route`?
    pub(crate) fn matches(&self, route: &BgpRoute) -> bool {
        match self {
            MatchCond::PrefixIn(p) => p.covers(&route.prefix),
            MatchCond::PrefixEq(p) => *p == route.prefix,
            MatchCond::HasCommunity(c) => route.communities.contains(c),
            MatchCond::AsPathContains(a) => route.as_path.contains(a),
            MatchCond::AsPathLenAtMost(n) => route.as_path.len() <= *n,
        }
    }
}

/// A modification applied by a permitting clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetAction {
    /// Set local preference.
    LocalPref(u32),
    /// Set the MED.
    Med(u32),
    /// Add a community tag.
    AddCommunity(u32),
    /// Remove a community tag.
    RemoveCommunity(u32),
    /// Prepend the given AS `n` times (AS-path prepending).
    Prepend(AsNum, usize),
}

impl SetAction {
    /// Applies the action to `route`.
    pub(crate) fn apply(&self, route: &mut BgpRoute) {
        match self {
            SetAction::LocalPref(v) => route.local_pref = *v,
            SetAction::Med(v) => route.med = *v,
            SetAction::AddCommunity(c) => {
                route.communities.insert(*c);
            }
            SetAction::RemoveCommunity(c) => {
                route.communities.remove(c);
            }
            SetAction::Prepend(asn, n) => {
                for _ in 0..*n {
                    route.as_path.insert(0, *asn);
                }
            }
        }
    }
}

/// One clause of a route map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clause {
    /// All must match for the clause to fire. Empty = match everything.
    pub matches: Vec<MatchCond>,
    /// Permit (apply `sets`) or deny (drop the route).
    pub permit: bool,
    /// Modifications applied on permit.
    pub sets: Vec<SetAction>,
}

impl Clause {
    /// A permit-all clause with the given set actions.
    pub fn permit_all(sets: Vec<SetAction>) -> Self {
        Clause {
            matches: Vec::new(),
            permit: true,
            sets,
        }
    }

    /// A deny-all clause.
    pub(crate) fn deny_all() -> Self {
        Clause {
            matches: Vec::new(),
            permit: false,
            sets: Vec::new(),
        }
    }
}

/// An ordered route map.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RouteMap {
    /// Clauses evaluated in order; first full match wins.
    pub clauses: Vec<Clause>,
}

impl RouteMap {
    /// The empty route map: permits everything unchanged.
    pub fn permit_any() -> Self {
        RouteMap {
            clauses: Vec::new(),
        }
    }

    /// A map with a single permit-all clause applying `sets` — the
    /// workhorse for "set local-preference N on this session".
    pub fn set_all(sets: Vec<SetAction>) -> Self {
        RouteMap {
            clauses: vec![Clause::permit_all(sets)],
        }
    }

    /// A map that denies everything.
    pub fn deny_any() -> Self {
        RouteMap {
            clauses: vec![Clause::deny_all()],
        }
    }

    /// Evaluates the map: `Some(route)` on permit, `None` on deny. A
    /// route the map permits unchanged comes back as the same allocation
    /// (one more reference); only a firing set action makes a copy, which
    /// is what keeps a route shared from Adj-RIB-In to Adj-RIB-Out.
    pub(crate) fn eval(&self, route: &Arc<BgpRoute>) -> Option<Arc<BgpRoute>> {
        let fired = self
            .clauses
            .iter()
            .find(|c| c.matches.iter().all(|m| m.matches(route)));
        match fired {
            Some(clause) if !clause.permit => None,
            Some(clause) if !clause.sets.is_empty() => {
                let mut out = BgpRoute::clone(route);
                for s in &clause.sets {
                    s.apply(&mut out);
                }
                Some(Arc::new(out))
            }
            _ => Some(Arc::clone(route)),
        }
    }
}

impl fmt::Display for RouteMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "permit any");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(
                f,
                "{} [{} matches, {} sets]",
                if c.permit { "permit" } else { "deny" },
                c.matches.len(),
                c.sets.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{BgpRoute, NextHop, Origin};
    use cpvr_types::RouterId;
    use std::collections::BTreeSet;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn route(prefix: &str) -> Arc<BgpRoute> {
        Arc::new(BgpRoute {
            prefix: p(prefix),
            next_hop: NextHop::Router(RouterId(0)),
            local_pref: 100,
            as_path: vec![AsNum(100), AsNum(200)],
            origin: Origin::Igp,
            med: 0,
            communities: BTreeSet::new(),
            originator: RouterId(0),
        })
    }

    #[test]
    fn empty_map_permits_unchanged() {
        let r = route("8.8.8.0/24");
        let out = RouteMap::permit_any().eval(&r).unwrap();
        assert!(
            Arc::ptr_eq(&out, &r),
            "permitted unchanged: shared, not copied"
        );
    }

    #[test]
    fn deny_any_drops() {
        assert_eq!(RouteMap::deny_any().eval(&route("8.8.8.0/24")), None);
    }

    #[test]
    fn set_local_pref() {
        let m = RouteMap::set_all(vec![SetAction::LocalPref(30)]);
        let r = route("8.8.8.0/24");
        let out = m.eval(&r).unwrap();
        assert_eq!((out.local_pref, r.local_pref), (30, 100));
    }

    #[test]
    fn first_matching_clause_wins() {
        let m = RouteMap {
            clauses: vec![
                Clause {
                    matches: vec![MatchCond::PrefixIn(p("8.0.0.0/8"))],
                    permit: true,
                    sets: vec![SetAction::LocalPref(200)],
                },
                Clause::permit_all(vec![SetAction::LocalPref(50)]),
            ],
        };
        assert_eq!(m.eval(&route("8.8.8.0/24")).unwrap().local_pref, 200);
        assert_eq!(m.eval(&route("9.9.9.0/24")).unwrap().local_pref, 50);
    }

    #[test]
    fn deny_clause_filters_by_prefix() {
        let m = RouteMap {
            clauses: vec![Clause {
                matches: vec![MatchCond::PrefixIn(p("10.0.0.0/8"))],
                permit: false,
                sets: Vec::new(),
            }],
        };
        assert!(m.eval(&route("10.1.0.0/16")).is_none());
        assert!(m.eval(&route("8.8.8.0/24")).is_some());
    }

    #[test]
    fn community_match_and_set() {
        let mut r = route("8.8.8.0/24");
        let m = RouteMap {
            clauses: vec![Clause {
                matches: vec![MatchCond::HasCommunity(666)],
                permit: false,
                sets: Vec::new(),
            }],
        };
        assert!(
            m.eval(&r).is_some(),
            "no community yet: fall through to permit"
        );
        Arc::make_mut(&mut r).communities.insert(666);
        assert!(m.eval(&r).is_none(), "blackhole community denies");
        let tagger = RouteMap::set_all(vec![SetAction::AddCommunity(7)]);
        assert!(tagger.eval(&r).unwrap().communities.contains(&7));
        let untagger = RouteMap::set_all(vec![SetAction::RemoveCommunity(666)]);
        assert!(!untagger.eval(&r).unwrap().communities.contains(&666));
    }

    #[test]
    fn as_path_conditions() {
        let r = route("8.8.8.0/24");
        assert!(MatchCond::AsPathContains(AsNum(200)).matches(&r));
        assert!(!MatchCond::AsPathContains(AsNum(300)).matches(&r));
        assert!(MatchCond::AsPathLenAtMost(2).matches(&r));
        assert!(!MatchCond::AsPathLenAtMost(1).matches(&r));
    }

    #[test]
    fn prepend_lengthens_path() {
        let m = RouteMap::set_all(vec![SetAction::Prepend(AsNum(65000), 3)]);
        let out = m.eval(&route("8.8.8.0/24")).unwrap();
        assert_eq!(out.as_path.len(), 5);
        assert_eq!(out.as_path[0], AsNum(65000));
        assert_eq!(out.as_path[2], AsNum(65000));
        assert_eq!(out.as_path[3], AsNum(100));
    }

    #[test]
    fn exact_prefix_match() {
        let c = MatchCond::PrefixEq(p("8.8.8.0/24"));
        assert!(c.matches(&route("8.8.8.0/24")));
        assert!(!c.matches(&route("8.8.0.0/16")));
    }

    #[test]
    fn display_forms() {
        assert_eq!(RouteMap::permit_any().to_string(), "permit any");
        let m = RouteMap::deny_any();
        assert!(m.to_string().contains("deny"));
    }
}

cpvr_types::impl_json_enum!(MatchCond {
    PrefixIn(p),
    PrefixEq(p),
    HasCommunity(c),
    AsPathContains(a),
    AsPathLenAtMost(n),
});
cpvr_types::impl_json_enum!(SetAction {
    LocalPref(n),
    Med(n),
    AddCommunity(c),
    RemoveCommunity(c),
    Prepend(a, n),
});
cpvr_types::impl_json_struct!(Clause {
    matches,
    permit,
    sets
});
cpvr_types::impl_json_struct!(RouteMap { clauses });
