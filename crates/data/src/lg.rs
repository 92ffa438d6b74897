//! Looking glasses.
//!
//! LG servers "allow the remote execution of non-privileged BGP
//! commands through a web interface" (§2.2). The paper's algorithm
//! issues three commands (§4.1):
//!
//! 1. `show ip bgp summary` — the sessions (connectivity data, `A_RS`);
//! 2. `show ip bgp neighbors <addr> routes` — prefixes per member;
//! 3. `show ip bgp <prefix>` — paths with their community values.
//!
//! The substrate renders realistic Cisco-style text and ships the
//! matching parsers, so the inference pipeline exercises the same
//! scrape-and-parse path the paper's scripts did. Both LG species
//! exist: IXP LGs onto route servers, and member LGs (third-party view,
//! §4.1's fallback and §5.1's validation instrument), in all-paths and
//! best-path-only display modes (Fig. 8). Every host keeps a query
//! ledger and a rate model (1 query / 10 s in the paper, §4.3).

use std::cell::Cell;
use std::net::Ipv4Addr;

use mlpeer_bgp::rib::{Rib, RibEntry};
use mlpeer_bgp::{AsPath, Asn, CommunitySet, Prefix};
use mlpeer_ixp::ixp::IxpId;

use crate::sim::Sim;

/// What the LG host fronts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LgTarget {
    /// The route server of an IXP (full RS view).
    RouteServer(IxpId),
    /// A member network's router (third-party view).
    Member(Asn),
}

/// Whether the LG shows all paths or only the selected best (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LgDisplay {
    /// All received paths, best first.
    AllPaths,
    /// Only the best path.
    BestOnly,
}

/// The commands the paper issues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LgCommand {
    /// `show ip bgp summary`.
    Summary,
    /// `show ip bgp neighbors <addr> routes`.
    NeighborRoutes(Ipv4Addr),
    /// `show ip bgp <prefix>`.
    Prefix(Prefix),
}

/// A looking-glass host.
#[derive(Debug)]
pub struct LookingGlassHost {
    /// Display name ("lg.de-cix.net", "lg.as8359.example").
    pub name: String,
    /// What it fronts.
    pub target: LgTarget,
    /// Display mode.
    pub display: LgDisplay,
    /// Rate limit: seconds per query (10 in the paper).
    pub secs_per_query: u32,
    queries: Cell<u64>,
}

impl LookingGlassHost {
    /// A new host with the paper's 1-query-per-10-seconds rate model.
    pub fn new(name: impl Into<String>, target: LgTarget, display: LgDisplay) -> Self {
        LookingGlassHost {
            name: name.into(),
            target,
            display,
            secs_per_query: 10,
            queries: Cell::new(0),
        }
    }

    /// Queries issued so far (the §4.3 cost ledger).
    pub fn queries_issued(&self) -> u64 {
        self.queries.get()
    }

    /// Estimated wall-clock spent at the rate limit.
    pub fn estimated_secs(&self) -> u64 {
        self.queries.get() * self.secs_per_query as u64
    }

    /// Reset the ledger.
    pub fn reset_ledger(&self) {
        self.queries.set(0);
    }

    /// Execute a command, returning rendered text.
    pub fn query(&self, sim: &Sim, cmd: &LgCommand) -> String {
        self.queries.set(self.queries.get() + 1);
        match (&self.target, cmd) {
            (LgTarget::RouteServer(id), LgCommand::Summary) => {
                let ixp = sim.eco.ixp(*id);
                let rows: Vec<(Asn, Ipv4Addr, usize)> = ixp
                    .members
                    .values()
                    .filter(|m| m.rs_member)
                    .map(|m| (m.asn, m.lan_addr, m.prefix_count()))
                    .collect();
                render_summary(&rows)
            }
            (LgTarget::RouteServer(id), LgCommand::NeighborRoutes(addr)) => {
                let ixp = sim.eco.ixp(*id);
                let member = ixp.members.values().find(|m| m.lan_addr == *addr);
                match member {
                    Some(m) if m.rs_member => {
                        let mut prefixes: Vec<Prefix> = m.prefixes().collect();
                        prefixes.sort_unstable();
                        render_neighbor_routes(*addr, &prefixes)
                    }
                    _ => format!("% No such neighbor: {addr}\n"),
                }
            }
            (LgTarget::RouteServer(id), LgCommand::Prefix(p)) => {
                let rib = sim.eco.ixp(*id).rs_rib_for(p, sim.announcers_at(*id, p));
                render_prefix(*p, &rib, self.display)
            }
            (LgTarget::Member(asn), LgCommand::Prefix(p)) => {
                let mut rib = Rib::new();
                for e in sim.adj_rib_in(*asn, p) {
                    rib.insert(*p, e);
                }
                render_prefix(*p, &rib, self.display)
            }
            (LgTarget::Member(asn), LgCommand::Summary) => {
                // A member LG lists its sessions; for inference only the
                // RS sessions matter, and a third-party LG cannot
                // enumerate another IXP's members anyway.
                let mut rows: Vec<(Asn, Ipv4Addr, usize)> = Vec::new();
                for ixp in &sim.eco.ixps {
                    if let Some(m) = ixp.member(*asn) {
                        if m.rs_member {
                            rows.push((ixp.route_server.asn, ixp.route_server.addr, 0));
                        }
                    }
                }
                render_summary(&rows)
            }
            (LgTarget::Member(_), LgCommand::NeighborRoutes(addr)) => {
                format!("% Command not available for neighbor {addr}\n")
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rendering (Cisco-flavored).
// ---------------------------------------------------------------------

fn render_summary(rows: &[(Asn, Ipv4Addr, usize)]) -> String {
    let mut out = String::from(
        "BGP router identifier 0.0.0.1, local AS number 0\n\
         Neighbor        V          AS MsgRcvd MsgSent   TblVer  InQ OutQ Up/Down  State/PfxRcd\n",
    );
    for (asn, addr, pfx) in rows {
        out.push_str(&format!(
            "{:<15} 4  {:>10} {:>7} {:>7} {:>8} {:>4} {:>4} {:>8} {:>12}\n",
            addr,
            asn.value(),
            1000,
            1000,
            1,
            0,
            0,
            "4w2d",
            pfx
        ));
    }
    out
}

fn render_neighbor_routes(addr: Ipv4Addr, prefixes: &[Prefix]) -> String {
    let mut out = format!("Routes received from neighbor {addr}\n     Network\n");
    for p in prefixes {
        out.push_str(&format!("*>   {p}\n"));
    }
    out
}

fn render_prefix(prefix: Prefix, rib: &Rib, display: LgDisplay) -> String {
    let paths = rib.paths_ranked(&prefix);
    if paths.is_empty() {
        return format!("% Network not in table: {prefix}\n");
    }
    let shown: Vec<&&RibEntry> = match display {
        LgDisplay::AllPaths => paths.iter().collect(),
        LgDisplay::BestOnly => paths.iter().take(1).collect(),
    };
    let mut out = format!(
        "BGP routing table entry for {prefix}\nPaths: ({} available, best #1)\n",
        shown.len()
    );
    for (i, e) in shown.iter().enumerate() {
        let path_str = if e.attrs.as_path.is_empty() {
            "Local".to_string()
        } else {
            e.attrs.as_path.to_string()
        };
        out.push_str(&format!("  {path_str}\n"));
        out.push_str(&format!(
            "    {} from {} ({})\n",
            e.attrs.next_hop, e.peer_addr, e.peer_addr
        ));
        out.push_str(&format!(
            "      Origin {}, localpref {}, valid, external{}\n",
            match e.attrs.origin {
                mlpeer_bgp::route::Origin::Igp => "IGP",
                mlpeer_bgp::route::Origin::Egp => "EGP",
                mlpeer_bgp::route::Origin::Incomplete => "incomplete",
            },
            e.attrs.local_pref,
            if i == 0 { ", best" } else { "" }
        ));
        if !e.attrs.communities.is_empty() {
            out.push_str(&format!("      Community: {}\n", e.attrs.communities));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Parsing (the scrape side of the paper's scripts).
// ---------------------------------------------------------------------

/// A parsed path block from `show ip bgp <prefix>` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LgPath {
    /// The AS path.
    pub as_path: AsPath,
    /// Attached communities.
    pub communities: CommunitySet,
    /// Local preference.
    pub local_pref: u32,
    /// Marked best?
    pub best: bool,
}

/// Parse `show ip bgp summary` output into `(asn, address, pfx_count)`
/// rows.
pub fn parse_summary(text: &str) -> Vec<(Asn, Ipv4Addr, usize)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() < 10 {
            continue;
        }
        let Ok(addr) = cols[0].parse::<Ipv4Addr>() else {
            continue;
        };
        let Ok(asn) = cols[2].parse::<u32>() else {
            continue;
        };
        let pfx = cols[9].parse::<usize>().unwrap_or(0);
        out.push((Asn(asn), addr, pfx));
    }
    out
}

/// Parse `show ip bgp neighbors <addr> routes` output into prefixes.
pub fn parse_neighbor_routes(text: &str) -> Vec<Prefix> {
    text.lines()
        .filter_map(|l| l.strip_prefix("*>"))
        .filter_map(|l| l.trim().parse().ok())
        .collect()
}

/// Parse `show ip bgp <prefix>` output into path blocks.
pub fn parse_prefix_output(text: &str) -> Vec<LgPath> {
    let mut out: Vec<LgPath> = Vec::new();
    let mut current: Option<LgPath> = None;
    for line in text.lines() {
        let trimmed = line.trim_start();
        let indent = line.len() - trimmed.len();
        if line.starts_with('%')
            || trimmed.starts_with("BGP routing")
            || trimmed.starts_with("Paths:")
        {
            continue;
        }
        if indent == 2 && !trimmed.is_empty() {
            // New path block: a line of ASNs (or "Local").
            if let Some(p) = current.take() {
                out.push(p);
            }
            let as_path = if trimmed == "Local" {
                AsPath::empty()
            } else {
                match trimmed.parse::<AsPath>() {
                    Ok(p) => p,
                    Err(_) => continue,
                }
            };
            current = Some(LgPath {
                as_path,
                communities: CommunitySet::new(),
                local_pref: 100,
                best: false,
            });
        } else if let Some(cur) = current.as_mut() {
            if let Some(rest) = trimmed.strip_prefix("Community:") {
                if let Ok(cs) = rest.trim().parse::<CommunitySet>() {
                    cur.communities = cs;
                }
            } else if trimmed.starts_with("Origin") {
                if let Some(lp) = trimmed
                    .split("localpref ")
                    .nth(1)
                    .and_then(|s| s.split(',').next())
                    .and_then(|s| s.trim().parse::<u32>().ok())
                {
                    cur.local_pref = lp;
                }
                if trimmed.trim_end().ends_with("best") {
                    cur.best = true;
                }
            }
        }
    }
    if let Some(p) = current.take() {
        out.push(p);
    }
    out
}

/// Build the looking-glass roster for an ecosystem: one LG per IXP that
/// operates one (fronting its route server, all-paths), plus member LGs
/// for inference fallback and validation. `best_only_frac` of member
/// LGs display only the best path (the Fig. 8 split).
pub fn build_lg_roster(
    sim: &Sim,
    seed: u64,
    member_lgs: usize,
    best_only_frac: f64,
) -> Vec<LookingGlassHost> {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for ixp in &sim.eco.ixps {
        if ixp.has_lg {
            out.push(LookingGlassHost::new(
                format!("lg.{}.sim", ixp.name.to_lowercase()),
                LgTarget::RouteServer(ixp.id),
                LgDisplay::AllPaths,
            ));
        }
    }
    // Member LGs: operated by RS members or their customers.
    let mut candidates: Vec<Asn> = sim.eco.all_rs_member_asns().into_iter().collect();
    candidates.shuffle(&mut rng);
    for asn in candidates.into_iter().take(member_lgs) {
        let display = if rng.gen_bool(best_only_frac) {
            LgDisplay::BestOnly
        } else {
            LgDisplay::AllPaths
        };
        out.push(LookingGlassHost::new(
            format!("lg.as{}.sim", asn.value()),
            LgTarget::Member(asn),
            display,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpeer_ixp::{Ecosystem, EcosystemConfig};

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::tiny(31))
    }

    #[test]
    fn summary_renders_and_parses_roundtrip() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let decix = eco.ixp_by_name("DE-CIX").unwrap();
        let lg = LookingGlassHost::new(
            "lg.de-cix.sim",
            LgTarget::RouteServer(decix.id),
            LgDisplay::AllPaths,
        );
        let text = lg.query(&sim, &LgCommand::Summary);
        let rows = parse_summary(&text);
        assert_eq!(rows.len(), decix.rs_member_count());
        for (asn, addr, pfx) in rows {
            let m = decix.member(asn).expect("parsed member exists");
            assert_eq!(m.lan_addr, addr);
            assert_eq!(m.prefix_count(), pfx);
        }
        assert_eq!(lg.queries_issued(), 1);
        assert_eq!(lg.estimated_secs(), 10);
    }

    #[test]
    fn neighbor_routes_roundtrip() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let decix = eco.ixp_by_name("DE-CIX").unwrap();
        let member = decix.members.values().find(|m| m.rs_member).unwrap();
        let lg = LookingGlassHost::new("lg", LgTarget::RouteServer(decix.id), LgDisplay::AllPaths);
        let text = lg.query(&sim, &LgCommand::NeighborRoutes(member.lan_addr));
        let prefixes = parse_neighbor_routes(&text);
        let mut expected: Vec<Prefix> = member.prefixes().collect();
        expected.sort_unstable();
        assert_eq!(prefixes, expected);
        // Unknown neighbor errors gracefully.
        let err = lg.query(
            &sim,
            &LgCommand::NeighborRoutes("10.255.255.1".parse().unwrap()),
        );
        assert!(err.starts_with('%'));
    }

    #[test]
    fn prefix_output_carries_communities_roundtrip() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let decix = eco.ixp_by_name("DE-CIX").unwrap();
        let lg = LookingGlassHost::new("lg", LgTarget::RouteServer(decix.id), LgDisplay::AllPaths);
        // Find a member with a non-trivial policy so communities exist.
        let rib = decix.rs_rib();
        let (prefix, _) = rib
            .iter()
            .find(|(_, entries)| entries.iter().any(|e| !e.attrs.communities.is_empty()))
            .expect("some member tags communities");
        let text = lg.query(&sim, &LgCommand::Prefix(*prefix));
        let paths = parse_prefix_output(&text);
        assert!(!paths.is_empty());
        let expected = rib.paths_ranked(prefix);
        assert_eq!(paths.len(), expected.len());
        for (got, want) in paths.iter().zip(expected.iter()) {
            assert_eq!(got.as_path, want.attrs.as_path);
            assert_eq!(got.communities, want.attrs.communities);
            assert_eq!(got.local_pref, want.attrs.local_pref);
        }
        assert!(paths[0].best);
    }

    #[test]
    fn best_only_lg_hides_alternatives() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let decix = eco.ixp_by_name("DE-CIX").unwrap();
        let rib = decix.rs_rib();
        let (prefix, entries) = rib
            .iter()
            .find(|(_, entries)| entries.len() > 1)
            .expect("multi-path prefix exists (Fig. 5)");
        assert!(entries.len() > 1);
        let all = LookingGlassHost::new("a", LgTarget::RouteServer(decix.id), LgDisplay::AllPaths);
        let best = LookingGlassHost::new("b", LgTarget::RouteServer(decix.id), LgDisplay::BestOnly);
        let n_all = parse_prefix_output(&all.query(&sim, &LgCommand::Prefix(*prefix))).len();
        let n_best = parse_prefix_output(&best.query(&sim, &LgCommand::Prefix(*prefix))).len();
        assert!(n_all > 1);
        assert_eq!(n_best, 1, "best-only LG shows a single path (Fig. 8)");
    }

    #[test]
    fn member_lg_shows_adj_rib_in() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let decix = eco.ixp_by_name("DE-CIX").unwrap();
        let (a, b) = decix.directed_flows().into_iter().next().unwrap();
        let p = eco.internet.prefixes_of(a)[0];
        let lg = LookingGlassHost::new("lg.member", LgTarget::Member(b), LgDisplay::AllPaths);
        let text = lg.query(&sim, &LgCommand::Prefix(p));
        let paths = parse_prefix_output(&text);
        assert!(
            paths.iter().any(|lp| lp.as_path.first_hop() == Some(a)),
            "member LG shows the RS session route from {a}"
        );
    }

    #[test]
    fn missing_prefix_renders_error() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let decix = eco.ixp_by_name("DE-CIX").unwrap();
        let lg = LookingGlassHost::new("lg", LgTarget::RouteServer(decix.id), LgDisplay::AllPaths);
        let text = lg.query(&sim, &LgCommand::Prefix("203.0.113.0/24".parse().unwrap()));
        assert!(text.starts_with("% Network not in table"));
        assert!(parse_prefix_output(&text).is_empty());
    }

    #[test]
    fn roster_contains_ixp_and_member_lgs() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let roster = build_lg_roster(&sim, 9, 12, 0.3);
        let rs_lgs = roster
            .iter()
            .filter(|h| matches!(h.target, LgTarget::RouteServer(_)))
            .count();
        let expected_rs = eco.ixps.iter().filter(|x| x.has_lg).count();
        assert_eq!(rs_lgs, expected_rs);
        let member_lgs = roster.len() - rs_lgs;
        assert!(member_lgs > 0 && member_lgs <= 12);
        assert!(roster.iter().any(|h| h.display == LgDisplay::BestOnly));
    }
}
