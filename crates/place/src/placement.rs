use crate::error::PlaceError;
use pop_arch::{Arch, SiteId, SiteKind};
use pop_netlist::{BlockId, BlockKind, Netlist};

/// A complete assignment of every netlist block to an architecture site.
///
/// Invariants (checked by [`Placement::verify`], maintained by the
/// annealer): every block has exactly one site, no two blocks share a site,
/// and block kinds match site kinds (`Input`/`Output` → `Io`, `Clb` → `Clb`,
/// …). This is the `Graph(V, E', grids)` of the paper's §2.2: after
/// placement every vertex has a 2-D location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    site_of: Vec<SiteId>,
    block_at: Vec<Option<BlockId>>,
}

impl Placement {
    /// Builds a placement from a per-block site assignment.
    ///
    /// `site_of[b]` is the site of block `b`; `num_sites` is
    /// `arch.sites().len()`.
    pub(crate) fn from_assignment(site_of: Vec<SiteId>, num_sites: usize) -> Self {
        let mut block_at = vec![None; num_sites];
        for (b, s) in site_of.iter().enumerate() {
            block_at[s.index()] = Some(BlockId(b as u32));
        }
        Placement { site_of, block_at }
    }

    /// The site holding `block`.
    #[inline]
    pub fn site_of(&self, block: BlockId) -> SiteId {
        self.site_of[block.index()]
    }

    /// The block on `site`, if any.
    #[inline]
    pub fn block_at(&self, site: SiteId) -> Option<BlockId> {
        self.block_at[site.index()]
    }

    /// Number of placed blocks.
    pub fn len(&self) -> usize {
        self.site_of.len()
    }

    /// Whether the placement holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.site_of.is_empty()
    }

    /// Continuous 2-D location of `block` (its site's centre), the `grids`
    /// coordinate used for wirelength, rasterisation and routing.
    #[inline]
    pub fn position(&self, arch: &Arch, block: BlockId) -> (f32, f32) {
        arch.site(self.site_of(block)).center()
    }

    /// Moves `block` to `site`, returning the previous occupant of `site`,
    /// which this moves into the site `block` vacated: the annealer's swap
    /// move. Calling it again with `block`'s old site swaps them back.
    pub(crate) fn displace(&mut self, block: BlockId, site: SiteId) -> Option<BlockId> {
        let old_site = self.site_of[block.index()];
        let evicted = self.block_at[site.index()];
        self.block_at[old_site.index()] = None;
        self.block_at[site.index()] = Some(block);
        self.site_of[block.index()] = site;
        if let Some(e) = evicted {
            if e != block {
                self.block_at[old_site.index()] = Some(e);
                self.site_of[e.index()] = old_site;
            }
        }
        evicted
    }

    /// Serialises the placement to a simple text format (one
    /// `block_id site_id` line per block), the VPR `.place`-file analogue.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(".placement\n");
        for (b, s) in self.site_of.iter().enumerate() {
            let _ = writeln!(out, "{b} {}", s.0);
        }
        out.push_str(".end\n");
        out
    }

    /// Parses [`Placement::to_text`] output and verifies it against the
    /// architecture and netlist.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::Illegal`] for malformed text, out-of-range
    /// ids, or a placement violating any invariant.
    pub fn from_text(text: &str, arch: &Arch, netlist: &Netlist) -> Result<Placement, PlaceError> {
        let bad = |reason: String| PlaceError::Illegal {
            block: BlockId(0),
            reason,
        };
        let mut site_of = vec![None; netlist.blocks().len()];
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() || line.starts_with(".placement") {
                continue;
            }
            if line.starts_with(".end") {
                break;
            }
            let (b, s) = line
                .split_once(' ')
                .ok_or_else(|| bad(format!("malformed line: {line}")))?;
            let b: usize = b
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad block id: {line}")))?;
            let s: u32 = s
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad site id: {line}")))?;
            if b >= site_of.len() {
                return Err(bad(format!("block {b} outside netlist")));
            }
            if s as usize >= arch.sites().len() {
                return Err(bad(format!("site {s} outside architecture")));
            }
            site_of[b] = Some(SiteId(s));
        }
        let site_of: Vec<SiteId> = site_of
            .into_iter()
            .enumerate()
            .map(|(b, s)| s.ok_or_else(|| bad(format!("block {b} not placed"))))
            .collect::<Result<_, _>>()?;
        let placement = Placement::from_assignment(site_of, arch.sites().len());
        placement.verify(arch, netlist)?;
        Ok(placement)
    }

    /// Checks all placement invariants against `arch` and `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::Illegal`] naming the first offending block.
    pub fn verify(&self, arch: &Arch, netlist: &Netlist) -> Result<(), PlaceError> {
        if self.site_of.len() != netlist.blocks().len() {
            return Err(PlaceError::Illegal {
                block: BlockId(0),
                reason: format!(
                    "placement holds {} blocks, netlist has {}",
                    self.site_of.len(),
                    netlist.blocks().len()
                ),
            });
        }
        let mut seen = vec![false; arch.sites().len()];
        for block in netlist.blocks() {
            let site_id = self.site_of(block.id);
            let site = arch.site(site_id);
            if seen[site_id.index()] {
                return Err(PlaceError::Illegal {
                    block: block.id,
                    reason: format!("site {site_id} is shared"),
                });
            }
            seen[site_id.index()] = true;
            let ok = matches!(
                (block.kind, site.kind),
                (BlockKind::Input, SiteKind::Io)
                    | (BlockKind::Output, SiteKind::Io)
                    | (BlockKind::Clb { .. }, SiteKind::Clb)
                    | (BlockKind::Memory, SiteKind::Memory)
                    | (BlockKind::Multiplier, SiteKind::Multiplier)
            );
            if !ok {
                return Err(PlaceError::Illegal {
                    block: block.id,
                    reason: format!("block kind {:?} on {} site", block.kind, site.kind),
                });
            }
            if self.block_at(site_id) != Some(block.id) {
                return Err(PlaceError::Illegal {
                    block: block.id,
                    reason: "site_of/block_at tables disagree".into(),
                });
            }
        }
        Ok(())
    }
}

/// Maps a [`BlockKind`] to the [`SiteKind`] it must be placed on.
pub(crate) fn required_site_kind(kind: BlockKind) -> SiteKind {
    match kind {
        BlockKind::Input | BlockKind::Output => SiteKind::Io,
        BlockKind::Clb { .. } => SiteKind::Clb,
        BlockKind::Memory => SiteKind::Memory,
        BlockKind::Multiplier => SiteKind::Multiplier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_kind_mapping() {
        assert_eq!(required_site_kind(BlockKind::Input), SiteKind::Io);
        assert_eq!(
            required_site_kind(BlockKind::Clb { luts: 1, ffs: 0 }),
            SiteKind::Clb
        );
        assert_eq!(required_site_kind(BlockKind::Memory), SiteKind::Memory);
        assert_eq!(
            required_site_kind(BlockKind::Multiplier),
            SiteKind::Multiplier
        );
    }

    #[test]
    fn text_roundtrip_preserves_placement() {
        use pop_netlist::{generate, presets};
        let netlist = generate(&presets::by_name("diffeq2").unwrap().scaled(0.02));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 12, 1.3).unwrap();
        let placement = crate::place(&arch, &netlist, &crate::PlaceOptions::default()).unwrap();
        let text = placement.to_text();
        let back = Placement::from_text(&text, &arch, &netlist).unwrap();
        assert_eq!(placement, back);
    }

    #[test]
    fn from_text_rejects_garbage() {
        use pop_netlist::{generate, presets};
        let netlist = generate(&presets::by_name("diffeq2").unwrap().scaled(0.02));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 12, 1.3).unwrap();
        for bad in [
            "0 999999\n", // site out of range
            "0 zero\n",   // non-numeric
            "garbage\n",  // malformed
            "",           // nothing placed
        ] {
            assert!(
                Placement::from_text(bad, &arch, &netlist).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn displace_swaps_occupants() {
        // Three sites, two blocks.
        let mut p = Placement::from_assignment(vec![SiteId(0), SiteId(1)], 3);
        // Move block 0 onto an empty site.
        assert_eq!(p.displace(BlockId(0), SiteId(2)), None);
        assert_eq!(p.site_of(BlockId(0)), SiteId(2));
        assert_eq!(p.block_at(SiteId(0)), None);
        // Move block 0 onto block 1's site: they swap.
        let evicted = p.displace(BlockId(0), SiteId(1));
        assert_eq!(evicted, Some(BlockId(1)));
        assert_eq!(p.site_of(BlockId(0)), SiteId(1));
        assert_eq!(p.site_of(BlockId(1)), SiteId(2));
        assert_eq!(p.block_at(SiteId(2)), Some(BlockId(1)));
    }
}
