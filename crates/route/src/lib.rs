//! PathFinder-style FPGA routing and congestion extraction.
//!
//! Ground truth in the paper is "the congestion heat map … measuring the
//! utilization of the routing channels" after VPR's detailed routing. This
//! crate supplies that substrate in place of VPR:
//!
//! * a routing-resource graph at channel-segment granularity
//!   ([`RouteGraph`]): one node per [`pop_arch::ChannelId`] with capacity
//!   `W = arch.channel_width()`, edges wherever two segments meet at a
//!   switchbox, and pin access from every tile to its adjacent segments;
//! * a negotiated-congestion router ([`route`]) in the PathFinder family:
//!   each net is routed by A* over the graph, overused segments get their
//!   penalties raised, and everything is ripped up and re-routed until no
//!   segment exceeds its capacity (or an iteration cap is hit);
//! * [`CongestionMap`] — per-segment utilisation `occupancy / W`, exactly
//!   the quantity the heat-map image colourises;
//! * [`min_channel_width`] — the binary search that VPR performs to report
//!   results like "routing succeeded with a channel width factor of 34"
//!   (Figure 2's caption).
//!
//! # Example
//!
//! ```
//! use pop_arch::Arch;
//! use pop_netlist::{presets, generate};
//! use pop_place::{place, PlaceOptions};
//! use pop_route::{route, RouteOptions};
//!
//! let netlist = generate(&presets::by_name("diffeq1").unwrap().scaled(0.02));
//! let (c, i, m, x) = netlist.site_demand();
//! let arch = Arch::auto_size(c, i, m, x, 12, 1.3)?;
//! let placement = place(&arch, &netlist, &PlaceOptions::default())?;
//! let result = route(&arch, &netlist, &placement, &RouteOptions::default())?;
//! assert!(result.congestion().max_utilization() >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod congestion;
mod graph;
mod pathfinder;
mod rudy;

pub use congestion::CongestionMap;
pub use graph::RouteGraph;
pub use pathfinder::{
    min_channel_width, route, route_on_graph, verify_routes, RouteError, RouteOptions, RouteResult,
    RoutedNet,
};
pub use rudy::{calibrate_rudy, rudy_estimate};
