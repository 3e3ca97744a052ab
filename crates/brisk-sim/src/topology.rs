//! Relay-tree topology builder: wire up a root ISM and a tier of relay
//! ISMs over one in-memory transport in a few lines.
//!
//! The e2e suite (and any experiment that wants a merge tree) needs the
//! same scaffolding every time: a root server, N relay servers whose
//! merged streams re-export upstream under distinct namespace prefixes,
//! and per-link fault planes for chaos runs. [`RelayTree::build`] owns
//! that plumbing; leaves stay the caller's business — connect an EXS (or
//! a hand-rolled client) to [`RelayTree::connect_to_relay`] and the
//! records arrive at the root under [`RelayTree::global_node`].
//!
//! Shutdown order matters in a tree: relays must stop first (each flush
//! drains its send window upstream), the root last. [`RelayTree::stop`]
//! encodes that.

use brisk_core::{IsmConfig, NodeId, Result, SyncConfig};
use brisk_ism::{IsmHandle, IsmReport, IsmServer, RelayConfig, UpstreamExporter};
use brisk_net::{Connection, FaultSpec, FaultStats, FaultingConnection, MemTransport, Transport};
use brisk_proto::NodePrefix;
use brisk_telemetry::Registry;
use std::collections::HashMap;
use std::sync::Arc;

/// Shape and knobs of a two-tier relay tree.
#[derive(Clone)]
pub struct TreeConfig {
    /// Relay count; relay `i` gets namespace prefix `i + 1`.
    pub relays: usize,
    /// Server knobs for the root ISM.
    pub root: IsmConfig,
    /// Server knobs for every relay ISM.
    pub relay: IsmConfig,
    /// Upstream-link knobs template; the prefix field is overridden per
    /// relay. `None` uses [`RelayConfig`] defaults.
    pub link: Option<RelayConfig>,
    /// Clock-sync knobs for every tier's master.
    pub sync: SyncConfig,
    /// Seeded fault planes injected on specific relays' *upstream* links
    /// (relay index → spec). Faults on leaf links are the caller's to
    /// wrap around the connection [`RelayTree::connect_to_relay`] hands
    /// back.
    pub upstream_faults: HashMap<usize, FaultSpec>,
}

impl TreeConfig {
    /// A tree of `relays` relays with default knobs everywhere.
    pub fn new(relays: usize) -> TreeConfig {
        TreeConfig {
            relays,
            root: IsmConfig::default(),
            relay: IsmConfig::default(),
            link: None,
            sync: SyncConfig::default(),
            upstream_faults: HashMap::new(),
        }
    }
}

/// A running two-tier relay tree: one root ISM and `relays` relay ISMs,
/// each re-exporting its merged stream to the root under its own
/// namespace prefix.
pub struct RelayTree {
    transport: Arc<MemTransport>,
    root: Option<IsmHandle>,
    relays: Vec<IsmHandle>,
    /// Registry per relay (index-aligned), always bound so relay-tier
    /// telemetry is observable in tests.
    relay_registries: Vec<Arc<Registry>>,
    root_registry: Arc<Registry>,
    /// Fault-plane counters per faulted upstream link (relay index).
    fault_stats: HashMap<usize, Arc<FaultStats>>,
}

impl RelayTree {
    /// Spin up the tree on a fresh in-memory transport. The root listens
    /// on `"root"`, relay `i` on `"relay-i"`.
    pub fn build(cfg: TreeConfig) -> Result<RelayTree> {
        let transport = MemTransport::new();
        let clock = Arc::new(brisk_clock::SystemClock);

        let root_registry = Registry::new();
        let mut root_server =
            IsmServer::new(cfg.root.clone(), cfg.sync.clone(), clock.clone() as _)?;
        root_server.bind_telemetry(&root_registry);
        let root = root_server.spawn(transport.listen("root")?)?;

        let mut relays = Vec::with_capacity(cfg.relays);
        let mut relay_registries = Vec::with_capacity(cfg.relays);
        let mut fault_stats = HashMap::new();
        for i in 0..cfg.relays {
            let prefix = NodePrefix::new(i as u32 + 1)?;
            let mut link = match &cfg.link {
                Some(template) => {
                    let mut l = template.clone();
                    l.prefix = prefix;
                    l
                }
                None => RelayConfig::new(prefix),
            };
            link.prefix = prefix;
            let t = Arc::clone(&transport);
            let fault = cfg.upstream_faults.get(&i).cloned();
            let stats = fault.as_ref().map(|_| {
                let s = FaultStats::new();
                fault_stats.insert(i, Arc::clone(&s));
                s
            });
            let connect: Box<dyn Fn() -> Result<Box<dyn Connection>> + Send> =
                Box::new(move || {
                    let raw = t.connect("root")?;
                    Ok(match (&fault, &stats) {
                        (Some(spec), Some(stats)) => {
                            FaultingConnection::wrap(raw, *spec, i as u64, Arc::clone(stats))
                        }
                        _ => raw,
                    })
                });
            let mut server =
                IsmServer::new(cfg.relay.clone(), cfg.sync.clone(), clock.clone() as _)?;
            let registry = Registry::new();
            server.bind_telemetry(&registry);
            server.set_upstream(UpstreamExporter::new(link, connect, clock.clone() as _));
            relays.push(server.spawn(transport.listen(&format!("relay-{i}"))?)?);
            relay_registries.push(registry);
        }
        Ok(RelayTree {
            transport,
            root: Some(root),
            relays,
            relay_registries,
            root_registry,
            fault_stats,
        })
    }

    /// The tree's transport (e.g. to wrap extra fault planes around leaf
    /// links).
    pub fn transport(&self) -> &Arc<MemTransport> {
        &self.transport
    }

    /// Dial relay `i` — what a leaf EXS under that relay connects to.
    pub fn connect_to_relay(&self, i: usize) -> Result<Box<dyn Connection>> {
        self.transport.connect(&format!("relay-{i}"))
    }

    /// The in-memory listen name of relay `i` (for callers that manage
    /// their own connections, e.g. supervised EXS reconnect factories).
    pub fn relay_name(i: usize) -> String {
        format!("relay-{i}")
    }

    /// The root ISM handle (memory buffer, quarantine, telemetry hooks).
    pub fn root(&self) -> &IsmHandle {
        self.root.as_ref().expect("root alive until stop()")
    }

    /// Relay `i`'s ISM handle.
    pub fn relay(&self, i: usize) -> &IsmHandle {
        &self.relays[i]
    }

    /// Relay count.
    pub fn len(&self) -> usize {
        self.relays.len()
    }

    /// Is the tree relay-less?
    pub fn is_empty(&self) -> bool {
        self.relays.is_empty()
    }

    /// The root server's telemetry registry.
    pub fn root_registry(&self) -> &Arc<Registry> {
        &self.root_registry
    }

    /// Relay `i`'s telemetry registry (carries its `brisk_relay_*`
    /// series and its upstream link's `brisk_uplink_*{role="relay"}`).
    pub fn relay_registry(&self, i: usize) -> &Arc<Registry> {
        &self.relay_registries[i]
    }

    /// Fault-plane counters of relay `i`'s upstream link, when faulted.
    pub fn upstream_fault_stats(&self, i: usize) -> Option<&Arc<FaultStats>> {
        self.fault_stats.get(&i)
    }

    /// The node id the *root* sees for `leaf` under relay `i`: the
    /// relay's prefix rewrite applied once.
    pub fn global_node(i: usize, leaf: NodeId) -> NodeId {
        NodeId((leaf.raw() << NodePrefix::BITS) | (i as u32 + 1))
    }

    /// Stop the whole tree leaf-ward-first — every relay flushes its
    /// send window upstream before the root stops — and return
    /// `(root report, relay reports)`.
    pub fn stop(mut self) -> Result<(IsmReport, Vec<IsmReport>)> {
        let mut relay_reports = Vec::with_capacity(self.relays.len());
        for relay in self.relays.drain(..) {
            relay_reports.push(relay.stop()?);
        }
        let root = self
            .root
            .take()
            .expect("stop() consumes the tree once")
            .stop()?;
        Ok((root, relay_reports))
    }
}
