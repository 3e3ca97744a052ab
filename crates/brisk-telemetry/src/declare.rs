//! [`metrics!`](crate::metrics!): one declaration per component of the
//! series it has, what they are called, and how they reach a registry.

/// Declare a component's metric cells once.
///
/// From one list of `field: counter|gauge|histogram "name" "help"`
/// entries (an entry may pin extra labels: `["reason" = "timeout"]`) this
/// emits the cell struct — `AtomicU64` / `AtomicI64` /
/// `Arc<`[`Histogram`](crate::Histogram)`>` fields, `Debug + Default` —
/// and `register(&Arc<Self>, &Registry, labels)`, which publishes every
/// cell under its declared name with `labels` plus the entry's own. The
/// cells exist whether or not anything is registered, so what was counted
/// before binding is visible after it, and registering twice is a no-op.
///
/// With `=> struct Snapshot` it also emits the plain `Copy` snapshot of
/// the *counters* (same field names and docs), `snapshot()` and
/// `publish(&snapshot)`. A component observed from other threads bumps
/// its cells in place; a single-threaded per-record owner keeps the plain
/// snapshot as its working state and publishes it once per tick.
///
/// A component built on another declared one names it after the entries:
/// `} + link: LinkCells => LinkStats` adds a shared `Arc<LinkCells>`
/// field, and the snapshot carries the part's snapshot and derefs to it,
/// so `stats.hello_acks` reads the part's counter. `register` leaves the
/// part to its owner, which publishes it under its own labels.
///
/// ```
/// use std::sync::{atomic::Ordering::Relaxed, Arc};
/// brisk_telemetry::metrics! {
///     /// Cells of a demo stage.
///     pub struct DemoCells => /** Its counters. */ pub struct DemoStats {
///         /// Items handled.
///         pub items: counter "demo_items_total" "Items handled",
///         odd: counter "demo_kind_total" "Items by kind" ["kind" = "odd"],
///         depth: gauge "demo_depth" "Items queued",
///         lat_us: histogram "demo_lat_us" "Handling latency",
///     }
/// }
/// let cells = Arc::new(DemoCells::default());
/// cells.items.fetch_add(2, Relaxed);
/// let registry = brisk_telemetry::Registry::new();
/// cells.register(&registry, &[("node", "7")]);
/// let snap = registry.snapshot();
/// assert_eq!(snap.counter_labeled("demo_items_total", &[("node", "7")]), Some(2));
/// assert_eq!(cells.snapshot(), DemoStats { items: 2, odd: 0 });
/// ```
#[macro_export]
macro_rules! metrics {
    (
        $(#[$m:meta])* $vis:vis struct $Cells:ident
        $(=> $(#[$sm:meta])* $svis:vis struct $Snap:ident)? {
            $( $(#[$fm:meta])* $fvis:vis $f:ident : $kind:ident $name:literal $help:literal
               $([ $($lk:literal = $lv:literal),+ ])? ),+ $(,)?
        } $(+ $p:ident : $PCells:ty => $PSnap:ty)?
    ) => {
        $(#[$m])*
        #[derive(Debug, Default)]
        $vis struct $Cells {
            $( $(#[$fm])* $fvis $f: $crate::metrics!(@cell $kind), )+
            $(
                /// The cells of the component this one is built on.
                pub $p: ::std::sync::Arc<$PCells>,
            )?
        }
        impl $Cells {
            /// Publish every declared series in `registry` under `labels`
            /// (plus each entry's own). The registry adopts these cells;
            /// a series already registered is left alone.
            $vis fn register(
                self: &::std::sync::Arc<Self>,
                registry: &$crate::Registry,
                labels: &[(&str, &str)],
            ) {
                $( {
                    #[allow(unused_mut)]
                    let mut l = labels.to_vec();
                    $( l.extend([$(($lk, $lv)),+]); )?
                    $crate::metrics!(@register $kind self registry $f $name $help l);
                } )+
            }
        }
        $crate::metrics! {
            @snapshot [$($(#[$sm])* $svis $Snap)?] [$($p $PSnap)?] $Cells []
            $([$(#[$fm])* $f $kind])+
        }
    };
    (@cell counter) => { ::std::sync::atomic::AtomicU64 };
    (@cell gauge) => { ::std::sync::atomic::AtomicI64 };
    (@cell histogram) => { ::std::sync::Arc<$crate::Histogram> };
    (@register histogram $s:ident $r:ident $f:ident $n:literal $h:literal $l:ident) => {
        $r.register_histogram($n, $h, &$l, &$s.$f)
    };
    (@register counter $s:ident $r:ident $f:ident $n:literal $h:literal $l:ident) => {{
        let me = ::std::sync::Arc::clone($s);
        let load = move || me.$f.load(::std::sync::atomic::Ordering::Relaxed);
        $r.counter_fn($n, $h, &$l, load)
    }};
    (@register gauge $s:ident $r:ident $f:ident $n:literal $h:literal $l:ident) => {{
        let me = ::std::sync::Arc::clone($s);
        let load = move || me.$f.load(::std::sync::atomic::Ordering::Relaxed);
        $r.gauge_fn($n, $h, &$l, load)
    }};
    // No snapshot asked for; else sift the counters out of the entry
    // list, then emit it.
    (@snapshot [] $($rest:tt)*) => {};
    (@snapshot $head:tt $part:tt $Cells:ident [$($acc:tt)*]
     [$(#[$fm:meta])* $f:ident counter] $($rest:tt)*) => {
        $crate::metrics! { @snapshot $head $part $Cells [$($acc)* [$(#[$fm])* $f]] $($rest)* }
    };
    (@snapshot $head:tt $part:tt $Cells:ident $acc:tt [$($skipped:tt)*] $($rest:tt)*) => {
        $crate::metrics! { @snapshot $head $part $Cells $acc $($rest)* }
    };
    (@snapshot [$(#[$sm:meta])* $svis:vis $Snap:ident] [$($p:ident $PSnap:ty)?] $Cells:ident
     [$([$(#[$fm:meta])* $f:ident])*]) => {
        $(#[$sm])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $svis struct $Snap {
            $( $(#[$fm])* pub $f: u64, )*
            $(
                /// The counters of the component this one is built on.
                pub $p: $PSnap,
            )?
        }
        impl $Cells {
            /// Load every counter into the plain snapshot.
            $svis fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $f: self.$f.load(::std::sync::atomic::Ordering::Relaxed), )*
                    $( $p: self.$p.snapshot(), )?
                }
            }
            /// Store a plain snapshot into the counters: how a
            /// single-threaded owner publishes its working totals.
            $svis fn publish(&self, s: &$Snap) {
                $( self.$f.store(s.$f, ::std::sync::atomic::Ordering::Relaxed); )*
                $( self.$p.publish(&s.$p); )?
            }
        }
        $(
            impl ::std::ops::Deref for $Snap {
                type Target = $PSnap;
                fn deref(&self) -> &$PSnap {
                    &self.$p
                }
            }
        )?
    };
}

#[cfg(test)]
mod tests {
    use crate::Registry;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;

    metrics! {
        struct Cells => struct Stats {
            /// Items in.
            items_in: counter "t_in_total" "Items in",
            timeouts: counter "t_flush_total" "Flushes" ["reason" = "timeout"],
            forced: counter "t_flush_total" "Flushes" ["reason" = "forced"],
            depth: gauge "t_depth" "Queue depth",
            lat_us: histogram "t_lat_us" "Latency",
        }
    }

    metrics! {
        struct Whole => struct WholeStats {
            outer: counter "t_outer_total" "Outer items",
        } + inner: Cells => Stats
    }

    metrics! {
        struct Lone {
            depth: gauge "t_lone_depth" "No snapshot declared",
        }
    }

    fn bumped() -> Arc<Cells> {
        let cells = Arc::new(Cells::default());
        cells.items_in.fetch_add(5, Relaxed);
        cells.forced.fetch_add(2, Relaxed);
        cells.depth.store(-3, Relaxed);
        cells.lat_us.record(40);
        cells
    }

    #[test]
    fn every_series_registers_once_with_its_labels() {
        let cells = bumped();
        let registry = Registry::new();
        cells.register(&registry, &[("node", "1")]);
        cells.register(&registry, &[("node", "1")]); // idempotent
        Arc::new(Lone::default()).register(&registry, &[]);
        let snap = registry.snapshot();
        let series: Vec<(String, Vec<(String, String)>)> = snap
            .samples
            .iter()
            .map(|s| (s.name.clone(), s.labels.clone()))
            .collect();
        let l = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        assert_eq!(
            series,
            vec![
                ("t_in_total".to_string(), l(&[("node", "1")])),
                (
                    "t_flush_total".to_string(),
                    l(&[("node", "1"), ("reason", "timeout")])
                ),
                (
                    "t_flush_total".to_string(),
                    l(&[("node", "1"), ("reason", "forced")])
                ),
                ("t_depth".to_string(), l(&[("node", "1")])),
                ("t_lat_us".to_string(), l(&[("node", "1")])),
                ("t_lone_depth".to_string(), l(&[])),
            ]
        );
        // Counts taken before registering are visible after it, and the
        // registry reads the live cells.
        assert_eq!(snap.counter_total("t_in_total"), 5);
        assert_eq!(snap.counter_total("t_flush_total"), 2);
        assert_eq!(snap.gauge("t_depth"), Some(-3));
        assert_eq!(snap.histogram("t_lat_us").unwrap().max, 40);
        cells.items_in.fetch_add(1, Relaxed);
        assert_eq!(registry.snapshot().counter_total("t_in_total"), 6);
    }

    #[test]
    fn snapshot_is_the_field_by_field_load_and_publish_round_trips() {
        let cells = bumped();
        let stats = cells.snapshot();
        assert_eq!(
            stats,
            Stats {
                items_in: cells.items_in.load(Relaxed),
                timeouts: cells.timeouts.load(Relaxed),
                forced: cells.forced.load(Relaxed),
            }
        );
        let fresh = Cells::default();
        fresh.publish(&stats);
        assert_eq!(fresh.snapshot(), stats);
    }

    #[test]
    fn a_part_is_shared_snapshotted_and_left_to_its_owner_to_register() {
        let inner = bumped();
        let whole = Arc::new(Whole {
            inner: Arc::clone(&inner),
            ..Whole::default()
        });
        whole.outer.fetch_add(1, Relaxed);
        let stats = whole.snapshot();
        assert_eq!(stats.outer, 1);
        assert_eq!(stats.inner, inner.snapshot());
        assert_eq!(stats.items_in, 5, "the snapshot derefs to the part's");
        let fresh = Whole::default();
        fresh.publish(&stats);
        assert_eq!(fresh.snapshot(), stats);
        let registry = Registry::new();
        whole.register(&registry, &[]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("t_outer_total"), 1);
        assert_eq!(snap.counter_total("t_in_total"), 0, "not registered");
    }
}
