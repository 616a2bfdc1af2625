/// Declares a set of metrics once: one row per metric, stating its field,
/// kind, name and help text.
///
/// ```
/// virt_metrics::metric_set! {
///     /// What a cache counts.
///     pub struct CacheMetrics {
///         hits: Counter = "hits", "Lookups answered from the cache";
///         entries: Gauge = "entries", "Entries held right now";
///         fill_us: Histogram = "fill_us", "Time taken to fill one miss";
///     }
/// }
///
/// let registry = virt_metrics::Registry::new();
/// let cache = CacheMetrics::new();
/// cache.hits.inc();
/// cache.attach(&registry, "cache.");
/// assert_eq!(registry.names(), ["cache.entries", "cache.fill_us", "cache.hits"]);
/// ```
///
/// From the rows it generates:
///
/// - the struct, with one `pub` field of `Arc<Counter>`, `Arc<Gauge>` or
///   `Arc<Histogram>` per row, documented by the row's help text;
/// - `new()` (and `Default`): detached handles, published nowhere;
/// - `attach(&self, registry, prefix) -> Self`: publishes each handle
///   under `prefix` + its name through [`Registry::adopt`] and returns the
///   handles the registry holds — this set's own the first time a name is
///   published, the earlier instance's after that.
///
/// That one rule serves the three ways a set meets its registry:
///
/// - *publish existing handles*: the owner records through its own set
///   and calls `attach` once, dropping the result (a worker pool, the
///   state store); whatever it recorded before is visible;
/// - *detached, then swapped*: the owner starts with `new()` and replaces
///   its set by what `attach` returns once a registry exists, so several
///   owners aggregate into one set (the guard engines of one daemon);
/// - *registry first*: `Set::new().attach(registry, prefix)`, where every
///   instance shares the registry's handles (the reconnect counters of
///   every connection in a process).
///
/// Not every metric is a row. The per-procedure family `rpc.proc.<n>.*`
/// is registered by a loop over the protocol table, because its help text
/// is read off that table; the loop calls [`Registry::adopt`] itself. A
/// one-off that a single call site needs may stay a
/// [`Registry::counter`] call.
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$attr:meta])*
        $vis:vis struct $set:ident {
            $($field:ident: $kind:ident = $name:literal, $help:literal;)*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone)]
        $vis struct $set {
            $(#[doc = $help] pub $field: ::std::sync::Arc<$crate::$kind>,)*
        }

        impl $set {
            /// Detached handles, published nowhere until `attach`.
            pub fn new() -> Self {
                $set { $($field: ::std::default::Default::default(),)* }
            }

            /// Publishes every handle under `prefix` + its name and returns
            /// the handles the registry holds: this set's own the first
            /// time a name is published, the earlier instance's after that.
            pub fn attach(&self, registry: &$crate::Registry, prefix: &str) -> Self {
                $set {
                    $($field: registry.adopt(&[prefix, $name].concat(), $help, &self.$field),)*
                }
            }
        }

        impl ::std::default::Default for $set {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}
