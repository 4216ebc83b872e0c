//! The standard filter catalog: every filter of the reproduction wired to
//! an `add`-command factory, mirroring the thesis's filter repository.

use comma_proxy::engine::FilterCatalog;

use crate::basic::{Launcher, RandomDrop, TcpHousekeeping};
use crate::codec::Method;
use crate::hdiscard::HierarchicalDiscard;
use crate::snoop::Snoop;
use crate::transform::{Compressor, Decompressor, Identity, RecordDrop, Translator};
use crate::ttsf::Ttsf;
use crate::wsize::Wsize;

/// Default block size for the compression service.
pub const DEFAULT_BLOCK: usize = 2048;

/// Builds the standard catalog. Filters named in `preloaded` are marked
/// loaded immediately ("compiled into the SP"); the rest must be `load`ed.
pub fn standard_catalog(preloaded: &[&str]) -> FilterCatalog {
    let mut catalog = FilterCatalog::new();

    catalog.register(
        "tcp",
        Box::new(|_args| Ok(Box::new(TcpHousekeeping::new()))),
    );
    catalog.register(
        "launcher",
        Box::new(|args| Ok(Box::new(Launcher::new(args)))),
    );
    catalog.register(
        "rdrop",
        Box::new(|args| RandomDrop::from_args(args).map(boxed)),
    );
    catalog.register("wsize", Box::new(|args| Wsize::from_args(args).map(boxed)));
    catalog.register(
        "snoop",
        Box::new(|args| {
            let mut snoop = Snoop::new();
            if let Some(ms) = args.first() {
                let ms: u64 = ms
                    .parse()
                    .ok()
                    .filter(|&ms| ms <= u64::MAX / 1_000)
                    .ok_or_else(|| "snoop: bad max-local-rto".to_string())?;
                snoop = snoop.with_max_local_rto(comma_netsim::time::SimDuration::from_millis(ms));
            }
            Ok(Box::new(snoop))
        }),
    );
    catalog.register(
        "hdiscard",
        Box::new(|args| HierarchicalDiscard::from_args(args).map(boxed)),
    );

    // TTSF-backed stream services.
    catalog.register(
        "ttsf",
        Box::new(|_args| Ok(Box::new(Ttsf::new(Box::new(Identity))))),
    );
    catalog.register(
        "compress",
        Box::new(|args| {
            let method = match args.first().map(|s| s.as_str()) {
                None => Method::Lzss,
                Some(name) => {
                    Method::parse(name).ok_or_else(|| format!("compress: unknown method {name}"))?
                }
            };
            let block = match args.get(1) {
                None => DEFAULT_BLOCK,
                Some(b) => b
                    .parse()
                    .map_err(|_| "compress: bad block size".to_string())?,
            };
            Ok(Box::new(Ttsf::new(Box::new(Compressor::new(
                method, block,
            )))))
        }),
    );
    catalog.register(
        "decompress",
        Box::new(|_args| Ok(Box::new(Ttsf::new(Box::new(Decompressor::new()))))),
    );
    catalog.register(
        "removal",
        Box::new(|args| {
            let min: u8 = match args.first() {
                None => 1,
                Some(v) => v
                    .parse()
                    .map_err(|_| "removal: bad importance".to_string())?,
            };
            Ok(Box::new(Ttsf::new(Box::new(RecordDrop::new(min)))))
        }),
    );
    catalog.register(
        "translate",
        Box::new(|_args| Ok(Box::new(Ttsf::new(Box::new(Translator::new()))))),
    );

    for name in preloaded {
        let loaded = catalog.load(name);
        debug_assert!(loaded.is_some(), "unknown preloaded filter {name}");
    }
    catalog
}

/// Every filter name in the standard catalog.
pub const ALL_FILTERS: &[&str] = &[
    "tcp",
    "launcher",
    "rdrop",
    "wsize",
    "snoop",
    "hdiscard",
    "ttsf",
    "compress",
    "decompress",
    "removal",
    "translate",
];

fn boxed<F: comma_proxy::filter::Filter + 'static>(f: F) -> Box<dyn comma_proxy::filter::Filter> {
    Box::new(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_filters_instantiable() {
        let mut catalog = standard_catalog(ALL_FILTERS);
        for name in ALL_FILTERS {
            assert!(catalog.is_loaded(name), "{name} not loaded");
        }
        // Spot-check factories through the engine.
        let mut engine = comma_proxy::engine::FilterEngine::new(std::mem::take(&mut catalog));
        assert!(engine
            .register(comma_proxy::key::WildKey::ANY, "snoop", vec![])
            .is_ok());
        assert!(engine
            .register(comma_proxy::key::WildKey::ANY, "rdrop", vec!["50".into()])
            .is_ok());
        assert!(engine
            .register(comma_proxy::key::WildKey::ANY, "nosuch", vec![])
            .is_err());
    }

    #[test]
    fn nothing_preloaded_by_default() {
        let catalog = standard_catalog(&[]);
        for name in ALL_FILTERS {
            assert!(!catalog.is_loaded(name));
        }
    }
}
