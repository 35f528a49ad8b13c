//! # ruid — a structural numbering scheme for XML data
//!
//! A complete implementation of *"A Structural Numbering Scheme for XML
//! Data"* (Kha, Yoshikawa, Uemura; EDBT 2002 Workshops): the multilevel
//! recursive UID (**rUID**) numbering scheme, together with everything it
//! runs on — an XML DOM and parser, the baseline numbering schemes it is
//! compared against, an XPath subset whose axes are computed from labels,
//! an identifier-sorted storage layer, and synthetic workload generators.
//!
//! This crate re-exports the whole workspace behind one `use ruid::...`
//! front door; see the module docs of each component crate for depth.
//!
//! ## Sixty-second tour
//!
//! ```
//! use ruid::prelude::*;
//!
//! // Parse (substrate: in-repo XML parser + arena DOM).
//! let mut doc = Document::parse("<a><b><c/><d/></b><e/></a>").unwrap();
//!
//! // Number the tree with a 2-level rUID (the paper's contribution).
//! let mut scheme = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(2));
//! let root = doc.root_element().unwrap();
//! assert!(scheme.label_of(root).is_tree_root()); // (1, 1, true)
//!
//! // Parent identifiers come from label arithmetic alone (Fig. 6).
//! let d = doc.descendants(root).find(|&n| doc.tag_name(n) == Some("d")).unwrap();
//! let parent = scheme.rparent(&scheme.label_of(d)).unwrap();
//! assert_eq!(scheme.node_of(&parent), doc.parent(d));
//!
//! // Structural updates stay local (Section 3.2).
//! let new = doc.create_element("new");
//! let b = doc.descendants(root).find(|&n| doc.tag_name(n) == Some("b")).unwrap();
//! doc.insert_after(b, new);
//! let stats = scheme.on_insert(&doc, new);
//! assert!(!stats.full_rebuild);
//!
//! // XPath over label-computed axes (Section 3.5).
//! let eval = Evaluator::new(&doc, RuidAxes::new(&scheme));
//! let hits = eval.query("//b/following-sibling::*").unwrap();
//! assert_eq!(hits.len(), 2); // new, e
//! ```

#![forbid(unsafe_code)]

pub use par::{available_threads, Executor, PoolClosed, SubmitError};
pub use ruid_core::{
    axes, multilevel, partition, rparent_with, AreaEntry, BuildError, KTable, MultiRuid, MultiRuidScheme,
    Partition, PartitionConfig, PartitionStrategy, Ruid2, Ruid2Scheme,
};
pub use schemes::{
    ancestry::{AncestryLabel, AncestryMode, AncestryScheme},
    containment::ContainmentScheme,
    dewey::DeweyScheme,
    interval::{document_from_stream, IntervalLabel, IntervalScheme, SpanIndex},
    kary,
    prepost::PrePostScheme,
    uid::UidScheme,
    NumberingScheme, RelabelStats,
};
pub use ubig::Uint;
pub use xmldom::{
    Attribute, DocOrder, Document, Interner, NameId, NodeId, NodeKind, ParseError, ParseOptions,
    SerializeOptions, TreeStats,
};
pub use xmlgen::{dblp, deep_tree, random_tree, xmark, FanoutDist, NameStrategy, SplitMix64, TreeGenConfig};
pub use xmlstore::{
    fragment_from_rows, BPlusTree, HeapFile, MemPager, PartitionedStore, StoredNode, XmlStore,
};
pub use xpath::{
    containment_join, parent_join, parse as parse_xpath, AxisProvider, Evaluator, NameIndex,
    NameIndexed, RuidAxes, SpanAxes, TreeAxes, UidAxes,
};
pub use plan::{
    execute as execute_plan, plan as plan_query, planned_query, render_explain, ExecStats,
    PathSummary, Plan, PlanOp, ResultCache,
};
pub use ruid_service as service;
pub use ruid_service::{BinaryClient, Catalog, Client, Durability, FsyncPolicy, LoadedDoc, Metrics, Server, ServerConfig, ServerHandle, ThreadPool, WalOp};

/// Everything a typical user needs, for `use ruid::prelude::*`.
pub mod prelude {
    pub use ruid_core::{rparent_with, MultiRuidScheme, PartitionConfig, Ruid2, Ruid2Scheme};
    pub use schemes::{NumberingScheme, RelabelStats};
    pub use xmldom::{Document, NodeId, NodeKind, TreeStats};
    pub use xpath::{Evaluator, RuidAxes, TreeAxes, UidAxes};
}
