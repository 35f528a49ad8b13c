//! The 2-level rUID scheme: construction (the algorithm of the paper's
//! Fig. 3) and the label-arithmetic core (`rparent`, ancestry, document
//! order).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use par::Executor;
use schemes::kary;
use schemes::{NumberingScheme, RelabelStats};
use xmldom::{Column, Document, NodeId};

use crate::label::Ruid2;
use crate::partition::{Partition, PartitionConfig};
use crate::table::{AreaEntry, KTable};

/// The parent computation of the paper's Fig. 6, as a pure function of the
/// global parameters (κ, K). Returns `None` for the tree root.
///
/// # Panics
/// Panics if the label references an area missing from `ktable` — labels and
/// table must come from the same numbering. For labels of unknown
/// provenance (client bytes) use [`rparent_checked`].
pub fn rparent_with(kappa: u64, ktable: &KTable, label: &Ruid2) -> Option<Ruid2> {
    rparent_checked(kappa, ktable, label)
        .unwrap_or_else(|e| panic!("label/table mismatch: {e}"))
}

/// Total variant of [`rparent_with`]: a label this numbering could never
/// have issued (zero indices, an area missing from K, an "area root"
/// flag above the tree root, a local slot outside the area's fan-out
/// range) is reported as an `Err` instead of a panic. This is the form
/// the serving layer uses — `PARENT` feeds client-controlled bytes
/// straight into this arithmetic, and a fabricated label must answer
/// `ERR`, not kill the worker.
pub fn rparent_checked(
    kappa: u64,
    ktable: &KTable,
    label: &Ruid2,
) -> Result<Option<Ruid2>, String> {
    if label.global == 0 || label.local == 0 {
        return Err(format!("invalid label {label}: indices start at 1"));
    }
    if label.is_tree_root() {
        return Ok(None);
    }
    // Step 1-5: the area holding the parent.
    let g = if label.is_root {
        match kary::parent_u64(label.global, kappa) {
            Some(g) => g,
            // global == 1 with is_root but not the tree root: no upper
            // area exists for it to be the root of.
            None => return Err(format!("invalid label {label}: no area above it")),
        }
    } else {
        label.global
    };
    // Step 6-7: local k-ary parent inside that area.
    let Some(entry) = ktable.get(g) else {
        return Err(format!("invalid label {label}: area {g} not in table K"));
    };
    let Some(l) = kary::parent_u64(label.local, entry.fanout) else {
        // local == 1 without the root flag: slot 1 is the area root
        // itself, which carries `is_root` — no issued label looks like this.
        return Err(format!("invalid label {label}: local slot 1 must be an area root"));
    };
    // Step 8-13: landing on local index 1 means the parent is the area root,
    // whose public local index lives in the *upper* area (table K).
    if l == 1 {
        Ok(Some(Ruid2::new(g, entry.local, true)))
    } else {
        Ok(Some(Ruid2::new(g, l, false)))
    }
}

/// Output of one area's local enumeration (steps (4)-(14) of Fig. 3 for a
/// single area). Pure function of the tree, the partition and the frame
/// numbering — no shared mutable state, which is what lets areas run on any
/// thread and still merge into a byte-identical scheme.
struct AreaLabels {
    /// The area's enumeration fan-out k (table-K row).
    fanout: u64,
    /// Labels of the area's interior members (the root excluded — its
    /// public local index is assigned by the upper area).
    labels: Vec<(NodeId, Ruid2)>,
    /// `(global, local)` of each boundary root: the child area's public
    /// local index, recorded here because the slot lives in *this* area.
    boundary: Vec<(u64, u64)>,
}

/// Enumerates one UID-local area: computes its fan-out, assigns k-ary local
/// indices to interior members, and records the slots of boundary roots.
fn label_area(
    doc: &Document,
    partition: &Partition,
    global_of: &HashMap<NodeId, u64>,
    r: NodeId,
    g: u64,
) -> Result<AreaLabels, BuildError> {
    let members = partition.area_members(doc, r);
    // Local fan-out: over nodes whose children belong to this area (the
    // root and interior members; boundary roots' children live in their
    // own areas).
    let k = members
        .iter()
        .filter(|&&m| m == r || !partition.is_area_root(m))
        .map(|&m| doc.children(m).count())
        .max()
        .unwrap_or(0)
        .max(1) as u64;
    let mut out = AreaLabels { fanout: k, labels: Vec::new(), boundary: Vec::new() };
    // DFS assigning local indices; the area root is 1.
    let mut stack: Vec<(NodeId, u64)> = vec![(r, 1)];
    while let Some((n, local)) = stack.pop() {
        if n != r && partition.is_area_root(n) {
            // Boundary root: record its leaf index in this area.
            out.boundary.push((global_of[&n], local));
            continue;
        }
        if n != r {
            out.labels.push((n, Ruid2::new(g, local, false)));
        }
        for (j, c) in doc.children(n).enumerate() {
            let cl = kary::child_u64(local, k, j as u64 + 1)
                .ok_or(BuildError::LocalOverflow { area: g, fanout: k })?;
            stack.push((c, cl));
        }
    }
    Ok(out)
}

/// Why a numbering could not be built: a u64 k-ary index overflowed.
///
/// The original UID scheme overflows by design on large trees (Section 1 of
/// the paper); rUID inherits the limit *per level* — a frame deeper than
/// ~64/log2(κ) levels, or an absurdly deep single area, exceeds u64. The fix
/// is the paper's: partition finer, or add a level
/// ([`crate::MultiRuidScheme`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The κ-ary enumeration of the frame exceeded u64.
    FrameOverflow {
        /// The frame fan-out in use.
        kappa: u64,
    },
    /// The local enumeration of one area exceeded u64.
    LocalOverflow {
        /// The area's global index.
        area: u64,
        /// The area's enumeration fan-out.
        fanout: u64,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::FrameOverflow { kappa } => write!(
                f,
                "frame enumeration overflowed u64 (kappa = {kappa}): the frame is too \
                 large/deep for a 2-level rUID; use a multilevel numbering or a coarser \
                 partition"
            ),
            BuildError::LocalOverflow { area, fanout } => write!(
                f,
                "local enumeration of area {area} overflowed u64 (fan-out {fanout}): \
                 partition finer"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// The reverse map of one UID-local area.
#[derive(Debug, Clone)]
struct Area {
    /// The area's root node; its label `(global, local, true)` is checked
    /// against the stored one, since `local` lives in the upper area.
    root: NodeId,
    /// Local index → node for the area's interior members, shared between
    /// generations until an update touches this area.
    interior: Arc<HashMap<u64, NodeId>>,
}

/// A 2-level rUID numbering of one document subtree.
///
/// Holds the global parameters (κ and the table K — the only state the
/// label-arithmetic needs) plus the label tables that tie labels to
/// [`NodeId`]s. Both tables are copy-on-write: a clone (a commit's staging
/// copy) copies chunk pointers, the plain-data slot map and K — never a
/// refcount per area — and an update copies only what §3.2 says it
/// touches: the label chunks of the nodes it relabels and the reverse map
/// of the area it renumbers.
#[derive(Debug, Clone)]
pub struct Ruid2Scheme {
    root: NodeId,
    kappa: u64,
    ktable: KTable,
    /// Label by [`NodeId::index`].
    labels: Column<Option<Ruid2>>,
    /// Area global index → the area's slot in `areas`.
    slots: HashMap<u64, u32>,
    /// Reverse maps by slot, one per UID-local area (labels are unique
    /// including the root flag); a retired area's slot is `None`.
    areas: Column<Option<Area>>,
    /// Kept so rebuilds reuse the same policy.
    config: PartitionConfig,
}

/// One area's parts before assembly: global index, root, interior map.
type AreaParts = (u64, NodeId, HashMap<u64, NodeId>);

impl Ruid2Scheme {
    /// Builds the numbering for the subtree under the document's root
    /// element (or the document node when there is no element).
    pub fn build(doc: &Document, config: &PartitionConfig) -> Self {
        let root = doc.root_element().unwrap_or_else(|| doc.root());
        Self::build_at(doc, root, config)
    }

    /// Builds the numbering for the subtree rooted at `root`.
    ///
    /// # Panics
    /// Panics if the frame or an area is so large that a u64 k-ary index
    /// overflows (see [`Ruid2Scheme::try_build_at`] for the checked form);
    /// partition finer or use [`crate::MultiRuidScheme`] for such documents.
    pub fn build_at(doc: &Document, root: NodeId, config: &PartitionConfig) -> Self {
        Self::try_build_at(doc, root, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Ruid2Scheme::build`] with an explicit thread budget: areas are
    /// fanned out over `exec` (see [`Ruid2Scheme::try_from_partition_with`]).
    ///
    /// # Panics
    /// Panics on enumeration overflow, like [`Ruid2Scheme::build`].
    pub fn build_with(doc: &Document, config: &PartitionConfig, exec: &Executor) -> Self {
        Self::try_build_with(doc, config, exec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`Ruid2Scheme::build`]: reports enumeration overflow instead
    /// of panicking — the trigger condition for going multilevel.
    pub fn try_build(doc: &Document, config: &PartitionConfig) -> Result<Self, BuildError> {
        Self::try_build_with(doc, config, &Executor::new(1))
    }

    /// Checked [`Ruid2Scheme::build_with`].
    pub fn try_build_with(
        doc: &Document,
        config: &PartitionConfig,
        exec: &Executor,
    ) -> Result<Self, BuildError> {
        let root = doc.root_element().unwrap_or_else(|| doc.root());
        Self::try_build_at_with(doc, root, config, exec)
    }

    /// Checked [`Ruid2Scheme::build_at`].
    pub fn try_build_at(
        doc: &Document,
        root: NodeId,
        config: &PartitionConfig,
    ) -> Result<Self, BuildError> {
        Self::try_build_at_with(doc, root, config, &Executor::new(1))
    }

    /// Checked [`Ruid2Scheme::build_at`] with an explicit thread budget.
    pub fn try_build_at_with(
        doc: &Document,
        root: NodeId,
        config: &PartitionConfig,
        exec: &Executor,
    ) -> Result<Self, BuildError> {
        let partition = Partition::compute(doc, root, config);
        Self::try_from_partition_with(doc, &partition, config, exec)
    }

    /// Builds the numbering from an explicit partition.
    ///
    /// # Panics
    /// Panics on enumeration overflow; see
    /// [`Ruid2Scheme::try_from_partition`].
    pub fn from_partition(doc: &Document, partition: &Partition, config: &PartitionConfig) -> Self {
        Self::try_from_partition(doc, partition, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`Ruid2Scheme::from_partition`].
    pub fn try_from_partition(
        doc: &Document,
        partition: &Partition,
        config: &PartitionConfig,
    ) -> Result<Self, BuildError> {
        Self::try_from_partition_with(doc, partition, config, &Executor::new(1))
    }

    /// Checked [`Ruid2Scheme::from_partition`] with an explicit thread
    /// budget.
    ///
    /// The frame is enumerated sequentially (steps (1)-(3) of Fig. 3), then
    /// the per-area local enumerations — mutually independent because areas
    /// are disjoint induced subtrees (Definition 2) — are fanned out over
    /// `exec` and merged back in frame order. The result is byte-identical
    /// to the sequential build for any thread count: every area's output
    /// depends only on the tree, the partition, and the frame numbering,
    /// all fixed before the fan-out.
    pub fn try_from_partition_with(
        doc: &Document,
        partition: &Partition,
        config: &PartitionConfig,
        exec: &Executor,
    ) -> Result<Self, BuildError> {
        let root = partition.root();
        let kappa = partition.frame_max_fanout(doc);

        // Step (2) of Fig. 3: enumerate the frame with a κ-ary tree to get
        // the global indices. `areas` fixes a deterministic order (frame
        // DFS) for both the fan-out and the merge.
        let mut global_of: HashMap<NodeId, u64> = HashMap::new();
        global_of.insert(root, 1);
        let mut areas: Vec<(NodeId, u64)> = Vec::new();
        let mut frame_stack = vec![(root, 1u64)];
        while let Some((r, g)) = frame_stack.pop() {
            areas.push((r, g));
            for (j, child_root) in partition.frame_children(doc, r).into_iter().enumerate() {
                let cg = kary::child_u64(g, kappa, j as u64 + 1)
                    .ok_or(BuildError::FrameOverflow { kappa })?;
                global_of.insert(child_root, cg);
                frame_stack.push((child_root, cg));
            }
        }

        // Steps (4)-(14): enumerate each area locally. Independent per
        // Definition 2, so the areas fan out across the executor's threads;
        // on overflow the error of the first area in frame order wins.
        let labeled = exec
            .try_par_map(&areas, |_, &(r, g)| label_area(doc, partition, &global_of, r, g))?;

        // Merge (deterministic: frame order). First all interior labels and
        // boundary slots, because an area root's public local index is
        // recorded by its *upper* area.
        // root_local[g] = the area root's index in its upper area.
        let mut labels = vec![None; doc.arena_len()];
        let mut parts = Vec::with_capacity(areas.len());
        let mut root_local: HashMap<u64, u64> = HashMap::new();
        root_local.insert(1, 1);
        for (&(r, g), area) in areas.iter().zip(&labeled) {
            let mut interior = HashMap::with_capacity(area.labels.len());
            for &(n, label) in &area.labels {
                labels[n.index()] = Some(label);
                interior.insert(label.local, n);
            }
            parts.push((g, r, interior));
            for &(ng, local) in &area.boundary {
                root_local.insert(ng, local);
            }
        }

        // Compose area-root labels and the table K.
        let mut rows = Vec::with_capacity(areas.len());
        for (&(r, g), area) in areas.iter().zip(&labeled) {
            let local = root_local[&g];
            labels[r.index()] = Some(Ruid2::new(g, local, true));
            rows.push(AreaEntry { global: g, local, fanout: area.fanout });
        }
        let slots = parts.iter().enumerate().map(|(slot, &(g, ..))| (g, slot as u32)).collect();
        Ok(Ruid2Scheme::assemble(root, kappa, KTable::from_rows(rows), *config, labels, parts, slots))
    }

    /// The scheme over `labels` (by node index) and `areas`, where
    /// `slots` maps each area's global index to its position in `areas`.
    fn assemble(
        root: NodeId,
        kappa: u64,
        ktable: KTable,
        config: PartitionConfig,
        labels: Vec<Option<Ruid2>>,
        areas: Vec<AreaParts>,
        slots: HashMap<u64, u32>,
    ) -> Self {
        // Leaf areas (40 % of them on XMark) share one empty map until
        // written, instead of an allocation each.
        let empty = Arc::new(HashMap::new());
        let areas: Vec<Option<Area>> = areas
            .into_iter()
            .map(|(_, root, interior)| {
                let interior =
                    if interior.is_empty() { Arc::clone(&empty) } else { Arc::new(interior) };
                Some(Area { root, interior })
            })
            .collect();
        Ruid2Scheme { root, kappa, ktable, labels: labels.into(), slots, areas: areas.into(), config }
    }

    /// Reassembles a numbering from previously extracted state — the
    /// restore path of a snapshot. `labels` pairs every labelled node with
    /// its rUID; the derived tables (per-area reverse maps, area roots)
    /// are rebuilt here rather than trusted from disk.
    ///
    /// Validates the parts against each other so a corrupt-but-checksummed
    /// snapshot (e.g. written by a buggy older version) cannot produce a
    /// scheme that violates the structural invariants: nodes must exist in
    /// `doc`'s arena and be listed once, labels must be unique, exactly the
    /// nodes of the numbering subtree must be labelled, the numbering root
    /// must carry the tree-root label, area-root labels must correspond
    /// one-to-one with the rows of table K, and every interior label must
    /// lie in one of those areas.
    ///
    /// `labels` is read once, in any order: a slice of pairs, or an
    /// iterator that decodes them straight from a snapshot section.
    pub fn from_parts<L>(
        doc: &Document,
        root: NodeId,
        kappa: u64,
        ktable: KTable,
        config: PartitionConfig,
        labels: L,
    ) -> Result<Self, String>
    where
        L: IntoIterator,
        L::Item: Borrow<(NodeId, Ruid2)>,
    {
        if kappa == 0 {
            return Err("kappa must be at least 1".into());
        }
        let mut by_node = vec![None; doc.arena_len()];
        let mut count = 0usize;
        for pair in labels {
            let &(node, label) = pair.borrow();
            let slot = by_node
                .get_mut(node.index())
                .ok_or_else(|| format!("label references node {} outside the arena", node.index()))?;
            if slot.replace(label).is_some() {
                return Err(format!("node {} is listed twice", node.index()));
            }
            count += 1;
        }
        let labelled = || {
            by_node
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.map(|label| (NodeId::from_index(i), label)))
        };
        // Roots first: an interior label is filed under its area's root.
        // `area_of` holds each labelled node's area slot once known.
        const NO_SLOT: u32 = u32::MAX;
        let mut area_of = vec![NO_SLOT; by_node.len()];
        let mut parts: Vec<AreaParts> = Vec::with_capacity(ktable.len());
        let mut slot_of: HashMap<u64, u32> = HashMap::with_capacity(ktable.len());
        for (node, label) in labelled().filter(|(_, l)| l.is_root) {
            if ktable.get(label.global).is_none() {
                return Err(format!("area {} has a root label but no row in K", label.global));
            }
            if slot_of.insert(label.global, parts.len() as u32).is_some() {
                return Err(format!("area {} has two root labels", label.global));
            }
            area_of[node.index()] = parts.len() as u32;
            parts.push((label.global, node, HashMap::new()));
        }
        // An interior node lies in its parent's area whenever the globals
        // agree, and in node order the parent's is mostly known already;
        // the map is the fallback. Counting before inserting sizes each
        // area's map once.
        let mut interior = vec![0usize; parts.len()];
        for (node, label) in labelled().filter(|(_, l)| !l.is_root) {
            let parent = doc.parent(node).map_or(NO_SLOT, |p| area_of[p.index()]);
            let slot = if parent != NO_SLOT && parts[parent as usize].0 == label.global {
                parent
            } else {
                *slot_of.get(&label.global).ok_or_else(|| {
                    format!("label {label:?} lies in area {} which has no root", label.global)
                })?
            };
            area_of[node.index()] = slot;
            interior[slot as usize] += 1;
        }
        for (part, &n) in parts.iter_mut().zip(&interior) {
            part.2.reserve(n);
        }
        for (node, label) in labelled().filter(|(_, l)| !l.is_root) {
            if parts[area_of[node.index()] as usize].2.insert(label.local, node).is_some() {
                return Err(format!("duplicate label {label:?}"));
            }
        }
        let scheme = Ruid2Scheme::assemble(root, kappa, ktable, config, by_node, parts, slot_of);
        match scheme.stored_label(root) {
            Some(l) if l.is_tree_root() => {}
            other => return Err(format!("numbering root carries {other:?}, not the tree root label")),
        }
        if scheme.area_count() != scheme.ktable.rows().len() {
            return Err(format!(
                "table K has {} rows but {} area-root labels were restored",
                scheme.ktable.rows().len(),
                scheme.area_count()
            ));
        }
        // Exactly the numbering subtree is labelled: an unlabelled node
        // there would panic the first reply that formats it.
        let mut subtree = 0usize;
        for node in doc.descendants(root) {
            if scheme.stored_label(node).is_none() {
                return Err(format!("node {} under the numbering root has no label", node.index()));
            }
            subtree += 1;
        }
        if subtree != count {
            return Err(format!(
                "{count} labels restored for the {subtree} nodes of the numbering subtree"
            ));
        }
        Ok(scheme)
    }

    /// The label of `node`, or `None` when it is outside the numbering
    /// (e.g. a prolog comment above the root element) — the non-panicking
    /// form of [`NumberingScheme::label_of`] that serialization needs.
    pub fn try_label_of(&self, node: NodeId) -> Option<Ruid2> {
        self.stored_label(node)
    }

    /// The frame fan-out κ.
    pub fn kappa(&self) -> u64 {
        self.kappa
    }

    /// The global parameter table K.
    pub fn ktable(&self) -> &KTable {
        &self.ktable
    }

    /// Number of labelled nodes. O(areas).
    pub fn len(&self) -> usize {
        self.areas.iter().flatten().map(|a| 1 + a.interior.len()).sum()
    }

    /// Whether no nodes are labelled (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of UID-local areas.
    pub fn area_count(&self) -> usize {
        self.slots.len()
    }

    /// The node that is the root of area `global`.
    pub fn area_root_node(&self, global: u64) -> Option<NodeId> {
        self.area(global).map(|a| a.root)
    }

    fn area(&self, global: u64) -> Option<&Area> {
        self.areas[*self.slots.get(&global)? as usize].as_ref()
    }

    fn area_mut(&mut self, global: u64) -> Option<&mut Area> {
        self.areas.get_mut(*self.slots.get(&global)? as usize)?.as_mut()
    }

    /// The partition policy this scheme was built with.
    pub fn config(&self) -> &PartitionConfig {
        &self.config
    }

    /// Whether `node` is an area root under this numbering (its label's
    /// root flag).
    pub fn is_area_root(&self, node: NodeId) -> bool {
        self.stored_label(node).is_some_and(|l| l.is_root)
    }

    /// Bits needed per label component if globals and locals are stored as
    /// minimal-width integers (+1 for the root flag) — E2's storage metric.
    pub fn label_width_bits(&self) -> u64 {
        let labels = || self.labels.iter().flatten();
        let max_global = labels().map(|l| l.global).max().unwrap_or(1);
        let max_local = labels().map(|l| l.local).max().unwrap_or(1);
        (64 - max_global.leading_zeros() as u64) + (64 - max_local.leading_zeros() as u64) + 1
    }

    /// Rebuilds the numbering from scratch with the stored partition
    /// policy, reporting how many existing labels changed. Updates keep the
    /// numbering *correct* indefinitely, but after heavy churn the areas
    /// drift from the configured policy (grown fan-outs, retired globals);
    /// an occasional repartition restores the invariants the policy was
    /// chosen for.
    pub fn repartition(&mut self, doc: &Document) -> Result<RelabelStats, BuildError> {
        let fresh = Ruid2Scheme::try_build_at(doc, self.root, &self.config)?;
        let mut stats = RelabelStats::default();
        for node in doc.descendants(self.root) {
            let old = self.stored_label(node);
            let new = fresh.stored_label(node);
            if old != new {
                stats.relabeled += 1;
            }
        }
        stats.full_rebuild = true;
        *self = fresh;
        Ok(stats)
    }

    /// The parent computation of Fig. 6 (`None` for the tree root). Pure
    /// label arithmetic over the in-memory κ and K — no tree access.
    pub fn rparent(&self, label: &Ruid2) -> Option<Ruid2> {
        rparent_with(self.kappa, &self.ktable, label)
    }

    /// [`Ruid2Scheme::rparent`] that answers `Err` instead of panicking
    /// when `label` could not have been issued by this numbering — the
    /// serving layer's entry point for client-supplied labels.
    pub fn rparent_checked(&self, label: &Ruid2) -> Result<Option<Ruid2>, String> {
        rparent_checked(self.kappa, &self.ktable, label)
    }

    /// The area whose inside holds `label`'s children: the node's own area
    /// for an area root, the containing area otherwise. (In both cases this
    /// is the `global` field, by Definition 3.)
    pub fn child_area(&self, label: &Ruid2) -> u64 {
        label.global
    }

    /// The local slot index of `label` within the area that contains it as a
    /// member (for area roots: the upper area).
    pub fn slot_local(&self, label: &Ruid2) -> u64 {
        label.local
    }

    /// `true` iff `a` labels a strict ancestor of `b`'s node, from labels
    /// alone.
    pub fn label_is_ancestor(&self, a: &Ruid2, b: &Ruid2) -> bool {
        if a == b {
            return false;
        }
        if a.is_tree_root() {
            return true;
        }
        // Frame pre-filter: a's subtree lies inside area a.global's subtree,
        // so b's area must be that area or a frame descendant of it.
        let a_area = a.global;
        let b_area = b.global;
        if a_area != b_area && !kary::is_ancestor_u64(a_area, b_area, self.kappa) {
            return false;
        }
        let mut cur = *b;
        while let Some(p) = self.rparent(&cur) {
            if p == *a {
                return true;
            }
            // Once the climb leaves a's area subtree the answer is fixed.
            if p.global != a_area && !kary::is_ancestor_u64(a_area, p.global, self.kappa) {
                return false;
            }
            cur = p;
        }
        false
    }

    /// Document order of two labels, from labels alone (κ and K only).
    ///
    /// Fast path: Lemma 3 — when the two areas are distinct and neither is a
    /// frame ancestor of the other, the frame order of the global indices
    /// decides. Otherwise the ancestor chains (via `rparent`) are compared
    /// at their divergence point, where sibling slots order numerically.
    pub fn cmp_order(&self, a: &Ruid2, b: &Ruid2) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        if a.global != b.global
            && !kary::is_ancestor_u64(a.global, b.global, self.kappa)
            && !kary::is_ancestor_u64(b.global, a.global, self.kappa)
        {
            return self.cmp_frame_order(a.global, b.global);
        }
        // Chains from the tree root down to each label.
        let chain = |start: &Ruid2| {
            let mut v = vec![*start];
            let mut cur = *start;
            while let Some(p) = self.rparent(&cur) {
                v.push(p);
                cur = p;
            }
            v.reverse();
            v
        };
        let ca = chain(a);
        let cb = chain(b);
        for (x, y) in ca.iter().zip(cb.iter()) {
            if x == y {
                continue;
            }
            // x and y are children of the same node, hence sibling slots in
            // the same area: their local indices order them (Lemma 2).
            return x.local.cmp(&y.local);
        }
        // Prefix: the shorter chain labels an ancestor, which precedes.
        ca.len().cmp(&cb.len())
    }

    /// Document order of two *distinct, non-nested* areas in the frame
    /// (Lemma 3): compare the κ-ary chains of the global indices.
    fn cmp_frame_order(&self, ga: u64, gb: u64) -> Ordering {
        debug_assert_ne!(ga, gb);
        let chain = |start: u64| {
            let mut v = vec![start];
            let mut cur = start;
            while let Some(p) = kary::parent_u64(cur, self.kappa) {
                v.push(p);
                cur = p;
            }
            v.reverse();
            v
        };
        let ca = chain(ga);
        let cb = chain(gb);
        for (x, y) in ca.iter().zip(cb.iter()) {
            match x.cmp(y) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        ca.len().cmp(&cb.len())
    }

    /// Records `label` for `node` in both directions. Updates never
    /// create areas: an area-root label moves only its slot in the upper
    /// area, and an interior label's area must be tracked.
    pub(crate) fn set_label(&mut self, node: NodeId, label: Ruid2) {
        self.labels.grow_to(node.index() + 1, None);
        *self.labels.get_mut(node.index()).expect("grown to fit") = Some(label);
        if label.is_root {
            debug_assert_eq!(self.area_root_node(label.global), Some(node), "root of {label:?}");
        } else {
            let area = self.area_mut(label.global).expect("area of an interior label");
            Arc::make_mut(&mut area.interior).insert(label.local, node);
        }
    }

    pub(crate) fn stored_label(&self, node: NodeId) -> Option<Ruid2> {
        self.labels.get(node.index()).copied().flatten()
    }

    /// Clears `node`'s label, and its reverse entry if that still points
    /// at `node`. An area root keeps its area: [`Ruid2Scheme::remove_area`]
    /// retires it.
    pub(crate) fn take_label(&mut self, node: NodeId) -> Option<Ruid2> {
        let old = self.stored_label(node)?;
        *self.labels.get_mut(node.index()).expect("labelled") = None;
        let points_here = |a: &Area| a.interior.get(&old.local) == Some(&node);
        if !old.is_root && self.area(old.global).is_some_and(points_here) {
            let area = self.area_mut(old.global).expect("tracked");
            Arc::make_mut(&mut area.interior).remove(&old.local);
        }
        Some(old)
    }

    /// Forgets area `global` — K row and whole reverse map — for a deleted
    /// subtree, whose interior labels go with it.
    pub(crate) fn remove_area(&mut self, global: u64) {
        if let Some(slot) = self.slots.remove(&global) {
            *self.areas.get_mut(slot as usize).expect("slot in range") = None;
        }
        self.ktable.remove(global);
    }

    pub(crate) fn ktable_mut(&mut self) -> &mut KTable {
        &mut self.ktable
    }

    /// Interior reverse maps `self` shares with `other` (a clone: slots
    /// line up) by pointer, and the number of areas `self` has; test hook
    /// for the copy-on-write contract.
    #[doc(hidden)]
    pub fn shared_area_maps(&self, other: &Ruid2Scheme) -> (usize, usize) {
        let pairs = self.areas.iter().zip(other.areas.iter());
        let shared = pairs
            .filter(|p| matches!(p, (Some(a), Some(b)) if Arc::ptr_eq(&a.interior, &b.interior)))
            .count();
        (shared, self.area_count())
    }

    /// Label chunks `self` shares with `other` by pointer, and the number
    /// `self` holds; test hook.
    #[doc(hidden)]
    pub fn shared_label_chunks(&self, other: &Ruid2Scheme) -> (usize, usize) {
        (self.labels.shared_chunks(&other.labels), self.labels.sealed_chunks())
    }
}

impl NumberingScheme for Ruid2Scheme {
    type Label = Ruid2;

    fn scheme_name(&self) -> &'static str {
        "ruid2"
    }

    fn numbering_root(&self) -> NodeId {
        self.root
    }

    fn label_of(&self, node: NodeId) -> Ruid2 {
        self.stored_label(node).expect("node is not labelled")
    }

    fn node_of(&self, label: &Ruid2) -> Option<NodeId> {
        let area = self.area(label.global)?;
        if label.is_root {
            // Only the global is the area's own; `local` is checked
            // against the label the root actually carries.
            (self.stored_label(area.root) == Some(*label)).then_some(area.root)
        } else {
            area.interior.get(&label.local).copied()
        }
    }

    fn supports_parent_computation(&self) -> bool {
        true
    }

    fn parent_label(&self, label: &Ruid2) -> Option<Ruid2> {
        self.rparent(label)
    }

    fn is_ancestor(&self, a: &Ruid2, b: &Ruid2) -> bool {
        self.label_is_ancestor(a, b)
    }

    fn cmp_order(&self, a: &Ruid2, b: &Ruid2) -> Ordering {
        Ruid2Scheme::cmp_order(self, a, b)
    }

    fn on_insert(&mut self, doc: &Document, new_node: NodeId) -> RelabelStats {
        crate::update::on_insert(self, doc, new_node)
    }

    fn on_delete(&mut self, doc: &Document, old_parent: NodeId, removed: NodeId) -> RelabelStats {
        crate::update::on_delete(self, doc, old_parent, removed)
    }
}
