"""Subgraph matching between pairs of household graphs (Section 3.3).

For every pair of groups sharing at least one cluster label, the common
subgraph is computed: its vertices are pairs of equally-labelled records,
and two vertices are connected when the corresponding member pairs are
related in *both* enriched household graphs with the same relationship
type and highly similar age differences (Fig. 4).  Vertices left without
any matched edge are pruned — attribute similarity alone does not anchor
a group link (this is what disambiguates the two "Ashworth" households in
the running example).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..instrumentation import (
    GROUP_PAIRS,
    GROUP_PAIRS_CANDIDATES,
    GROUP_PAIRS_SKIPPED,
    SUBGRAPHS_BUILT,
    Instrumentation,
)
from ..model.households import Household
from ..model.mappings import RecordMapping
from ..model.records import PersonRecord
from ..similarity.numeric import age_difference_similarity
from .config import LinkageConfig
from .prematching import PreMatchResult


@dataclass
class SubgraphMatch:
    """A common subgraph of one old and one new household.

    ``vertices`` are (old record id, new record id) pairs; ``edges`` are
    (vertex index, vertex index, rp_sim) triples.  The first
    ``num_anchors`` vertices are *anchors*: record pairs already linked
    in earlier δ rounds, re-used as trusted structural context for the
    remaining members (they contribute edges and scores, but no new
    record links).  The ``*_edge_total`` fields hold |E_i| and |E_{i+1}|
    of the two enriched household graphs for the edge-similarity
    denominator (Eq. 6).  Score fields are filled by
    :mod:`repro.core.scoring`.
    """

    old_group_id: str
    new_group_id: str
    vertices: List[Tuple[str, str]]
    edges: List[Tuple[int, int, float]]
    old_edge_total: int
    new_edge_total: int
    num_anchors: int = 0
    avg_sim: float = 0.0
    e_sim: float = 0.0
    unique: float = 0.0
    g_sim: float = 0.0

    @property
    def anchor_vertices(self) -> List[Tuple[str, str]]:
        return self.vertices[: self.num_anchors]

    @property
    def new_link_vertices(self) -> List[Tuple[str, str]]:
        """Vertices contributing new record links (non-anchors)."""
        return self.vertices[self.num_anchors :]

    @property
    def old_record_ids(self) -> Set[str]:
        """``getOldRecords`` of Alg. 2 (new links only)."""
        return {old_id for old_id, _ in self.new_link_vertices}

    @property
    def new_record_ids(self) -> Set[str]:
        """``getNewRecords`` of Alg. 2 (new links only)."""
        return {new_id for _, new_id in self.new_link_vertices}

    @property
    def size(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return (
            f"SubgraphMatch({self.old_group_id}->{self.new_group_id}, "
            f"|V|={len(self.vertices)}, |E|={len(self.edges)}, "
            f"g_sim={self.g_sim:.3f})"
        )


def _age_deviation(
    old_record: PersonRecord, new_record: PersonRecord, year_gap: int
) -> float:
    """Normalised age deviation used only as an assignment tie-breaker."""
    if old_record.age is None or new_record.age is None:
        return float(year_gap)  # unknown: worst tie-break, still assignable
    return abs(new_record.age - (old_record.age + year_gap))


def _assign_label_pairs(
    old_members: List[PersonRecord],
    new_members: List[PersonRecord],
    prematch: PreMatchResult,
    year_gap: int,
    max_age_deviation: float,
    require_direct_threshold: bool = True,
) -> List[Tuple[str, str]]:
    """Greedy 1:1 assignment of equally-labelled members of two groups.

    Usually each group has one record per label; when a household holds
    homonyms (e.g. father and son John), the best-scoring disjoint pairs
    win, with age plausibility as tie-breaker.  Two guards keep label
    transitivity honest: a vertex pair must itself reach the current
    threshold δ (shared labels arise transitively, so two records in one
    cluster can be direct non-matches), and pairs whose normalised age
    difference exceeds ``max_age_deviation`` are never vertices —
    subgraph matching must not accept temporally impossible links
    (footnote 2 of the paper).
    """
    delta = prematch.sim_func.threshold
    candidates = []
    for old_record in old_members:
        for new_record in new_members:
            deviation = _age_deviation(old_record, new_record, year_gap)
            if (
                old_record.age is not None
                and new_record.age is not None
                and deviation > max_age_deviation
            ):
                continue
            pair_sim = prematch.pair_sim(
                old_record.record_id, new_record.record_id
            )
            if require_direct_threshold and pair_sim < delta:
                continue
            # Round the similarity so that attribute noise does not
            # outweigh age plausibility between namesake siblings.
            candidates.append(
                (
                    -round(pair_sim, 2),
                    deviation,
                    old_record.record_id,
                    new_record.record_id,
                )
            )
    candidates.sort()
    used_old: Set[str] = set()
    used_new: Set[str] = set()
    assigned: List[Tuple[str, str]] = []
    for _, _, old_id, new_id in candidates:
        if old_id in used_old or new_id in used_new:
            continue
        used_old.add(old_id)
        used_new.add(new_id)
        assigned.append((old_id, new_id))
    return assigned


def _edge_between(
    old_household: Household,
    new_household: Household,
    vertex_a: Tuple[str, str],
    vertex_b: Tuple[str, str],
    config: LinkageConfig,
) -> Optional[float]:
    """rp_sim of the matched edge between two vertices, or ``None``.

    The edge exists when both member pairs are related in their enriched
    graphs with the same relationship type and age differences deviating
    by at most ``max_age_diff_deviation`` (the "highly similar
    relationship properties" requirement of §3.3).
    """
    old_a, new_a = vertex_a
    old_b, new_b = vertex_b
    old_edge = old_household.get_relationship(old_a, old_b)
    new_edge = new_household.get_relationship(new_a, new_b)
    if old_edge is None or new_edge is None:
        return None
    if old_edge.rel_type != new_edge.rel_type:
        return None
    if old_edge.age_diff is None or new_edge.age_diff is None:
        return None
    if abs(old_edge.age_diff - new_edge.age_diff) > config.max_age_diff_deviation:
        return None
    return age_difference_similarity(
        old_edge.age_diff, new_edge.age_diff, config.rp_tolerance
    )


def build_subgraph(
    old_household: Household,
    new_household: Household,
    prematch: PreMatchResult,
    config: LinkageConfig,
    anchors: Optional[List[Tuple[str, str]]] = None,
) -> Optional[SubgraphMatch]:
    """The common subgraph of two enriched households (§3.3, Fig. 4),
    or ``None``.

    ``anchors`` are record pairs between these two households that were
    already linked in earlier rounds; they join the subgraph as trusted
    vertices so that a single remaining member can still exhibit matching
    relationships (to its already-linked relatives).  ``None`` means the
    pair shares no label, contributes no new link, or every new vertex
    lost all its edges (no structural evidence for a group link).
    """
    anchors = anchors or []
    anchor_old = {old_id for old_id, _ in anchors}
    anchor_new = {new_id for _, new_id in anchors}

    old_by_label: Dict[int, List[PersonRecord]] = defaultdict(list)
    for record in old_household.iter_records():
        if record.record_id in anchor_old:
            continue
        label = prematch.labels.get(record.record_id)
        if label is not None:
            old_by_label[label].append(record)
    new_by_label: Dict[int, List[PersonRecord]] = defaultdict(list)
    for record in new_household.iter_records():
        if record.record_id in anchor_new:
            continue
        label = prematch.labels.get(record.record_id)
        if label is not None:
            new_by_label[label].append(record)

    shared_labels = sorted(set(old_by_label) & set(new_by_label))
    if not shared_labels:
        return None

    fresh_vertices: List[Tuple[str, str]] = []
    for label in shared_labels:
        fresh_vertices.extend(
            _assign_label_pairs(
                old_by_label[label],
                new_by_label[label],
                prematch,
                config.year_gap,
                config.max_normalised_age_difference,
                require_direct_threshold=config.require_direct_pair_threshold,
            )
        )
    if not fresh_vertices:
        return None
    fresh_vertices.sort()
    vertices = sorted(anchors) + fresh_vertices
    num_anchors = len(anchors)

    edges: List[Tuple[int, int, float]] = []
    for index_a in range(len(vertices)):
        for index_b in range(index_a + 1, len(vertices)):
            rp_sim = _edge_between(
                old_household, new_household, vertices[index_a],
                vertices[index_b], config,
            )
            if rp_sim is not None:
                edges.append((index_a, index_b, rp_sim))

    if not edges:
        if not config.allow_singleton_subgraphs:
            return None
        kept_vertices = vertices
        kept_edges: List[Tuple[int, int, float]] = []
        kept_anchor_count = num_anchors
    else:
        # Prune *fresh* vertices not incident to any matched edge (Fig. 4);
        # anchors always stay.
        incident: Set[int] = set(range(num_anchors))
        for index_a, index_b, _ in edges:
            incident.add(index_a)
            incident.add(index_b)
        keep = sorted(incident)
        remap = {old_index: new_index for new_index, old_index in enumerate(keep)}
        kept_vertices = [vertices[index] for index in keep]
        kept_edges = [
            (remap[index_a], remap[index_b], rp_sim)
            for index_a, index_b, rp_sim in edges
        ]
        kept_anchor_count = num_anchors

    if len(kept_vertices) <= kept_anchor_count:
        return None  # no new record link would result
    return SubgraphMatch(
        old_group_id=old_household.household_id,
        new_group_id=new_household.household_id,
        vertices=kept_vertices,
        edges=kept_edges,
        old_edge_total=old_household.num_relationships,
        new_edge_total=new_household.num_relationships,
        num_anchors=kept_anchor_count,
    )


def candidate_group_pairs(
    prematch: PreMatchResult,
    old_group_of: Dict[str, str],
    new_group_of: Dict[str, str],
) -> List[Tuple[str, str]]:
    """Group pairs connected by at least one initial person link.

    This replaces the cross product over G_i × G_{i+1}: only pairs of
    groups "connected by at least one (initial) person link" are
    considered (Alg. 1, Section 3).  Using the direct links above δ —
    rather than full cluster co-membership — avoids a quadratic blow-up
    from transitively merged clusters of frequent names, and loses
    nothing: vertex assignment requires direct pair similarity ≥ δ, so a
    group pair whose only shared labels are transitive would produce no
    vertices anyway.
    """
    pairs: Set[Tuple[str, str]] = set()
    for old_id, new_id in prematch.matched_pairs:
        old_group = old_group_of.get(old_id)
        new_group = new_group_of.get(new_id)
        if old_group is not None and new_group is not None:
            pairs.add((old_group, new_group))
    return sorted(pairs)


def brute_force_group_pairs(
    prematch: PreMatchResult,
    old_households: Dict[str, Household],
    new_households: Dict[str, Household],
) -> List[Tuple[str, str]]:
    """Reference enumeration of candidate group pairs: the full
    |G_i| × |G_{i+1}| scan.

    Every group pair is examined and kept exactly when it is connected
    by at least one initial person link — the same predicate as the
    indexed path, evaluated the expensive way.  This exists solely as
    the ground truth that :class:`GroupPairIndex` is pinned against
    (tests, the differential harness and the CI group smoke run it on
    small workloads); it is quadratic in the group counts and must never
    sit on the hot path.
    """
    links = prematch.matched_pairs
    pairs: List[Tuple[str, str]] = []
    for old_group_id in sorted(old_households):
        old_members = old_households[old_group_id].members
        for new_group_id in sorted(new_households):
            new_members = new_households[new_group_id].members
            if any(
                old_id in old_members and new_id in new_members
                for old_id, new_id in links
            ):
                pairs.append((old_group_id, new_group_id))
    return pairs


class GroupPairIndex:
    """Inverted record → household and label → household index (§3.3).

    Candidate enumeration is the group-side hot path: the naive approach
    examines every pair of G_i × G_{i+1} households per δ round
    (:func:`brute_force_group_pairs`).  This index inverts the problem —
    each household's members are indexed once per linkage run, and each
    δ round then probes the index once per *initial person link*, so
    group pairs sharing no link (the overwhelming majority of the cross
    product) are never touched.  The emitted candidate set is exactly the
    brute-force set (pinned by ``tests/test_group_stage_properties.py``
    and ``repro.validation.differential.indexed_vs_brute_force``).

    The index is δ-independent (household membership does not change
    across rounds), so the pipeline builds it once and reuses it for the
    whole schedule.  ``groups_by_label`` additionally buckets each
    round's candidates by the cluster labels connecting them — the
    inverted cluster-label → household view used by diagnostics.
    """

    def __init__(
        self,
        old_households: Dict[str, Household],
        new_households: Dict[str, Household],
    ) -> None:
        self.old_households = old_households
        self.new_households = new_households
        self.old_group_of: Dict[str, str] = {
            record_id: household.household_id
            for household in old_households.values()
            for record_id in household.members
        }
        self.new_group_of: Dict[str, str] = {
            record_id: household.household_id
            for household in new_households.values()
            for record_id in household.members
        }

    @property
    def cross_product_size(self) -> int:
        """|G_i| × |G_{i+1}| — what a brute-force scan would examine."""
        return len(self.old_households) * len(self.new_households)

    def candidate_pairs(self, prematch: PreMatchResult) -> List[Tuple[str, str]]:
        """This round's candidate group pairs, sorted; set-equal to
        :func:`brute_force_group_pairs` on the same pre-match result."""
        return candidate_group_pairs(
            prematch, self.old_group_of, self.new_group_of
        )

    def groups_by_label(
        self, prematch: PreMatchResult
    ) -> Dict[int, Tuple[Set[str], Set[str]]]:
        """Cluster label → (old households, new households) over the
        initial links, the inverted-label view of this round's
        candidates.  Only labels carried by at least one matched record
        appear."""
        buckets: Dict[int, Tuple[Set[str], Set[str]]] = {}
        for old_id, new_id in prematch.matched_pairs:
            old_group = self.old_group_of.get(old_id)
            new_group = self.new_group_of.get(new_id)
            if old_group is None or new_group is None:
                continue
            for record_id, group_id, side in (
                (old_id, old_group, 0),
                (new_id, new_group, 1),
            ):
                label = prematch.labels.get(record_id)
                if label is None:
                    continue
                bucket = buckets.setdefault(label, (set(), set()))
                bucket[side].add(group_id)
        return buckets


def _anchors_for_pair(
    old_household: Household,
    new_household: Household,
    record_mapping: Optional["RecordMapping"],
) -> List[Tuple[str, str]]:
    """Links from earlier δ rounds falling inside this household pair."""
    if record_mapping is None:
        return []
    anchors: List[Tuple[str, str]] = []
    for record_id in old_household.member_ids:
        linked_new = record_mapping.get_new(record_id)
        if linked_new is not None and linked_new in new_household.members:
            anchors.append((record_id, linked_new))
    return anchors


def build_all_subgraphs(
    prematch: PreMatchResult,
    old_households: Dict[str, Household],
    new_households: Dict[str, Household],
    config: LinkageConfig,
    record_mapping: Optional["RecordMapping"] = None,
    instrumentation: Optional[Instrumentation] = None,
    index: Optional[GroupPairIndex] = None,
) -> List[SubgraphMatch]:
    """``subgroups`` of Alg. 1 (line 7, §3.3): common subgraphs of all
    candidate group pairs.

    ``record_mapping`` holds the links accepted in earlier δ rounds;
    links that fall inside a candidate household pair become anchors.
    ``index`` is a prebuilt :class:`GroupPairIndex`; one is built on the
    fly when omitted, and the brute-force scan is used instead when
    ``config.group_pair_indexing`` is off (same candidate set, counted
    differently).  Subgraphs come back in candidate-pair order; vertex
    pair similarities missing from the score store are computed lazily
    through ``prematch.pair_sim``.

    ``instrumentation`` (optional) tallies the candidate pairs emitted,
    the cross-product pairs the index skipped and the non-empty
    subgraphs built.
    """
    if index is None:
        index = GroupPairIndex(old_households, new_households)
    if getattr(config, "group_pair_indexing", True):
        group_pairs = index.candidate_pairs(prematch)
        skipped = index.cross_product_size - len(group_pairs)
    else:
        group_pairs = brute_force_group_pairs(
            prematch, old_households, new_households
        )
        skipped = 0  # the brute-force scan examined the full cross product
    if instrumentation is not None:
        instrumentation.count(GROUP_PAIRS, len(group_pairs))
        instrumentation.count(GROUP_PAIRS_CANDIDATES, len(group_pairs))
        instrumentation.count(GROUP_PAIRS_SKIPPED, skipped)

    subgraphs = []
    for old_group_id, new_group_id in group_pairs:
        old_household = old_households[old_group_id]
        new_household = new_households[new_group_id]
        subgraph = build_subgraph(
            old_household,
            new_household,
            prematch,
            config,
            anchors=_anchors_for_pair(
                old_household, new_household, record_mapping
            ),
        )
        if subgraph is not None:
            subgraphs.append(subgraph)
    if instrumentation is not None:
        instrumentation.count(SUBGRAPHS_BUILT, len(subgraphs))
    return subgraphs
