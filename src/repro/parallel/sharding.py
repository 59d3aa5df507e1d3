"""Bundle partitioning for the sharded parallel detection engine.

A :class:`~repro.core.pipeline.DatasetBundle` is split into ``num_shards``
independent :class:`BundleShard` pieces such that every detector join stays
*within* a shard — running the detectors per shard and unioning the
findings provably reproduces the batch result. Two shard axes exist
because the three joins use two different keys:

* **Revocation axis** (key compromise, §4.1): the CRL/CT join key is
  (authority key id, serial), so certificates and CRLs are routed by
  ``authority_key_id``. The join is exact — every counter in
  :class:`~repro.core.detectors.key_compromise.RevocationJoinStats` sums
  across shards.
* **Domain axis** (registrant change §4.2, managed TLS §4.3): both joins
  look up certificates by registered domain (``e2ld(name) or name`` — the
  exact lookup the detectors use). A certificate links all of its e2LDs,
  so components are formed with a union-find and each *component* is
  routed to one shard; WHOIS creation pairs follow the component owning
  their domain key. This assumes zone apexes are registrable e2LDs (true
  for the simulator and for the paper's .com/.net zone files); a SAN
  beneath an apex then shares the apex's domain key and can never land in
  a different shard.

Routing reads only :meth:`~repro.ct.dedup.Corpus.key_rows` — the
authority key id and the sorted e2LD list per row — so over the columnar
store no certificate is built to plan the shards. Each shard's two
corpora are :class:`~repro.ct.dedup.CorpusSlice` row lists over the
bundle's one store; the detectors' joins still use the store's indexes,
which join-closed routing makes exact.

Shard assignment hashes the *minimum member key* of a component with
:func:`stable_hash` (BLAKE2b — Python's builtin ``hash`` is salted per
process and would break cross-process determinism). The Cloudflare marker
SAN (``sni*.cloudflaressl.com``) links every managed certificate into one
component; that skew is accepted — correctness over balance — and visible
in :class:`~repro.parallel.stats.ShardStats`.

The partition reads no DNS. A DNS apex whose domain key no certificate or
WHOIS pair holds is a singleton component, routed by its own
``stable_hash(key) % num_shards`` — :meth:`ShardPlan.shard_of` computes
both cases — so each shard's DNS input is the bundle's filtered to the
apexes with ``plan.shard_of(domain_key(apex)) == index``, read by the
shard's worker. The filter keeps *every* scan day (possibly empty for the
shard), so consecutive-scan comparison and the disappearance lookahead
behave exactly as over the unsharded input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.core.pipeline import DatasetBundle
from repro.ct.dedup import CorpusSlice
from repro.dns.snapshots import CloudflareScans
from repro.psl.registered import e2ld
from repro.revocation.crl import CertificateRevocationList
from repro.util.dates import Day


def stable_hash(key: str) -> int:
    """Process-stable 64-bit hash (builtin ``hash`` is salted per run)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def domain_key(name: str) -> str:
    """The domain-axis routing key: exactly the detectors' lookup key.

    A PSL parse, so callers key each name once: the partition each WHOIS
    domain, and :class:`ShardScans` each apex (not once per scan day).
    """
    registrable = e2ld(name)
    return registrable if registrable is not None else name


class _UnionFind:
    """Path-compressed union-find over string keys."""

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def add(self, key: str) -> str:
        if key not in self._parent:
            self._parent[key] = key
        return key

    def find(self, key: str) -> str:
        self.add(key)
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:  # compress
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, left: str, right: str) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left != root_right:
            self._parent[root_right] = root_left

    def keys(self) -> Iterator[str]:
        return iter(self._parent)


@dataclass
class BundleShard:
    """One independent slice of a dataset bundle (both axes)."""

    index: int
    #: The certificates routed by authority key id (key compromise).
    revocation_corpus: CorpusSlice
    #: The certificates routed by e2LD component (the two domain joins).
    domain_corpus: CorpusSlice
    crls: List[CertificateRevocationList] = field(default_factory=list)
    whois_creation_pairs: List[Tuple[str, Day]] = field(default_factory=list)
    dns_snapshots: Optional["ShardScans"] = None

    def bundle_view(self, detector_key: str) -> DatasetBundle:
        """A per-detector bundle view over this shard's slice.

        The revocation axis and the domain axis hold different certificate
        sets, so the view picks the corpus matching the detector's join.
        """
        if detector_key == "key_compromise":
            return DatasetBundle(corpus=self.revocation_corpus, crls=self.crls)
        return DatasetBundle(
            corpus=self.domain_corpus,
            whois_creation_pairs=self.whois_creation_pairs,
            dns_snapshots=self.dns_snapshots,
        )


@dataclass
class ShardPlan:
    """The full partition, with assignment maps for invariant checking."""

    num_shards: int
    shards: List[BundleShard]
    #: authority_key_id -> shard index (revocation axis).
    revocation_assignment: Dict[str, int] = field(default_factory=dict)
    #: domain key -> shard index (domain axis; component-consistent) for
    #: every certificate and WHOIS key.
    domain_assignment: Dict[str, int] = field(default_factory=dict)

    def shard_of(self, key: str) -> int:
        """The domain-axis shard of domain key *key*; a key no certificate
        or WHOIS pair holds is a singleton component, routed by its hash."""
        return self.domain_assignment.get(key, stable_hash(key) % self.num_shards)


@dataclass
class ShardScans:
    """One shard's DNS input: the bundle's, keeping on every scan day the
    apexes whose domain key the shard owns (each apex keyed once)."""

    source: CloudflareScans
    #: The plan's domain routing alone (no shards, so a pickled shard
    #: carries only the assignment map).
    routing: "ShardPlan"
    index: int
    _owned: Dict[str, bool] = field(default_factory=dict, repr=False)

    def days(self) -> List[Day]:
        return self.source.days()

    def cloudflare(self, scan_day: Day) -> Dict[str, FrozenSet[str]]:
        owned, kept = self._owned, {}
        for apex, targets in self.source.cloudflare(scan_day).items():
            if apex not in owned:
                owned[apex] = self.routing.shard_of(domain_key(apex)) == self.index
            if owned[apex]:
                kept[apex] = targets
        return kept


def partition_bundle(bundle: DatasetBundle, num_shards: int) -> ShardPlan:
    """Split *bundle* (whose corpus is a store, not a slice) into
    ``num_shards`` join-closed shards."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    plan = ShardPlan(num_shards=num_shards, shards=[])
    corpus = bundle.corpus
    revocation_rows: List[List[int]] = [[] for _ in range(num_shards)]
    domain_rows: List[List[int]] = [[] for _ in range(num_shards)]

    # One pass over the key rows: revocation rows go by authority key id;
    # domain components form by union-find over registered domains.
    components = _UnionFind()
    row_e2lds: List[List[str]] = []
    for row, _, _, akid, _, keys in corpus.key_rows():
        shard_index = plan.revocation_assignment.setdefault(
            akid, stable_hash(akid) % num_shards
        )
        revocation_rows[shard_index].append(row)
        row_e2lds.append(keys)
        for key in keys:  # sorted: keys[0] is the minimum
            components.add(key)
        for other in keys[1:]:
            components.union(keys[0], other)
    # A domain recurs across WHOIS crawls: key each one once.
    whois_keys = {
        domain: domain_key(domain)
        for domain in dict.fromkeys(domain for domain, _ in bundle.whois_creation_pairs)
    }
    for key in whois_keys.values():
        components.add(key)
    _assign_components(plan, components)

    for row, keys in enumerate(row_e2lds):
        if keys:
            shard_index = plan.domain_assignment[keys[0]]
        else:
            # No registrable SAN: the domain joins can never reach it, so any
            # stable assignment is correct (such rows are rare).
            fingerprint = corpus.certificate(row).dedup_fingerprint()
            shard_index = stable_hash("cert:" + fingerprint) % num_shards
        domain_rows[shard_index].append(row)

    plan.shards = [
        BundleShard(
            index=index,
            revocation_corpus=CorpusSlice(corpus, revocation_rows[index]),
            domain_corpus=CorpusSlice(corpus, domain_rows[index]),
        )
        for index in range(num_shards)
    ]
    for crl in bundle.crls:
        shard_index = plan.revocation_assignment.setdefault(
            crl.authority_key_id, stable_hash(crl.authority_key_id) % num_shards
        )
        plan.shards[shard_index].crls.append(crl)
    for pair in bundle.whois_creation_pairs:
        shard_index = plan.domain_assignment[whois_keys[pair[0]]]
        plan.shards[shard_index].whois_creation_pairs.append(pair)
    if bundle.dns_snapshots is not None:
        routing = ShardPlan(num_shards, [], domain_assignment=plan.domain_assignment)
        for shard in plan.shards:
            shard.dns_snapshots = ShardScans(bundle.dns_snapshots, routing, shard.index)
    return plan


def _assign_components(plan: ShardPlan, components: _UnionFind) -> None:
    # Route each component by its canonical (minimum) member key so the
    # assignment is independent of insertion order.
    min_member: Dict[str, str] = {}
    for key in components.keys():
        root = components.find(key)
        if root not in min_member or key < min_member[root]:
            min_member[root] = key
    for key in list(components.keys()):
        plan.domain_assignment[key] = (
            stable_hash(min_member[components.find(key)]) % plan.num_shards
        )
