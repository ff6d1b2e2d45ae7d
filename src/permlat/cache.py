"""Optional on-disk cache for enumerated subgroup lattices.

Cache files are JSON keyed by a digest of the multiplication table, and each
carries a sha256 of its own node list. Cache format 3 hashes the table as
``v3:<order>:`` followed by each row packed as little-endian 4-byte
integers, fed to sha256 one row at a time; the node-list digest is taken
over the stored hex text, which :func:`store_lattice` writes in canonical
lowercase. On load the format version, both digests, the node count and
every mask are checked; a file that fails any check (truncated, edited,
another version, hex not as the store writes it) makes the loader return
None, so the caller recomputes. A hit is therefore bit-identical to a fresh
enumeration for every file that :func:`store_lattice` wrote for the same
table; only an edit that also rewrites the node-list digest gets past the
checks. An entry of an earlier format lies under another file name, since
the table digest names the file, so it is never read.

The masks are checked on the lattice built from them
(:class:`permlat.lattice.SubgroupLattice`), which reads greedy generators of
every node off the containment columns. Greedy generator lists of subgroups
are prefixes of one another, so node k is checked in index order by one
closure, grown from the node s < k that its leading generators span
(:meth:`FiniteGroup.closure_mask` with base s; Dimino's algorithm). The
table rows of s's elements, which the closure multiplies by, are gathered
once per prefix node s and reused by every node that grows from it. A hit
thus proves that every node is the subgroup its generators span, so the
order masks are exact, and that every cyclic subgroup <x> is listed, at
``cyclic_nodes[x]``. Completeness beyond that is not checked: a list of
subgroups that omits a non-cyclic subgroup whose generator prefixes are all
listed still loads.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import weakref
from typing import Optional

from .groups import FiniteGroup, _bits
from .lattice import SubgroupLattice, enumerate_subgroups

CACHE_FORMAT = 3


_digests: "weakref.WeakKeyDictionary[FiniteGroup, str]" = weakref.WeakKeyDictionary()


def table_digest(group: FiniteGroup) -> str:
    """The cache key: a sha256 of the multiplication table. A group's table
    does not change once it is built, so it is hashed once per group object
    however many cache calls ask for it."""
    digest = _digests.get(group)
    if digest is None:
        digest = _digests[group] = _hash_table(group)
    return digest


def _hash_table(group: FiniteGroup) -> str:
    # sha256 of "v<format>:<order>:" and each row packed as <order>
    # little-endian 4-byte integers, fed one row at a time
    digest = hashlib.sha256(f"v{CACHE_FORMAT}:{group.order}:".encode())
    pack = struct.Struct(f"<{group.order}I").pack
    for row in group.table:
        digest.update(pack(*row))
    return digest.hexdigest()


def cache_path(cache_dir: str, group: FiniteGroup) -> str:
    return _entry_path(cache_dir, table_digest(group))


def _entry_path(cache_dir: str, digest: str) -> str:
    return os.path.join(cache_dir, f"lattice-{digest}.json")


def _nodes_digest(nodes: list[str]) -> str:
    """sha256 of the node list as stored: the hex masks joined by commas."""
    return hashlib.sha256(",".join(nodes).encode()).hexdigest()


def store_lattice(cache_dir: str, lat: SubgroupLattice) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    digest = table_digest(lat.group)
    path = _entry_path(cache_dir, digest)
    nodes = [format(m, "x") for m in lat.masks]
    payload = {
        "format": CACHE_FORMAT,
        "digest": digest,
        "order": lat.group.order,
        "node_count": len(lat),
        "nodes": nodes,
        "nodes_sha256": _nodes_digest(nodes),
    }
    tmp = path + ".tmp"
    # json.dumps is the C encoder; json.dump streams through the Python one
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))
    os.replace(tmp, path)
    return path


def load_lattice(cache_dir: str, group: FiniteGroup) -> Optional[SubgroupLattice]:
    """Rebuild a lattice from cache, or None if absent/corrupt/mismatched.

    Node k with generators gens is <gens> when node s, spanned by
    gens[:-1] and checked before it, is <gens[:-1]>: then closing gens from
    s gives <gens>, which must be node k. The bottom is {1}, so by induction
    every node is the subgroup its generators span."""
    digest = table_digest(group)
    try:
        with open(_entry_path(cache_dir, digest), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError):  # unreadable, undecodable, too deep
        return None
    try:
        if payload["format"] != CACHE_FORMAT:
            return None
        if payload["digest"] != digest:
            return None
        # the node list is hashed as stored: store_lattice writes canonical
        # hex and hashes that text, so other text is refused
        nodes = payload["nodes"]
        if payload["nodes_sha256"] != _nodes_digest(nodes):
            return None
        masks = [int(v, 16) for v in nodes]
        if len(masks) != payload["node_count"] or len(set(masks)) != len(masks):
            return None
    except (KeyError, TypeError, ValueError):
        return None
    full = group.full_mask
    if not masks or any(not 0 < m <= full for m in masks):
        return None
    lat = SubgroupLattice(group, masks)
    if lat.masks[lat.bottom] != 1 or lat.masks[lat.top] != full:
        return None
    t, masks = group.table, lat.masks
    gens_node = {gens: k for k, gens in enumerate(lat.node_gens)}
    base_rows: dict[int, list] = {}  # prefix node -> the table rows of its elements
    for k in range(1, len(lat)):
        gens = lat.node_gens[k]
        s = gens_node.get(gens[:-1], k)
        if s >= k:
            return None
        rows = base_rows.get(s)
        if rows is None:
            rows = base_rows[s] = [t[b] for b in _bits(masks[s])]
        if group.closure_mask(gens, masks[s], rows) != masks[k]:
            return None
    if any(masks[c] != m for c, m in zip(lat.cyclic_nodes, group.cyclic_masks)):
        return None
    return lat


def cached_lattice(cache_dir: Optional[str], group: FiniteGroup) -> SubgroupLattice:
    """The group's lattice, loaded from ``cache_dir`` when a valid entry is
    there; otherwise enumerated and, given a ``cache_dir``, stored. An entry
    that exists but does not load is reported on stderr and replaced."""
    if not cache_dir:
        return enumerate_subgroups(group)
    lat = load_lattice(cache_dir, group)
    if lat is not None:
        return lat
    if os.path.exists(cache_path(cache_dir, group)):
        print(f"warning: ignoring corrupt cache entry for {group.name}",
              file=sys.stderr)
    lat = enumerate_subgroups(group)
    store_lattice(cache_dir, lat)
    return lat
