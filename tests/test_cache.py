"""Lattice cache files: one table hash per group, and entries written by an
earlier build of the same cache format still load."""
import functools
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from permlat import cache as C
from permlat import groups as G
from permlat import lattice as L
from permlat import moebius as M

# S4 entries exactly as store_lattice wrote them at cache formats 3 and 2
DATA = Path(__file__).parent / "data"
S4_ENTRY = DATA / "lattice-97b4cd1a3ff03b2e47bc48c8959aa10bf3816f138218f6d22955188c08b491de.json"
S4_FORMAT_2_ENTRY = DATA / "lattice-595ba91201b6c87830c765b3b35b87ee12b2ec4fe50857f40e8571933f0164da.json"


@pytest.fixture
def digest_calls(monkeypatch):
    calls = []
    hash_table = C._hash_table

    def counted(group):
        calls.append(group)
        return hash_table(group)

    monkeypatch.setattr(C, "_hash_table", counted)
    return calls


def same_group(g):
    # a new group object on the same table, as each process builds its own
    return G.FiniteGroup(g.table, g.name)


def test_each_cache_call_hashes_the_table_once(tmp_path, digest_calls):
    g = G.make_named("S4")
    cache_dir = str(tmp_path)
    lat = C.cached_lattice(cache_dir, g)  # a miss: enumerated and stored
    assert len(list(tmp_path.iterdir())) == 1
    assert len(digest_calls) == 1
    for call in (lambda h: C.cached_lattice(cache_dir, h),  # a hit
                 lambda h: C.load_lattice(cache_dir, h),
                 lambda h: C.store_lattice(cache_dir,
                                           L.SubgroupLattice(h, list(lat.masks)))):
        h = same_group(g)
        digest_calls.clear()
        call(h)
        assert digest_calls == [h]


def test_load_then_store_hashes_the_table_once(tmp_path, digest_calls):
    g = G.make_named("S4")
    cache_dir = str(tmp_path)
    assert C.load_lattice(cache_dir, g) is None  # a miss, as in a cold job
    C.store_lattice(cache_dir, L.enumerate_subgroups(g))
    assert C.load_lattice(cache_dir, g) is not None
    assert digest_calls == [g]


def test_entry_written_earlier_still_loads(tmp_path, monkeypatch):
    shutil.copy(S4_ENTRY, tmp_path)
    g = G.make_named("S4")
    assert C.cache_path(str(tmp_path), g) == str(tmp_path / S4_ENTRY.name)
    fresh = L.enumerate_subgroups(g)

    def no_enumeration(group):
        raise AssertionError("the stored entry should have been a hit")

    monkeypatch.setattr(C, "enumerate_subgroups", no_enumeration)
    assert C.load_lattice(str(tmp_path), g).masks == fresh.masks
    assert C.cached_lattice(str(tmp_path), g).masks == fresh.masks


def test_entry_of_an_earlier_format_is_replaced(tmp_path, capsys):
    # a format-2 entry found under the format-3 file name fails the format
    # check, and is enumerated again and rewritten
    g = G.make_named("S4")
    path = C.cache_path(str(tmp_path), g)
    shutil.copy(S4_FORMAT_2_ENTRY, path)
    assert C.load_lattice(str(tmp_path), g) is None
    lat = C.cached_lattice(str(tmp_path), g)
    assert "ignoring corrupt cache entry for S4" in capsys.readouterr().err
    assert lat.masks == L.enumerate_subgroups(g).masks
    assert Path(path).read_bytes() == S4_ENTRY.read_bytes()


def test_entry_with_uppercase_hex_is_refused(tmp_path):
    # the node-list digest is checked over the text as stored, and
    # store_lattice writes lowercase hex
    g = G.make_named("S4")
    path = C.store_lattice(str(tmp_path), L.enumerate_subgroups(g))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert any(v != v.upper() for v in payload["nodes"])
    payload["nodes"] = [v.upper() for v in payload["nodes"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert C.load_lattice(str(tmp_path), g) is None


# table digests as cache format 3 produces them, from each row packed as
# 4-byte little-endian integers; a change here orphans every cache entry on disk
PINNED_TABLE_DIGESTS = {
    "C1": "7279658286b15fbc68a4a95c26160cec31f816e71701de68c75abbb07bfc41e5",
    "S5xC2": "29ca63bab2cec3ff214b33869317ac533ad940bd157971f1e39eaac33707a133",
}


@pytest.mark.parametrize("spec", sorted(PINNED_TABLE_DIGESTS))
def test_table_digest_pinned(spec):
    assert C.table_digest(G.make_named(spec)) == PINNED_TABLE_DIGESTS[spec]


# -- the hit check: one closure per node --------------------------------------

EDIT_SPECS = ["S3", "D4", "Q8", "A4", "Z:2,2,2", "C12", "S4"]


@functools.cache
def enumerated(spec):
    g = G.make_named(spec)
    return g, L.enumerate_subgroups(g).masks


def write_entry(cache_dir, group, masks):
    """An entry for ``group`` holding ``masks`` as they are, with the node
    count and the node-list digest that match them."""
    payload = {
        "format": C.CACHE_FORMAT,
        "digest": C.table_digest(group),
        "order": group.order,
        "node_count": len(masks),
        "nodes": [format(m, "x") for m in masks],
        "nodes_sha256": C._nodes_digest(masks),
    }
    with open(C.cache_path(cache_dir, group), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_masks(group, masks):
    with tempfile.TemporaryDirectory() as cache_dir:
        write_entry(cache_dir, group, masks)
        return C.load_lattice(cache_dir, group)


def test_cache_hit_makes_one_closure_per_node(tmp_path, monkeypatch):
    g = G.make_named("S5")
    C.store_lattice(str(tmp_path), L.enumerate_subgroups(g))
    calls = []
    closure_mask = G.FiniteGroup.closure_mask

    def counted(self, gens, *args):
        calls.append(gens)
        return closure_mask(self, gens, *args)

    monkeypatch.setattr(G.FiniteGroup, "closure_mask", counted)
    lat = C.load_lattice(str(tmp_path), same_group(g))
    assert len(calls) == len(lat) - 1 == 155


def test_warm_reads_build_no_down_masks(tmp_path):
    g = G.make_named("S5")
    C.store_lattice(str(tmp_path), L.enumerate_subgroups(g))
    lat = C.load_lattice(str(tmp_path), same_group(g))
    # the reads of a lattice-warm job: selections and the Moebius table
    L.normal_subgroups(lat)
    L.subnormal_subgroups(lat)
    L.maximal_subgroups(lat, L.RAW)
    L.maximal_subgroups(lat, L.CLOSED)
    L.sylow_subgroups(lat)
    M.moebius_table(lat)
    assert "down_masks" not in lat.__dict__
    assert lat.down_masks[lat.top] == lat.all_nodes_mask
    assert "down_masks" in lat.__dict__


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EDIT_SPECS), st.data())
def test_one_bit_edit_loads_iff_a_new_subgroup(spec, data):
    g, masks = enumerated(spec)
    k = data.draw(st.integers(0, len(masks) - 1), label="node")
    x = data.draw(st.integers(0, g.order - 1), label="element")
    edited = list(masks)
    edited[k] ^= 1 << x
    rejected = not g.is_subgroup_mask(edited[k]) or edited[k] in masks
    assert (load_masks(g, edited) is None) is rejected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EDIT_SPECS), st.data())
def test_distinct_mask_lists_load_only_as_subgroups(spec, data):
    # every list of distinct masks holding 1 and G comes back, and a list
    # that loads holds subgroups only, ordered as the subset tests order them
    g, masks = enumerated(spec)
    kept = data.draw(st.sets(st.sampled_from(masks)), label="kept")
    extra = data.draw(st.sets(st.integers(1, g.full_mask), max_size=4), label="extra")
    listed = sorted(kept | extra | {1, g.full_mask})
    lat = load_masks(g, listed)
    subgroups = all(g.is_subgroup_mask(m) for m in listed)
    if lat is None:
        # a list of subgroups is refused only when it misses a cyclic
        # subgroup or the span of some node's leading generators
        assert not subgroups or len(listed) < len(masks)
    else:
        assert subgroups
        for i, mi in enumerate(lat.masks):
            assert lat.up_masks[i] == sum(
                1 << j for j, mj in enumerate(lat.masks) if mi & ~mj == 0)
