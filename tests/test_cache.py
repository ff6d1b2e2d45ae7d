"""Lattice cache files: one table hash per group, and entries written by an
earlier build of the same cache format still load."""
import shutil
from pathlib import Path

import pytest

from permlat import cache as C
from permlat import groups as G
from permlat import lattice as L

# an S4 entry exactly as store_lattice wrote it at cache format 2
DATA = Path(__file__).parent / "data"


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
    (entry,) = DATA.glob("lattice-*.json")
    shutil.copy(entry, tmp_path)
    g = G.make_named("S4")
    assert C.cache_path(str(tmp_path), g) == str(tmp_path / entry.name)
    fresh = L.enumerate_subgroups(g)

    def no_enumeration(group):
        raise AssertionError("the stored entry should have been a hit")

    monkeypatch.setattr(C, "enumerate_subgroups", no_enumeration)
    assert C.load_lattice(str(tmp_path), g).masks == fresh.masks
    assert C.cached_lattice(str(tmp_path), g).masks == fresh.masks


# table digests as the row-by-row hash of cache format 2 produced them; a
# change here orphans every cache entry on disk
PINNED_TABLE_DIGESTS = {
    "C1": "7c07cdb8d31877793675e35621fdc2d759fa507e45044ad89bd07e399d8ac0c7",
    "S5xC2": "5111738a53c93234f9b389d7e372f0c53db1bd25949691a972d873ba4f25e52a",
}


@pytest.mark.parametrize("spec", sorted(PINNED_TABLE_DIGESTS))
def test_table_digest_pinned(spec):
    assert C.table_digest(G.make_named(spec)) == PINNED_TABLE_DIGESTS[spec]
