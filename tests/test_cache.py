"""Lattice cache files: one table hash per cache call, and entries written by
an earlier build of the same cache format still load."""
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
    digest = C.table_digest

    def counted(group):
        calls.append(group)
        return digest(group)

    monkeypatch.setattr(C, "table_digest", counted)
    return calls


def test_each_cache_call_hashes_the_table_once(tmp_path, digest_calls):
    g = G.make_named("S4")
    cache_dir = str(tmp_path)
    lat = C.cached_lattice(cache_dir, g)  # a miss: enumerated and stored
    assert len(list(tmp_path.iterdir())) == 1
    assert len(digest_calls) == 1
    for call in (lambda: C.cached_lattice(cache_dir, g),  # a hit
                 lambda: C.load_lattice(cache_dir, g),
                 lambda: C.store_lattice(cache_dir, lat)):
        digest_calls.clear()
        call()
        assert len(digest_calls) == 1


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
