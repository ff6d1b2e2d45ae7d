"""Lattice cache files: one table hash per group, and entries written by an
earlier build of the same cache format still load."""
import functools
import hashlib
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
from permlat import verify as V
from test_lattice import PSL27_ON_7_POINTS

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


def test_verify_paper_gets_its_lattices_through_the_cache(tmp_path):
    # the Moebius stretch and the rank-2 count grid read their lattices
    # through the run, so --cache stores them
    run = V.VerificationRun(stretch=True, cache_dir=str(tmp_path))
    assert run.check_moebius_stretch() is None
    assert Path(C.cache_path(str(tmp_path), G.make_named("S6"))).exists()
    assert run.check_rank2_count_grid() is None
    for shape in V.SHAPE_GRID:
        spec = f"Z:{shape.p ** shape.alpha1},{shape.p ** shape.alpha2}"
        assert Path(C.cache_path(str(tmp_path), G.make_named(spec))).exists()
    assert len(list(tmp_path.iterdir())) == 1 + len(V.SHAPE_GRID)


def test_verify_paper_skips_above_the_order_cap_as_before():
    run = V.VerificationRun(max_order=60, stretch=True)
    run._run("moebius-s6-stretch", run.check_moebius_stretch)
    run._run("rank2-count-grid", run.check_rank2_count_grid)
    stretch, grid = run.outcomes
    assert (stretch.status, stretch.detail) == (V.SKIP, "S6 above order cap")
    assert grid.status == V.PASS
    assert grid.detail == "; ".join(
        f"skipped (above order cap): {shape}" for shape in V.SHAPE_GRID
        if shape.group_order() > 60)


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
    # the constructors build these without a check; their tables, and so
    # their keys, are those of the builds that checked every table
    "S6": "7eb7f3ba95566c14eedd1c1597dc24e95ceec88fe4f6e5be4db8664e8bc8afac",
    "S5xS3": "941355dddf2c6db37c63446c3efd17d408635cf9304c9e76d295a723cecf539e",
    "A5xA4": "8d4b043d3342bee5d658feb8f8751c91cdcc7bddbc5ede5c2f73d4853294f565",
    "S4xS4": "095db5a1e1053b67ae6cdf37a7d3245affd2eb88911100c4b547cccf8fabbd94",
    "Q8xS3": "9fe4c4c5a65fa54f06067b3ab94964d45d49308cc7a956189745a3da6bfd2bbd",
    "Z:2,2,2,2,2,2": "8a1a76a53c3b0d685436341d9299ce0a52e16ce81d5be61a731c230d75817096",
}


@pytest.mark.parametrize("spec", sorted(PINNED_TABLE_DIGESTS))
def test_table_digest_pinned(spec):
    assert C.table_digest(G.make_named(spec)) == PINNED_TABLE_DIGESTS[spec]


# sha256 of the JSON of [table, element labels, name]: the constructors must
# give every named group exactly these, or its node order and its cache entry
# would change with them
PINNED_GROUP_DIGESTS = {
    "C1": "f81b3a5b50e66c42e94dd06699b8a8700138ee3d9abe66bc5d3c95c060f82721",
    "C2": "e4144af6421ed6af11927f8b47bb144bb588fc86796498861b16b64cb10f02ee",
    "C12": "1d5395d4dd99430fadc143ed8f1780b66968c925a0f054896abf36278b7bf29b",
    "Z:1,3": "8012a96d2fb3703729a6cd2a1e9a983582f1e1884689bd9b3f96f2c724a70536",
    "Z:2,4,3": "9b64ff0f3edb3827b052e98a5e56650dcca1cea89f6eb43d0506a57227318e47",
    "Z:2,2,2,2,2,2": "5840c76d77240e9ff71f43921abb0aabbd2a3c21bb6b7a4f2dd82e2ec4d32548",
    "S1": "3e86338fa9029b4649ed201c1c7834a3a5eb43832a689ab8b4adbb1796b69de6",
    "S2": "dde2808f18d0ee336c5cd67c038f4515720a7eab4c15c332ee838e80be323dce",
    "S3": "459b06578de449da5478fe4703a17ab830f64f60b097314deac18c86810bf5c5",
    "S4": "79468bed811389ed6f90eb5be00953b3e58237662553671fd958c5e513802866",
    "S5": "eed7d0d84236cd050c9246e491705babb6225f14481f003d088f3682d92ae99e",
    "S6": "693d9ef507f4eccc4d1a75a25568b7b1d63472e507fecb1a734fa9a3e9e2172a",
    "A1": "7cdd5a4b8cc167865c52ffc2267a51a31e0033ea6912eab8374791c20322f60e",
    "A2": "50d366329f51d91ffbc554e580732b8c9ba21b616eb373e1e7f99651b8e8695e",
    "A3": "7bed15de90395ad25d366b9f8e7125c30b11b1f5a560ab08d949afe8ca080b87",
    "A4": "0c81a219e21d115cc1ef24f4a046d789729d8f1ce5cef89e2a3be5adeba44cb0",
    "A5": "16a4d5495155775d377aac4ffcdee46e6a7e05a0d1e197c7752b7e7217c0e01b",
    "A6": "c2057ac09fd890ebfe31ad25495e95777f71cb1ef91540b9de11130beb208822",
    "D1": "f631217ef64acbb2db55cb9ae79055fb53ae43952559d4fd0f5044da31414212",
    "D2": "51587b846d3517f44d6283f21ceed1303a497765a4dcf1ab6f1140903b5a6ed2",
    "D3": "40ac1c60cc6984162f7ebe53bd1d771169326f8e72bd435bc89554e3ebd15310",
    "D6": "1c9f797f6af2792220447a257ffab7881c9eb238528624115c6f09b2f4f9304d",
    "Q8": "5b50fbc3dae65bff7ef4487dcd0cba5707f5cae6a79e1ecf3ba40db2a9e8669c",
    "PSL27": "0bd8e136da7681c89c5625d3b97f67e905d40d9b742844481ef8db5b67cd4984",
    "S3xC5": "bece57c81237c87dc319627b2bc5e3bb06a3b00f263523819945f4767d1feffb",
    "C5xS3": "73ab5270e3537d2175b45c5317fb1e7b2a1f82c5c151f6656e682db8e7a5cf1e",
    "S5xS3": "69630a974d0f36dcdcc47228f28dea4d3091df49ab3bed4e02db42876fb12d7c",
    "A5xA4": "bd202cb6eb2277f7b685594e2d2294b85445cc5078a2b8a7b171c07355f52a2f",
    "D4xD4xC2": "a9f12083bf0136fbeb561cd6499a3bf4f5f2e119dca7b18424fbdb4dca0a2ec5",
}


def pinned_group(spec):
    return (G.group_from_json_dict(PSL27_ON_7_POINTS) if spec == "PSL27"
            else G.make_named(spec))


@pytest.mark.parametrize("spec", list(PINNED_GROUP_DIGESTS))
def test_group_table_labels_and_name_pinned(spec):
    g = pinned_group(spec)
    payload = json.dumps([g.table, g.element_labels, g.name]).encode()
    assert hashlib.sha256(payload).hexdigest() == PINNED_GROUP_DIGESTS[spec]
    # only from_table checks a table on construction
    g.check_associativity()


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
    }
    payload["nodes_sha256"] = C._nodes_digest(payload["nodes"])
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
