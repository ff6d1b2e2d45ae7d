"""Permutability counted once per conjugacy class: class-wise pair counts and
perp against a test-local full matrix and the naive oracle, d(G) from the
class number, the coset-wise cache check and the permutation tables."""
import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from permlat import cache as C
from permlat import degrees as D
from permlat import groups as G
from permlat import lattice as L
from permlat.catalog import CATALOG_SPECS
from permlat.cli import main


def lat_of(spec):
    return L.enumerate_subgroups(G.make_named(spec))


def relabelled(g, data):
    """``g`` rebuilt from its table under a drawn permutation fixing 0."""
    n = g.order
    sigma = [0] + data.draw(st.permutations(range(1, n)), label="sigma")
    inv = [0] * n
    for x, y in enumerate(sigma):
        inv[y] = x
    table = [[sigma[g.table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    return G.FiniteGroup.from_table(table, name=g.name)


def class_selections(lat):
    """Every selection the degrees use; each is a union of classes."""
    sels = [L.all_subgroups(lat), L.normal_subgroups(lat),
            L.subnormal_subgroups(lat), L.sylow_subgroups(lat)]
    if len(lat) > 1:
        sels += [L.maximal_subgroups(lat, conv) for conv in L.CONVENTIONS]
    return [s for s in sels if s.members]


_ALL_ROWS: dict = {}


def all_rows(lat):
    """Test-local full permutability matrix: the order test
    |X v Y| |X ^ Y| = |X| |Y| on every pair of nodes, with join and meet
    from the lattice. The node masks decide the rows, so they are kept per
    node list."""
    if lat.masks not in _ALL_ROWS:
        size = [m.bit_count() for m in lat.masks]
        nodes = range(len(lat))
        _ALL_ROWS[lat.masks] = [
            sum(1 << j for j in nodes
                if size[lat.join(i, j)] * size[lat.meet(i, j)] == size[i] * size[j])
            for i in nodes]
    return _ALL_ROWS[lat.masks]


def row_count(lat, s, t):
    """Permuting pairs in s x t, node masks, off the row of each member of s."""
    rows = all_rows(lat)
    return sum((rows[i] & t).bit_count() for i in G._bits(s))


def check_counts(lat, naive=True):
    """Class-wise counts and perp against the full matrix and (when
    ``naive``) the product-set oracle."""
    sels = class_selections(lat)
    rows = all_rows(lat)
    assert lat.chi_rows() == {r: rows[r] for r in lat.class_masks}
    for s in sels:
        sm = s.members_mask
        assert lat.is_class_union(sm), s.kind
        assert L.perp(lat, s).members == tuple(
            i for i, row in enumerate(rows) if row & sm == sm), s.kind
        for t in sels:
            count = D.permuting_pair_count(lat, s, t)
            assert count == row_count(lat, sm, t.members_mask), (s.kind, t.kind)
            if naive:
                assert (Fraction(count, len(s) * len(t))
                        == D.degree_naive(lat, s, t)), (s.kind, t.kind)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_classwise_counts_match_full_rows_and_naive(spec):
    check_counts(lat_of(spec))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["S3", "A4", "D4", "D6", "Q8", "S4", "Z:2,4"]), st.data())
def test_relabelled_classwise_counts_match_full_rows_and_naive(spec, data):
    g = relabelled(G.make_named(spec), data)
    check_counts(L.enumerate_subgroups(g))


def test_classwise_counts_match_full_rows_on_s6():
    check_counts(lat_of("S6"), naive=False)


def test_selection_that_is_no_union_of_classes_is_refused():
    lat = lat_of("S4")
    a = L.all_subgroups(lat)
    # a member of a class of size > 1 other than its representative
    i = next(i for i in range(len(lat)) if lat.class_of[i] != i)
    odd = L.SublatticeSelection(lat, "odd", 1 << lat.bottom | 1 << i)
    assert not lat.is_class_union(odd.members_mask)
    for s, t in ((odd, a), (a, odd), (odd, odd)):
        with pytest.raises(ValueError, match="unions of conjugacy classes"):
            D.permuting_pair_count(lat, s, t)
        with pytest.raises(ValueError, match="unions of conjugacy classes"):
            D.generalized_degree(lat, s, t)
    with pytest.raises(ValueError, match="odd is not a union of conjugacy classes"):
        L.perp(lat, odd)
    # the product-set oracle still answers any node set
    count = row_count(lat, odd.members_mask, a.members_mask)
    assert D.degree_naive(lat, odd, a) == Fraction(count, len(odd) * len(a))


def test_bits_outside_the_lattice_are_no_union_of_classes():
    lat = lat_of("S3")
    assert lat.is_class_union(lat.all_nodes_mask)
    assert lat.is_class_union(0)
    assert not lat.is_class_union(1 << len(lat))
    assert not lat.is_class_union(lat.all_nodes_mask | 1 << 999)


@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + ["D4xS3", "S6"])
def test_counted_node_sets_are_unions_of_classes(spec):
    """Every selection and every [N, G] slice the counts read, for each
    normal N: [N, G] and its sn and M parts, raw and closed; the closed
    M(G/N) is the raw slice closed as the lb3 count closes it."""
    lat = lat_of(spec)
    for s in class_selections(lat):
        assert lat.is_class_union(s.members_mask), s.kind
    sn = L.subnormal_subgroups(lat).members_mask
    raw = L.node_maximal(lat, lat.top)
    closed = L.node_maximal(lat, lat.top, L.CLOSED)
    for n in L.normal_subgroups(lat).members:
        above = lat.up_masks[n]
        for part in (above, sn & above, raw & above, closed & above,
                     L.closed_maximal(lat, raw & above, lat.top)):
            assert lat.is_class_union(part), n


def check_d(g):
    centralizer_sum = sum(g.centralizer_mask(x).bit_count() for x in range(g.order))
    assert centralizer_sum == g.class_number * g.order
    assert D.element_commutativity_degree(g) == D.d_naive(g)
    assert D.element_commutativity_degree(g) == Fraction(g.class_number, g.order)


@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + ["S5xC2", "A5xC3", "S6"])
def test_d_from_class_number_matches_pair_count(spec):
    check_d(G.make_named(spec))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["S3", "D4", "Q8", "A4", "D6", "S4", "S3xC5", "A4xC5"]),
       st.data())
def test_relabelled_d_from_class_number_matches_pair_count(spec, data):
    check_d(relabelled(G.make_named(spec), data))


@pytest.fixture
def counted_rows(monkeypatch):
    """Counts the meet tables the rows are read off, one per built row, and
    keeps every row table made."""
    calls = {"tables": [], "rows": 0}
    real_rows, real_meets_over = L._representative_rows, L._meets_over

    def representative_rows(lat):
        rows = real_rows(lat)
        calls["tables"].append((lat, rows))
        return rows

    def meets_over(lat, x):
        calls["rows"] += 1
        return real_meets_over(lat, x)

    monkeypatch.setattr(L, "_representative_rows", representative_rows)
    monkeypatch.setattr(L, "_meets_over", meets_over)
    return calls


@pytest.mark.parametrize("spec", ["S4", "S5", "S6", "D4xS3"])
def test_degree_report_reads_one_row_per_non_normal_class(spec, counted_rows):
    lat = lat_of(spec)
    report = D.build_degree_report(lat)
    for conv in L.CONVENTIONS:
        D.check_extremal_spd(lat, conv)
    normal = L.normal_subgroups(lat)
    non_normal_classes = {r for r in lat.class_masks if r not in normal}
    # one table, with one built row per non-normal class
    rows = lat.chi_rows()
    assert counted_rows["tables"] == [(lat, rows)]
    assert set(rows) == set(lat.class_masks)
    assert counted_rows["rows"] == len(non_normal_classes)
    full = lat.all_nodes_mask
    assert report.permuting_pair_count == row_count(lat, full, full)
    # permutability is symmetric, and the rows are built apart
    for i in rows:
        assert all(rows[i] >> j & 1 == rows[j] >> i & 1 for j in rows), (spec, i)


def test_lattice_command_reads_no_full_matrix(capsys, counted_rows):
    assert main(["lattice", "--group", "S4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["quasihamiltonian"] is False
    assert counted_rows["tables"]
    for lat, rows in counted_rows["tables"]:
        assert set(rows) == set(lat.class_masks)


# -- subgroup checks of cache entries ----------------------------------------

@pytest.mark.parametrize("spec", ["S3", "D4", "Q8", "A4", "Z:2,2,2", "C12"])
def test_cache_check_agrees_with_pairwise_definition(spec):
    g = G.make_named(spec)
    rng = random.Random(spec)
    masks = [rng.getrandbits(g.order) | rng.randint(0, 1) for _ in range(300)]
    lat = lat_of(spec)
    for m in lat.masks:
        masks.append(m)
        masks += [m ^ 1 << x for x in range(g.order)]  # one bit flipped
    for m in masks:
        if m:
            assert (g.subgroup_gens(m) is not None) is g.is_subgroup_mask(m), m


def test_non_subgroup_entry_with_recomputed_digest_loads_as_none(tmp_path):
    g = G.make_named("S4")
    path = C.store_lattice(str(tmp_path), L.enumerate_subgroups(g))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    masks = [int(v, 16) for v in payload["nodes"]]
    # the third node has order 2; adding one element leaves a non-subgroup
    bad = masks[2] | 1 << next(x for x in range(g.order) if not masks[2] >> x & 1)
    assert not g.is_subgroup_mask(bad) and bad not in masks
    masks[2] = bad
    payload["nodes"] = [format(m, "x") for m in masks]
    payload["nodes_sha256"] = C._nodes_digest(payload["nodes"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert C.load_lattice(str(tmp_path), g) is None


# -- permutation tables -------------------------------------------------------

@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_permutation_table_is_composition(degree):
    elems = [tuple(p) for p in permutations(range(degree))]
    g = G.symmetric_group(degree)
    index = {p: i for i, p in enumerate(elems)}
    for a, pa in enumerate(elems):
        for b, pb in enumerate(elems):
            assert g.table[a][b] == index[tuple(pa[pb[k]] for k in range(degree))]

