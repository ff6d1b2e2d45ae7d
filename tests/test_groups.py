import functools
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from permlat import groups as G
from permlat import lattice as L
from permlat.catalog import CATALOG_SPECS

SERIES_SPECS = list(CATALOG_SPECS) + ["S5xC2", "S4xS3", "A5xC3"]


def composition_table(elems):
    """Oracle: the table of the permutations ``elems``, by composing every
    pair; a·b is the composite k -> a[b[k]]."""
    index = {p: i for i, p in enumerate(elems)}
    return tuple(tuple(index[tuple(a[k] for k in b)] for b in elems) for a in elems)


def permutations_of(g):
    """The image arrays of a permutation group's elements, read off its labels."""
    return [tuple(map(int, label[1:-1].split())) for label in g.element_labels]


def first_nonassociative_triple(t):
    """Oracle: the lexicographically first (a, b, c) with (ab)c != a(bc), by
    scanning all n^3 triples; None for an associative table."""
    n = len(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return (a, b, c)
    return None


def by_order(g, k):
    """First element of the given order; deterministic over the table."""
    return next(x for x in range(g.order) if g.element_orders[x] == k)


def all_by_order(g, k):
    return [x for x in range(g.order) if g.element_orders[x] == k]


class TestConstructors:
    def test_trivial(self):
        g = G.make_named("C1")
        assert g.order == 1
        assert g.is_abelian and g.is_nilpotent and g.is_solvable

    def test_named_specs(self):
        for spec, order in [("C7", 7), ("S4", 24), ("A4", 12), ("A5", 60),
                            ("D6", 12), ("Q8", 8), ("Z:2,4", 8), ("S3xC5", 30),
                            ("D4xC3", 24)]:
            g = G.make_named(spec)
            assert g.order == order, spec
            assert g.name == spec

    def test_axioms_exhaustive_small(self):
        for spec in ["C6", "S3", "D4", "Q8", "A4", "Z:2,4", "D6", "S4"]:
            assert_group_table(G.make_named(spec))

    def test_unknown_token(self):
        with pytest.raises(G.GroupSpecError):
            G.make_named("X5")
        with pytest.raises(G.GroupSpecError):
            G.make_named("S3x")

    def test_order_cap(self):
        with pytest.raises(G.OrderCapError):
            G.make_named("S7")
        with pytest.raises(G.OrderCapError):
            G.make_named("C100", max_order=60)

    def test_from_permutations_s3(self):
        g = G.from_permutations(3, [[1, 2, 0], [1, 0, 2]])
        assert g.order == 6
        assert sorted(g.element_orders) == sorted(G.make_named("S3").element_orders)

    def test_from_permutations_klein(self):
        g = G.from_permutations(4, [[1, 0, 3, 2], [2, 3, 0, 1]])
        assert g.order == 4
        assert all(o <= 2 for o in g.element_orders)

    def test_from_permutations_trivial(self):
        assert G.from_permutations(1, []).order == 1

    def test_from_permutations_bad_generator(self):
        with pytest.raises(G.GroupSpecError):
            G.from_permutations(3, [[0, 0, 1]])

    def test_from_permutations_cap(self):
        with pytest.raises(G.OrderCapError):
            G.from_permutations(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]],
                                max_order=30)

    def test_direct_product_trivial_factor(self):
        g = G.make_named("S3")
        prod = G.direct_product(G.make_named("C1"), g)
        assert prod.order == g.order
        assert sorted(prod.element_orders) == sorted(g.element_orders)

    def test_direct_product_klein(self):
        prod = G.direct_product(G.make_named("C2"), G.make_named("C2"))
        assert prod.order == 4 and all(o <= 2 for o in prod.element_orders)

    def test_dihedral_small(self):
        assert G.make_named("D1").order == 2
        d2 = G.make_named("D2")
        assert d2.order == 4 and d2.is_abelian
        d3 = G.make_named("D3")
        assert d3.order == 6 and not d3.is_abelian


class TestElementSets:
    def test_closure_of_identity(self):
        g = G.make_named("S3")
        assert g.closure_mask([0]) == 1

    def test_closure_powers_of_three_cycle(self):
        g = G.make_named("S3")
        a = by_order(g, 3)
        c = g.closure_mask([a])
        assert c.bit_count() == 3 and g.is_subgroup_mask(c)

    def test_closure_two_transpositions(self):
        g = G.make_named("S3")
        b1, b2 = all_by_order(g, 2)[:2]
        assert g.closure_mask([b1, b2]).bit_count() == 6

    def test_closure_idempotent_extensive(self):
        g = G.make_named("S4")
        for seed in ([1], [1, 5], [3, 7, 11]):
            c = g.closure_mask(seed)
            assert g.closure_mask(list(G._bits(c))) == c
            assert all(c >> x & 1 for x in seed)

    def test_centralizer(self):
        g = G.make_named("S3")
        assert g.centralizer_mask(0) == g.full_mask
        a = by_order(g, 3)
        cent = g.centralizer_mask(a)
        assert cent.bit_count() == 3 and cent >> a & 1 and cent & 1

    def test_centralizer_abelian(self):
        g = G.make_named("C12")
        assert all(g.centralizer_mask(x) == g.full_mask for x in range(12))

    def test_centralizer_of_set_is_intersection(self):
        g = G.make_named("S4")
        s = 0b1010110
        expected = g.full_mask
        for x in G._bits(s):
            expected &= g.centralizer_mask(x)
        assert g.centralizer_of_set_mask(s) == expected

    def test_centralizer_of_order3_subgroup_in_s3(self):
        g = G.make_named("S3")
        a3 = g.closure_mask([by_order(g, 3)])
        assert g.centralizer_of_set_mask(a3) == a3

    def test_normal_closure(self):
        g = G.make_named("S3")
        a3 = g.closure_mask([by_order(g, 3)])
        b = g.closure_mask([by_order(g, 2)])
        assert g.normal_closure_mask(a3, g.full_mask) == a3
        assert g.normal_closure_mask(b, g.full_mask) == g.full_mask
        assert g.normal_closure_mask(a3, a3) == a3

    def test_normal_closure_requires_containment(self):
        g = G.make_named("S3")
        a3 = g.closure_mask([by_order(g, 3)])
        b = g.closure_mask([by_order(g, 2)])
        with pytest.raises(ValueError):
            g.normal_closure_mask(a3, b)

    def test_normal_closure_is_normal_and_minimal(self):
        g = G.make_named("S4")
        for x in (1, 3, 9):
            h = g.closure_mask([x])
            nc = g.normal_closure_mask(h, g.full_mask)
            assert h & ~nc == 0
            for y in range(g.order):
                assert g.conjugate_mask(nc, y) == nc


class TestStructure:
    def test_predicates_cyclic(self):
        g = G.make_named("C12")
        assert (g.is_abelian, g.is_nilpotent, g.is_solvable) == (True, True, True)

    def test_predicates_s3(self):
        g = G.make_named("S3")
        assert (g.is_abelian, g.is_nilpotent, g.is_solvable) == (False, False, True)

    def test_predicates_q8(self):
        g = G.make_named("Q8")
        assert (g.is_abelian, g.is_nilpotent, g.is_solvable) == (False, True, True)

    def test_predicate_implications(self):
        for spec in ["C1", "C5", "Z:2,4", "S3", "D4", "Q8", "A4", "D6", "S4", "A5"]:
            g = G.make_named(spec)
            if g.is_abelian:
                assert g.is_nilpotent
            if g.is_nilpotent:
                assert g.is_solvable

    @pytest.mark.parametrize("spec", SERIES_SPECS + ["Z:2,2,2,2,2", "D4xD4", "Q8xC3"])
    def test_abelian_from_generators_matches_all_pairs(self, spec):
        g = G.make_named(spec)
        t = g.table
        all_pairs = all(t[i][j] == t[j][i] for i in range(g.order) for j in range(g.order))
        assert g.is_abelian is all_pairs

    def test_a5_not_solvable(self):
        assert not G.make_named("A5").is_solvable

    def test_fitting_nilpotent_group(self):
        g = G.make_named("D4")
        assert G.fitting_subgroup(g) == g.full_mask

    def test_fitting_s3(self):
        g = G.make_named("S3")
        assert G.fitting_subgroup(g).bit_count() == 3

    def test_fitting_a4(self):
        g = G.make_named("A4")
        fit = G.fitting_subgroup(g)
        assert fit.bit_count() == 4
        assert all(g.element_orders[x] <= 2 for x in G._bits(fit))

    def test_fitting_is_nilpotent_normal(self):
        for spec in ["S3", "A4", "S4", "D6"]:
            g = G.make_named(spec)
            fit = G.fitting_subgroup(g)
            for x in range(g.order):
                assert g.conjugate_mask(fit, x) == fit
            assert G.subgroup_group(g, fit).is_nilpotent

    def test_prime_signature(self):
        assert G.prime_signature(1).factors == ()
        assert G.prime_signature(12).factors == ((2, 2), (3, 1))
        assert G.prime_signature(720).factors == ((2, 4), (3, 2), (5, 1))
        with pytest.raises(ValueError):
            G.prime_signature(0)

    def test_rerooting_preserves_structure(self):
        g = G.make_named("S4")
        a4_mask = g.closure_mask(all_by_order(g, 3))
        sub = G.subgroup_group(g, a4_mask)
        assert sub.order == 12
        assert sorted(sub.element_orders) == sorted(G.make_named("A4").element_orders)

    def test_quotient_s3_by_a3(self):
        g = G.make_named("S3")
        a3 = g.closure_mask([by_order(g, 3)])
        q = G.quotient_group(g, a3)
        assert q.order == 2 and q.is_cyclic

    def test_quotient_requires_normal(self):
        g = G.make_named("S3")
        b = g.closure_mask([by_order(g, 2)])
        with pytest.raises(ValueError):
            G.quotient_group(g, b)

    @pytest.mark.parametrize("spec", ["C1", "C12", "S3", "Q8", "A4", "S4", "D4xC3"])
    def test_quotient_table_is_the_coset_product(self, spec):
        g = G.make_named(spec)
        for n in [1, g.full_mask, series_pairwise(g, lower=False)[-1],
                  *series_pairwise(g, lower=True), G.fitting_subgroup(g)]:
            q = G.quotient_group(g, n)
            cosets = sorted({g.product_mask(n, 1 << x) for x in range(g.order)},
                            key=lambda c: c & -c)
            coset_of = {y: i for i, c in enumerate(cosets) for y in G._bits(c)}
            reps = [(c & -c).bit_length() - 1 for c in cosets]
            assert q.table == tuple(tuple(coset_of[g.table[a][b]] for b in reps)
                                    for a in reps), (spec, n)

    def test_quotient_q8_by_center(self):
        g = G.make_named("Q8")
        center = g.centralizer_of_set_mask(g.full_mask)
        q = G.quotient_group(g, center)
        assert q.order == 4 and all(o <= 2 for o in q.element_orders)


class TestFileFormats:
    def test_named_kind(self):
        g = G.group_from_json_dict({"kind": "named", "spec": "D4"})
        assert g.order == 8

    def test_permutation_kind(self):
        g = G.group_from_json_dict(
            {"kind": "permutation", "degree": 3, "generators": [[1, 2, 0]]})
        assert g.order == 3

    def test_cayley_kind_with_shifted_identity(self):
        # identity sits at index 1; construction must relocate it to 0
        z3 = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        g = G.group_from_json_dict({"kind": "cayley", "table": z3})
        assert g.order == 3
        assert all(g.table[0][j] == j for j in range(3))
        assert g.is_cyclic

    def test_cayley_rejects_non_group(self):
        bad = [[0, 1], [1, 1]]
        with pytest.raises(G.GroupSpecError):
            G.group_from_json_dict({"kind": "cayley", "table": bad})

    def test_unknown_kind(self):
        with pytest.raises(G.GroupSpecError):
            G.group_from_json_dict({"kind": "magma"})

    def test_load_group_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"kind": "named", "spec": "S3"}))
        assert G.load_group_file(path).order == 6
        bad = tmp_path / "bad.json"
        # bad JSON, a byte that is not UTF-8, and nesting too deep to decode
        for payload in (b"{not json", b'{"kind": "named", "spec": "S3\xff"}',
                        b"[" * 100_000):
            bad.write_bytes(payload)
            with pytest.raises(G.GroupSpecError, match=re.escape(f"bad group file {bad}: ")):
                G.load_group_file(bad)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(tuple(range(4))), min_size=0, max_size=2))
def test_permutation_closure_forms_group(gens):
    g = G.from_permutations(4, [list(p) for p in gens], max_order=24)
    g.check_associativity()
    assert g.order % 1 == 0
    for x in range(g.order):
        assert g.table[x][g.inverse[x]] == 0


# a degree from 1 to 5 and up to three permutations of that degree
PERMUTATION_GENERATORS = st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.permutations(tuple(range(d))), max_size=3)))


@settings(max_examples=60, deadline=None)
@given(PERMUTATION_GENERATORS)
def test_permutation_table_matches_pairwise_composition(case):
    degree, gens = case
    g = G.from_permutations(degree, [list(p) for p in gens], max_order=120)
    elems = permutations_of(g)
    assert elems[0] == tuple(range(degree)) and len(set(elems)) == g.order
    assert g.table == composition_table(elems)


@pytest.mark.parametrize("spec", ["S1", "S2", "S3", "S4", "S5", "A1", "A2", "A3",
                                  "A4", "A5", "D3", "D4", "D7"])
def test_named_permutation_tables_match_pairwise_composition(spec):
    g = G.make_named(spec)
    assert g.table == composition_table(permutations_of(g))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=36))
def test_cyclic_group_axioms(n):
    g = G.make_named(f"C{n}")
    assert g.is_cyclic


class TestLabels:
    @pytest.mark.parametrize("table", [[[0, 1], [1, 0]], [[1, 0], [0, 1]]])
    def test_from_table_rejects_a_label_count_other_than_the_order(self, table):
        # the second table has its identity at 1, which is swapped to 0
        with pytest.raises(G.GroupSpecError,
                           match=re.escape("1 element labels for a table of order 2")):
            G.FiniteGroup.from_table(table, element_labels=["e"])

    def test_from_table_swaps_the_labels_with_the_identity(self):
        g = G.FiniteGroup.from_table([[1, 0], [0, 1]], element_labels=["a", "e"])
        assert [g.label(x) for x in range(2)] == ["e", "a"]


@pytest.mark.parametrize("table, defect", [
    ([[0, 1, 2], [1, 2.7, 0], [2, 0, 1]], "row 1 holds 2.7, not an integer"),
    ([[0, 1, 2], [1, "2", 0], [2, 0, 1]], "row 1 holds '2', not an integer"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, True]], "row 2 holds True, not an integer"),
    # the identity is 1, and swapping it with 0 would read True as 1
    ([[True, 0], [0, 1]], "row 0 holds True, not an integer"),
], ids=["float", "str", "bool", "bool-before-the-swap"])
def test_from_table_refuses_entries_that_are_not_exact_ints(table, defect):
    with pytest.raises(G.GroupSpecError, match=f"^{re.escape(defect)}$"):
        G.FiniteGroup.from_table(table)


# -- from_table's checks, kept as an oracle for the tables built unchecked --

def benchmark_pool_specs():
    """Every base-group descriptor of the benchmark's workloads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for the dataclasses it defines
    spec.loader.exec_module(module)
    return {s for w in module.WORKLOADS.values() for s in w.pool}


BUILT_SPECS = sorted(set(CATALOG_SPECS) | benchmark_pool_specs())

# every catalog group of order up to 24, for products of order up to 576
SMALL_SPECS = [s for s in CATALOG_SPECS if G.make_named(s).order <= 24]


def assert_group_table(g):
    """The table of ``g``, built without a check, passes the one that
    ``from_table`` makes: a Latin square with identity 0, so x·x⁻¹ = 0; up
    to order 24, no triple fails associativity either."""
    G.FiniteGroup._check_structure(g.table)
    assert all(g.table[x][g.inverse[x]] == 0 for x in range(g.order))
    if g.order <= 24:
        assert first_nonassociative_triple(g.table) is None


@pytest.mark.parametrize("spec", BUILT_SPECS)
def test_named_groups_pass_the_ingestion_check(spec):
    assert_group_table(G.make_named(spec))


@settings(max_examples=40, deadline=None)
@given(PERMUTATION_GENERATORS)
def test_permutation_groups_pass_the_ingestion_check(case):
    degree, gens = case
    assert_group_table(G.from_permutations(degree, [list(p) for p in gens]))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.sampled_from(SMALL_SPECS))
def test_direct_products_pass_the_ingestion_check(a, b):
    assert_group_table(G.direct_product(G.make_named(a), G.make_named(b)))


@functools.cache
def lattice_of(spec):
    return L.enumerate_subgroups(G.make_named(spec))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["S3", "D4", "Q8", "A4", "D6", "S4", "S3xC5", "S5"]), st.data())
def test_subgroups_and_quotients_pass_the_ingestion_check(spec, data):
    lat = lattice_of(spec)
    node = data.draw(st.integers(0, len(lat) - 1), label="node")
    assert_group_table(G.subgroup_group(lat.group, lat.masks[node]))
    normal = data.draw(st.sampled_from(L.normal_subgroups(lat).members), label="normal")
    assert_group_table(G.quotient_group(lat.group, lat.masks[normal]))


def relabelled(g, data):
    """``g`` rebuilt from its table under a drawn permutation fixing 0."""
    n = g.order
    sigma = [0] + data.draw(st.permutations(range(1, n)), label="sigma")
    inv = [0] * n
    for x, y in enumerate(sigma):
        inv[y] = x
    table = [[sigma[g.table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    return G.FiniteGroup.from_table(table, name=g.name)


def closure_by_words(g, gens):
    """Oracle: every product of generators, by breadth-first search over words."""
    found = {0}
    layer = [0]
    while layer:
        layer = list({g.table[a][x] for a in layer for x in gens} - found)
        found.update(layer)
    return sum(1 << x for x in found)


def commutator_subgroup_pairwise(g, am, bm):
    """Oracle: the subgroup generated by [a, b] for every a in A and b in B."""
    t, inv = g.table, g.inverse
    comms = {t[t[t[inv[a]][inv[b]]][a]][b] for a in G._bits(am) for b in G._bits(bm)}
    return closure_by_words(g, comms)


def series_pairwise(g, lower):
    series = [g.full_mask]
    while True:
        k = series[-1]
        nxt = commutator_subgroup_pairwise(g, k, g.full_mask if lower else k)
        if nxt == k:
            return tuple(series)
        series.append(nxt)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_closure_from_a_cyclic_base_matches_words(spec):
    g = G.make_named(spec)
    for x in range(g.order):
        base = g.cyclic_mask(x)
        for y in range(0, g.order, max(1, g.order // 10)):
            closed = closure_by_words(g, [x, y])
            assert g.closure_mask([x, y], base) == g.closure_mask([x, y]) == closed


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.data())
def test_closure_from_a_subgroup_matches_closure_from_identity(spec, data):
    g = relabelled(G.make_named(spec), data)
    elements = st.lists(st.integers(0, g.order - 1), max_size=2)
    base_gens = data.draw(elements, label="base generators")
    gens = base_gens + data.draw(elements, label="extra")
    base = closure_by_words(g, base_gens)
    assert g.closure_mask(gens, base) == g.closure_mask(gens) == closure_by_words(g, gens)


def assert_element_invariants(g):
    """<x> and x^G of every element against one-element oracles: the powers
    of x (``cyclic_mask``) and x conjugated by every element of G."""
    t, inv = g.table, g.inverse
    assert g.cyclic_masks == tuple(map(g.cyclic_mask, range(g.order)))
    classes = tuple(functools.reduce(int.__or__, (1 << t[t[y][x]][inv[y]]
                                                  for y in range(g.order)))
                    for x in range(g.order))
    assert g.element_classes == classes
    assert g.class_number == len(set(classes))


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_cyclic_masks_and_element_classes_match_oracles(spec):
    assert_element_invariants(G.make_named(spec))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.data())
def test_relabelled_cyclic_masks_and_element_classes_match_oracles(spec, data):
    assert_element_invariants(relabelled(G.make_named(spec), data))


def assert_series_flags(g):
    """The residual and the solvable and nilpotent flags against the last
    terms of the derived and lower central series of the oracle."""
    residual = series_pairwise(g, lower=False)[-1]
    assert g.solvable_residual == residual
    assert g.is_solvable is (residual == 1)
    assert g.is_nilpotent is (series_pairwise(g, lower=True)[-1] == 1)


@pytest.mark.parametrize("spec", SERIES_SPECS)
def test_series_match_pairwise_commutators(spec):
    assert_series_flags(G.make_named(spec))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.data())
def test_relabelled_series_match_pairwise_commutators(spec, data):
    assert_series_flags(relabelled(G.make_named(spec), data))


@settings(max_examples=60, deadline=None)
@given(PERMUTATION_GENERATORS)
def test_permutation_group_series_match_pairwise_commutators(case):
    degree, gens = case
    assert_series_flags(G.from_permutations(degree, [list(p) for p in gens]))


def modular_16():
    """M16 = <r, s | r^8 = s^2 = 1, s r s = r^5>, on the 16 points (i, j) of
    Z8 x Z2 as i + 8j: r adds 1 to i, s maps (i, j) to (5i, j + 1)."""
    r = [(i + 1) % 8 + 8 * j for j in (0, 1) for i in range(8)]
    s = [5 * i % 8 + 8 * (1 - j) for j in (0, 1) for i in range(8)]
    return G.from_permutations(16, [r, s], name="M16")


@pytest.mark.parametrize("make, nilpotent", [
    (modular_16, True),
    (lambda: G.make_named("Q8xC3"), True),
    (lambda: G.make_named("D4xC5"), True),
    (lambda: G.make_named("S3"), False),
    (lambda: G.make_named("A4"), False),
    (lambda: G.make_named("D6"), False),
], ids=["M16", "Q8xC3", "D4xC5", "S3", "A4", "D6"])
def test_nilpotency_of_nonabelian_groups(make, nilpotent):
    g = make()
    assert not g.is_abelian and g.is_solvable
    assert g.is_nilpotent is nilpotent
    assert_series_flags(g)


# -- Light's associativity test against the exhaustive oracle ---------------

LOOP_BASE_SPECS = ["S3", "D4", "Q8", "A4", "S4", "D6", "Z:2,4"]

# the non-associative loop of order 5 pinned in tests/test_cli.py
PINNED_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
               [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def intercalates(t):
    """Every 2x2 subsquare (r1, r2, c1, c2) of ``t`` off row 0 and column 0:
    t[r1][c1] = t[r2][c2] and t[r1][c2] = t[r2][c1]."""
    n = len(t)
    col_of = [{v: c for c, v in enumerate(row)} for row in t]
    out = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                c2 = col_of[r2][t[r1][c1]]
                if c1 < c2 and t[r1][c2] == t[r2][c1]:
                    out.append((r1, r2, c1, c2))
    return out


def swap_intercalate(t, square):
    r1, r2, c1, c2 = square
    out = [list(row) for row in t]
    out[r1][c1], out[r1][c2] = t[r1][c2], t[r1][c1]
    out[r2][c1], out[r2][c2] = t[r2][c2], t[r2][c1]
    return out


def principal_loop_isotope(t, alpha, beta, a, b):
    """The quasigroup x o y = t[alpha[x]][beta[y]], renormalised to the loop
    x * y = (x / b) o (a \\ y), whose identity is a o b."""
    n = len(t)
    q = [[t[alpha[x]][beta[y]] for y in range(n)] for x in range(n)]
    right_b = [0] * n  # right_b[x o b] = x
    left_a = [0] * n  # left_a[a o y] = y
    for x in range(n):
        right_b[q[x][b]] = x
        left_a[q[a][x]] = x
    return [[q[right_b[x]][left_a[y]] for y in range(n)] for x in range(n)]


def conjugated(t, pi):
    """The table relabelled by x -> pi[x]."""
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[pi[x]][pi[y]] = pi[t[x][y]]
    return out


def identity_at_zero(t):
    """The loop ``t`` with its identity e swapped with 0, as documented for
    ``from_table``."""
    n = len(t)
    e = next(e for e in range(n)
             if all(t[e][j] == j == t[j][e] for j in range(n)))
    sigma = list(range(n))
    sigma[0], sigma[e] = e, 0
    return conjugated(t, sigma)


def assert_ingestion_matches_oracle(table):
    triple = first_nonassociative_triple(identity_at_zero(table))
    if triple is None:
        assert G.FiniteGroup.from_table(table).order == len(table)
    else:
        with pytest.raises(G.GroupSpecError) as err:
            G.FiniteGroup.from_table(table)
        assert str(err.value) == "associativity fails at ({},{},{})".format(*triple)
    return triple


@functools.cache
def base_table(spec):
    t = G.make_named(spec).table
    return t, intercalates(t)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(LOOP_BASE_SPECS), st.data())
def test_from_table_accepts_exactly_the_associative_loops(spec, data):
    t, squares = base_table(spec)
    n = len(t)
    table = [list(row) for row in t]
    if squares and data.draw(st.booleans(), label="swap an intercalate"):
        table = swap_intercalate(table, data.draw(st.sampled_from(squares),
                                                  label="intercalate"))
    if data.draw(st.booleans(), label="principal isotope"):
        table = principal_loop_isotope(
            table, data.draw(st.permutations(range(n)), label="alpha"),
            data.draw(st.permutations(range(n)), label="beta"),
            data.draw(st.integers(0, n - 1), label="a"),
            data.draw(st.integers(0, n - 1), label="b"))
    if data.draw(st.booleans(), label="move the identity"):
        table = conjugated(table, data.draw(st.permutations(range(n)), label="pi"))
    assert_ingestion_matches_oracle(table)


@pytest.mark.parametrize("spec", LOOP_BASE_SPECS)
def test_every_intercalate_swap_matches_oracle(spec):
    t, squares = base_table(spec)
    verdicts = [assert_ingestion_matches_oracle(swap_intercalate(t, sq))
                for sq in squares[:40]]
    assert any(v is not None for v in verdicts) or not squares, spec


def test_pinned_loop_names_the_first_failing_triple():
    assert first_nonassociative_triple(PINNED_LOOP) == (1, 1, 2)
    assert assert_ingestion_matches_oracle(PINNED_LOOP) == (1, 1, 2)


class CountingRow(tuple):
    """A table row that counts the comparisons made against it."""

    compared = 0

    def __eq__(self, other):
        CountingRow.compared += 1
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        CountingRow.compared += 1
        return tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + ["S6"])
def test_light_test_checks_log_many_generators_row_by_row(spec):
    g = G.make_named(spec)
    g.table = tuple(map(CountingRow, g.table))
    CountingRow.compared = 0
    gens = g.check_associativity()
    # on a group each new generator at least doubles the subgroup reached
    assert len(gens) <= g.order.bit_length() - 1, spec
    assert CountingRow.compared == len(gens) * g.order, spec
    assert closure_by_words(g, gens) == g.full_mask, spec
    if spec == "S6":
        assert len(gens) == 5
