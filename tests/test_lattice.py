import functools
import hashlib
import random
import tempfile
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from permlat import cache as C
from permlat import groups as G
from permlat import lattice as L
from permlat.catalog import CATALOG_SPECS
from permlat.degrees import permutes, sd

SMALL_SPECS = ["C1", "C2", "C3", "C5", "C12", "Z:2,2", "Z:2,4", "Z:2,2,2",
               "Z:3,3", "S3", "D4", "Q8", "A4", "D6"]

ORACLE_SPECS = list(CATALOG_SPECS) + ["S3xC3", "D4xC3", "Q8xS3"]

SMALL_ORDER_SPECS = [s for s in CATALOG_SPECS if G.make_named(s).order <= 16]

FACTOR_SPECS = ["C1", "C2", "C3", "C4", "C5", "Z:2,2", "S3", "D4", "Q8"]

SMALL_PRODUCTS = [(a, b) for a in FACTOR_SPECS for b in FACTOR_SPECS
                  if G.make_named(a).order * G.make_named(b).order <= 16]

CLASS_SPECS = ["S4xS3", "D4xD4", "A4xA4", "S5xC2"]

SELECTION_SPECS = list(CATALOG_SPECS) + ["S4xS3", "D4xD4", "S5xC2", "A4xA4", "A5xC3"]

# the catalog and the groups of the benchmark's lattice pool
POOL_SPECS = SELECTION_SPECS + ["Z:2,2,2,2,2"]

# sha256 of the node masks in node order. The first three were first
# produced by saturating joins of every node with every cyclic subgroup, the
# others by class-driven joins with every cyclic subgroup; the 2-groups and the
# products with normal factors run the prime-index and normal-representative
# paths of the enumeration. The last three were produced before class
# tests read conjugation tables; most nodes of D4xD4xC2 and Z:2,2,2,2,2,2 are
# normal, so they run the normality test on generators
PINNED_MASK_DIGESTS = {
    "S5": "00044c76460a2a1d9f64ef21ab6c7437871645c189b88e81db7788d8358c3ef3",
    "S5xC2": "cd1810a32a3206677518a8e64c83ed83829bd630bb04d8b511700a12d79ae270",
    "S6": "7458f843987cfc20ca1bc3fa526a3789e5687dbebd11e10829d32400c162cadb",
    "Z:2,2,2,2,2": "6283a3ed1b5af94952543bf71ad2cb48b2b63cd8a61ffeb2795c17612edf3593",
    "D4xD4": "1eaec54d69c2954eb7d0d3d6c8b4e0c61a01359e7af2b635f2173752894e181e",
    "Q8xQ8": "b19587a110a53700f3203e47b6e5d2bcc480f02bbb69d64d8a36f76b9ac23911",
    "S4xS3": "2e2f0e9db102c996bb086e8bc40683407aadd779fc1d07dfaf1f6935283ae98b",
    "A5xA4": "57559c0c7b3e6d319a23999fc7251677719f0156463c6e818dbb16eb71c16b84",
    "S5xS3": "44e6b4913528d9978aad7dc2b149eb2b24c12f3e634c3bdc40f9a5ca1a8a2371",
    "D4xD4xC2": "fe89b1f0cd6b550684cc8039cc1b6760a6b1423e155fa7ea65d7c85f267e7248",
    "Z:2,2,2,2,2,2": "a325e84c1e37f9bcd5f443dfee548f871909b8f82381899a694e8082b9a2b97a",
}

# closure_mask calls of one enumeration of a freshly built group; the
# enumeration is deterministic, so a change in the count is a change in the
# joins or normalizer generators it computes. Every count rises if the
# subgroups already found of prime index over a representative stop
# absorbing its seeds; D4xD4, S5 and S5xC2 have representatives under
# several conjugates of a prime-index join, so theirs rise if a new join's
# conjugates over the representative are not all absorbed too. S5 and S5xC2
# have a nontrivial solvable residual A5, so theirs rise if a join inside it
# no longer tries its seed's whole N(A)-orbit
PINNED_ENUMERATION_CLOSURES = {"Z:2,2,2,2,2": 351, "S5": 52, "D4xD4": 201,
                               "S5xC2": 90}

# sha256 of "class_of;conjugators" (each comma-separated) of the group
# relabelled by random.Random(3); the order in which the class walk visits
# the group's generators fixes the conjugators, which node_subnormal reads
PINNED_CLASS_WALKS = {
    "S5xC2": "003d0fe02b11163d479168828201cb724dc97bcbc740e415d369f35ba9dea123",
    "D4xD4": "90901c92154e31134c9b427844c04a8771fbeb38cf262dc9e99c23bc62c05645",
    "A5xC3": "d307039048432b2a27ee7890a13a1e097290eca969d0968679e098675047b11c",
    "Z:2,2,2,2,2": "a11d439229386795da3cc9d088e1bfa2bdd4d69cc554b72c834026962e7d3d96",
}

# PSL(2,7) acting on the seven points of the Fano plane
PSL27_ON_7_POINTS = {"kind": "permutation", "degree": 7,
                     "generators": [[1, 2, 3, 4, 5, 6, 0], [0, 1, 4, 3, 2, 6, 5]]}


def lat_of(spec):
    return L.enumerate_subgroups(G.make_named(spec))


@functools.cache
def shared_lat(spec):
    # lattices are immutable once built, so the oracle tests may share them
    return lat_of(spec)


@functools.cache
def node_generators(lat):
    # greedy generating sets read off the masks, independent of enumeration
    return tuple(lat.group.subgroup_gens(m) for m in lat.masks)


def join_by_closure(lat, a, b):
    """The subgroup generated by the union of nodes a and b."""
    gens = node_generators(lat)
    return lat.index_of[lat.group.closure_mask(gens[a] + gens[b])]


def chi_rows_by_product_sets(lat):
    g = lat.group
    return [sum(1 << j for j, mj in enumerate(lat.masks) if permutes(g, mi, mj))
            for mi in lat.masks]


def modular_law_holds(lat):
    """Oracle: X <= Z implies X v (Y ^ Z) = (X v Y) ^ Z over all triples,
    with meet the mask intersection and join the closure of the union."""
    masks = lat.masks

    def meet(a, b):
        return lat.index_of[masks[a] & masks[b]]

    n = len(lat)
    for x in range(n):
        for z in range(n):
            if masks[x] & ~masks[z]:
                continue
            for y in range(n):
                if (join_by_closure(lat, x, meet(y, z))
                        != meet(join_by_closure(lat, x, y), z)):
                    return False
    return True


def nodes_of_order(lat, k):
    return [i for i in range(len(lat)) if lat.node_order(i) == k]


def relabelled_as(g, sigma):
    """``g`` rebuilt from its table with element x renamed sigma[x]; sigma
    is a permutation fixing 0."""
    n = g.order
    inv = [0] * n
    for x, y in enumerate(sigma):
        inv[y] = x
    table = [[sigma[g.table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    return G.FiniteGroup.from_table(table, name=g.name)


def relabelled(g, data):
    """``g`` rebuilt from its table under a drawn permutation fixing 0."""
    return relabelled_as(
        g, [0] + data.draw(st.permutations(range(1, g.order)), label="sigma"))


def subnormal_by_chain(g, m):
    """Oracle: the normal-closure chain from G, run on one subgroup."""
    k = g.full_mask
    while k != m:
        nc = g.normal_closure_mask(m, k)
        if nc == k:
            return False
        k = nc
    return True


def closed_under_cyclic_extension(g, masks):
    """Oracle, independent of how the masks were found: a list of subgroups
    is all of L(G) iff it holds {1} and the closure of X u {x} for every
    node X and element x, since every subgroup is the top of a chain
    1 < <x1> < <x1, x2> < ... Elements with one cyclic subgroup give one
    closure, so each cyclic subgroup is tried once."""
    known = set(masks)
    cyclic = {g.cyclic_mask(x): x for x in range(g.order)}
    if 1 not in known:
        return False
    for m in masks:
        gens = g.subgroup_gens(m)
        if gens is None:
            return False
        for cm, x in cyclic.items():
            if cm & ~m and g.closure_mask(gens + (x,), m) not in known:
                return False
    return True


def masks_digest(lat):
    return hashlib.sha256(",".join(f"{m:x}" for m in lat.masks).encode()).hexdigest()


class TestEnumeration:
    @pytest.mark.parametrize("spec", SMALL_ORDER_SPECS)
    def test_matches_powerset_oracle(self, spec):
        g = G.make_named(spec)
        lat = L.enumerate_subgroups(g)
        assert sorted(lat.masks) == sorted(L.subgroup_masks_bruteforce(g))

    def test_known_counts(self):
        for spec, count in [("C1", 1), ("S3", 6), ("Z:2,2", 5), ("Z:2,4", 8),
                            ("A4", 10), ("D4", 10), ("Q8", 6), ("S4", 30),
                            ("S5", 156), ("A5", 59)]:
            assert len(lat_of(spec)) == count, spec

    def test_deterministic_ordering(self):
        a = lat_of("S4")
        b = lat_of("S4")
        assert a.masks == b.masks

    def test_bottom_and_top(self):
        lat = lat_of("D6")
        assert lat.node_order(lat.bottom) == 1
        assert lat.node_order(lat.top) == 12

    def test_sorted_by_cardinality(self):
        lat = lat_of("S4")
        sizes = [lat.node_order(i) for i in range(len(lat))]
        assert sizes == sorted(sizes)

    def test_lattice_cap(self):
        with pytest.raises(L.LatticeCapError):
            L.enumerate_subgroups(G.make_named("S4"), lattice_cap=10)

    def test_lattice_cap_boundary(self):
        s4 = G.make_named("S4")
        assert len(L.enumerate_subgroups(s4, lattice_cap=30)) == 30
        with pytest.raises(L.LatticeCapError):
            L.enumerate_subgroups(s4, lattice_cap=29)
        # C12 has only cyclic subgroups: the seeds alone pass the cap
        c12 = G.make_named("C12")
        assert len(L.enumerate_subgroups(c12, lattice_cap=6)) == 6
        with pytest.raises(L.LatticeCapError):
            L.enumerate_subgroups(c12, lattice_cap=5)

    @pytest.mark.parametrize("spec", sorted(PINNED_MASK_DIGESTS))
    def test_node_masks_pinned(self, spec):
        assert masks_digest(shared_lat(spec)) == PINNED_MASK_DIGESTS[spec]

    @pytest.mark.parametrize("spec", sorted(PINNED_ENUMERATION_CLOSURES))
    def test_enumeration_closures_pinned(self, spec, monkeypatch):
        calls = []
        closure_mask = G.FiniteGroup.closure_mask

        def counted(self, gens, *args):
            calls.append(gens)
            return closure_mask(self, gens, *args)

        group = G.make_named(spec)
        monkeypatch.setattr(G.FiniteGroup, "closure_mask", counted)
        L.enumerate_subgroups(group)
        assert len(calls) == PINNED_ENUMERATION_CLOSURES[spec]

    # |R| for the solvable residual R: 1 for solvable groups (relabelled
    # here), a proper subgroup for S5xC2 and A5xC3, all of a perfect group
    @pytest.mark.parametrize("spec, seed, residual_order", [
        ("S4xS3", 1, 1), ("D4xD4", 2, 1), ("S5xC2", 0, 60), ("A5xC3", 0, 60),
        ("A5", 0, 60), ("PSL27", 0, 168),
    ])
    def test_enumeration_is_closed_under_cyclic_extension(self, spec, seed,
                                                          residual_order):
        g = (G.group_from_json_dict(PSL27_ON_7_POINTS) if spec == "PSL27"
             else G.make_named(spec))
        if seed:
            rest = list(range(1, g.order))
            random.Random(seed).shuffle(rest)
            g = relabelled_as(g, [0] + rest)
        r = g.solvable_residual()
        assert r == g.derived_series[-1] and r.bit_count() == residual_order
        assert closed_under_cyclic_extension(g, L.enumerate_subgroups(g).masks)

    def test_enumeration_keeps_no_state_on_the_group(self):
        # benchmark jobs share a group's attribute values through copy.copy,
        # so per-call tables kept on it would carry over between jobs
        g = G.make_named("D4xD4")
        before = set(vars(g))
        L.enumerate_subgroups(g)
        assert set(vars(g)) - before == {"generating_set"}

    def test_every_node_is_subgroup(self):
        g = G.make_named("S4")
        lat = L.enumerate_subgroups(g)
        assert all(g.is_subgroup_mask(m) for m in lat.masks)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SMALL_ORDER_SPECS), st.data())
def test_relabelled_enumeration_matches_powerset_oracle(spec, data):
    g = relabelled(G.make_named(spec), data)
    assert sorted(L.enumerate_subgroups(g).masks) == sorted(L.subgroup_masks_bruteforce(g))


def assert_order_masks_match_subset_tests(lat, what):
    for i, mi in enumerate(lat.masks):
        assert lat.up_masks[i] == sum(
            1 << j for j, mj in enumerate(lat.masks) if mi & ~mj == 0), (what, i)
        assert lat.down_masks[i] == sum(
            1 << j for j, mj in enumerate(lat.masks) if mj & ~mi == 0), (what, i)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.data())
def test_relabelled_order_masks_match_subset_tests(spec, data):
    # every way in: enumeration, a cache hit and a re-rooted child
    g = relabelled(shared_lat(spec).group, data)
    rel = L.enumerate_subgroups(g)
    assert_order_masks_match_subset_tests(rel, spec)
    with tempfile.TemporaryDirectory() as cache_dir:
        C.store_lattice(cache_dir, rel)
        loaded = C.load_lattice(cache_dir, G.FiniteGroup(g.table, g.name))
    assert loaded.masks == rel.masks
    assert_order_masks_match_subset_tests(loaded, (spec, "cache"))
    i = data.draw(st.integers(0, len(rel) - 1), label="node")
    _, child = rel.rerooted(i)
    assert_order_masks_match_subset_tests(child, (spec, "rerooted", i))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.booleans(), st.data())
def test_node_tables_match_closures(spec, relabel, data):
    lat = shared_lat(spec)
    if relabel:
        lat = L.enumerate_subgroups(relabelled(lat.group, data))
    g = lat.group
    assert lat.node_gens == tuple(g.subgroup_gens(m) for m in lat.masks), spec
    assert lat.cyclic_nodes == tuple(
        lat.index_of[g.cyclic_mask(x)] for x in range(g.order)), spec


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.data())
def test_closure_from_given_base_rows_matches_closure(spec, data):
    g = relabelled(shared_lat(spec).group, data)
    lat = L.enumerate_subgroups(g)
    for i, base in enumerate(lat.masks):
        extra = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3),
                          label="extra")
        gens = lat.node_gens[i] + tuple(extra)
        rows = [g.table[b] for b in G._bits(base)]
        rows.reverse()  # any order of the rows serves
        closed = g.closure_mask(gens, base, rows)
        assert closed == g.closure_mask(gens, base) == g.closure_mask(gens), (spec, i)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SMALL_PRODUCTS))
def test_product_enumeration_matches_powerset_oracle(pair):
    g = G.direct_product(*(G.make_named(s) for s in pair))
    assert sorted(L.enumerate_subgroups(g).masks) == sorted(L.subgroup_masks_bruteforce(g))


class TestConjugacyClasses:
    @pytest.mark.parametrize("spec", CLASS_SPECS)
    def test_classes_are_conjugation_orbits(self, spec):
        lat = shared_lat(spec)
        g = lat.group
        for m in lat.masks:
            for s in g.generating_set:
                assert g.conjugate_mask(m, s) in lat.index_of, spec
        classes = defaultdict(list)
        for i, r in enumerate(lat.class_of):
            classes[r].append(i)
        assert sum(len(c) for c in classes.values()) == len(lat)
        for r, members in classes.items():
            assert r == min(members)
            orbit = {g.conjugate_mask(lat.masks[r], x) for x in range(g.order)}
            assert orbit == {lat.masks[i] for i in members}, (spec, r)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(POOL_SPECS), st.data())
    def test_conjugates_match_element_conjugation(self, spec, data):
        g = relabelled(shared_lat(spec).group, data)
        lat = L.enumerate_subgroups(g)
        ys = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=3),
                       label="ys")
        for i, m in enumerate(lat.masks):
            assert lat.conjugates(i, ys) == [
                lat.index_of[g.conjugate_mask(m, y)] for y in ys], (spec, i)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(CATALOG_SPECS), st.data())
    def test_table_classes_match_element_conjugation(self, spec, data):
        g = relabelled(shared_lat(spec).group, data)
        lat = L.enumerate_subgroups(g)
        tables = L._conjugation_tables(g)
        normal = L.normal_subgroups(lat)
        for i, m in enumerate(lat.masks):
            members = L._conjugacy_class(m, lat.node_gens[i], tables)
            assert len(set(members)) == len(members), (spec, i)
            assert set(members) == {
                g.conjugate_mask(m, x) for x in range(g.order)}, (spec, i)
            assert (len(members) == 1) == (i in normal), (spec, i)

    @pytest.mark.parametrize("spec", sorted(PINNED_CLASS_WALKS))
    def test_class_walk_pinned(self, spec):
        g = G.make_named(spec)
        rest = list(range(1, g.order))
        random.Random(3).shuffle(rest)
        lat = L.enumerate_subgroups(relabelled_as(g, [0] + rest))
        text = (",".join(map(str, lat.class_of)) + ";"
                + ",".join(map(str, lat.conjugators)))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CLASS_WALKS[spec]

    @pytest.mark.parametrize("spec, nodes, classes", [
        ("S5", 156, 19), ("S5xC2", 535, 57), ("S6", 1455, 56)])
    def test_node_and_class_counts(self, spec, nodes, classes):
        lat = shared_lat(spec)
        assert (len(lat), len(set(lat.class_of))) == (nodes, classes)

    def test_classes_without_enumeration_generators(self):
        # a lattice rebuilt from bare masks, as on a cache hit, gets the same classes
        lat = shared_lat("S4xS3")
        rebuilt = L.SubgroupLattice(lat.group, list(reversed(lat.masks)))
        assert rebuilt.masks == lat.masks
        assert rebuilt.class_of == lat.class_of


class TestMeetJoin:
    def test_bounded_lattice_identities(self):
        lat = lat_of("S4")
        for x in range(0, len(lat), 5):
            assert lat.meet(x, lat.top) == x
            assert lat.join(x, lat.bottom) == x

    def test_s3_joins_and_meets(self):
        lat = lat_of("S3")
        twos = nodes_of_order(lat, 2)
        three = nodes_of_order(lat, 3)[0]
        assert lat.join(twos[0], twos[1]) == lat.top
        assert lat.meet(three, twos[0]) == lat.bottom

    def test_meet_join_closed(self):
        lat = lat_of("A4")
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert 0 <= lat.meet(i, j) < len(lat)
                assert 0 <= lat.join(i, j) < len(lat)

    def test_containment_consistency(self):
        lat = lat_of("D6")
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert lat.leq(i, j) == (lat.masks[i] & ~lat.masks[j] == 0)


class TestOrderRulesAgainstOracles:
    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_join_and_meet_match_closure_and_intersection(self, spec):
        lat = shared_lat(spec)
        for a in range(len(lat)):
            for b in range(a, len(lat)):
                join = join_by_closure(lat, a, b)
                meet = lat.index_of[lat.masks[a] & lat.masks[b]]
                assert lat.join(a, b) == lat.join(b, a) == join, (spec, a, b)
                assert lat.meet(a, b) == lat.meet(b, a) == meet, (spec, a, b)

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_chi_rows_match_product_sets(self, spec):
        lat = shared_lat(spec)
        assert list(lat.chi_rows()) == chi_rows_by_product_sets(lat)

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_modularity_matches_modular_law(self, spec):
        lat = shared_lat(spec)
        assert L.is_modular_lattice(lat) is modular_law_holds(lat)

    def test_upper_semimodular_but_not_modular(self):
        # AGL(1,5) = C5 x| C4, x -> x+1 and x -> 2x: its lattice is upper but
        # not lower semimodular, so only the lower check rejects it
        g = G.from_permutations(5, [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]], "AGL(1,5)")
        lat = L.enumerate_subgroups(g)
        assert len(lat) == 14
        assert modular_law_holds(lat) is False
        assert L.is_modular_lattice(lat) is False


class TestSelections:
    def test_normal_abelian(self):
        lat = lat_of("C12")
        assert L.normal_subgroups(lat).members == tuple(range(len(lat)))

    def test_normal_s3_a4(self):
        assert len(L.normal_subgroups(lat_of("S3"))) == 3
        lat = lat_of("A4")
        normals = L.normal_subgroups(lat)
        assert sorted(lat.node_order(i) for i in normals.members) == [1, 4, 12]

    def test_subnormal_nilpotent_is_everything(self):
        for spec in ["Q8", "D4", "C12"]:
            lat = lat_of(spec)
            assert len(L.subnormal_subgroups(lat)) == len(lat)

    def test_subnormal_s3_a4(self):
        assert len(L.subnormal_subgroups(lat_of("S3"))) == 3
        lat = lat_of("A4")
        sn = L.subnormal_subgroups(lat)
        assert len(sn) == 6
        assert sorted(lat.node_order(i) for i in sn.members) == [1, 2, 2, 2, 4, 12]

    def test_normal_subset_subnormal(self):
        for spec in SMALL_SPECS + ["S4"]:
            lat = lat_of(spec)
            n = L.normal_subgroups(lat).members_mask
            sn = L.subnormal_subgroups(lat).members_mask
            assert n & ~sn == 0
            assert sn >> lat.bottom & 1 and sn >> lat.top & 1

    def test_maximal_raw_examples(self):
        lat = lat_of("S3")
        raw = L.maximal_subgroups(lat, "raw")
        assert sorted(lat.node_order(i) for i in raw.members) == [2, 2, 2, 3]
        assert lat.top not in raw
        assert len(L.maximal_subgroups(lat_of("Z:2,2"), "raw")) == 3

    def test_maximal_closed_prime_cyclic(self):
        for spec in ["C2", "C3", "C5"]:
            lat = lat_of(spec)
            closed = L.maximal_subgroups(lat, "closed")
            assert closed.members == (lat.bottom, lat.top)

    def test_maximal_raw_bottom_iff_prime_order(self):
        for spec, expected in [("C5", True), ("C12", False), ("S3", False)]:
            lat = lat_of(spec)
            raw = L.maximal_subgroups(lat, "raw")
            assert (lat.bottom in raw) == expected

    def test_maximal_trivial_group_errors(self):
        with pytest.raises(ValueError):
            L.maximal_subgroups(lat_of("C1"), "raw")

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            L.maximal_subgroups(lat_of("S3"), "open")

    def test_sylow(self):
        lat = lat_of("S3")
        assert sorted(lat.node_order(i)
                      for i in L.sylow_subgroups(lat).members) == [2, 2, 2, 3]
        lat = lat_of("A4")
        assert sorted(lat.node_order(i)
                      for i in L.sylow_subgroups(lat).members) == [3, 3, 3, 3, 4]
        lat = lat_of("Q8")
        assert L.sylow_subgroups(lat).members == (lat.top,)

    def test_sylow_trivial_group_empty(self):
        assert len(L.sylow_subgroups(lat_of("C1"))) == 0


class TestClassInvariantSelections:
    @pytest.mark.parametrize("spec", SELECTION_SPECS)
    def test_normal_and_subnormal_match_per_node_oracles(self, spec):
        lat = shared_lat(spec)
        g = lat.group
        normal = {i for i, m in enumerate(lat.masks)
                  if all(g.conjugate_mask(m, s) == m for s in g.generating_set)}
        assert set(L.normal_subgroups(lat).members) == normal
        subnormal = {i for i, m in enumerate(lat.masks) if subnormal_by_chain(g, m)}
        assert set(L.subnormal_subgroups(lat).members) == subnormal

    @pytest.mark.parametrize("spec", SELECTION_SPECS)
    def test_flags_are_constant_on_classes(self, spec):
        lat = shared_lat(spec)
        selections = [L.normal_subgroups(lat), L.subnormal_subgroups(lat),
                      L.sylow_subgroups(lat)]
        if len(lat) > 1:
            selections += [L.maximal_subgroups(lat, c) for c in L.CONVENTIONS]
        for i, r in enumerate(lat.class_of):
            for sel in selections:
                assert (i in sel) == (r in sel), (spec, sel.kind, i)

    def test_selections_are_built_once_per_lattice(self):
        lat = lat_of("S4")
        for select in (L.all_subgroups, L.normal_subgroups, L.subnormal_subgroups):
            assert select(lat) is select(lat)
        for conv in L.CONVENTIONS:
            assert L.maximal_subgroups(lat, conv) is L.maximal_subgroups(lat, conv)
        assert L.maximal_subgroups(lat, "raw") is not L.maximal_subgroups(lat, "closed")


def maximal_by_mask_inclusion(lat, x):
    """Oracle for M(X), raw and closed, by element-mask inclusion alone: the
    nodes Y < X with no node Z such that Y < Z < X; closed adds their meet,
    the largest node inside each of them, and X."""
    masks = lat.masks

    def strictly_inside(a, b):
        return masks[a] != masks[b] and masks[a] & ~masks[b] == 0

    below = [y for y in range(len(lat)) if strictly_inside(y, x)]
    covers = [y for y in below if not any(strictly_inside(y, z) for z in below)]
    raw = sum(1 << y for y in covers)
    common = [z for z in below + [x]
              if all(masks[z] & ~masks[c] == 0 for c in covers)]
    meet = max(common, key=lambda z: masks[z].bit_count())
    return raw, raw | 1 << meet | 1 << x


def assert_node_maximal_matches_mask_inclusion(lat):
    for x in range(len(lat)):
        raw, closed = maximal_by_mask_inclusion(lat, x)
        assert L.node_maximal(lat, x, L.RAW) == raw, x
        assert L.node_maximal(lat, x, L.CLOSED) == closed, x
    if len(lat) > 1:
        for conv in L.CONVENTIONS:
            assert (L.maximal_subgroups(lat, conv).members_mask
                    == L.node_maximal(lat, lat.top, conv))


@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + ["D4xS3", "S4xS3"])
def test_node_maximal_matches_mask_inclusion(spec):
    assert_node_maximal_matches_mask_inclusion(lat_of(spec))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(list(CATALOG_SPECS) + ["D4xS3"]), st.data())
def test_relabelled_node_maximal_matches_mask_inclusion(spec, data):
    g = relabelled(shared_lat(spec).group, data)
    assert_node_maximal_matches_mask_inclusion(L.enumerate_subgroups(g))


class TestPerp:
    def test_perp_of_normal_is_everything(self):
        for spec in SMALL_SPECS + ["S4"]:
            lat = lat_of(spec)
            assert L.perp(lat, L.normal_subgroups(lat)).members == \
                tuple(range(len(lat)))

    def test_perp_all_abelian(self):
        lat = lat_of("Z:2,4")
        assert len(L.perp(lat, L.all_subgroups(lat))) == len(lat)

    def test_perp_all_s3(self):
        lat = lat_of("S3")
        p = L.perp(lat, L.all_subgroups(lat))
        assert sorted(lat.node_order(i) for i in p.members) == [1, 3, 6]

    def test_perp_antitone(self):
        lat = lat_of("S4")
        small = L.custom_selection(lat, [lat.bottom, lat.top])
        big = L.all_subgroups(lat)
        p_small = L.perp(lat, small).members_mask
        p_big = L.perp(lat, big).members_mask
        assert p_big & ~p_small == 0

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_custom_selection_rejects_out_of_range_index(self, bad):
        lat = lat_of("S3")
        with pytest.raises(ValueError, match=rf"{bad} is outside 0\.\.5"):
            L.custom_selection(lat, [0, bad])

    def test_perp_contains_bounds(self):
        for spec in ["S3", "A4", "S4", "D6"]:
            lat = lat_of(spec)
            p = L.perp(lat, L.all_subgroups(lat))
            assert lat.bottom in p and lat.top in p


class TestPredicates:
    def test_modular_values(self):
        # L(S3) is the height-two diamond M4, which satisfies the modular law
        for spec, expected in [("C12", True), ("Q8", True), ("S3", True),
                               ("Z:2,2", True), ("Q8xC3", True),
                               ("D5xC3", True), ("Z:4,4", True),
                               ("A4", False), ("D4", False), ("D6", False),
                               ("S4", False), ("S3xC3", False),
                               ("D4xC3", False), ("A5", False)]:
            assert L.is_modular_lattice(lat_of(spec)) is expected, spec

    def test_quasihamiltonian(self):
        for spec, expected in [("C12", True), ("Z:2,2,2", True), ("Q8", True),
                               ("S3", False), ("A4", False), ("D4", False)]:
            assert L.is_quasihamiltonian(lat_of(spec)) is expected, spec

    def test_quasihamiltonian_iff_sd_one(self):
        for spec in SMALL_SPECS + ["S4"]:
            lat = lat_of(spec)
            assert L.is_quasihamiltonian(lat) == (sd(lat) == 1), spec

    def test_small_lattice_implies_cyclic(self):
        for spec in SMALL_SPECS + ["S4", "S5", "S3xC5"]:
            g = G.make_named(spec)
            lat = L.enumerate_subgroups(g)
            if len(lat) <= 3:
                assert g.is_cyclic, spec

    def test_perp_meet_join_closure_diagnostic(self):
        # reported as a diagnostic, not asserted as always true
        lat = lat_of("S3")
        p = L.perp(lat, L.all_subgroups(lat))
        assert L.selection_meet_join_closed(lat, p) is True

    def test_sylow_not_always_maximal(self):
        assert L.sylow_subset_of_maximal(lat_of("S3"), "raw") is True
        assert L.sylow_subset_of_maximal(lat_of("S4"), "raw") is False


REROOT_SPECS = ["S4", "D4xS3", "A4xC5", "Q8xS3"]


class TestRerooting:
    @pytest.mark.parametrize("spec", REROOT_SPECS)
    def test_rerooted_matches_enumeration(self, spec):
        lat = shared_lat(spec)
        for i in range(len(lat)):
            _, child = lat.rerooted(i)
            fresh = L.enumerate_subgroups(G.subgroup_group(lat.group, lat.masks[i]))
            assert child.masks == fresh.masks, (spec, i)
            # child node k is the k-th node under i, relabelled into H
            elems = list(G._bits(lat.masks[i]))
            lifted = [sum(1 << elems[b] for b in G._bits(m)) for m in child.masks]
            assert lifted == [lat.masks[j] for j in G._bits(lat.down_masks[i])]

    @pytest.mark.parametrize("spec", REROOT_SPECS)
    def test_lattice_from_masks_and_rerooting_compute_no_closures(self, spec,
                                                                 monkeypatch):
        lat = lat_of(spec)
        calls = []
        closure_mask = G.FiniteGroup.closure_mask

        def counted(self, gens, *args):
            calls.append(gens)
            return closure_mask(self, gens, *args)

        conjugations = []
        conjugate_mask = G.FiniteGroup.conjugate_mask

        def counted_conjugation(self, m, y):
            conjugations.append((m, y))
            return conjugate_mask(self, m, y)

        subnormal = L.subnormal_subgroups(lat).members
        sn_of = [L.node_subnormal(lat, i) for i in range(len(lat))]
        classes = (lat.class_of, lat.conjugators)
        monkeypatch.setattr(G.FiniteGroup, "closure_mask", counted)
        monkeypatch.setattr(G.FiniteGroup, "conjugate_mask", counted_conjugation)
        # a fresh group object, as on a cache hit: nothing is cached on it
        group = G.FiniteGroup(lat.group.table, lat.group.name)
        rebuilt = L.SubgroupLattice(group, list(lat.masks))
        assert (rebuilt.class_of, rebuilt.conjugators) == classes
        assert L.subnormal_subgroups(rebuilt).members == subnormal
        assert [L.node_subnormal(rebuilt, i) for i in range(len(rebuilt))] == sn_of
        for i in range(len(rebuilt)):
            _, child = rebuilt.rerooted(i)
            L.subnormal_subgroups(child)
        assert rebuilt.masks == lat.masks
        assert calls == []
        assert conjugations == []


class TestFittingAgainstLattice:
    @pytest.mark.parametrize("spec", ["S3", "A4", "D6", "S4", "Q8", "C12"])
    def test_fitting_contains_every_nilpotent_normal_node(self, spec):
        g = G.make_named(spec)
        lat = L.enumerate_subgroups(g)
        fit = G.fitting_subgroup(g)
        for i in L.normal_subgroups(lat).members:
            child, _ = lat.rerooted(i)
            if child.is_nilpotent:
                assert lat.masks[i] & ~fit.mask == 0, (spec, i)
        assert G.subgroup_group(g, fit).is_nilpotent


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=48))
def test_cyclic_subgroup_count_is_divisor_count(n):
    lat = L.enumerate_subgroups(G.make_named(f"C{n}"))
    divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
    assert len(lat) == divisors


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_dihedral_subgroup_count_is_tau_plus_sigma():
    # D<n> has order 2n: its subgroups are the cyclic <r^(n/d)> for each
    # divisor d of n and the n/d dihedral subgroups of order 2d for each d
    for n in range(3, 61):
        ds = divisors(n)
        assert len(lat_of(f"D{n}")) == len(ds) + sum(ds), n


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.data())
def test_relabelling_invariance(spec, data):
    lat = shared_lat(spec)
    rel = L.enumerate_subgroups(relabelled(lat.group, data))
    assert len(rel) == len(lat)
    assert sd(rel) == sd(lat)
    assert L.is_modular_lattice(rel) is L.is_modular_lattice(lat)
    assert list(rel.chi_rows()) == chi_rows_by_product_sets(rel)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SELECTION_SPECS), st.data())
def test_relabelled_subnormal_selection_matches_chain(spec, data):
    g = relabelled(shared_lat(spec).group, data)
    lat = L.enumerate_subgroups(g)
    subnormal = {i for i, m in enumerate(lat.masks) if subnormal_by_chain(g, m)}
    assert set(L.subnormal_subgroups(lat).members) == subnormal
