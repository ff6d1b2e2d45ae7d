import functools
import hashlib
import random
import sys
import tempfile
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from permlat import bounds as B
from permlat import cache as C
from permlat import groups as G
from permlat import lattice as L
from permlat.catalog import CATALOG_SPECS
from permlat.degrees import permutes, sd
from test_classwise import all_rows
from test_groups import series_pairwise

SMALL_SPECS = ["C1", "C2", "C3", "C5", "C12", "Z:2,2", "Z:2,4", "Z:2,2,2",
               "Z:3,3", "S3", "D4", "Q8", "A4", "D6"]

ORACLE_SPECS = list(CATALOG_SPECS) + ["S3xC3", "D4xC3", "Q8xS3"]

SMALL_ORDER_SPECS = [s for s in CATALOG_SPECS if G.make_named(s).order <= 16]

FACTOR_SPECS = ["C1", "C2", "C3", "C4", "C5", "Z:2,2", "S3", "D4", "Q8"]

SMALL_PRODUCTS = [(a, b) for a in FACTOR_SPECS for b in FACTOR_SPECS
                  if G.make_named(a).order * G.make_named(b).order <= 16]

CLASS_SPECS = ["S4xS3", "D4xD4", "A4xA4", "S5xC2"]

# groups beyond the catalog on which modularity is checked against its oracle
MODULARITY_SPECS = ["S4xS3", "D4xD4", "Z:2,2,2,2,2", "S6"]

SELECTION_SPECS = list(CATALOG_SPECS) + ["S4xS3", "D4xD4", "S5xC2", "A4xA4", "A5xC3"]

# the catalog and the groups of the benchmark's lattice pool
POOL_SPECS = SELECTION_SPECS + ["Z:2,2,2,2,2"]

# the benchmark's lattice pool alone
LATTICE_POOL_SPECS = ["S5xC2", "D4xD4", "Z:2,2,2,2,2", "S4xS3", "A4xA4", "S5", "A5xC3"]

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

# closure_mask calls of one enumeration of a freshly built group, counted by
# call site; the enumeration is deterministic, so a change in a count is a
# change in the joins or normalizers it computes. The joins: every count
# rises if the subgroups already found of prime index over a representative
# stop absorbing its seeds; D4xD4, S5 and S5xC2 have representatives under
# several conjugates of a prime-index join, so theirs rise if a new join's
# conjugates over the representative are not all absorbed too. S5 and S5xC2
# have a nontrivial solvable residual A5, so theirs rise if a join inside it
# no longer tries its seed's whole N(A)-orbit. S4xS3, A4xA4 and A5xC3
# complete the benchmark's lattice pool; S6 and D4xD4xC2 are the README's
# figures
PINNED_JOIN_CLOSURES = {"Z:2,2,2,2,2": 342, "S5": 32, "D4xD4": 189,
                        "S5xC2": 63, "S4xS3": 55, "A4xA4": 31, "A5xC3": 43,
                        "S6": 292, "D4xD4xC2": 1218}

# The normalizers: the class walk closes N(A) from A once, over all of its
# Schreier elements outside A, for each non-normal class with N(A) > A.
# Every count rises if N(A) is closed one Schreier element at a time, or
# once per join instead of once per class; a normal class and a class with
# N(A) = A make none, and Z:2,2,2,2,2 is abelian, so all of its classes are
# normal
PINNED_NORMALIZER_CLOSURES = {"Z:2,2,2,2,2": 0, "S5": 12, "D4xD4": 123,
                              "S5xC2": 46, "S4xS3": 50, "A4xA4": 25,
                              "A5xC3": 14, "S6": 44, "D4xD4xC2": 784}

# sha256 of "class_of;conjugators" (each comma-separated) of the group
# relabelled by random.Random(3); the order in which the class walk visits
# the group's generators fixes the conjugators, which conjugate each
# representative's normalizer to the other members' (SubgroupLattice.normalizers)
PINNED_CLASS_WALKS = {
    "S5xC2": "003d0fe02b11163d479168828201cb724dc97bcbc740e415d369f35ba9dea123",
    "D4xD4": "90901c92154e31134c9b427844c04a8771fbeb38cf262dc9e99c23bc62c05645",
    "A5xC3": "d307039048432b2a27ee7890a13a1e097290eca969d0968679e098675047b11c",
    "Z:2,2,2,2,2": "a11d439229386795da3cc9d088e1bfa2bdd4d69cc554b72c834026962e7d3d96",
}

# sha256 of sn(G)'s node mask and of every node's sn(X) (each in hex, the
# latter comma-separated in node order), first produced by normal-closure
# chains; no benchmark pool holds these groups
PINNED_SUBNORMAL_DIGESTS = {
    "S6": ("79a9a554588bbd09be252fb6f76585c7b90d5bab60ad505002337bc4ab525952",
           "daef0e2d7f0df1ff1704cece3757f0cd07efda2ad6d080fb46c9a080c2080e8f"),
    "S5xS3": ("c29748b035dc6463a83cc763f0a228b856c894cc8ba716b2b0937de157efc74f",
              "9798197ae608706cdfa71409422097a550bb04e0606b6fefe706faa49b68dbf9"),
    "S4xS4": ("d29cb28f15d55f1cb8ea2c8373d473cb6eb85aaf14500efd8e11b59c2532d01a",
              "08c9d16e79d4baf93021d8aab12b6693616172b30cd240754a8b3465e82daff2"),
    "D4xD4xC2": ("12ee79758661b2460829bfaa04a0c08cff59815a667eaddd49086424a68b40f9",
                 "e1b306b14d4f92c5c3ab7a26dda5373d4fab2f6f6bdd4fd20314ed0f741a4164"),
}

# sha256 of the representative rows (``r:row``, row in hex, comma-separated
# in representative order) and of the factorization partners of every normal
# N (``n:partners`` likewise), first produced by the order test on each pair;
# no benchmark pool holds these groups
PINNED_ROW_DIGESTS = {
    ("rows", "S6"): "1774cfe7a528f16f69befdc4ad55fbf946e88b876eafea58b289416f82e62780",
    ("rows", "S5xS3"): "9f5ffd4faa16c19c369932809a361d54edb8c7c4e6746a29afe7e2be4bce4d88",
    ("rows", "S4xS4"): "8f56149dc2500b6c5728d5ae60b06d8dab9757c7da41b0855bb82711e48b5596",
    ("rows", "D4xD4xC2"): "23b38075bd06941301ee9fb34cb8faa52e25a707af4b5939e910a0b994da15eb",
    ("partners", "D4xD4xC2"):
        "2947c55fd3fcf02c9a6f1537dcab17c5fd2d7a1f20800a64fb11ab2c7df984f6",
    ("partners", "Z:2,2,2,2,2"):
        "7ec5f78ca9514ba8f3586d3fcc7111dc02a58b2fbaf041ce7ecbe875918dc8c4",
}

# PSL(2,7) acting on the seven points of the Fano plane
PSL27_ON_7_POINTS = {"kind": "permutation", "degree": 7,
                     "generators": [[1, 2, 3, 4, 5, 6, 0], [0, 1, 4, 3, 2, 6, 5]]}

# groups with non-normal subgroups of many kinds, and a simple group
NORMALIZER_SPECS = ["S4xS3", "D4xD4", "S5xC2", "A5xC3", "PSL27"]


@functools.cache
def named_group(spec):
    # enumeration keeps no state on a group, so the tests may share them
    return (G.group_from_json_dict(PSL27_ON_7_POINTS) if spec == "PSL27"
            else G.make_named(spec))


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


def assert_rows_match_product_sets(lat):
    """The full order-test matrix and the representative rows against the
    product sets."""
    rows = chi_rows_by_product_sets(lat)
    assert all_rows(lat) == rows
    assert lat.chi_rows() == {r: rows[r] for r in lat.class_masks}


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


def modular_by_covers_at_every_node(lat):
    """Oracle: Birkhoff's cover-pair conditions at every node, not only at
    class representatives. The lower covers of each node are its raw
    ``node_maximal``, its upper covers those masks transposed; two upper
    covers must both be covered by their join, two lower covers must both
    cover their meet."""
    down_cov = [L.node_maximal(lat, x) for x in range(len(lat))]
    up_cov = L._transpose(down_cov)
    for x in range(len(lat)):
        ups = list(G._bits(up_cov[x]))
        for k, a in enumerate(ups):
            for b in ups[k + 1:]:
                j = lat.join(a, b)
                if not (up_cov[a] >> j & 1 and up_cov[b] >> j & 1):
                    return False
        downs = list(G._bits(down_cov[x]))
        for k, a in enumerate(downs):
            for b in downs[k + 1:]:
                m = lat.meet(a, b)
                if not (up_cov[m] >> a & 1 and up_cov[m] >> b & 1):
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


def subnormal_by_chain(g, m, k=None):
    """Oracle: whether H = ``m`` is subnormal in K = ``k`` (G when None),
    by the normal-closure chain K0 = K, K_{t+1} = H^{K_t}, run on one
    subgroup: it reaches H exactly when H is subnormal, and stalls first
    otherwise."""
    k = g.full_mask if k is None else k
    gens = g.subgroup_gens(m)
    while k != m:
        nc = g.normal_closure_mask(m, k, gens)
        if nc == k:
            return False
        k = nc
    return True


def assert_node_subnormal_matches_chain(lat):
    """sn(X) of every node X against the chain oracle run inside X."""
    g, masks = lat.group, lat.masks
    for x in range(len(lat)):
        assert L.node_subnormal(lat, x) == sum(
            1 << y for y in G._bits(lat.down_masks[x])
            if subnormal_by_chain(g, masks[y], masks[x])), (g.name, x)


def assert_normalizers_match_stabilizers(lat):
    """N_G(X) of every node X against the elements that conjugate X's
    element mask to itself."""
    g = lat.group
    for i, m in enumerate(lat.masks):
        stabilizer = sum(1 << y for y in range(g.order) if g.conjugate_mask(m, y) == m)
        assert lat.masks[lat.normalizers[i]] == stabilizer, (g.name, i)


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


def closures_by_call_site(spec, monkeypatch):
    """closure_mask calls of one enumeration of a freshly built ``spec``,
    counted by the name of the calling function."""
    sites = Counter()
    closure_mask = G.FiniteGroup.closure_mask

    def counted(self, gens, *args):
        sites[sys._getframe(1).f_code.co_name] += 1
        return closure_mask(self, gens, *args)

    group = G.make_named(spec)
    monkeypatch.setattr(G.FiniteGroup, "closure_mask", counted)
    L.enumerate_subgroups(group)
    return sites


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

    def test_lattice_cap(self, monkeypatch):
        monkeypatch.setattr(L, "DEFAULT_LATTICE_CAP", 10)
        with pytest.raises(L.LatticeCapError):
            L.enumerate_subgroups(G.make_named("S4"))

    def test_lattice_cap_boundary(self, monkeypatch):
        s4 = G.make_named("S4")
        monkeypatch.setattr(L, "DEFAULT_LATTICE_CAP", 30)
        assert len(L.enumerate_subgroups(s4)) == 30
        monkeypatch.setattr(L, "DEFAULT_LATTICE_CAP", 29)
        with pytest.raises(L.LatticeCapError):
            L.enumerate_subgroups(s4)
        # C12 has only cyclic subgroups: the seeds alone pass the cap
        c12 = G.make_named("C12")
        monkeypatch.setattr(L, "DEFAULT_LATTICE_CAP", 6)
        assert len(L.enumerate_subgroups(c12)) == 6
        monkeypatch.setattr(L, "DEFAULT_LATTICE_CAP", 5)
        with pytest.raises(L.LatticeCapError):
            L.enumerate_subgroups(c12)

    @pytest.mark.parametrize("spec", sorted(PINNED_MASK_DIGESTS))
    def test_node_masks_pinned(self, spec):
        assert masks_digest(shared_lat(spec)) == PINNED_MASK_DIGESTS[spec]

    @pytest.mark.parametrize("spec", sorted(PINNED_JOIN_CLOSURES))
    def test_enumeration_closures_pinned(self, spec, monkeypatch):
        assert closures_by_call_site(spec, monkeypatch)["enumerate_subgroups"] \
            == PINNED_JOIN_CLOSURES[spec]

    @pytest.mark.parametrize("spec", sorted(PINNED_NORMALIZER_CLOSURES))
    def test_normalizer_closures_pinned(self, spec, monkeypatch):
        assert closures_by_call_site(spec, monkeypatch)["_conjugacy_class"] \
            == PINNED_NORMALIZER_CLOSURES[spec]

    # |R| for the solvable residual R: 1 for solvable groups (relabelled
    # here), a proper subgroup for S5xC2 and A5xC3, all of a perfect group
    @pytest.mark.parametrize("spec, seed, residual_order", [
        ("S4xS3", 1, 1), ("D4xD4", 2, 1), ("S5xC2", 0, 60), ("A5xC3", 0, 60),
        ("A5", 0, 60), ("PSL27", 0, 168),
    ])
    def test_enumeration_is_closed_under_cyclic_extension(self, spec, seed,
                                                          residual_order):
        g = named_group(spec)
        if seed:
            rest = list(range(1, g.order))
            random.Random(seed).shuffle(rest)
            g = relabelled_as(g, [0] + rest)
        r = g.solvable_residual
        assert r == series_pairwise(g, lower=False)[-1] and r.bit_count() == residual_order
        assert closed_under_cyclic_extension(g, L.enumerate_subgroups(g).masks)

    def test_enumeration_keeps_no_state_on_the_group(self):
        # benchmark jobs share a group's attribute values through copy.copy,
        # so per-call tables kept on it would carry over between jobs; the
        # generators, the solvable residual, the cyclic subgroups <x> and the
        # conjugacy classes of elements are invariants of the group
        g = G.make_named("D4xD4")
        before = set(vars(g))
        L.enumerate_subgroups(g)
        assert set(vars(g)) - before == {"generating_set", "solvable_residual",
                                         "cyclic_masks", "element_classes"}

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


def assert_three_ways_in_agree(g, rng):
    """The enumerated lattice of ``g``, one built from its masks shuffled by
    ``rng``, and one stored and loaded from a cache hold the same tables."""
    def tables(lat):
        return (lat.masks, lat.up_masks, lat.node_gens, lat.cyclic_nodes,
                lat.class_of, lat.conjugators)

    lat = L.enumerate_subgroups(g)
    shuffled = list(lat.masks)
    rng.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as cache_dir:
        C.store_lattice(cache_dir, lat)
        loaded = C.load_lattice(cache_dir, G.FiniteGroup(g.table, g.name))
    expected = tables(lat)
    assert tables(L.SubgroupLattice(g, shuffled)) == expected, g.name
    assert tables(loaded) == expected, g.name


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(LATTICE_POOL_SPECS), st.data())
def test_lattice_construction_round_trips_on_the_pool(spec, data):
    g = relabelled(shared_lat(spec).group, data)
    assert_three_ways_in_agree(g, data.draw(st.randoms(use_true_random=False)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(list(CATALOG_SPECS) + ["D4xS3", "Q8xS3"]), st.data())
def test_products_are_the_y_whose_product_set_is_a_given_node(spec, data):
    """For every X and a random set S of nodes above X, given to
    ``products`` as the OR of their down masks by order, the result is the
    Y whose product set XY is the element mask of a node of S."""
    g = relabelled(shared_lat(spec).group, data)
    lat = L.enumerate_subgroups(g)
    rng = data.draw(st.randoms(use_true_random=False))
    for x, mx in enumerate(lat.masks):
        chosen = [j for j in G._bits(lat.up_masks[x]) if rng.random() < 0.5]
        joins = defaultdict(int)
        for j in chosen:
            joins[lat.node_order(j)] |= lat.down_masks[j]
        targets = {lat.masks[j] for j in chosen}
        expected = sum(1 << y for y, my in enumerate(lat.masks)
                       if g.product_mask(mx, my) in targets)
        assert L.products(lat, x, joins) == expected, (spec, x, chosen)


# the trivial group, whose membership strings are one character long, and a
# group outside the pool whose order is not a multiple of 8
@pytest.mark.parametrize("spec", ["C1", "A4xC5"])
def test_lattice_construction_round_trips(spec):
    assert_three_ways_in_agree(G.make_named(spec), random.Random(0))


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


def assert_prime_index_is_one_power(g, masks):
    """For every subgroup A in ``masks`` and every element c of prime-power
    order p^k outside A: |<c> : <c> n A| is prime iff c^p lies in A. Both
    sides come from cyclic_mask and the table alone."""
    seeds = []
    for c in range(1, g.order):
        cm = g.cyclic_mask(c)
        factors = G.prime_signature(cm.bit_count()).factors
        if len(factors) == 1:
            cp = c
            for _ in range(factors[0][0] - 1):
                cp = g.table[cp][c]
            seeds.append((c, cm, cp))
    for am in masks:
        for c, cm, cp in seeds:
            if am >> c & 1:
                continue
            index = cm.bit_count() // (cm & am).bit_count()
            is_prime = index > 1 and all(index % d for d in range(2, index))
            assert is_prime == bool(am >> cp & 1), (g.name, am, c)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_prime_index_over_a_node_is_one_power(spec):
    lat = shared_lat(spec)
    assert_prime_index_is_one_power(lat.group, lat.masks)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.data())
def test_relabelled_prime_index_over_a_node_is_one_power(spec, data):
    g = relabelled(shared_lat(spec).group, data)
    assert_prime_index_is_one_power(g, L.enumerate_subgroups(g).masks)


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
        cyclic_of = [g.cyclic_mask(x) for x in range(g.order)]
        by_order = L._by_descending_order(cyclic_of)
        normal = L.normal_subgroups(lat)
        for i, m in enumerate(lat.masks):
            gens = lat.node_gens[i]
            members, nm, ngens = L._conjugacy_class(g, cyclic_of, by_order, m, gens)
            assert len(set(members)) == len(members), (spec, i)
            assert set(members) == {
                g.conjugate_mask(m, x) for x in range(g.order)}, (spec, i)
            assert (len(members) == 1) == (i in normal), (spec, i)
            assert nm == lat.masks[lat.normalizers[i]], (spec, i)
            assert all(g.conjugate_mask(m, y) == m for y in ngens), (spec, i)
        assert_normalizers_match_stabilizers(lat)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_normalizers_match_element_stabilizers(self, spec):
        assert_normalizers_match_stabilizers(shared_lat(spec))

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(NORMALIZER_SPECS), st.data())
    def test_orbit_normalizers_match_element_conjugation(self, spec, data):
        g = relabelled(named_group(spec), data)
        lat = L.enumerate_subgroups(g)
        cyclic_of = [g.cyclic_mask(x) for x in range(g.order)]
        by_order = L._by_descending_order(cyclic_of)
        for r in lat.class_masks:
            m, gens = lat.masks[r], lat.node_gens[r]
            members, nm, ngens = L._conjugacy_class(g, cyclic_of, by_order, m, gens)
            assert set(members) == {
                g.conjugate_mask(m, x) for x in range(g.order)}, (spec, r)
            oracle = sum(1 << y for y in range(g.order) if g.conjugate_mask(m, y) == m)
            assert oracle.bit_count() * len(members) == g.order, (spec, r)
            assert nm == oracle, (spec, r)
            if len(members) == 1:
                assert oracle == g.full_mask, (spec, r)
                assert ngens == g.generating_set, (spec, r)
                continue
            # A's generators and the Schreier elements outside A generate
            # N(A), whose generators the N(A)-orbits of the enumeration read
            used = ngens[len(gens):]
            assert ngens[:len(gens)] == gens, (spec, r)
            assert not any(m >> y & 1 for y in used), (spec, r)
            assert all(g.conjugate_mask(m, y) == m for y in used), (spec, r)
            assert g.closure_mask(ngens) == nm, (spec, r)

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
        assert_rows_match_product_sets(lat)

    @pytest.mark.parametrize("spec", ["S5xC2", "D4xD4", "S4xS3"])
    def test_chi_rows_match_order_test_on_every_pair(self, spec):
        lat = shared_lat(spec)
        rows = all_rows(lat)
        assert lat.chi_rows() == {r: rows[r] for r in lat.class_masks}

    @pytest.mark.parametrize("kind, spec", sorted(PINNED_ROW_DIGESTS))
    def test_rows_and_partners_pinned(self, kind, spec):
        lat = shared_lat(spec)
        if kind == "rows":
            table = lat.chi_rows()
        else:
            table = {n: B.factor_partners(lat, n)
                     for n in L.normal_subgroups(lat).members}
        text = ",".join(f"{k}:{table[k]:x}" for k in sorted(table))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PINNED_ROW_DIGESTS[kind, spec]

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_meets_over_holds_the_nodes_meeting_x_above_each_order(self, spec):
        lat = shared_lat(spec)
        orders = sorted({m.bit_count() for m in lat.masks})
        assert list(lat.nodes_of_order) == orders
        assert lat.nodes_of_order == {
            s: sum(1 << i for i, m in enumerate(lat.masks) if m.bit_count() == s)
            for s in orders}
        for x, mx in enumerate(lat.masks):
            over = L._meets_over(lat, x)
            assert set(over) == {lat.node_order(m) for m in G._bits(lat.down_masks[x])}
            for t, mask in over.items():
                assert mask == sum(1 << y for y, my in enumerate(lat.masks)
                                   if (mx & my).bit_count() > t), (spec, x, t)

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_modularity_matches_modular_law(self, spec):
        lat = shared_lat(spec)
        assert L.is_modular_lattice(lat) is modular_law_holds(lat)

    @pytest.mark.parametrize("spec", list(CATALOG_SPECS) + MODULARITY_SPECS)
    def test_modularity_matches_covers_at_every_node(self, spec):
        lat = shared_lat(spec)
        assert L.is_modular_lattice(lat) is modular_by_covers_at_every_node(lat)

    @pytest.mark.parametrize("spec, modular", [
        ("S3", True), ("D5xC3", True), ("Q8xC3", True), ("Z:2,2,2,2,2", True),
        ("S4", False), ("S4xS3", False), ("D4xD4", False)])
    def test_modularity_reads_lower_covers_once_per_class(self, spec, modular,
                                                          monkeypatch):
        # a modular lattice is walked to the end, one node_maximal per class
        # (S3 and D5xC3 have fewer classes than nodes); any other stops at
        # its first failing representative
        lat = lat_of(spec)
        calls = []
        node_maximal = L.node_maximal

        def counted(lat, idx, *args):
            calls.append(idx)
            return node_maximal(lat, idx, *args)

        monkeypatch.setattr(L, "node_maximal", counted)
        assert L.is_modular_lattice(lat) is modular
        assert len(set(calls)) == len(calls)
        assert set(calls) <= set(lat.class_masks)
        if modular:
            assert len(calls) == len(lat.class_masks)

    def test_upper_semimodular_but_not_modular(self):
        # AGL(1,5) = C5 x| C4, x -> x+1 and x -> 2x: its lattice is upper but
        # not lower semimodular, so only the lower check rejects it
        g = G.from_permutations(5, [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]], "AGL(1,5)")
        lat = L.enumerate_subgroups(g)
        assert len(lat) == 14
        assert modular_law_holds(lat) is False
        assert L.is_modular_lattice(lat) is False


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(LATTICE_POOL_SPECS), st.data())
def test_relabelled_meets_and_joins_match_intersection_and_closure(spec, data):
    g = relabelled(shared_lat(spec).group, data)
    lat = L.enumerate_subgroups(g)
    rng = data.draw(st.randoms(use_true_random=False))
    down = lat.down_masks
    for _ in range(100):
        a, b = rng.randrange(len(lat)), rng.randrange(len(lat))
        ma, mb = lat.masks[a], lat.masks[b]
        meet, join = lat.meet(a, b), lat.join(a, b)
        assert lat.masks[meet] == ma & mb, (spec, a, b)
        # the highest common lower bound in the order masks
        assert meet == (down[a] & down[b]).bit_length() - 1, (spec, a, b)
        assert lat.masks[join] == g.closure_mask(
            g.subgroup_gens(ma) + g.subgroup_gens(mb)), (spec, a, b)


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
        lat = lat_of("C1")
        for _ in range(2):  # a refused call keeps nothing
            for conv in L.CONVENTIONS:
                with pytest.raises(ValueError, match="no maximal subgroups"):
                    L.maximal_subgroups(lat, conv)

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            L.maximal_subgroups(lat_of("S3"), "open")

    def test_bad_convention_after_both_are_kept(self):
        lat = lat_of("S3")
        for conv in L.CONVENTIONS:
            L.maximal_subgroups(lat, conv)
        for _ in range(2):
            with pytest.raises(ValueError, match="convention must be one of"):
                L.maximal_subgroups(lat, "bogus")

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
    def test_node_subnormal_matches_chain_inside_every_node(self, spec):
        assert_node_subnormal_matches_chain(shared_lat(spec))

    @pytest.mark.parametrize("spec", sorted(PINNED_SUBNORMAL_DIGESTS))
    def test_subnormal_pinned(self, spec):
        lat = shared_lat(spec)
        sn = f"{L.subnormal_subgroups(lat).members_mask:x}"
        sn_of = ",".join(f"{L.node_subnormal(lat, i):x}" for i in range(len(lat)))
        assert tuple(hashlib.sha256(text.encode()).hexdigest()
                     for text in (sn, sn_of)) == PINNED_SUBNORMAL_DIGESTS[spec]

    @pytest.mark.parametrize("spec", ["S4", "S4xS3", "D4xD4", "S5xC2"])
    def test_subnormal_selection_reads_no_down_masks(self, spec):
        # sn(G) reads the representatives' normalizers off the class walk,
        # so it builds neither the down masks nor every node's normalizer
        lat = L.SubgroupLattice(shared_lat(spec).group, list(shared_lat(spec).masks))
        L.subnormal_subgroups(lat)
        assert "down_masks" not in vars(lat) and "normalizers" not in vars(lat)

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
        for select in (L.all_subgroups, L.normal_subgroups, L.subnormal_subgroups,
                       L.sylow_subgroups):
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
        small = L.SublatticeSelection(lat, "bounds", 1 << lat.bottom | 1 << lat.top)
        big = L.all_subgroups(lat)
        p_small = L.perp(lat, small).members_mask
        p_big = L.perp(lat, big).members_mask
        assert p_big & ~p_small == 0

    @pytest.mark.parametrize("bad", [-1, 6, 999])
    def test_selection_rejects_out_of_range_index(self, bad):
        # a selection is a node mask: -1 stands for a negative mask, which
        # has no highest bit, and 6 and 999 for a bit above the last node
        lat = lat_of("S3")
        if bad < 0:
            mask, message = bad, r"node mask -1 is negative"
        else:
            mask, message = 1 | 1 << bad, rf"node index {bad} is outside 0\.\.5"
        with pytest.raises(ValueError, match=message):
            L.SublatticeSelection(lat, "x", mask)

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
        classes = (lat.class_of, lat.conjugators, lat.normalizers)
        monkeypatch.setattr(G.FiniteGroup, "closure_mask", counted)
        monkeypatch.setattr(G.FiniteGroup, "conjugate_mask", counted_conjugation)
        # a fresh group object, as on a cache hit: nothing is cached on it
        group = G.FiniteGroup(lat.group.table, lat.group.name)
        rebuilt = L.SubgroupLattice(group, list(lat.masks))
        assert (rebuilt.class_of, rebuilt.conjugators, rebuilt.normalizers) == classes
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
                assert lat.masks[i] & ~fit == 0, (spec, i)
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


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(list(CATALOG_SPECS) + ["D5xC3", "Q8xC3", "S4xS3"]), st.data())
def test_relabelled_modularity_matches_covers_at_every_node(spec, data):
    lat = L.enumerate_subgroups(relabelled(shared_lat(spec).group, data))
    assert L.is_modular_lattice(lat) is modular_by_covers_at_every_node(lat)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.data())
def test_relabelling_invariance(spec, data):
    lat = shared_lat(spec)
    rel = L.enumerate_subgroups(relabelled(lat.group, data))
    assert len(rel) == len(lat)
    assert sd(rel) == sd(lat)
    assert L.is_modular_lattice(rel) is L.is_modular_lattice(lat)
    assert_rows_match_product_sets(rel)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SELECTION_SPECS), st.data())
def test_relabelled_subnormal_selection_matches_chain(spec, data):
    g = relabelled(shared_lat(spec).group, data)
    lat = L.enumerate_subgroups(g)
    subnormal = {i for i, m in enumerate(lat.masks) if subnormal_by_chain(g, m)}
    assert set(L.subnormal_subgroups(lat).members) == subnormal
    assert_node_subnormal_matches_chain(lat)
