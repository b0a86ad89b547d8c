"""Hash-consed exact keys and bounded caches.

Every construction of a ``MultiIndex`` or a ``Forest`` returns the canonical
object for its value, held in a bounded intern table that is cleared when
full.  The tests below pin the contract that makes this safe:

* equal results of every construction path are the identical object;
* pickling and copying rebuild through the constructor;
* objects from before a clear still compare, hash and look up as equal;
* equality stays structural (the alphabet size is part of the value) and the
  constructors keep their error messages;
* neither intern table, and no ``functools`` cache at module level under
  ``mirpath``, can grow without bound, and a clear of the monomial table
  empties the forest table too;
* a memoized kernel returns what it computes from empty caches.
"""

from __future__ import annotations

import copy
import functools
import importlib
import itertools
import pickle
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mirpath
from mirpath import algebra
from mirpath.algebra import (
    AlphabetMismatchError,
    Forest,
    Grading,
    MultiIndex,
    deshuffle,
    enumerate_populated,
    forest_basis,
    gl_product,
    prelie_graft,
    single,
)
from mirpath.grammar import format_multi_index, parse_multi_index
from mirpath.group import GroupElement, _key_index, _table
from mirpath.translation import (
    Character,
    identity_characters,
    insert_prelie,
    insert_simultaneous,
    _translate_mi,
    ito_strat_character,
    translate,
)

TABLES = (
    (algebra._MULTI_INDICES, algebra._MULTI_INDEX_BOUND),
    (algebra._FORESTS, algebra._FOREST_BOUND),
)


@pytest.fixture
def fresh_tables():
    """Empty intern tables for the test; the previous contents come back
    afterwards, so objects cached by other modules stay canonical."""
    saved = [dict(table) for table, _bound in TABLES]
    for table, _bound in TABLES:
        table.clear()
    yield
    for (table, _bound), before in zip(TABLES, saved):
        table.clear()
        table.update(before)


def _entries(d: int):
    variable = st.tuples(st.integers(0, d), st.integers(0, 3))
    return st.dictionaries(variable, st.integers(1, 3), min_size=1, max_size=4)


@st.composite
def _monomial_pairs(draw):
    d = draw(st.integers(1, 3))
    return d, draw(_entries(d)), draw(_entries(d))


# ---------------------------------------------------------------------------
# every construction path returns the canonical object
# ---------------------------------------------------------------------------


# the tables are emptied once per test, not per example: 150 examples add a
# few thousand objects, far below either bound, so no clear splits an example
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(pair=_monomial_pairs())
def test_every_construction_path_returns_the_canonical_object(fresh_tables, pair):
    d, ea, eb = pair
    letters = d + 1
    a = MultiIndex(ea, letters)
    b = MultiIndex(eb, letters)
    # the constructor: any order, dict or pairs, zero frequencies dropped
    assert MultiIndex(list(reversed(list(ea.items()))), letters) is a
    assert MultiIndex({**ea, (0, 9): 0}, letters) is a
    assert a.entries == tuple(sorted(ea.items()))
    assert hash(a) == hash((letters, a.entries)) and a.degree() == sum(ea.values())
    # mul merges the sorted entries
    product = {**ea}
    for key, m in eb.items():
        product[key] = product.get(key, 0) + m
    ab = a.mul(b)
    assert ab is b.mul(a) is MultiIndex(product, letters)
    assert ab.degree() == a.degree() + b.degree()
    # with_bumped and without move one entry
    for (i, k), m in ea.items():
        bumped = dict(ea)
        bumped[(i, k)] -= 1
        bumped[(i, k + 1)] = bumped.get((i, k + 1), 0) + 1
        assert a.with_bumped(i, k) is MultiIndex(bumped, letters)
        removed = dict(ea)
        removed[(i, k)] -= 1
        assert a.without(i, k) is MultiIndex(removed, letters)
        drained = a
        for _ in range(m):
            drained = drained.without(i, k)
        assert drained is MultiIndex(removed | {(i, k): 0}, letters)
    # the parser
    assert parse_multi_index(format_multi_index(a), d=d) is a
    # forests: construction in any order, merge, and the components tuple
    f = Forest([a, b, a])
    assert Forest([b, a, a]) is f
    assert Forest([a]).merge(Forest([b, a])) is f
    assert Forest([b]).merge(Forest([a, a])).components is f.components
    assert Forest([]).merge(f) is f is f.merge(Forest())
    assert hash(f) == hash(f.components)


def test_equal_values_from_independent_routes_share_one_object(fresh_tables):
    z = parse_multi_index("z(1,0)^2 z(2,1)", d=2)
    assert z is single(1, 0, 2, m=2).mul(single(2, 1, 2))
    assert z is parse_multi_index("z(2,1) z(1,0) z(1,0)", d=2)
    assert len(algebra._MULTI_INDICES) == 3  # z(1,0)^2, z(2,1) and z
    assert Forest([z, z]) is Forest((z, z))
    assert len(algebra._FORESTS) == 1


def test_the_trusted_forest_constructor_returns_the_canonical_object():
    for forest in forest_basis(2, 3):
        for order in itertools.permutations(forest.components):
            canonical = Forest(order)
            assert canonical == forest
            assert Forest._trusted(order) is canonical
            assert Forest._trusted(list(order)) is canonical
    # the unchecked path skips the component check, the constructor keeps it
    with pytest.raises(ValueError, match="nonempty multi-index"):
        Forest([single(1, 0, 2), MultiIndex((), 3)])


# ---------------------------------------------------------------------------
# pickling, copying, and objects from before a clear
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_multi_index("z(0,1)z(1,0)^2", d=2),
        lambda: MultiIndex((), 3),
        lambda: Forest([single(1, 0, 1), single(0, 1, 1).mul(single(1, 0, 1))]),
        lambda: Forest(),
    ],
    ids=["monomial", "empty-monomial", "forest", "empty-forest"],
)
def test_pickle_and_copy_give_back_the_canonical_object(make):
    x = make()
    assert pickle.loads(pickle.dumps(x)) is x
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert copy.deepcopy([x, x]) == [x, x]


def test_group_element_pickle_lands_on_the_canonical_keys():
    grading = Grading(max_norm=2, gamma=Fraction(1, 2))
    keys = [parse_multi_index(t, d=1) for t in ("z(0,0)", "z(1,0)", "z(1,0)z(1,1)")]
    x = GroupElement(d=1, grading=grading, values=dict(zip(keys, (1.0, 0.5, 0.0))))
    back = pickle.loads(pickle.dumps(x))
    assert back == x
    assert all(a is b for a, b in zip(back.values, keys))


def test_objects_from_before_a_clear_still_meet_new_ones(fresh_tables):
    old_mi = parse_multi_index("z(0,1)z(1,0)", d=1)
    old_forest = Forest([old_mi, single(1, 0, 1)])
    for table, _bound in TABLES:
        table.clear()
    new_mi = parse_multi_index("z(0,1)z(1,0)", d=1)
    new_forest = Forest([single(1, 0, 1), new_mi])
    for old, new in ((old_mi, new_mi), (old_forest, new_forest)):
        assert old is not new
        assert old == new and new == old
        assert hash(old) == hash(new)
        assert {old: "old"}[new] == "old" and {new: "new"}[old] == "new"
        assert old in {new} and new in {old}
        # a rebuilt copy of the old object is the new canonical one
        assert pickle.loads(pickle.dumps(old)) is new
    assert old_mi.mul(single(1, 0, 1)) == new_mi.mul(single(1, 0, 1))
    assert Forest([old_mi]) is Forest([new_mi])


def test_same_monomial_over_two_alphabets_stays_unequal():
    narrow = MultiIndex([((1, 0), 1)], 2)
    wide = MultiIndex([((1, 0), 1)], 3)
    assert narrow is not wide and narrow != wide
    assert narrow.entries == wide.entries
    assert Forest([narrow]) != Forest([wide])
    with pytest.raises(AlphabetMismatchError):
        narrow.mul(wide)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MultiIndex([((1, 0), -1)], 2), "negative frequency -1 for z(1,0)"),
        (lambda: MultiIndex([((-1, 0), 1)], 2), "negative letter or arity in z(-1,0)"),
        (lambda: MultiIndex([((1, -2), 1)], 2), "negative letter or arity in z(1,-2)"),
        (lambda: MultiIndex({(3, 0): 1}, 2), "letter 3 outside alphabet of size 2"),
        (lambda: Forest([single(1, 0, 1), MultiIndex((), 2)]),
         "a forest component must be a nonempty multi-index"),
        (lambda: single(1, 0, 1).without(1, 0).without(1, 0),
         "cannot remove z(1,0)^1: only 0 present"),
        (lambda: single(1, 0, 1).without(0, 0), "cannot remove z(0,0)^1: only 0 present"),
    ],
)
def test_constructor_error_messages_are_unchanged(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_translate_is_cached_on_equal_characters_not_on_their_objects():
    first = [ito_strat_character(2), *identity_characters(2)[1:]]
    second = tuple(
        Character(ell.direction, dict(ell.terms), ell.d) for ell in first
    )
    assert all(a == b and a is not b for a, b in zip(first, second))
    target = parse_multi_index("z(0,0)z(1,1)", d=2)
    forest = Forest([target, single(2, 0, 2)])
    for u in (target, forest):
        assert translate(first, u) == translate(second, u)
        assert translate(second, u) == translate(list(second), u)


# ---------------------------------------------------------------------------
# bounded tables and caches
# ---------------------------------------------------------------------------


def test_intern_tables_never_grow_past_their_bounds(fresh_tables):
    table, bound = algebra._MULTI_INDICES, algebra._MULTI_INDEX_BOUND
    for k in range(bound):
        single(1, k, 1)
    assert len(table) == bound
    single(2, 0, 2)
    assert len(table) == 1

    # the forests are built from a pool of monomials made beforehand, so that
    # no clear of the monomial table empties the forest table on the way
    table, bound = algebra._FORESTS, algebra._FOREST_BOUND
    pool = [single(1, k, 1) for k in range(256)]
    for pair in itertools.islice(itertools.combinations_with_replacement(pool, 2), bound):
        Forest(pair)
    assert len(table) == bound
    Forest([pool[0]])
    assert len(table) == 1

    # a clear of the monomial table empties the forest table too
    monomials = algebra._MULTI_INDICES
    for k in range(algebra._MULTI_INDEX_BOUND - len(monomials) + 1):
        single(2, k + 1, 2)
    assert len(monomials) == 1
    assert len(table) == 0


def test_a_clear_leaves_no_superseded_key_in_the_cached_bases(monkeypatch):
    # cache the bases and the product table, then let one new monomial meet
    # a full table
    _table(2, 3)
    monkeypatch.setattr(algebra, "_MULTI_INDEX_BOUND", len(algebra._MULTI_INDICES))
    single(3, 7, 3)
    monkeypatch.undo()
    assert len(algebra._MULTI_INDICES) == 1
    assert all(MultiIndex(key.entries, key.letters) is key for key in _key_index(2, 3))
    for forest in forest_basis(2, 3):
        assert Forest(forest.components) is forest
        assert all(MultiIndex(c.entries, c.letters) is c for c in forest.components)
    assert _table(2, 3).basis is forest_basis(2, 3)


def _module_caches():
    for info in pkgutil.walk_packages(mirpath.__path__, prefix="mirpath."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                yield f"{info.name}.{name}", value


def test_every_module_level_cache_is_bounded():
    caches = dict(_module_caches())
    for name in (
        "algebra._star_basis",
        "algebra._derivative_terms",
        "algebra.prelie_graft",
        "algebra.deshuffle",
        "algebra._graft_slot",
        "algebra._spreads",
        "lifts._affine_weights",
        "translation._translate_mi",
        "translation._translate_forest",
        "translation.insert_prelie",
        "translation._insert_into_mi",
    ):
        assert f"mirpath.{name}" in caches
    unbounded = [
        name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None
    ]
    assert unbounded == []


def test_readme_cache_table_names_every_cache_with_its_bound():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {
        name: int(bound)
        for name, bound in re.findall(r"^\| `(\w+\.\w+)` \| (\d+) \|", readme, re.M)
    }
    listed = {
        f"{fn.__module__.removeprefix('mirpath.')}.{fn.__qualname__}":
            fn.cache_parameters()["maxsize"]
        for _name, fn in _module_caches()
    }
    assert table == listed


def test_clear_caches_reaches_a_cache_behind_a_wraps_wrapper(monkeypatch):
    # a profiler replaces a memoized kernel by a wrapper without cache_clear
    cached = algebra.prelie_graft

    @functools.wraps(cached)
    def traced(*args):
        return cached(*args)

    monkeypatch.setattr(algebra, "prelie_graft", traced)
    assert not hasattr(algebra.prelie_graft, "cache_clear")
    algebra.prelie_graft(single(1, 0, 1), single(1, 0, 1))
    assert algebra.prelie_graft.__wrapped__.cache_info().currsize > 0
    algebra.clear_caches()
    assert algebra.prelie_graft.__wrapped__.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# memoized kernels
# ---------------------------------------------------------------------------


@st.composite
def _kernel_calls(draw):
    """Calls of the memoized kernels on basis elements of degree ≤ 3, d ≤ 2."""
    d = draw(st.integers(1, 2))
    monomial = st.sampled_from(enumerate_populated(d, 3))
    forest = st.sampled_from(forest_basis(d, 3))
    a, b = draw(monomial), draw(monomial)
    u, v = draw(forest), draw(forest)
    ells = (ito_strat_character(d), *identity_characters(d)[1:])
    trunc = draw(st.sampled_from([None, 3]))
    return [
        (prelie_graft, (a, b)),
        (deshuffle, (u,)),
        (insert_prelie, (a, b)),
        (insert_simultaneous, (u, b)),
        (insert_simultaneous, (u, v)),
        (gl_product, (u, v)),
        (translate, (ells, a)),
        (translate, (ells, u)),
        (_translate_mi, (ells, a, trunc)),
    ]


@settings(max_examples=60, deadline=None)
@given(calls=_kernel_calls())
def test_memoized_kernels_match_a_recomputation_from_empty_caches(calls):
    for fn, args in calls:
        fn(*args)
    cached = [fn(*args) for fn, args in calls]
    algebra.clear_caches()
    for (fn, args), got in zip(calls, cached):
        assert fn(*args) == got, (fn.__name__, args)
        for key, c in got.items():
            assert type(c) in (int, Fraction) and c != 0, (fn.__name__, key, c)
