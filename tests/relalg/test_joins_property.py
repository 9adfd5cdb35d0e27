"""Property-based agreement tests for the three join algorithms.

The ``joins`` ablation (``python -m repro.experiments joins``) compares
seconds only, which is meaningful only if ``hash``, ``sort_merge`` and
``nested_loop`` compute the same function; hypothesis checks that over
random small relations (integer domains, so sort-merge's comparability
requirement holds).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.relalg.joins import hash_join, nested_loop_join, sort_merge_join
from repro.relalg.relation import Relation

# Small shared column pool so random relations actually share columns.
COLUMN_POOL = ["a", "b", "c", "d"]
VALUES = st.integers(min_value=0, max_value=3)


@st.composite
def relations(draw, min_arity: int = 1, max_arity: int = 3) -> Relation:
    arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
    columns = draw(
        st.permutations(COLUMN_POOL).map(lambda perm: tuple(perm[:arity]))
    )
    rows = draw(
        st.lists(
            st.tuples(*([VALUES] * arity)),
            min_size=0,
            max_size=8,
        )
    )
    return Relation(columns, rows)


@given(relations(), relations())
def test_all_join_algorithms_agree(left, right):
    reference = hash_join(left, right)
    assert sort_merge_join(left, right) == reference
    assert nested_loop_join(left, right) == reference


@given(relations(), relations())
def test_hash_join_matches_natural_join(left, right):
    assert hash_join(left, right) == left.natural_join(right)
    assert hash_join(left, right).columns == left.natural_join(right).columns


@given(relations())
def test_self_join_is_identity(relation):
    assert hash_join(relation, relation) == relation
    assert sort_merge_join(relation, relation) == relation
    assert nested_loop_join(relation, relation) == relation
