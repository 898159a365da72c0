"""Shared prebuilt leaves for small integer fields.

Tree-mode compiled parses take the ``Leaf`` of an unsigned fixed-width
integer field below 256 from a table built once at import
(``closures._int_leaves``) instead of allocating one.  These tests pin the
contract on every integer builtin, through the scalar path, a fused
fixed-shape prefix and bulk fixed-shape arrays (``bulk_fixed_shape`` on and
off):

* every engine of the differential matrix — AOT and streaming included —
  still equals the plain reference interpreter's tree;
* a leaf for a value below 256 is the *same object* across two parses;
* a leaf for a value of 256 or more, and any signed leaf, is fresh and
  carries the field's input bytes.
"""

from __future__ import annotations

import pytest

from engine_matrix import matrix_for
from repro import Parser
from repro.core.backends.closures import _FIXED_INTS, _int_leaves
from repro.core.parsetree import Leaf, Node

#: Record values per builtin width; each list holds 0, 1, 255, 256 (where
#: the width has room for it) and the type maximum.
VALUES = {
    1: [0, 1, 255, 7, 128, 254, 2],
    2: [0, 1, 255, 256, 0xFFFF, 0x1234, 2],
    4: [0, 1, 255, 256, 0xFFFFFFFF, 0x10000, 2],
    8: [0, 1, 255, 256, 2**64 - 1, 2**40, 2],
}
SIGNED_VALUES = [0, 1, 255, 256, 2**31 - 1, -1, -(2**31)]
COUNT = len(SIGNED_VALUES)

#: Every fixed-width integer builtin, in one record layout.
RECORD = ("U8", "Byte", "U16LE", "U16BE", "U32LE", "U32BE", "U64LE", "U64BE", "I32LE")


def _field(name: str, index: int) -> bytes:
    width, byteorder, signed = _FIXED_INTS[name]
    value = SIGNED_VALUES[index] if signed else VALUES[width][index]
    return value.to_bytes(width, byteorder, signed=signed)


#: Streamable: records chained by their ``end``.  Bulk on, each record's
#: little-endian prefix is a fused fixed shape and the byte-order switch
#: hands the rest to the scalar path; bulk off, every field is scalar.
STREAM_GRAMMAR = f"""
S -> N for i = 0 to N.val do T[i = 0 ? N.end : T(i - 1).end, EOI] ;
N -> U8 {{val = U8.val}} ;
T -> {' '.join(RECORD)} ;
"""


def stream_input() -> bytes:
    return bytes([COUNT]) + b"".join(
        _field(name, i) for i in range(COUNT) for name in RECORD
    )


#: Linear-stride arrays of fixed-shape records (one byte order each):
#: bulk-decoded with ``bulk_fixed_shape`` on, scalar with it off.
_LE = ("U8", "Byte", "U16LE", "U32LE", "U64LE", "I32LE")
_BE = ("U16BE", "U32BE", "U64BE")
_LE_SIZE = sum(_FIXED_INTS[name][0] for name in _LE)
_BE_SIZE = sum(_FIXED_INTS[name][0] for name in _BE)
BULK_GRAMMAR = f"""
S -> N[0, 1]
     for i = 0 to N.val do RL[1 + {_LE_SIZE} * i, 1 + {_LE_SIZE} * (i + 1)]
     for i = 0 to N.val do RB[1 + {_LE_SIZE} * N.val + {_BE_SIZE} * i,
                              1 + {_LE_SIZE} * N.val + {_BE_SIZE} * (i + 1)] ;
N -> U8 {{val = U8.val}} ;
RL -> {' '.join(_LE)} ;
RB -> {' '.join(_BE)} ;
"""


def bulk_input() -> bytes:
    return (
        bytes([COUNT])
        + b"".join(_field(name, i) for i in range(COUNT) for name in _LE)
        + b"".join(_field(name, i) for i in range(COUNT) for name in _BE)
    )


CASES = {"stream": (STREAM_GRAMMAR, stream_input), "bulk": (BULK_GRAMMAR, bulk_input)}

#: Matrix rows that build trees through the compiled emission (and so
#: through the shared tables).
COMPILED_ROWS = ("compiled", "compiled-nobulk", "compiled-unoptimized", "aot")


def _int_fields(tree):
    """``(builtin, val, leaf)`` for every integer-builtin node, in order."""
    return [
        (node.name, node.env["val"], node.children[0])
        for node in tree.walk()
        if isinstance(node, Node) and node.name in _FIXED_INTS
    ]


def _stream_tree(matrix, data: bytes, chunk: int = 5):
    chunks = [data[i : i + chunk] for i in range(0, len(data), chunk)]
    return matrix.compiled.parse_stream(chunks, force=True)


def _trees(matrix, row: str, data: bytes):
    if row == "streaming":
        return _stream_tree(matrix, data), _stream_tree(matrix, data)
    first, second = matrix.run(row, data), matrix.run(row, data)
    assert first[0] == second[0] == "tree", (row, first, second)
    return first[1], second[1]


def _tables(matrix, row: str):
    return matrix.aot._INT_LEAVES if row == "aot" else _int_leaves()


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_grammar_reaches_the_intended_paths(case):
    grammar, _ = CASES[case]
    matrix = matrix_for(grammar)
    if case == "bulk":
        assert matrix.compiled._compiled.bulk_arrays == {"RL", "RB"}
        assert not matrix.streamable
    else:
        assert matrix.streamable
        assert "T" in matrix.compiled._compiled.shaped_rules
    assert not matrix.nobulk.bulk_arrays and not matrix.nobulk.shaped_rules


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_engine_matches_the_plain_interpreter(case):
    grammar, build = CASES[case]
    matrix = matrix_for(grammar)
    data = build()
    reference = matrix.assert_agree(data)
    assert reference[0] == "tree"
    if not matrix.streamable:
        # Outside the matrix's streaming row: forced streaming runs the
        # stream variant's per-element bulk decoding.
        assert _stream_tree(matrix, data) == reference[1]
    # Every builtin saw every test value.
    seen = {(name, value) for name, value, _ in _int_fields(reference[1])}
    for name in set(RECORD) & {name for name, _ in seen}:
        width, _, signed = _FIXED_INTS[name]
        for value in SIGNED_VALUES if signed else VALUES[width]:
            assert (name, value) in seen


@pytest.mark.parametrize("row", COMPILED_ROWS + ("streaming",))
@pytest.mark.parametrize("case", sorted(CASES))
def test_small_unsigned_leaves_are_shared_across_parses(case, row):
    grammar, build = CASES[case]
    matrix = matrix_for(grammar)
    first, second = _trees(matrix, row, build())
    tables = _tables(matrix, row)
    shared = 0
    pairs = zip(_int_fields(first), _int_fields(second))
    for (name, value, leaf), (_, _, again) in pairs:
        if not _FIXED_INTS[name][2] and value < 256:
            assert leaf is again, (row, name, value)
            assert leaf is tables[name][value]
            shared += 1
    assert shared >= 3 * len(RECORD[:-1])


@pytest.mark.parametrize("row", COMPILED_ROWS + ("streaming",))
@pytest.mark.parametrize("case", sorted(CASES))
def test_large_and_signed_leaves_are_fresh_with_their_bytes(case, row):
    grammar, build = CASES[case]
    matrix = matrix_for(grammar)
    first, second = _trees(matrix, row, build())
    fresh = 0
    pairs = zip(_int_fields(first), _int_fields(second))
    for (name, value, leaf), (_, _, again) in pairs:
        width, byteorder, signed = _FIXED_INTS[name]
        assert type(leaf.value) is bytes
        assert leaf.value == value.to_bytes(width, byteorder, signed=signed)
        if signed or value >= 256:
            assert leaf is not again, (row, name, value)
            assert leaf == again
            fresh += 1
    assert fresh >= COUNT


@pytest.mark.parametrize("name", sorted(_FIXED_INTS))
def test_builtin_start_symbol_runner_shares_small_leaves(name):
    width, byteorder, signed = _FIXED_INTS[name]
    parser = Parser(STREAM_GRAMMAR)
    small = (7).to_bytes(width, byteorder, signed=signed)
    first = parser.parse(small, start=name).children[0]
    assert first.value == small
    assert (parser.parse(small, start=name).children[0] is first) is not signed
    if width > 1:
        large = (300).to_bytes(width, byteorder, signed=signed)
        leaf = parser.parse(large, start=name).children[0]
        assert leaf.value == large
        assert leaf is not parser.parse(large, start=name).children[0]


def test_memoryview_input_gets_bytes_leaves():
    parser = Parser(BULK_GRAMMAR)
    data = bulk_input()
    tree = parser.parse(memoryview(bytearray(data)))
    assert tree == parser.parse(data)
    assert all(type(leaf.value) is bytes for _, _, leaf in _int_fields(tree))


def test_tables_cover_exactly_the_unsigned_builtins():
    assert set(_int_leaves()) == {
        name for name, (_, _, signed) in _FIXED_INTS.items() if not signed
    }
    for name, table in _int_leaves().items():
        width, byteorder, _ = _FIXED_INTS[name]
        assert len(table) == 256
        assert all(type(leaf) is Leaf for leaf in table)
        assert [leaf.value for leaf in table] == [
            value.to_bytes(width, byteorder) for value in range(256)
        ]
